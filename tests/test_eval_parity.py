"""heun_eval against the plain per-term summation loops it replaced.

The reference below is the earlier `heun_eval`: an exact loop over reduced
Fractions and a fixed-precision loop that converts every lag value through
`as_mp` and takes every absolute value through `scalar_abs`.  The current
loops must return the same value (equal and of the same type), the same
term count and the same convergence flag, or raise the same error.  The
document goldens were recorded with the earlier code.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (HeunLabError, HeunParams, InputError, OutsideDomain,
                     absolute_profile_sum, boundary_radius, heun_eval,
                     heun_recurrence, parse_precision, series_limits)
from heunlab.cli import main
from heunlab.heun import _check_root
from heunlab.scalars import DEFAULT_PRECISION, as_mp, is_exact, scalar_abs, to_scalar

F = Fraction


def _reference_eval(params, x, root=0, tol=F(1, 10 ** 30), n_max=10 ** 5,
                    force=False, precision=DEFAULT_PRECISION):
    precision = parse_precision(precision)
    lam = _check_root(params, root)
    x = to_scalar(x, precision if precision != "exact" else DEFAULT_PRECISION)
    prec = DEFAULT_PRECISION if precision == "exact" else precision
    dsum = absolute_profile_sum(params, x, prec)
    if not dsum < 1 and not force:
        raise OutsideDomain("outside")
    lag1, lag2 = heun_recurrence(params, lam).lags
    exact_mode = precision == "exact"
    if exact_mode and not (is_exact(x) and params.is_exact() and is_exact(tol)):
        raise InputError("exact evaluation needs rational inputs")
    if exact_mode and not (is_exact(lam) and Fraction(lam).denominator == 1 and lam >= 0):
        raise InputError("exact evaluation needs a nonnegative integer exponent")
    with mp.workprec(prec):
        if exact_mode:
            xv = Fraction(x)
            total = Fraction(0)
            power = xv ** int(Fraction(lam))
            d_prev, d_curr = None, Fraction(1)
            tol_v = Fraction(tol)
        else:
            xv = as_mp(x, prec)
            total = mp.mpf(0)
            lam_v = as_mp(lam, prec)
            power = mp.power(xv, lam_v) if xv != 0 else (mp.mpf(1) if lam_v == 0 else mp.mpf(0))
            d_prev, d_curr = None, mp.mpf(1)
            tol_v = as_mp(tol, prec)
        small_run = n_used = 0
        converged = False
        for n in range(n_max):
            term = d_curr * power
            total = total + term
            n_used = n + 1
            scale = scalar_abs(total, prec)
            if scale < 1:
                scale = scale * 0 + 1
            if scalar_abs(term, prec) < tol_v * scale:
                small_run += 1
                if small_run >= 3:
                    converged = True
                    break
            else:
                small_run = 0
            if exact_mode:
                nxt = lag1(n) * d_curr + (lag2(n) * d_prev if n >= 1 else Fraction(0))
            else:
                nxt = as_mp(lag1(n), prec) * d_curr
                if n >= 1:
                    nxt = nxt + as_mp(lag2(n), prec) * d_prev
            d_prev, d_curr = d_curr, nxt
            power = power * xv
    return total, n_used, converged


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except HeunLabError as exc:
        return type(exc)
    if isinstance(result, tuple):
        value, n_used, converged = result
    else:
        value, n_used, converged = result.value, result.n_used, result.converged
    return type(value), value, n_used, converged


def assert_parity(params, x, **kwargs):
    new = _outcome(heun_eval, params, x, **kwargs)
    ref = _outcome(_reference_eval, params, x, **kwargs)
    assert new == ref, (params, x, kwargs)
    return new


def _r_star(params) -> float:
    return float(boundary_radius(series_limits(params), 64))


def _second_root(params):
    return 1 - params.gamma


# (scale of r*, tolerance); a looser tolerance further out keeps the
# reference loops short
POINTS = ((F(3, 10), F(1, 10 ** 30)), (F(-7, 10), F(1, 10 ** 12)))


@pytest.mark.parametrize("precision", ["exact", 256, 53])
def test_pool_parity(instance_pool, precision):
    for params in instance_pool:
        radius = _r_star(params)
        for root in (0, _second_root(params)):
            try:
                heun_recurrence(params, root)
            except HeunLabError:
                continue
            for scale, tol in POINTS:
                x = F(round(float(scale) * radius * 1000), 1000) or F(1, 1000)
                assert_parity(params, x, root=root, tol=tol, precision=precision)


def test_integer_second_exponent_parity():
    # gamma = -1 makes 1 - gamma = 2 a nonnegative integer exponent, so the
    # exact tier folds x^2 into the start of the sum
    params = HeunParams(2, F(1, 3), F(1, 2), F(-3, 4), -1, F(5, 6))
    for precision in ("exact", 256, 53):
        for x in (F(1, 7), F(-2, 9), F(0)):
            out = assert_parity(params, x, root=2, precision=precision)
            if x == 0:
                assert out[2] == 3 and out[1] == 0


def test_zero_point_parity(instance_pool):
    params = instance_pool[0]
    for precision in ("exact", 256, 53):
        out = assert_parity(params, F(0), precision=precision)
        # d_0 and then three zero terms
        assert out[1] == 1 and out[2] == 4 and out[3]
    # a fractional exponent at the origin gives 0 in the floating tiers
    p = HeunParams(2, 1, 1, 1, F(1, 2), 1)
    for precision in (256, 53):
        assert assert_parity(p, F(0), root=F(1, 2), precision=precision)[1] == 0


def test_complex_point_parity(instance_pool):
    for params in instance_pool[:4]:
        radius = _r_star(params)
        with mp.workprec(256):
            x = mp.mpc(0.3 * radius, -0.4 * radius)
        for precision in (256, 53):
            out = assert_parity(params, x, precision=precision)
            assert out[0] is mp.mpc
        # the exact tier refuses a complex point in both codes
        assert assert_parity(params, x, precision="exact") is InputError


def test_n_max_exhaustion_parity(a2_params):
    for precision in ("exact", 256, 53):
        out = assert_parity(a2_params, F(1, 2), n_max=17, precision=precision)
        assert out[2] == 17 and not out[3]
        assert assert_parity(a2_params, F(1, 2), n_max=1, precision=precision)[2] == 1


def test_force_outside_domain_parity(a2_params):
    assert assert_parity(a2_params, F(9, 10)) is OutsideDomain
    for precision in ("exact", 256, 53):
        out = assert_parity(a2_params, F(-7, 10), force=True, n_max=300,
                            precision=precision)
        assert out[2] <= 300
        # past the disk of convergence the terms grow until n_max
        out = assert_parity(a2_params, F(6, 5), force=True, n_max=60, precision=precision)
        assert out[2] == 60 and not out[3]


def test_wide_lag_values_at_53_bits():
    # parameters with wide numerators and denominators make the reduced lag
    # values p/q wider than 53 bits, so mpf(p) and mpf(q) both round
    params = HeunParams(F(7, 3), F(2 ** 61 + 5, 3 ** 37), F(2 ** 55 + 1, 2 ** 54 + 3),
                        F(-5, 11), F(3 ** 36 + 2, 5 ** 24), F(1, 2 ** 57 + 9))
    alpha1 = heun_recurrence(params).lags[0](3)
    assert min(abs(alpha1.numerator), alpha1.denominator).bit_length() > 53
    for precision in (53, 256, "exact"):
        for x in (F(1, 5), F(-3, 10)):
            assert_parity(params, x, precision=precision)
        assert_parity(params, F(1, 5), precision=precision, tol=0, n_max=40)


# sha256 of the stdout documents, recorded with the earlier per-term loops
GOLDEN_INSTANCES = {
    "a2": {"heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1",
                    "gamma": "1", "delta": "1", "lambda": "0"}},
    "neg": {"heun": {"a": "-5/2", "q": "-3/4", "alpha": "5/6", "beta": "-1/4",
                     "gamma": "3/8", "delta": "-5/4"}},
    "half": {"heun": {"a": "1/2", "q": "1/5", "alpha": "-1", "beta": "3/4",
                      "gamma": "1/2", "delta": "1", "lambda": "1/2"}},
    "int2": {"heun": {"a": "7/3", "q": "1/3", "alpha": "1/2", "beta": "-3/4",
                      "gamma": "-1", "delta": "5/6", "lambda": "2"}},
}

GOLDEN_DOCUMENTS = (
    ("a2", ["eval", "--x=1/10", "--precision", "exact"],
     "e512f735c17566066ff8776d32f9f6ad274773151f1821bf362041127bfae0c1"),
    ("a2", ["eval", "--x=-1/3", "--precision", "256"],
     "800adf22d1fb4aa15f83f7057e6aef10dabbb3445fcb0fc99a86f6ff5eda7af1"),
    ("a2", ["eval", "--x=1/4", "--precision", "53"],
     "c276aa468ce99c9f70073617489882958c4dabe0c7f4a0ac1b097450df7000bb"),
    ("a2", ["eval", "--x=0.2-0.3j", "--precision", "128"],
     "8465d592caedea9db206b2fcf4ec8cf05e62f0722c45e89b32eef6de9d289e48"),
    ("a2", ["eval", "--x=9/10", "--force", "--precision", "64"],
     "969657db7c9560dee2c98992c8a4a5f87681593257497fe9c18495d542d5749f"),
    ("a2", ["eval", "--x=1/2", "--n-max", "12", "--precision", "exact"],
     "97a84d365ce5d34bfa9fb14b9a320ae2f810842a35e48e75ec33544cfd2b56a8"),
    ("neg", ["eval", "--x=-1/5", "--precision", "exact"],
     "fc59975d727b156cc47ebc1f41766cce3e10bc5be003bdf0e3f77be265a07131"),
    ("neg", ["eval", "--x=3/10", "--precision", "256"],
     "ab7476de34672d6b4c229c0ea6d2e921933e4b40207f22b60c51e4471bd27ea2"),
    ("half", ["eval", "--x=1/9", "--precision", "256"],
     "f1a49686bd564169c85bd70e77071b4e77659f40de0e1af2ec70f0a177e63aef"),
    ("int2", ["eval", "--x=-1/6", "--precision", "exact"],
     "f1548ce2fb26c6b22d2f0acbd957e57f0f57ebbe06c0593bdbd8c62a7f2a8824"),
    ("int2", ["eval", "--x=1/5", "--precision", "53"],
     "6df904fc7583686986881b463596df2abab9927821d271372668619017f510c3"),
    ("a2", ["domain", "--x=-1/3"],
     "20471c9f403baf5488cf542ba4ca3952bf317af557a60deda3f4d88bec8b2174"),
    ("neg", ["domain", "--x=1/4", "--precision", "exact"],
     "4c197d1857c21e690a84dbd040506e81c53e878cf8efab4a28cb6f7deadeb643"),
    ("half", ["classify"],
     "d444379e726c657dd1bc4f6deb05a6bf94e083c719aed45af7879d7816b124bd"),
    ("neg", ["classify", "--precision", "64"],
     "cbafbc73bebfbc5a9d015c280938904d1fc8a5ad866d1bf9dd64111b3115a2d7"),
)


def _document(tmp_path, capsys, name, argv):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(GOLDEN_INSTANCES[name]))
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out.encode("utf-8")


@pytest.mark.parametrize("name, argv, digest", GOLDEN_DOCUMENTS,
                         ids=[f"{n}-{' '.join(a)}" for n, a, _ in GOLDEN_DOCUMENTS])
def test_documents_golden_bytes(tmp_path, capsys, name, argv, digest):
    assert hashlib.sha256(_document(tmp_path, capsys, name, argv)).hexdigest() == digest
