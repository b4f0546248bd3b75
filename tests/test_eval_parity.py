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
    if exact_mode and not (is_exact(x) and is_exact(tol)):
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
    # values p/q wider than 53 bits, where rounding p and q before dividing
    # would round twice; both loops round each lag value once, correctly
    params = HeunParams(F(7, 3), F(2 ** 61 + 5, 3 ** 37), F(2 ** 55 + 1, 2 ** 54 + 3),
                        F(-5, 11), F(3 ** 36 + 2, 5 ** 24), F(1, 2 ** 57 + 9))
    alpha1 = heun_recurrence(params).lags[0](3)
    assert min(abs(alpha1.numerator), alpha1.denominator).bit_length() > 53
    for precision in (53, 256, "exact"):
        for x in (F(1, 5), F(-3, 10)):
            assert_parity(params, x, precision=precision)
        assert_parity(params, F(1, 5), precision=precision, tol=0, n_max=40)


# sha256 of the stdout documents, recorded with the earlier per-term loops and
# re-recorded at 0.2.0, at 0.2.1 (rational lag values rounded once,
# correctly), at 0.2.2 (integer path tables) and at 0.3.0 (exact audit
# decisions), where only the version field changed
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


def _monic_lags(*subs):
    """A recurrence block of lags (n^2 + o n + 1) / (n^2 + w n + 1), one per (o, w)."""
    return {"recurrence": {"lags": [{"num": ["1", str(o), "1"], "den": ["1", str(w), "1"]}
                                    for o, w in subs]}}


# the sub-leading pairs of test_proofs.test_classify_synthetic_cases: CASE2,
# CASE3 and CASE4 tell lag 1 from lag 2 in the classify document
GOLDEN_INSTANCES.update(case2=_monic_lags((5, 2), (4, 3)),
                        case3=_monic_lags((5, 2), (1, 3)),
                        case4=_monic_lags((1, 2), (4, 3)))

GOLDEN_DOCUMENTS = (
    ("a2", ["eval", "--x=1/10", "--precision", "exact"],
     "b1bbb5900369184cf917aba8485feccc81f0e096584bf0f2eee9d0e26ee19ac0"),
    ("a2", ["eval", "--x=-1/3", "--precision", "256"],
     "68f00b60d15639ce846d1187a2aa9fe3948d15f18f2a45b8949c457db49c109d"),
    ("a2", ["eval", "--x=1/4", "--precision", "53"],
     "ca13b9c5f22d98254b7022bfa615527f69403ae11f4664496c6c5b4dafa3c273"),
    ("a2", ["eval", "--x=0.2-0.3j", "--precision", "128"],
     "e58b7cf1de2d5839842edfce96d4a9b8ba4fa8f6385bb6c53c3d3a9496147370"),
    ("a2", ["eval", "--x=9/10", "--force", "--precision", "64"],
     "21a0e46fd532f792b0b7e8a33f0616355aa64093a43d9ee47f89e5719fe34808"),
    ("a2", ["eval", "--x=1/2", "--n-max", "12", "--precision", "exact"],
     "8bb986dbafa4c7c648aa05c443aa5083066cca42b9661df3b3fcf1a6ff963a17"),
    ("neg", ["eval", "--x=-1/5", "--precision", "exact"],
     "cba290e1c4213cd55209afdb910deb38bf58c3bf264446fc6de846e3e03c9c36"),
    ("neg", ["eval", "--x=3/10", "--precision", "256"],
     "3dabb5d0041498b1c72a8ea78c455d1a1b699728aa8f8e2460d1a876b823e27e"),
    ("half", ["eval", "--x=1/9", "--precision", "256"],
     "39b54b5dd2d0f2be799c73082ad292cd17d37dd339e98d9a643cafce62ef6841"),
    ("int2", ["eval", "--x=-1/6", "--precision", "exact"],
     "a6eb5e93bca1351dfc6335d6d8cb3a62c4ebeac95586e594c67f26a90b863972"),
    ("int2", ["eval", "--x=1/5", "--precision", "53"],
     "a5c6ecb90077bdf212564fdb8f7dec8452e69c253b250c613d136d787eb32a42"),
    ("a2", ["domain", "--x=-1/3"],
     "9904f5016539d74557a8c2ecd240d5e9f3d38a8c5a31ff5f2e827bbedd74f198"),
    ("neg", ["domain", "--x=1/4", "--precision", "exact"],
     "725f48fc10b60f5f256c16c25c626666b4b881d7e71f0a52395bfcb265834766"),
    ("half", ["classify"],
     "4316b2e9d571f154cc4016168c3d1dc0a07175481e10b486a0d10ea3aae3a3b9"),
    ("neg", ["classify", "--precision", "64"],
     "f4a0a6a5677620f57fecd5105da33e7b73857108b9611b5edca8614e291b34ff"),
    ("case2", ["classify"],
     "4cc2d5b8158f8b70f95217743b241a56b889f77696510ab48fc383295cc3663a"),
    ("case3", ["classify", "--precision", "exact"],
     "1d5ef11b163b169b0dcd8f830f3ecd253a0ecf2944b618ffda93ed2152cd15ae"),
    ("case4", ["classify", "--precision", "64"],
     "d774eda2b5b6a26f08b64639f42af02b98cd5138efe2abbaeaf63a68b4c41530"),
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
