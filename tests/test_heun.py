"""Heun parameter handling, the coefficient recurrence, and evaluation."""

import hashlib
from fractions import Fraction

import pytest
from conftest import admissible_roots, sample_pool
from mpmath import mp

from heunlab import (HeunParams, IndicialPole, InputError, InvalidParams,
                     OutsideDomain, RationalFnInN, absolute_profile_sum,
                     heun_eval, heun_recurrence, indicial_roots,
                     nonneg_integer_roots, ode_residual, poly_from,
                     series_limits, stream_coefficients)

F = Fraction


def test_params_coerce_to_exact():
    p = HeunParams("2", 1, 0.5, F(1, 3), 1, 1)
    assert p.a == F(2) and p.alpha == F(1, 2)
    assert all(type(getattr(p, n)) is F for n in ("a", "q", "alpha", "beta", "gamma", "delta"))


def test_params_reject_removed_singularities():
    for a in (0, 1, F(1)):
        with pytest.raises(InvalidParams):
            HeunParams(a, 1, 1, 1, 1, 1)


def test_epsilon_accessory(a2_params):
    assert a2_params.epsilon == 1
    p = HeunParams(2, 0, F(3, 2), F(1, 4), F(1, 2), F(1, 3))
    assert p.epsilon == F(3, 2) + F(1, 4) - F(1, 2) - F(1, 3) + 1


def test_indicial_roots():
    assert indicial_roots(HeunParams(2, 1, 1, 1, 1, 1)) == (0, 0)
    assert indicial_roots(HeunParams(2, 1, 1, 1, F(1, 2), 1)) == (0, F(1, 2))
    assert indicial_roots(HeunParams(2, 1, 1, 1, 3, 1)) == (0, -2)


def test_recurrence_rejects_bad_root(a2_params):
    with pytest.raises(InvalidParams):
        heun_recurrence(a2_params, root=5)


def test_mixed_rational_and_mpmath_params_are_refused():
    # one mpmath value among rationals is refused, whichever field it is
    fields = ("a", "q", "alpha", "beta", "gamma", "delta")
    for i, name in enumerate(fields):
        values = [2, 1, 1, 1, 1, 1]
        values[i] = mp.mpf(3)
        with pytest.raises(InputError, match=f"^{name} must be rational"):
            HeunParams(*values)


@pytest.mark.parametrize("build", [
    lambda: HeunParams(mp.mpf(2), 1, 1, 1, 1, 1),
    lambda: HeunParams(2, mp.mpc(1, 1), 1, 1, 1, 1),
    lambda: HeunParams(2, 1, 1, 1 + 0.5j, 1, 1),
    lambda: heun_recurrence(HeunParams(2, 1, 1, 1, 1, 1), root=mp.mpf(0)),
    lambda: RationalFnInN(poly_from(1, mp.mpf(1)), poly_from(1, 1)),
    lambda: RationalFnInN(poly_from(1, 1), poly_from(1.0, 1)),
    lambda: nonneg_integer_roots(poly_from(mp.mpf(-2), mp.mpf(1))),
], ids=["mpf-param", "mpc-param", "complex-param", "mpf-root", "mpf-numerator",
        "float-denominator", "mpf-roots"])
def test_recurrence_coefficients_must_be_rational(build):
    with pytest.raises(InputError):
        build()


def test_negative_integer_root_hits_a_pole():
    # gamma = 3 puts the second exponent at -2; the shared denominator
    # (n+1+lam)(n+gamma+lam) then vanishes at a reachable index
    p = HeunParams(2, 1, 1, 1, 3, 1)
    with pytest.raises(IndicialPole):
        heun_recurrence(p, root=-2)


def test_first_coefficients(a2_params):
    stream = stream_coefficients(heun_recurrence(a2_params), 4)
    assert stream[1] == F(1, 2)
    assert stream[2] == F(5, 16)
    zero_q = HeunParams(2, 0, 1, 1, 1, 1)
    assert stream_coefficients(heun_recurrence(zero_q), 2)[1] == 0


def test_lag_values_at_one(a2_params):
    lag1, lag2 = heun_recurrence(a2_params).lags
    assert lag1(1) == F(7, 8)
    assert lag2(1) == F(-1, 8)


def test_series_limits(a2_params):
    assert series_limits(a2_params) == (F(3, 2), F(-1, 2))
    assert series_limits(HeunParams(F(-1, 2), 1, 1, 1, 1, 1)) == (F(-1), F(2))


def test_limits_match_lag_leading_ratios(instance_pool):
    for params in instance_pool[:8]:
        lag1, lag2 = heun_recurrence(params).lags
        A, B = series_limits(params)
        assert lag1.leading_ratio() == A
        assert lag2.leading_ratio() == B


def test_ode_residuals_vanish(a2_params):
    stream = stream_coefficients(heun_recurrence(a2_params), 52)
    res = ode_residual(a2_params, 0, stream, order=50)
    assert len(res) == 52  # j = -1 .. 50
    assert all(r == 0 for r in res)


def test_ode_residual_detects_corruption(a2_params):
    stream = stream_coefficients(heun_recurrence(a2_params), 12)
    broken = type(stream)(stream.values[:5] + (stream.values[5] + 1,) + stream.values[6:],
                          "exact")
    res = ode_residual(a2_params, 0, broken)
    assert any(r != 0 for r in res)


def test_ode_residual_order_cap(a2_params):
    stream = stream_coefficients(heun_recurrence(a2_params), 10)
    with pytest.raises(InputError):
        ode_residual(a2_params, 0, stream, order=9)
    assert ode_residual(a2_params, 0, stream, order=8)[-1] == 0


def test_ode_residuals_vanish_at_second_exponent():
    p = HeunParams(2, 1, 1, 1, F(1, 2), 1)
    root = F(1, 2)
    stream = stream_coefficients(heun_recurrence(p, root), 30)
    assert all(r == 0 for r in ode_residual(p, root, stream))


# sha256 over the residuals' _mpf_ tuples for sample_pool(12, seed=2501) at
# each admissible root, 30 terms; recorded from the term-by-term loop (one
# closure per derivative order) that the one loop over P2, P1, P0 replaced
RESIDUAL_PINS = {
    53: "0aa4bae101fccc5a4d40233e83b1ec83f64627fc0b1845a579e93aa59636b9f6",
    128: "8944021f6fdfc98f2c38f1141e970b591114b9fc415bb283ec384e2d38fa8b87",
}


@pytest.mark.parametrize("prec", sorted(RESIDUAL_PINS))
def test_ode_residual_bits_are_pinned(prec):
    digest = hashlib.sha256()
    for params in sample_pool(12, seed=2501):
        for root in admissible_roots(params):
            stream = stream_coefficients(heun_recurrence(params, root), 30, prec)
            digest.update(repr([r._mpf_ for r in ode_residual(params, root, stream)]).encode())
    assert digest.hexdigest() == RESIDUAL_PINS[prec]


def test_absolute_profile_sum(a2_params):
    assert absolute_profile_sum(a2_params, F(1, 2)) == F(7, 8)
    assert absolute_profile_sum(a2_params, F(-1, 2)) == F(7, 8)
    with mp.workprec(128):
        v = absolute_profile_sum(a2_params, mp.mpf("0.5"), prec=128)
        assert abs(v - mp.mpf(7) / 8) < mp.mpf("1e-30")


def test_eval_at_origin_is_one(a2_params):
    res = heun_eval(a2_params, 0, precision="exact")
    assert res.value == 1
    assert res.converged and res.inside


def test_eval_exact_anchor(a2_params):
    res = heun_eval(a2_params, F(1, 10), precision="exact")
    assert res.converged and res.inside
    assert res.n_used == 32
    assert abs(float(res.value) - 1.0533616862337971) < 1e-12
    assert res.domain_sum == F(3, 2) * F(1, 10) + F(1, 2) * F(1, 100)


def test_eval_exact_and_floating_agree(a2_params):
    exact = heun_eval(a2_params, F(1, 10), precision="exact")
    approx = heun_eval(a2_params, F(1, 10), precision=256)
    with mp.workprec(256):
        e = mp.mpf(exact.value.numerator) / exact.value.denominator
        assert abs(approx.value - e) < mp.mpf("1e-60")


def test_eval_builds_the_system_before_judging_the_point():
    # the point is judged on the system's limits, so a root on a pole fails first
    p = HeunParams(2, 1, 1, 1, 3, 1)
    with pytest.raises(IndicialPole):
        heun_eval(p, F(9, 10), root=-2)


def test_eval_refuses_outside_domain(a2_params):
    with pytest.raises(OutsideDomain) as err:
        heun_eval(a2_params, F(9, 10))
    assert "membership sum" in str(err.value)
    assert "force" in str(err.value)


def test_eval_force_overrides_refusal(a2_params):
    # 0.9 sits outside the guaranteed domain yet inside the actual disk of
    # convergence (nearest singularity at 1), so forcing still settles
    res = heun_eval(a2_params, F(9, 10), force=True, precision=128)
    assert not res.inside
    assert res.converged
    assert abs(float(res.value) - 2.3527158167797426) < 1e-10


def test_eval_force_past_the_disk_does_not_settle(a2_params):
    res = heun_eval(a2_params, F(6, 5), force=True, precision=64, n_max=1500)
    assert not res.inside
    assert not res.converged
    assert res.n_used == 1500


def test_eval_exact_mode_constraints(a2_params):
    with pytest.raises(InputError):
        heun_eval(a2_params, mp.mpf("0.1"), precision="exact")
    p = HeunParams(2, 1, 1, 1, F(1, 2), 1)
    with pytest.raises(InputError):
        heun_eval(p, F(1, 10), root=F(1, 2), precision="exact")


def test_eval_fractional_exponent_floating():
    p = HeunParams(2, 1, 1, 1, F(1, 2), 1)
    res = heun_eval(p, F(1, 4), root=F(1, 2), precision=128)
    assert res.converged and res.inside
    with mp.workprec(128):
        assert mp.isfinite(res.value)
        # leading behavior x^(1/2): the value sits near sqrt(1/4) = 1/2
        assert 0.4 < float(res.value) < 0.8
