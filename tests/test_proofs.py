"""Case classification, certified constants, and the explicit minorant."""

import dataclasses
import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from conftest import admissible_roots
from mpmath import mp

import heunlab.proofs as proofs
from heunlab import (CASE1, CASE2, CASE3, CASE4, DegreeMismatch, DomainError,
                     H_LABELS, HeunParams, Hyp2F1Params, InputError, InvalidParams,
                     NotFoundWithin, RationalFnInN, RecurrenceSystem,
                     boundary_radius, classify_case, eta_z, find_proof_constants,
                     heun_recurrence, hyp2f1_series, limit_profile, minorant_partial,
                     poly_from, series_limits, verify_proof_constants,
                     z_power_tail)
from heunlab.instances import render_value
from heunlab.polynomials import PolynomialInN
from heunlab.proofs import _monic
from heunlab.scalars import DEFAULT_PRECISION, as_mp

F = Fraction


def _lag(num_sub, den_sub):
    """Monic-quadratic ratio with prescribed sub-leading coefficients."""
    return RationalFnInN(poly_from(F(1), F(num_sub), F(1)),
                         poly_from(F(1), F(den_sub), F(1)))


def _system(l1_subs, l2_subs):
    return RecurrenceSystem((_lag(*l1_subs), _lag(*l2_subs)))


def test_classify_heun_anchor(a2_params):
    rep = classify_case(limit_profile(heun_recurrence(a2_params)))
    assert rep.case == CASE1
    assert rep.strictly_less == (True, True)
    assert rep.subleading == ((1, 2), (0, 2))


@pytest.mark.parametrize("l1,l2,case", [
    ((1, 2), (1, 3), CASE1),
    ((5, 2), (4, 3), CASE2),
    ((5, 2), (1, 3), CASE3),
    ((1, 2), (4, 3), CASE4),
])
def test_classify_synthetic_cases(l1, l2, case):
    rep = classify_case(limit_profile(_system(l1, l2)))
    assert rep.case == case
    assert H_LABELS[case] == H_LABELS[rep.case]


def test_case_report_keeps_the_profile_subleading():
    profile = limit_profile(_system((5, 2), (1, 3)))
    rep = classify_case(profile)
    assert rep.subleading is profile.subleading
    assert rep.subleading == ((5, 2), (1, 3)) and rep.strictly_less == (False, True)


def test_classify_equal_subleading_counts_as_not_less():
    rep = classify_case(limit_profile(_system((2, 2), (4, 3))))
    assert not rep.strictly_less[0]
    assert rep.case == CASE2


def test_h_labels_table():
    assert H_LABELS[CASE1] == ("h1", "h2")
    assert H_LABELS[CASE2] == ("h3", "h4")
    assert H_LABELS[CASE3] == ("h3", "h2")
    assert H_LABELS[CASE4] == ("h1", "h4")


def test_classify_rejects_degenerate_systems():
    with pytest.raises(InvalidParams):
        classify_case(limit_profile(RecurrenceSystem((_lag(1, 2),))))
    # a = -1 kills the lag-1 leading coefficient: degree drop
    p = HeunParams(-1, 1, 1, 1, 1, 1)
    with pytest.raises(DegreeMismatch):
        classify_case(limit_profile(heun_recurrence(p)))


def test_find_constants_heun_anchor(a2_params):
    pc = find_proof_constants(heun_recurrence(a2_params))
    assert pc.case == CASE1
    assert (pc.h_lag1, pc.h_lag2) == (2, 3)
    assert H_LABELS[pc.case] == ("h1", "h2")
    assert pc.N == 301 and pc.N_eps == 301
    assert pc.sweep_lag1.last_violation == 0 and pc.sweep_lag2.last_violation == 0
    assert pc.verified
    assert pc.cert_lag1.leading > 0 and pc.cert_lag2.leading > 0
    assert pc.cert_lag1.valid_from <= pc.N_check


def test_find_constants_eps_scaling(a2_params):
    pc = find_proof_constants(heun_recurrence(a2_params), eps=F(1, 10))
    assert pc.N == 31  # floor(h_max / eps) + 1 with h_max = 3
    with pytest.raises(InvalidParams):
        find_proof_constants(heun_recurrence(a2_params), eps=F(0))
    with pytest.raises(InvalidParams):
        find_proof_constants(heun_recurrence(a2_params), eps=1)


def test_find_constants_needs_room(a2_params):
    with pytest.raises(NotFoundWithin):
        find_proof_constants(heun_recurrence(a2_params), N_check=100)


def test_verify_constants_roundtrip(a2_params):
    system = heun_recurrence(a2_params)
    pc = find_proof_constants(system)
    ver = verify_proof_constants(system, pc)
    assert ver.ok
    assert ver.violations == 0
    assert ver.min_margin_lag1 > 0 and ver.min_margin_lag2 > 0
    assert ver.eps_floor_ok and ver.ratio_bound_precondition_ok and ver.tail_certified


def test_verify_constants_catches_understated_h(a2_params):
    # |B_n| -> 1/2 can never dominate 1 - 1/n, so h = 1 must be flagged
    system = heun_recurrence(a2_params)
    pc = find_proof_constants(system)
    doctored = dataclasses.replace(pc, h_lag2=1)
    ver = verify_proof_constants(system, doctored, n_lo=2, n_hi=2000)
    assert not ver.ok
    assert ver.violations >= 1
    with pytest.raises(InvalidParams):
        verify_proof_constants(system, pc, n_lo=10, n_hi=5)


def test_constants_across_pool(instance_pool):
    for params in instance_pool[:6]:
        system = heun_recurrence(params)
        pc = find_proof_constants(system)
        assert pc.verified
        assert verify_proof_constants(system, pc).ok


def test_constants_need_exact_input(a2_params):
    system = heun_recurrence(a2_params)
    with pytest.raises(InputError):
        find_proof_constants(system, eps=0.01)
    pc = find_proof_constants(system)
    with pytest.raises(InputError):
        verify_proof_constants(system, dataclasses.replace(pc, eps=0.01))
    with pytest.raises(InputError):
        RecurrenceSystem((RationalFnInN(poly_from(1, mp.mpf(1), 1), poly_from(1, 2, 1)),
                          _lag(0, 2)))


def test_constants_decide_at_most_the_certificate_range(a2_params):
    system = heun_recurrence(a2_params)
    pc = find_proof_constants(system)
    assert pc.sweep_lag1.rechecked == pc.cert_lag1.valid_from - 1
    assert pc.sweep_lag2.rechecked == pc.cert_lag2.valid_from - 1
    # the reverification window [N, N_check] starts past both certificates,
    # so only n = N itself is decided
    ver = verify_proof_constants(system, pc)
    assert (ver.checked_lo, ver.checked_hi) == (pc.N, pc.N_check)
    assert ver.min_margin_lag2 == float(_reference_margin(_monic(system.lags[1].num),
                                                          _monic(system.lags[1].den),
                                                          pc.h_lag2, pc.N))


def test_monic_lag_polynomials_stay_rational():
    # the shared denominator's leading coefficient is the int 1, which true
    # division would turn into the float 1.0
    system = heun_recurrence(HeunParams(2, 1, 1, 1, F(1, 3), 1))
    for fn in system.lags:
        for poly in (_monic(fn.num), _monic(fn.den)):
            assert all(type(c) is Fraction for c in poly.coeffs)
            assert poly.leading == 1
    pc = find_proof_constants(system)
    for cert in (pc.cert_lag1, pc.cert_lag2):
        assert type(cert.leading) is Fraction
    # 0.1.0 carried the float 0.22222222222222232 here
    assert (pc.cert_lag1.leading, pc.cert_lag2.leading) == (F(2, 9), F(2, 3))


def _reference_margin(num_m, den, h, n):
    return abs(F(num_m(n)) / F(den(n))) - 1 + F(h, n)


def _reference_monic(poly):
    """The 0.1.0 normalisation: true division by the leading coefficient."""
    lead = poly.leading
    return poly_from(*(c / lead for c in poly.coeffs))


def _reference_sweep(num_m, den, h, n_hi):
    """The 0.1.0 float64 margin sweep over [1, n_hi], re-deciding margins
    below 1e-6 exactly; returns the last violation."""
    fn_num, fn_den = (poly_from(*(float(c) for c in p.coeffs)) for p in (num_m, den))
    n = np.arange(1, n_hi + 1, dtype=np.float64)
    margins = np.abs(fn_num(n)) / np.abs(fn_den(n)) - (1.0 - h / n)
    last = 0
    for idx in np.nonzero(margins < 1e-6)[0]:
        nv = int(idx) + 1
        a, b = F(num_m(nv)), F(den(nv))
        if not (abs(a.numerator) * b.denominator * nv
                > (nv - h) * abs(b.numerator) * a.denominator):
            last = nv
    return last


def _reference_constants(system, eps=F(1, 100), n_check=10 ** 5):
    report = classify_case(limit_profile(system))
    hs = tuple(max(math.floor(den_sub - num_sub) + 1, 1) if less else 1
               for (num_sub, den_sub), less in zip(report.subleading, report.strictly_less))
    lasts = tuple(_reference_sweep(_reference_monic(fn.num), _reference_monic(fn.den), h, n_check)
                  for fn, h in zip(system.lags, hs))
    N = max(lasts[0] + 1, lasts[1] + 1, math.floor(F(max(hs)) / eps) + 1, 2)
    return hs, N, lasts


@pytest.fixture(scope="module")
def parity_systems(instance_pool):
    pool = list(instance_pool) + [HeunParams(2, 1, 1, 1, F(1, 3), 1)]
    return [heun_recurrence(p, root) for p in pool for root in admissible_roots(p)]


def test_exact_constants_match_float_sweep(parity_systems):
    for system in parity_systems:
        pc = find_proof_constants(system)
        hs, N, lasts = _reference_constants(system)
        assert (pc.h_lag1, pc.h_lag2) == hs
        assert pc.N == N
        assert (pc.sweep_lag1.last_violation, pc.sweep_lag2.last_violation) == lasts
        assert verify_proof_constants(system, pc).ok


def test_constants_sweep_on_the_integer_lag_evaluator(a2_params, monkeypatch):
    # the sweeps read cleared_steps' integers: no lag polynomial is called
    system = heun_recurrence(a2_params)
    calls = []
    horner = PolynomialInN.__call__

    def counted(self, n):
        calls.append(n)
        return horner(self, n)

    monkeypatch.setattr(PolynomialInN, "__call__", counted)
    pc = find_proof_constants(system)
    assert verify_proof_constants(system, pc).ok
    assert calls == []


# lag 1 has Fraction coefficients and a leading ratio 1/2; lag 2 has its own
# denominator, with a pole at n = 0, so G is a product, and a numerator of
# lower degree, so its limit is 0 while its leading ratio is 6
_TWO_DENOMINATORS = RecurrenceSystem((
    RationalFnInN(poly_from(F(3, 2), -7, 1), poly_from(F(1, 3), 1, 2)),
    RationalFnInN(poly_from(-1, 6), poly_from(0, 4, 1)),
))


@pytest.mark.parametrize("h", [1, 3, 8])
@pytest.mark.parametrize("i", [1, 2])
def test_decide_matches_the_fraction_reference(i, h):
    fn, n_hi = _TWO_DENOMINATORS.lags[i - 1], 150
    num_m, den = _monic(fn.num), _monic(fn.den)
    sweep = proofs._decide(_TWO_DENOMINATORS, i, h, 1, n_hi)
    assert sweep.last_violation == _reference_sweep(num_m, den, h, n_hi)
    assert sweep.min_margin == float(min(_reference_margin(num_m, den, h, n)
                                         for n in range(1, n_hi + 1)))
    assert sweep.rechecked == n_hi
    window = proofs._decide(_TWO_DENOMINATORS, i, h, 40, 90)
    assert window.min_margin == float(min(_reference_margin(num_m, den, h, n)
                                          for n in range(40, 91)))


def test_verify_window_on_a_lag_with_a_lower_degree_numerator(a2_params):
    # lag 2 has no certificate (its monic ratio tends to 0), so the whole
    # window is decided, on the leading ratio 6 and not on the limit 0
    assert _TWO_DENOMINATORS.limits[1] == 0
    pc = find_proof_constants(heun_recurrence(a2_params))
    ver = verify_proof_constants(_TWO_DENOMINATORS, pc, n_lo=5, n_hi=70)
    num_m, den = _monic(_TWO_DENOMINATORS.lags[1].num), _monic(_TWO_DENOMINATORS.lags[1].den)
    margins = [_reference_margin(num_m, den, pc.h_lag2, n) for n in range(5, 71)]
    assert ver.min_margin_lag2 == float(min(margins))
    assert not ver.tail_certified and ver.violations >= 1 and not ver.ok


def test_verify_constants_refuses_other_lag_counts(a2_params):
    pc = find_proof_constants(heun_recurrence(a2_params))
    lag = _lag(1, 2)
    for lags in ((lag,), (lag, lag, lag)):
        with pytest.raises(InvalidParams):
            verify_proof_constants(RecurrenceSystem(lags), pc)


def test_exact_decision_sees_violations_below_the_certificate():
    # (n - 10)(n + 20) / (n^2 + n + 1) vanishes at n = 10, where 1 - h/n > 0,
    # and the certificate starts past the last violation
    system = RecurrenceSystem((RationalFnInN(poly_from(-200, 10, 1), poly_from(1, 1, 1)),
                               RationalFnInN(poly_from(1, 0, 1), poly_from(1, 0, 1))))
    # int coefficients: the sub-leading ratios that set h are still exact
    assert limit_profile(system).subleading[0] == (F(10), F(1))
    assert all(type(v) is Fraction for v in limit_profile(system).subleading[0])
    pc = find_proof_constants(system)
    hs, N, lasts = _reference_constants(system)
    assert (pc.h_lag1, pc.h_lag2) == hs
    assert (pc.sweep_lag1.last_violation, pc.sweep_lag2.last_violation) == lasts
    assert pc.sweep_lag1.last_violation >= 10 and pc.N == N
    assert pc.sweep_lag1.last_violation < pc.cert_lag1.valid_from


def test_z_power_tail_anchor(a2_params):
    limits = series_limits(a2_params)
    _, z = eta_z(limits, boundary_radius(limits))
    total, rem = z_power_tail(z, 3, 2, 4096)
    assert float(total) == pytest.approx(0.009630876145708207, rel=1e-12)
    assert total < mp.mpf("0.06")
    assert rem < mp.mpf("1e-1000")


def test_z_power_tail_guards():
    with pytest.raises(InvalidParams):
        z_power_tail(F(1, 10), 3, 0, 10)
    with pytest.raises(InvalidParams):
        z_power_tail(F(1, 10), 3, 5, 4)
    with pytest.raises(DomainError):
        z_power_tail(F(3, 2), 3, 1, 10)
    with pytest.raises(InvalidParams):
        z_power_tail(F(1, 10), -1, 1, 10)
    with pytest.raises(InvalidParams):
        z_power_tail(F(1, 10), F(3, 2), 1, 10)


# z from small (early stop after ~85 terms) to 1 - 2^-10 (no stop before k ~ 2^17)
PARITY_Z = (F(1, 8), F(1, 2), F(9, 10), 1 - F(1, 1024))


@lru_cache(maxsize=None)
def _z_powers(z, prec):
    with mp.workprec(prec):
        zv = as_mp(z, prec)
        return tuple(zv ** k for k in range(1, 4097))


@lru_cache(maxsize=None)
def _k_powers(h2, prec):
    with mp.workprec(prec):
        return tuple(mp.mpf(k) ** (mp.mpf(h2) / 2) for k in range(1, 4097))


@lru_cache(maxsize=None)
def _reference_terms(z, h2, prec=DEFAULT_PRECISION):
    """Terms k = 1..4096 as the plain per-term loop computed them,
    z ** k / mp.mpf(k) ** (mp.mpf(h2) / 2), with both operands cached."""
    with mp.workprec(prec):
        return tuple(zk / kh for zk, kh in zip(_z_powers(z, prec), _k_powers(h2, prec)))


def _reference_tails(z, h2, m, prec=DEFAULT_PRECISION):
    """{k_max: (total, last k whose term moved it)} for k_max in (m, 50, 4096),
    summed term by term as the full loop summed them."""
    terms = _reference_terms(z, h2, prec)
    out = {}
    with mp.workprec(prec):
        total = mp.mpf(0)
        last_moved = None
        for k in range(m, 4097):
            new = total + terms[k - 1]
            if new != total:
                last_moved = k
            total = new
            if k in (m, 50, 4096):
                out[k] = (total, last_moved)
    return out


@pytest.mark.parametrize("z", PARITY_Z, ids=str)
@pytest.mark.parametrize("h2", (1, 2, 3, 4, 5))
def test_z_power_tail_matches_per_term_loop(z, h2):
    prec = DEFAULT_PRECISION
    for m in (1, 2):
        for k_max, (ref, _) in _reference_tails(z, h2, m).items():
            total, rem = z_power_tail(z, h2, m, k_max)
            case = (m, k_max)
            assert render_value(total, prec) == render_value(ref, prec), case
            with mp.workprec(prec):
                assert mp.fabs(total - ref) <= mp.mpf(2) ** (4 - prec) * ref, case
                zv = as_mp(z, prec)
                ref_rem = zv ** (k_max + 1) / ((1 - zv) * mp.mpf(k_max + 1) ** (mp.mpf(h2) / 2))
            assert rem == ref_rem, case


def _mpf_object_tail(z, h2, m, k_max, prec=DEFAULT_PRECISION):
    """z_power_tail's sum by the same steps on mpf objects at working precision."""
    with mp.workprec(prec):
        zv = as_mp(z, prec)
        half, odd = divmod(h2, 2)
        with mp.workprec(prec + 32):
            zk = zv ** m
        total = mp.mpf(0)
        for k in range(m, k_max + 1):
            den = k ** half * mp.sqrt(k) if odd else k ** half
            new = total + (+zk) / den
            if new == total:
                break
            total = new
            zk = mp.fmul(zk, zv, prec=prec + 32)
        return total


@pytest.mark.parametrize("z", PARITY_Z, ids=str)
@pytest.mark.parametrize("h2", (1, 2, 3, 4, 5))
def test_z_power_tail_is_the_mpf_object_loop_bit_for_bit(z, h2):
    for prec in (53, DEFAULT_PRECISION):
        for m in (1, 2):
            for k_max in (m, 50, 4096):
                total, _ = z_power_tail(z, h2, m, k_max, prec)
                assert total._mpf_ == _mpf_object_tail(z, h2, m, k_max, prec)._mpf_, (prec, m, k_max)


def test_z_power_tail_parity_covers_both_stops():
    # past its last moving term the loop may stop; near z = 1 every term counts
    assert _reference_tails(F(1, 2), 3, 2)[4096][1] < 4096
    assert _reference_tails(1 - F(1, 1024), 3, 2)[50][1] == 50


@pytest.fixture()
def sample_limits(a2_params):
    return series_limits(a2_params)


def test_minorant_summable_regime(sample_limits):
    rep = minorant_partial(301, 3, sample_limits, eps=F(1, 2), m=1)
    assert rep.regime == "summable"
    assert not rep.regime_strict
    assert not rep.growing
    assert float(rep.w) == pytest.approx(0.4211646096066227, rel=1e-12)
    assert rep.value_closed is not None
    # truncated and closed-form routes agree far below the truncation tail
    assert abs(rep.value - rep.value_closed) < mp.mpf("1e-15") * rep.value


def test_minorant_weights_are_the_boundary_weights(sample_limits):
    eta, z = eta_z(sample_limits, boundary_radius(sample_limits))
    rep = minorant_partial(301, 3, sample_limits, eps=F(1, 2), m=1)
    assert rep.w == mp.ldexp(eta, -1)  # (1 - eps)^2 eta / eps at eps = 1/2
    assert rep.z_tail == z_power_tail(z, 3, 1, 4096)[0]


def test_minorant_divergent_regime_is_refused(sample_limits):
    with pytest.raises(DomainError) as err:
        minorant_partial(301, 3, sample_limits)
    assert "allow_divergent" in str(err.value)


def test_minorant_divergent_regime_reported(sample_limits):
    rep = minorant_partial(301, 3, sample_limits, allow_divergent=True)
    assert rep.regime == "divergent"
    assert rep.regime_strict
    assert rep.growing
    assert float(rep.w) == pytest.approx(81.73111990733928, rel=1e-12)
    assert rep.value_closed is None
    assert rep.j_sum > mp.mpf("1e100")


# limits (3/2, 1) give r* = 1/2 and w = 1 at eps = 1/3; w falls below 1 by
# about 6 (eps - 1/3) just above it
NEAR_ONE_LIMITS = (F(3, 2), F(1))


def test_minorant_skips_a_closed_route_that_cannot_converge():
    # w = 1 - about 10^-90: summing both Gauss series to their 10^6-term cap
    # at 256 bits took minutes, and they stopped unconverged
    start = time.process_time()
    rep = minorant_partial(301, 3, NEAR_ONE_LIMITS, eps=F(1, 3) + F(1, 2 ** 300), m=1)
    assert time.process_time() - start < 1.0
    assert rep.regime == "summable" and rep.w < 1
    assert rep.value_closed is None


def test_minorant_closed_route_skip_is_conservative(monkeypatch):
    # under a 3000-term cap: a skipped cross-check would not have converged,
    # checked by summing the two series it skipped.  At eps = 1/3 + 1/212
    # x^3000 is just above e tol, so it is skipped; 1/210 is just below and
    # summed, and fails; 1/200 converges
    monkeypatch.setattr(proofs, "_CLOSED_ROUTE_TERMS", 3000)
    summed = []

    def series(*args):
        summed.append(args)
        return hyp2f1_series(*args)

    monkeypatch.setattr(proofs, "hyp2f1_series", series)
    skipped = 0
    for delta in (F(1, 1000), F(1, 212), F(1, 210), F(1, 200), F(1, 50)):
        summed.clear()
        rep = minorant_partial(301, 3, NEAR_ONE_LIMITS, eps=F(1, 3) + delta, m=1)
        assert rep.regime == "summable"
        if summed:
            continue
        skipped += 1
        c0 = 1 + 301 + 2
        converged = [hyp2f1_series(Hyp2F1Params(1, F(c, 2), F(c - 3, 2)),
                                   rep.w * rep.w, mp.mpf(2) ** (8 - DEFAULT_PRECISION),
                                   3000, DEFAULT_PRECISION)[1] for c in (c0, c0 + 1)]
        assert not all(converged), delta
    assert skipped == 2


def test_minorant_regime_is_decided_exactly():
    # limits (3/2, 1) put r* at 1/2, so eta = 3/4, and at eps = 1/3, m = 1
    # eps/(1-eps)^2 = 3/4 as well: w = 1 exactly, the divergent regime,
    # though its 256-bit value need not compare >= 1
    limits = (F(3, 2), F(1))
    rep = minorant_partial(301, 3, limits, eps=F(1, 3), m=1, allow_divergent=True)
    assert (rep.regime, rep.regime_strict) == ("divergent", False)
    rep = minorant_partial(301, 3, limits, eps=F(1, 3) - F(1, 2 ** 300), m=1,
                           allow_divergent=True)
    assert (rep.regime, rep.regime_strict) == ("divergent", True)


def test_minorant_regime_matches_the_sample(sample_limits):
    for eps, regime in ((F(1, 2), "summable"), (F(1, 100), "divergent")):
        rep = minorant_partial(301, 3, sample_limits, eps=eps, m=1, allow_divergent=True)
        assert rep.regime == regime
        assert rep.regime_strict == (regime == "divergent")


def _loggamma_j_series(N, h2, m, w, j_max=64, prec=DEFAULT_PRECISION):
    """(J, growing) with each term exp(loggamma - loggamma + j log w) on its own."""
    with mp.workprec(prec):
        c0, lg, log_w = 1 + N + 2 * m, mp.loggamma, mp.log(w)
        terms = [mp.exp(lg(mp.mpf(c0 + j) / 2) - lg(mp.mpf(c0 - h2 + j) / 2) + j * log_w)
                 for j in range(1, j_max + 1)]
        total = mp.mpf(0)
        for t in terms:
            total += t
        return total, bool(terms[-1] > terms[len(terms) // 2])


# (limits, eps, regime): w from about 0.4 to 80, and just below 1
J_GRID = (
    ((F(3, 2), F(-1, 2)), F(1, 2), "summable"),
    ((F(3, 2), F(-1, 2)), F(1, 100), "divergent"),
    (NEAR_ONE_LIMITS, F(1, 3) + F(1, 50), "summable"),
    (NEAR_ONE_LIMITS, F(1, 5), "divergent"),
)


@pytest.mark.parametrize("limits, eps, regime", J_GRID,
                         ids=["a2-summable", "a2-divergent", "near-one-summable", "w-1.8"])
@pytest.mark.parametrize("N", (8, 41, 301, 2001))
def test_minorant_j_series_steps_match_the_loggamma_terms(limits, eps, regime, N):
    # the stepped Gamma ratios against terms each from its own loggamma pair;
    # past N ~ 10^4 both lose bits to loggamma's absolute error
    for h2 in (0, 1, 2, 3, 4, 5, 7):
        for m in (1, 2):
            rep = minorant_partial(N, h2, limits, eps=eps, m=m, allow_divergent=True)
            assert rep.regime == regime
            ref, growing = _loggamma_j_series(N, h2, m, rep.w)
            with mp.workprec(DEFAULT_PRECISION):
                assert mp.fabs(rep.j_sum - ref) <= mp.ldexp(ref, -240), (h2, m)
            assert rep.growing == growing, (h2, m)


def test_minorant_guards(sample_limits):
    with pytest.raises(DomainError):
        minorant_partial(3, 3, sample_limits)  # N - h2 = 0
    for limits in ((0, F(-1, 2)), (F(3, 2), 0)):  # eta = 0, z = 0
        with pytest.raises(DomainError, match="0 < eta < 1"):
            minorant_partial(301, 3, limits, eps=F(1, 2), m=1, allow_divergent=True)
    with pytest.raises(InvalidParams):
        minorant_partial(301, 3, (F(3, 2), F(1), F(1)), eps=F(1, 2), m=1)
    with pytest.raises(InputError):
        minorant_partial(301, 3, sample_limits, eps=0.5, m=1)
    with pytest.raises(InputError):
        minorant_partial(301, 3, (1.5, F(1)), eps=F(1, 2), m=1)
    with pytest.raises(InvalidParams):
        minorant_partial(301, 3, sample_limits, eps=F(1, 2), m=1, K=F(0))
    with pytest.raises(InvalidParams):
        minorant_partial(301, 3, sample_limits, eps=F(1, 2), m=1, j_max=2)
    with pytest.raises(InvalidParams):
        minorant_partial(301, 3, sample_limits, eps=F(1), m=1)
