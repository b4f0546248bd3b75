"""Recurrence streaming, majorant sequences, and the domination bound."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (DegreeMismatch, HeunParams, IndicialPole, InvalidParams,
                     RationalFnInN, RecurrenceSystem, heun_recurrence,
                     limit_profile, poly_from, series_limits,
                     stream_coefficients)
from heunlab import polynomials, recurrence
from heunlab.recurrence import (domination_bounds, domination_verdict,
                                recurrence_residuals)

from conftest import admissible_roots

F = Fraction


def geometric_system(ratio=F(1, 2)):
    """d_{n+1} = ratio * d_n as a two-lag system with a zero second lag."""
    one = poly_from(F(1))
    return RecurrenceSystem((
        RationalFnInN(poly_from(ratio), one),
        RationalFnInN(poly_from(F(0)), one),
    ))


def test_lag1_pole_is_rejected():
    one = poly_from(F(1))
    bad = RationalFnInN(one, poly_from(F(-3), 1))  # pole at n = 3
    with pytest.raises(IndicialPole):
        RecurrenceSystem((bad,))


def test_each_denominator_is_isolated_once(monkeypatch):
    calls = []
    isolate = polynomials._positive_integer_roots
    monkeypatch.setattr(polynomials, "_positive_integer_roots",
                        lambda ints: calls.append(ints) or isolate(ints))
    # both lags of a Heun system share one denominator object
    params = HeunParams(F(-7, 3), F(2, 11), F(1, 5), F(-3, 13), F(9, 17), F(4, 19))
    system = heun_recurrence(params, 0)
    assert system.lags[0].den is system.lags[1].den
    assert len(calls) == 1
    # distinct denominators are isolated one by one: lag 2's pole is found
    calls.clear()
    one = poly_from(F(1))
    with pytest.raises(IndicialPole, match="lag 2 .* n = 5"):
        RecurrenceSystem((RationalFnInN(one, poly_from(F(2), 1)),
                          RationalFnInN(one, poly_from(F(-5), 1))))
    assert len(calls) == 2


def test_lag2_pole_at_zero_is_allowed():
    # lag 2 first fires at n = 1, so a denominator zero at n = 0 is harmless
    one = poly_from(F(1))
    lag2 = RationalFnInN(one, poly_from(F(0), 1))
    system = RecurrenceSystem((RationalFnInN(one, one), lag2))
    assert system.k == 2
    stream = stream_coefficients(system, 5)
    assert stream[1] == 1


def test_lags_must_be_rational_functions():
    with pytest.raises(InvalidParams):
        RecurrenceSystem((poly_from(F(1)),))
    with pytest.raises(InvalidParams):
        RecurrenceSystem(())


def test_heun_anchor_coefficients(a2_params):
    stream = stream_coefficients(heun_recurrence(a2_params), 8)
    assert stream[0] == 1
    assert stream[1] == F(1, 2)
    assert stream[2] == F(5, 16)


def test_exact_and_floating_streams_agree(a2_params):
    system = heun_recurrence(a2_params)
    exact = stream_coefficients(system, 200, "exact")
    approx = stream_coefficients(system, 200, 256)
    with mp.workprec(256):
        for n in (1, 50, 199):
            e = mp.mpf(exact[n].numerator) / exact[n].denominator
            assert abs(approx[n] - e) <= mp.mpf(2) ** -220 * abs(e)


def test_residuals_vanish_exactly(instance_pool):
    for params in instance_pool[:6]:
        system = heun_recurrence(params)
        stream = stream_coefficients(system, 40)
        assert all(r == 0 for r in recurrence_residuals(system, stream))


def test_stream_indexing_and_log_mags():
    stream = stream_coefficients(geometric_system(), 10)
    assert len(stream) == 10
    assert stream[9] == F(1, 512)
    with pytest.raises(IndexError):
        stream[10]
    with pytest.raises(IndexError):
        stream[-1]
    assert stream.log_mags[0] == 0.0


def test_stream_rejects_empty_request():
    with pytest.raises(InvalidParams):
        stream_coefficients(geometric_system(), 0)


def test_modulus_stream_first_values(a2_params):
    system = heun_recurrence(a2_params)
    c = stream_coefficients(system, 3, offset=10, modulus=True)
    a1, a2 = system.lags
    assert c[0] == 1
    assert c[1] == abs(a1(10))
    assert c[2] == abs(a1(11)) * abs(a1(10)) + abs(a2(11))


def test_modulus_stream_of_sign_free_system_is_the_stream():
    stream = stream_coefficients(geometric_system(), 12)
    c = stream_coefficients(geometric_system(), 12, modulus=True)
    assert c.values == stream.values


def test_modulus_offset_must_be_nonnegative(a2_params):
    with pytest.raises(InvalidParams, match="offset -1 must be nonnegative"):
        stream_coefficients(heun_recurrence(a2_params), 3, "exact", -1, modulus=True)


@pytest.mark.parametrize("a, precision", [(2, 64)])
def test_floating_modulus_offset_must_be_nonnegative(a, precision):
    # the lags would divide by zero at n = -1
    system = heun_recurrence(HeunParams(a, 1, 1, 1, 1, 1))
    with pytest.raises(InvalidParams, match="offset -1 must be nonnegative"):
        stream_coefficients(system, 3, precision, -1, modulus=True)


def test_domination_base_case_is_equality(a2_params):
    # u_0 = cbar_0 = 1 and v_0 = chat_{-1} = 0, over Q_0 = 1
    bounds = domination_bounds(heun_recurrence(a2_params), N=5, M=0)
    assert bounds == ((1, 1, 1), (0, 0, 1))
    assert domination_verdict(bounds) == (True, 0, 1)


def test_domination_holds_deep(a2_params):
    bounds = domination_bounds(heun_recurrence(a2_params), N=10, M=100)
    assert len(bounds) == 2 * 101
    assert all(rhs >= lhs for lhs, rhs, _ in bounds)
    assert domination_verdict(bounds) == (True, 0, 1)


def test_domination_is_equality_for_positive_systems():
    # with every coefficient positive, u_j and v_j are the majorants themselves
    one = poly_from(F(1))
    system = RecurrenceSystem((
        RationalFnInN(poly_from(F(1, 3)), one),
        RationalFnInN(poly_from(F(1, 5)), one),
    ))
    bounds = domination_bounds(system, N=4, M=20)
    assert all(lhs == rhs for lhs, rhs, _ in bounds)


def test_domination_input_checks(a2_params):
    system = heun_recurrence(a2_params)
    with pytest.raises(InvalidParams):
        domination_bounds(system, N=0, M=5)
    one_lag = RecurrenceSystem((RationalFnInN(poly_from(F(1, 2)), poly_from(F(1))),))
    with pytest.raises(InvalidParams):
        domination_bounds(one_lag, N=1, M=1)


def fraction_domination(system, values, N, M):
    """(lhs, rhs) of every bound j = 0..M in reduced Fractions: the reference."""
    cbar = stream_coefficients(system, M + 1, offset=N, modulus=True).values
    chat = stream_coefficients(system, max(M, 1), offset=N + 1, modulus=True).values
    b = abs(system.coefficient(2, N))
    out = []
    for j in range(M + 1):
        rhs = cbar[j] * abs(values[N])
        if j >= 1:
            rhs += chat[j - 1] * b * abs(values[N - 1])
        out.append((abs(values[N + j]), rhs))
    return out


def lemma_coefficients(system, N, M):
    """(u_j, v_j) for j = 0..M in Fractions: d_{N+j} = u_j d_N + v_j d_{N-1}."""
    u, v, out = (F(0), F(1)), (F(1), F(0)), []
    for j in range(M + 1):
        if j:
            a, b = system.coefficient(1, N + j - 1), system.coefficient(2, N + j - 1)
            u, v = (u[1], a * u[1] + b * u[0]), (v[1], a * v[1] + b * v[0])
        out.append((u[1], v[1]))
    return out


@pytest.mark.parametrize("N, M", [(1, 0), (3, 6), (12, 20)])
def test_domination_bounds_match_fraction_reference(instance_pool, N, M):
    rng = random.Random(N * 100 + M)
    for params in instance_pool[:12]:
        system = heun_recurrence(params)
        coeffs = lemma_coefficients(system, N, M)
        cbar = stream_coefficients(system, M + 1, offset=N, modulus=True).values
        chat = (F(0),) + stream_coefficients(system, max(M, 1), offset=N + 1,
                                             modulus=True).values
        b = abs(system.coefficient(2, N))
        expect = []
        for j, (u, v) in enumerate(coeffs):
            expect += [(abs(u), cbar[j]), (abs(v), b * chat[j])]
        got = domination_bounds(system, N, M)
        assert [(F(l, d), F(r, d)) for l, r, d in got] == expect, params
        holds, num, den = domination_verdict(got)
        assert holds and all(r >= l for l, r in expect)
        assert F(num, den) == min(r - l for l, r in expect) == 0
        # the decomposition on the solution itself
        values = stream_coefficients(system, N + M + 1).values
        assert all(values[N + j] == u * values[N] + v * values[N - 1]
                   for j, (u, v) in enumerate(coeffs)), params
        # so the value bound holds for any start pair, not only the solution's
        for _ in range(25):
            x, y = (F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in "xy")
            start = [None] * (N - 1) + [x, y]
            window = start + [u * y + v * x for u, v in coeffs[1:]]
            assert all(r >= l for l, r in fraction_domination(system, window, N, M)), params


@pytest.mark.parametrize("a, holds", [(F(-1, 2), False), (2, True)])
def test_domination_without_abs_fails_where_signs_cancel(monkeypatch, a, holds):
    # the signed "majorant" from N is u_j itself.  a = -1/2 has lag-1 limit
    # -1 and a dominant root -2, so u_j changes sign and |u_j| <= u_j fails;
    # on the a=2 sample (limits 3/2 and -1/2, roots 1 and 1/2) u_j and the
    # signed chat stay positive, so the signed stream is still a majorant
    system = heun_recurrence(HeunParams(a, 1, 1, 1, 1, 1))
    assert domination_verdict(domination_bounds(system, 10, 30))[0]
    stepper = recurrence.iter_cleared
    monkeypatch.setattr(recurrence, "iter_cleared",
                        lambda system, offset=0, *, modulus=False: stepper(system, offset))
    assert domination_verdict(domination_bounds(system, 10, 30))[0] is holds


def test_domination_verdict_takes_the_least_margin():
    # margins -1, 2, 1/4 and 1/2, 1/6, 3: the least need not have the least den
    assert domination_verdict(((3, 2, 1), (1, 5, 2), (0, 1, 4))) == (False, -1, 1)
    assert domination_verdict(((1, 2, 2), (1, 2, 6), (0, 3, 1))) == (True, 1, 6)


def test_limit_profile_heun(a2_params):
    system = heun_recurrence(a2_params)
    profile = limit_profile(system)
    assert profile.limits == system.limits == (F(3, 2), F(-1, 2))
    assert all(sub is not None for sub in profile.subleading)


def test_heun_limit_profile_is_series_limits(instance_pool):
    # instances, eval and the audit read a Heun system's limits from system.limits
    pool = [*instance_pool, HeunParams(-1, 1, 1, 1, 1, 1),
            HeunParams(-1, F(-3, 4), F(1, 2), 2, F(5, 4), F(-1, 3)), HeunParams(2, 1, 1, 1, 1, 1)]
    exponents = 0
    for params in pool:
        expect = series_limits(params)
        for root in admissible_roots(params):
            system = heun_recurrence(params, root)
            for limits in (system.limits, limit_profile(system).limits):
                assert limits == expect, (params, root)
                assert [type(v) for v in limits] == [type(v) for v in expect] == [F, F]
            exponents += root != 0
    assert exponents > len(pool) // 2


def test_limit_profile_single_lag():
    # term-ratio lag of a Gauss series: (n+a)(n+b) / ((n+c)(n+1))
    num = poly_from(F(1, 2), 1) * poly_from(F(1, 3), 1)
    den = poly_from(F(5, 4), 1) * poly_from(F(1), 1)
    profile = limit_profile(RecurrenceSystem((RationalFnInN(num, den),)))
    assert profile.limits == (F(1),)
    assert profile.subleading[0] == (F(5, 6), F(9, 4))


def test_limit_profile_zero_limit():
    fn = RationalFnInN(poly_from(F(1)), poly_from(F(1), 1))
    profile = limit_profile(RecurrenceSystem((fn,)))
    assert profile.limits == (F(0),)
    assert profile.subleading[0] is None


def test_limit_profile_rejects_growth():
    fn = RationalFnInN(poly_from(F(0), F(0), F(1)), poly_from(F(1), 1))
    system = RecurrenceSystem((fn,))
    with pytest.raises(DegreeMismatch):
        limit_profile(system)
    # the cached property keeps no value for a growing lag: it raises again
    for _ in range(2):
        with pytest.raises(DegreeMismatch):
            system.limits


def test_int_only_lags_stay_exact():
    # lags (1 + 2n)/(3 + n) and 1/(2 + n) with int coefficients only
    system = RecurrenceSystem((RationalFnInN(poly_from(1, 2), poly_from(3, 1)),
                               RationalFnInN(poly_from(1), poly_from(2, 1))))
    value = system.coefficient(1, 2)
    assert type(value) is Fraction and value == F(1, 1)
    assert system.coefficient(2, 3) == F(1, 5)
    stream = stream_coefficients(system, 40)
    residuals = recurrence_residuals(system, stream)
    assert all(type(r) is Fraction and r == 0 for r in residuals)
