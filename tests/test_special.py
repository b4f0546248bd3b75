"""Pochhammer products, the Gauss-series summer, and the ratio bound."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (DomainError, Hyp2F1Params, InputError, InvalidC, hyp2f1_series,
                     min_index_for_ratio_bound, pochhammer_ratio_lower_bound)
from heunlab.special import _pi_enclosure, pochhammer, ratio_bound_holds

F = Fraction


def test_pochhammer_values():
    assert pochhammer(2, 4) == 120
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert isinstance(pochhammer(F(1, 2), 3), Fraction)


def test_pochhammer_rejects_negative_k():
    with pytest.raises(DomainError):
        pochhammer(1, -1)


def test_hyp2f1_params_rejects_nonpositive_integer_c():
    for c in (0, -2, F(-4)):
        with pytest.raises(InvalidC):
            Hyp2F1Params(1, 1, c)
    Hyp2F1Params(1, 1, F(-1, 2))  # negative but not an integer


def test_hyp2f1_params_are_rational():
    params = Hyp2F1Params(2, "1/3", 0.5)
    assert (params.a, params.b, params.c) == (F(2), F(1, 3), F(1, 2))
    assert all(type(v) is Fraction for v in (params.a, params.b, params.c))
    for value in (mp.mpf("0.5"), mp.mpc(1, 2), 1 + 2j):
        for abc in ((value, 1, 1), (1, value, 1), (1, 1, value)):
            with pytest.raises(InputError):
                Hyp2F1Params(*abc)


def test_hyp2f1_geometric_case_exact():
    params = Hyp2F1Params(F(1), F(1), F(1))
    value, converged = hyp2f1_series(params, F(1, 2), F(1, 10 ** 10), 200)
    assert converged
    assert isinstance(value, Fraction)
    assert abs(value - 2) < F(1, 10 ** 9)


def test_hyp2f1_logarithmic_boundary_does_not_converge():
    # c - a - b = 0: terms decay like 1/k, far too slow for the tolerance
    params = Hyp2F1Params(F(1, 2), F(1, 2), F(1))
    with mp.workprec(128):
        value, converged = hyp2f1_series(params, mp.mpf(1), mp.mpf("1e-10"), 10 ** 4, prec=128)
    assert not converged
    assert mp.isfinite(value)


def test_hyp2f1_absolutely_convergent_boundary_matches_reference():
    # c - a - b = 1: terms decay like k^-2, so the tail past the stopping
    # index is about sqrt(tol) and that is the accuracy we can ask for
    params = Hyp2F1Params(F(1, 2), F(1, 2), F(2))
    value, converged = hyp2f1_series(params, mp.mpf(1), mp.mpf("1e-10"), 10 ** 5, prec=128)
    assert converged
    with mp.workprec(128):
        ref = mp.hyp2f1(mp.mpf("0.5"), mp.mpf("0.5"), 2, 1)
        assert abs(value - ref) < mp.mpf("1e-4")


def test_ratio_bound_equality_tuple_is_not_strict():
    # x1 = 5, x2 = 6, index 5: both sides are exactly 1/2
    lhs, rhs, holds = pochhammer_ratio_lower_bound(10, 2, 0, 0, 5)
    assert abs(lhs - mp.mpf("0.5")) < mp.mpf("1e-60")
    assert abs(rhs - mp.mpf("0.5")) < mp.mpf("1e-60")
    assert not holds


def test_ratio_bound_small_index_fails():
    lhs, rhs, holds = pochhammer_ratio_lower_bound(12, 4, 1, 3, 8)
    assert not holds
    assert lhs < rhs


def test_ratio_bound_h2_zero_collapses():
    # x1 = x2 makes the ratio 1 against a constant 1/2
    lhs, rhs, holds = pochhammer_ratio_lower_bound(10, 0, 1, 2, 1)
    assert abs(lhs - 1) < mp.mpf("1e-60")
    assert abs(rhs - mp.mpf("0.5")) < mp.mpf("1e-60")
    assert holds
    assert min_index_for_ratio_bound(10, 0, 1, 2) == 1


FROZEN_MIN_INDICES = [
    ((10, 2, 0, 0), 6),
    ((12, 4, 1, 3), 22),
    ((10, 9, 0, 0), 20),
    ((20, 3, 2, 5), 27),
]


@pytest.mark.parametrize("args,expected", FROZEN_MIN_INDICES)
def test_ratio_bound_min_index_frozen(args, expected):
    assert min_index_for_ratio_bound(*args) == expected


@pytest.mark.parametrize("args,floor", FROZEN_MIN_INDICES)
def test_ratio_bound_monotone_past_floor(args, floor):
    if floor > 1:
        assert not pochhammer_ratio_lower_bound(*args, floor - 1)[2]
    for idx in (floor, floor + 1, floor + 7, 4 * floor):
        assert pochhammer_ratio_lower_bound(*args, idx)[2]


def test_ratio_floor_search_is_exact_when_the_guess_is_off():
    # a large h2 against a small x1 puts the closed-form guess up to 2 above
    # the floor; at the h2 = 2 ties further down it is 1 below
    rng = random.Random(7)
    for _ in range(60):
        h2 = rng.randrange(0, 61)
        args = (rng.randrange(h2 + 1, h2 + 40), h2, rng.randrange(0, 4), rng.choice((0, 2, 5)))
        floor = min_index_for_ratio_bound(*args)
        assert ratio_bound_holds(*args, floor), args
        assert floor == 1 or not ratio_bound_holds(*args, floor - 1), args
    assert min_index_for_ratio_bound(12, 4, 1, 3, hard_cap=22) == 22
    with pytest.raises(DomainError):
        min_index_for_ratio_bound(12, 4, 1, 3, hard_cap=21)


def test_ratio_bound_domain_guards():
    with pytest.raises(DomainError):
        pochhammer_ratio_lower_bound(3, 3, 0, 0, 1)  # N - h2 = 0
    with pytest.raises(DomainError):
        pochhammer_ratio_lower_bound(10, 2, -1, 0, 1)
    with pytest.raises(DomainError):
        pochhammer_ratio_lower_bound(10, 2, 0, 0, 0)


def exact_floor_even_h2(N, h2, r, i2r):
    """The first index with lhs > rhs, scanned in Fractions: for h2 = 2t,
    Gamma(x2) / Gamma(x1) = (x1)_t, so both sides are rational."""
    t = h2 // 2
    x1 = F(2 + r + N - h2, 2) + i2r
    x2 = x1 + t
    gamma_ratio = pochhammer(x1, t)
    lhs, M = F(1), 0
    while True:
        lhs *= (x1 + M) / (x2 + M)
        M += 1
        if lhs > gamma_ratio / (2 * M ** t):
            return M


# h2 = 2: lhs = x1 / (x1 + M) and rhs = x1 / (2M) are equal at M = x1 when
# x1 = (r + N)/2 + i2r is an integer; (401, 2, 1, 2) is the audit of
# a=-2, q=-1/8, alpha=1, beta=3/4, gamma=3/5, delta=1/6
H2_TWO_TIES = [(N, 2, r, i2r) for N in range(3, 140, 7) for r in (0, 1, 2)
               for i2r in (2, 5) if (N + r) % 2 == 0] + [(401, 2, 1, 2)]
# h2 = 4: ties where 8 x1^2 + 8 x1 + 1 is a square, (x1, M) = (2, 6),
# (14, 35), (84, 204), (492, 1189); N = 2 x1 + 2 puts x1 there at r = i2r = 0
H2_FOUR_TIES = [((2 * x1 + 2, 4, 0, 0), M) for x1, M in
                ((2, 6), (14, 35), (84, 204), (492, 1189))]


def test_ratio_floor_at_h2_two_ties_is_exact():
    assert len(H2_TWO_TIES) > 40
    for args in H2_TWO_TIES:
        floor = exact_floor_even_h2(*args)
        x1 = (args[2] + args[0]) // 2 + args[3]
        assert floor == x1 + 1
        assert min_index_for_ratio_bound(*args) == floor, args
        assert ratio_bound_holds(*args, floor)
        assert not ratio_bound_holds(*args, floor - 1)
    assert min_index_for_ratio_bound(401, 2, 1, 2) == 204


def test_ratio_floor_at_h2_four_ties_is_exact():
    for args, tie in H2_FOUR_TIES:
        assert not ratio_bound_holds(*args, tie)
        floor = exact_floor_even_h2(*args)
        assert floor == tie + 1
        assert min_index_for_ratio_bound(*args) == floor, args


@pytest.mark.parametrize("prec", [53, 256, 512])
def test_ratio_bound_at_ties_renders_at_prec(prec):
    # at a tie the rendered sides agree to about prec bits, whichever way
    # they round, while holds stays the exact verdict
    ties = [(args, (args[0] + args[2]) // 2 + args[3]) for args in H2_TWO_TIES[:3]]
    for args, tie in ties + H2_FOUR_TIES:
        lhs, rhs, holds = pochhammer_ratio_lower_bound(*args, tie, prec)
        assert not holds
        with mp.workprec(prec):
            assert mp.fabs(lhs / rhs - 1) < mp.mpf(2) ** (20 - prec), (args, prec)
        assert pochhammer_ratio_lower_bound(*args, tie + 1, prec)[2]


def test_odd_h2_predicate_matches_1024_bit_reference():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        h2 = rng.choice((1, 3, 5, 7))
        N = rng.randrange(h2 + 1, 1500)
        args = (N, h2, rng.randrange(0, 4), rng.choice((0, 2, 5)))
        floor = min_index_for_ratio_bound(*args)
        for M in {max(floor - 1, 1), floor, floor + 1, rng.randrange(1, 3 * floor + 2)}:
            lhs, rhs, _ = pochhammer_ratio_lower_bound(*args, M, 1024)
            with mp.workprec(1024):
                if mp.fabs(lhs / rhs - 1) < mp.mpf(2) ** -900:
                    continue
            assert ratio_bound_holds(*args, M) == (lhs > rhs), (args, M)
            checked += 1


def test_pi_enclosure_brackets_pi():
    for bits in (64, 128, 1024):
        lo, hi = _pi_enclosure(bits)
        with mp.workprec(bits + 64):
            scaled = mp.pi * mp.mpf(2) ** bits
            assert lo < scaled < hi
        assert hi - lo < 16 * bits  # the enclosure loses only a few bits
