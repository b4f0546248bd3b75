"""Domain membership, boundary radius, and the Gauss-series tester."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (AllZeroLimits, HeunParams, InputError, InvalidC,
                     InvalidParams, boundary_radius, domain_sum, eta_z,
                     gauss_test, membership_sum, series_limits)
from heunlab.convergence import _bisect_radius, exact_membership_sum, radius_bracketed

from conftest import A_POOL

F = Fraction
A2_LIMITS = (F(3, 2), F(-1, 2))


def test_membership_sum_two_lags():
    with mp.workprec(128):
        total = membership_sum(A2_LIMITS, F(1, 2), prec=128)
        assert abs(total - mp.mpf(7) / 8) < mp.mpf("1e-35")
    # the sign of a limit never matters, only its modulus
    assert membership_sum((F(3, 2), F(1, 2)), F(1, 2)) == membership_sum(A2_LIMITS, F(1, 2))


def test_domain_membership_report():
    # rational limits and point: the sum is exact
    inside = domain_sum(A2_LIMITS, F(1, 2))
    assert inside == F(7, 8) and inside < 1
    outside = domain_sum(A2_LIMITS, F(9, 10))
    assert outside == F(351, 200) and not outside < 1
    assert float(boundary_radius(A2_LIMITS)) == pytest.approx(0.5615528128088303)
    # otherwise it is membership_sum at the bit count, in the same order
    with mp.workprec(128):
        for x in (mp.mpf("0.5"), mp.mpc("0.2", "-0.15")):
            assert domain_sum(A2_LIMITS, x, 128) == membership_sum(A2_LIMITS, x, 128)
        assert domain_sum((mp.mpf(1.5), F(-1, 2)), F(1, 2), 128) == mp.mpf(7) / 8


def test_all_zero_limits_sum_to_zero_on_both_branches():
    # exact for a rational point, membership_sum otherwise: both give 0
    assert domain_sum((0, 0), F(1, 2)) == 0
    with mp.workprec(128):
        assert domain_sum((0, 0), mp.mpc(0.2, 0.1), 128) == 0
        assert membership_sum((F(0), 0), mp.mpf(3), 128) == 0
    # the radius and its weights still refuse: r* is infinite there
    with pytest.raises(AllZeroLimits):
        eta_z((0, 0), F(1, 2))


def a2_radius_neighbours(bits):
    """The dyadic rationals k/2^bits and (k+1)/2^bits around r* = (sqrt(17) - 3)/2."""
    with mp.workprec(bits + 64):
        k = int(mp.floor((mp.sqrt(17) - 3) / 2 * mp.mpf(2) ** bits))
    return F(k, 2 ** bits), F(k + 1, 2 ** bits)


def test_domain_membership_is_exact_for_rational_points():
    below, above = a2_radius_neighbours(300)
    assert exact_membership_sum(A2_LIMITS, below) < 1 < exact_membership_sum(A2_LIMITS, above)
    # at 53 bits both points round to one float and one sum; inside does not
    assert membership_sum(A2_LIMITS, below, 53) == membership_sum(A2_LIMITS, above, 53)
    assert domain_sum(A2_LIMITS, below, 53) < 1
    assert not domain_sum(A2_LIMITS, above, 53) < 1


@pytest.mark.parametrize("limits", [A2_LIMITS, (1, 1, 1), (2, 0), (F(7, 3), F(1, 5))])
def test_radius_bracket_is_one_ulp(limits):
    r = boundary_radius(limits, 256)
    assert radius_bracketed(limits, r, 256)
    with mp.workprec(256):
        for off in (r * (1 + mp.mpf(2) ** -250), r * (1 - mp.mpf(2) ** -250)):
            assert not radius_bracketed(limits, off, 256)


def test_boundary_radius_quadratic_anchor():
    r = boundary_radius(A2_LIMITS)
    with mp.workprec(256):
        ref = (mp.sqrt(17) - 3) / 2
        assert abs(r - ref) < mp.mpf(2) ** -240


def test_boundary_radius_named_anchors():
    with mp.workprec(256):
        assert abs(boundary_radius((2, 1)) - (mp.sqrt(2) - 1)) < mp.mpf(2) ** -240
        assert abs(boundary_radius((1, 1)) - (mp.sqrt(5) - 1) / 2) < mp.mpf(2) ** -240
    assert boundary_radius((1,)) == 1
    assert boundary_radius((2, 0)) == mp.mpf("0.5")


def test_boundary_radius_methods_agree():
    for limits in (A2_LIMITS, (F(5, 3), F(7, 2)), (F(1, 10), F(1, 10))):
        closed = boundary_radius(limits)
        bisect = _bisect_radius(limits, 256)
        assert abs(closed - bisect) < mp.mpf(2) ** -248


def test_boundary_radius_three_lags_by_bisection():
    r = boundary_radius((1, 1, 1))
    assert abs(membership_sum((1, 1, 1), r) - 1) < mp.mpf(2) ** -240
    with mp.workprec(256):
        # independent oracle: the real root of r^3 + r^2 + r - 1
        ref = [z for z in mp.polyroots([1, 1, 1, -1]) if abs(mp.im(z)) < 1e-30][0]
        assert abs(r - mp.re(ref)) < mp.mpf("1e-70")
    assert r == _bisect_radius((1, 1, 1), 256)


def test_boundary_radius_input_guards():
    with pytest.raises(AllZeroLimits):
        boundary_radius((0, 0))
    with pytest.raises(AllZeroLimits):
        boundary_radius((0, 0, 0))


# recorded bit for bit before the three S(r) loops became one: per limit set,
# the bisected r* at 256 bits, eta_z there, membership_sum at 0.2 + 0.3i, and
# the exact sum at x = -2/3
S_PINS = [
    ((F(3, 2), F(-1, 2)),
     (0, 0x8fc1ecd5fda0deb591e232a61510bac19421009098ab9f9552cc8b5651cc8fe5, -256, 256),
     ((0, 0x1af45c681f8e29c20b5a697f23f323044bc6301b1ca02debff865a202f565afb, -253, 253),
      (0, 0x50ba397e071d63df4a59680dc0cdcfbb439cfe4e35fd2140079a5dfd0a9a504f, -257, 255)),
     (0, 0x9b17d9ec10ba00722309cc66fdee9d01d29f22d500a18c480922ce4846930781, -256, 256),
     F(11, 9)),
    ((F(-5, 3), F(2, 7)),
     (0, 0x2319981f56518fd2049ef8ad4a6b745fdb0da6ff954954408a6f8ff82fc9bd99, -254, 254),
     ((0, 0x74fffb131fba8a1164bc9241a2bb83ea2f82d753f19f18d722c9353b49f5cd53, -255, 255),
      (0, 0x58002767022baf74da1b6df2ea23e0ae83e9456073073946e9b65625b0519565, -258, 255)),
     (0, 0xa3586dd411ef56d8dda042d97c51c2c512a8b0dc6a5a19d622883268aff0927f, -256, 256),
     F(26, 21)),
    ((F(1, 2), F(-1, 3), F(1, 5)),
     (0, 0x3ec7bc924e99050165801e406a577a48e1e427c44a8b6323063733a5d583e765, -254, 254),
     ((0, 0x3ec7bc924e99050165801e406a577a48e1e427c44a8b6323063733a5d583e765, -255, 254),
      (0, 0x290e48798bd413ad339ded655f93612ed639fc4990268420d30f0e9125dfedc7, -255, 254),
      (0, 0xc14fd7a12c973a8b370fa2d1b0a924423f0edf912a70c5e135cdee4824e156a1, -258, 256)),
     (0, 0x1dd2769b4e848001517ccae359544c0a8574c47f48603ef2f8b0550ad73209d1, -255, 253),
     F(73, 135)),
    ((F(2), F(0), F(-3, 4)),
     (0, 0x767b8f719afd046b3d2a79e606883939b5e5f1d06ef40c58d648dc323f0f7a6b, -256, 255),
     ((0, 0x767b8f719afd046b3d2a79e606883939b5e5f1d06ef40c58d648dc323f0f7a6b, -255, 255),
      (0, 0x0, 0, 0),
      (0, 0x984708e6502fb94c2d58619f977c6c64a1a0e2f910bf3a729b723cdc0f085955, -259, 256)),
     (0, 0xc19a8adb5a38ee5cc910038c272d720f0fce59f70989f92449ed645753d8df95, -256, 256),
     F(14, 9)),
]


@pytest.mark.parametrize("limits, r_mpf, weights, sum_mpf, exact", S_PINS)
def test_membership_loops_are_pinned_bit_for_bit(limits, r_mpf, weights, sum_mpf, exact):
    r = _bisect_radius(limits, 256)
    assert r._mpf_ == r_mpf
    assert tuple(w._mpf_ for w in eta_z(limits, r, 256)) == weights
    assert membership_sum(limits, mp.mpc(0.2, 0.3), 256)._mpf_ == sum_mpf
    assert exact_membership_sum(limits, F(-2, 3)) == exact


def test_eta_z_at_the_boundary():
    r = boundary_radius(A2_LIMITS)
    eta, z = eta_z(A2_LIMITS, r)
    assert float(eta) == pytest.approx(0.8423292192132454)
    assert float(z) == pytest.approx(0.1576707807867546)
    assert abs(eta + z - 1) < mp.mpf(2) ** -240


def test_eta_z_off_boundary_scaling():
    eta, z = eta_z(A2_LIMITS, F(1, 2))
    assert abs(eta - mp.mpf(3) / 4) < mp.mpf(2) ** -240
    assert abs(z - mp.mpf(1) / 8) < mp.mpf(2) ** -240


def test_gauss_convergent_case():
    rep = gauss_test(F(1, 2), F(1, 3), F(1, 2) + F(1, 3) + 1, n_max=1 << 16)
    assert rep.verdict == "ABS_CONVERGENT"
    assert rep.s == 1.0
    assert rep.trend == "shrinking"
    assert rep.fitted_exponent == pytest.approx(rep.predicted_exponent, abs=0.1)
    assert rep.checkpoints[0][0] == 1024


def test_gauss_logarithmic_divergence():
    rep = gauss_test(F(1, 2), F(1, 2), F(1), n_max=1 << 16)
    assert rep.verdict == "DIVERGENT"
    assert rep.s == 0.0
    assert rep.trend == "flat"


def test_gauss_strong_divergence():
    # c - a - b = -1/2: terms shrink too slowly, partial sums run away
    rep = gauss_test(F(1, 2), F(1, 2), F(1, 2), n_max=1 << 16)
    assert rep.verdict == "DIVERGENT"
    assert rep.trend == "growing"


def test_gauss_exact_verdict_beats_float_noise():
    # margin 1e-9 is invisible to the float fit but decisive exactly
    c = F(1) + F(1, 10 ** 9)
    rep = gauss_test(F(1, 2), F(1, 2), c, n_max=1 << 14)
    assert rep.verdict == "ABS_CONVERGENT"
    assert rep.trend == "flat"


def test_gauss_terminating():
    rep = gauss_test(-3, F(1, 2), 2, n_max=1 << 14)
    assert rep.verdict == "TERMINATING"
    assert rep.terminated
    # all checkpoints agree once the polynomial has been summed
    finals = {v for _, v in rep.checkpoints}
    assert len(finals) == 1


def test_gauss_terminating_gaps_have_no_trend():
    # every gap is exactly 0: 0/0 is no ratio, not an infinite one
    rep = gauss_test(-3, F(1, 2), 2, n_max=1 << 14)
    assert set(rep.gaps) == {0.0}
    assert rep.trend == "flat"
    assert not any(q == math.inf for q in rep.gap_ratios)
    assert all(math.isnan(q) for q in rep.gap_ratios)


@pytest.mark.parametrize("abc", [(1, 1, F(1, 10 ** 400)), (F(1, 10 ** 400), 1, 2),
                                 (1, 1, F(-10 ** 30 + 1, 10 ** 30))],
                         ids=["c-rounds-to-0", "a-rounds-to-0", "c-rounds-to--1"])
def test_gauss_refuses_parameters_float64_moves(abc):
    # a nonzero parameter that rounds to 0, or a c that rounds onto a pole
    with pytest.raises(InputError):
        gauss_test(*abc, n_max=1 << 12)


@pytest.mark.parametrize("value", [mp.mpf("0.5"), mp.mpc(1, 2), 1 + 2j],
                         ids=["mpf", "mpc", "complex"])
@pytest.mark.parametrize("slot", range(3))
def test_gauss_parameters_must_be_rational(value, slot):
    abc = [F(1, 2), F(1, 3), F(5, 2)]
    abc[slot] = value
    with pytest.raises(InputError):
        gauss_test(*abc, n_max=1 << 12)


def test_gauss_parameters_are_read_as_fractions():
    assert (gauss_test(1, "1/3", 2.5, n_max=1 << 12)
            == gauss_test(F(1), F(1, 3), F(5, 2), n_max=1 << 12))


def test_gauss_input_guards():
    with pytest.raises(InvalidParams):
        gauss_test(F(1, 2), F(1, 2), F(2), n_max=100)
    with pytest.raises(InvalidC):
        gauss_test(F(1, 2), F(1, 2), 0)


def test_heun_limits_feed_the_domain(a2_params):
    r = boundary_radius(series_limits(a2_params))
    assert float(r) == pytest.approx(0.5615528128088303)


def test_r_star_is_the_singular_radius_only_for_negative_a():
    # S(r) = |L1| r + |L2| r^2 grows with r and is 1 at r*.  At the singular
    # radius min(1, |a|) it is 1 when a < 0, so r* is that radius, and
    # 1 + 2 min(a, 1/a) > 1 when a > 0, so r* lies inside it and the series
    # converges absolutely on |x| = r*
    for a in (*A_POOL, F(-1), F(21, 11)):
        limits = series_limits(HeunParams(a, 1, 1, 1, 1, 1))
        s = exact_membership_sum(limits, min(1, abs(a)))
        assert s == (1 if a < 0 else 1 + 2 * min(a, 1 / a)), a  # a = 2: 2, a = 3: 5/3
