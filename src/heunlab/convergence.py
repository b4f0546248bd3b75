"""Absolute-convergence domain and boundary radius.

For a recurrence whose lag coefficients tend to limits L_1 .. L_k, the
guaranteed domain of absolute convergence of sum d_n x^n is the set where
sum_i |L_i| |x|^i < 1.  Its boundary meets the positive axis at the unique
positive root r* of sum_i |L_i| r^i = 1 (the membership polynomial is
strictly increasing in r, so the root is simple and bisection is safe).
domain_sum is the one membership rule: `eval` refuses, and `domain` judges,
a point by it, exactly for rational limits and a rational point.

Everything here is exact or mpmath; the float64 Gauss-series test of the
classical boundary case lives with the other float64 scans in probes.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .errors import AllZeroLimits
from .scalars import DEFAULT_PRECISION, as_mp, is_exact


def _abs_limits(limits, prec):
    with mp.workprec(prec):
        mags = [mp.fabs(as_mp(L, prec)) for L in limits]
    if all(m == 0 for m in mags):
        raise AllZeroLimits("every lag limit vanishes; no finite boundary radius")
    return mags


def membership_sum(limits, x, prec: int = DEFAULT_PRECISION):
    """sum_i |L_i| |x|^i evaluated at working precision."""
    with mp.workprec(prec):
        if not any(limits):  # the sum is 0; eta_z refuses, as r* is infinite
            return mp.mpf(0)
        return sum(eta_z(limits, mp.fabs(as_mp(x, prec)), prec), mp.mpf(0))


def _weights(mags, r):
    """|L_1| r, |L_2| r^2, ... by a running power of r, in the tier of mags and r."""
    p = 1
    for m in mags:
        p = p * r
        yield m * p


def exact_membership_sum(limits, x) -> Fraction:
    """sum_i |L_i| |x|^i in Fractions, for rational limits and x."""
    return sum(_weights(map(abs, limits), abs(Fraction(x))))


def domain_sum(limits, x, prec: int = DEFAULT_PRECISION):
    """sum_i |L_i| |x|^i, the membership rule: x lies in the guaranteed
    domain iff this is below 1.

    An exact Fraction for rational limits and a rational x, so the verdict
    is exact there; otherwise membership_sum at prec bits.
    """
    if is_exact(x) and all(is_exact(L) for L in limits):
        return exact_membership_sum(limits, x)
    return membership_sum(limits, x, prec)


def boundary_radius(limits, prec: int = DEFAULT_PRECISION):
    """Unique positive r with sum_i |L_i| r^i = 1.

    Up to two lags take the quadratic formula (in the cancellation-free
    arrangement), more lags _bisect_radius.  Both land within an ulp or two
    of each other at the working precision; tests compare them across
    random limit pairs.
    """
    if len(limits) > 2:
        return _bisect_radius(limits, prec)
    m1, m2 = (*_abs_limits(limits, prec), 0)[:2]
    with mp.workprec(prec + 16):
        if m2 == 0:  # then m1 > 0: _abs_limits refused all zeros
            r = 1 / m1
        else:
            # root of m2 r^2 + m1 r - 1; this form avoids subtractive cancellation
            r = 2 / (m1 + mp.sqrt(m1 * m1 + 4 * m2))
    with mp.workprec(prec):
        return +r


def _bisect_radius(limits, prec: int):
    """boundary_radius for any number of lags, by bracketing and halving."""
    mags = _abs_limits(limits, prec)
    with mp.workprec(prec + 16):
        def f(r):  # S(r) - 1, with the -1 added first
            return sum(_weights(mags, r), mp.mpf(-1))

        hi = mp.mpf(1)
        while f(hi) < 0:
            hi = hi * 2
        lo = mp.mpf(0)
        # prec+16 working bits; 8 extra halvings land the midpoint well under an ulp at prec
        for _ in range(mp.prec + 8):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        r = (lo + hi) / 2
    with mp.workprec(prec):
        return +r


def radius_bracketed(limits, r, prec: int) -> bool:
    """Whether the root r* lies strictly between r -/+ one ulp, r a positive
    mpf of at most prec bits.

    The ends are exact dyadic rationals and the membership sum increases in
    r, so this holds iff S(lo) < 1 < S(hi), decided in Fractions for
    rational limits and any number of lags.
    """
    man, exp = r.man_exp
    ulp = exp + man.bit_length() - prec  # r = units 2^ulp
    units = man << (exp - ulp)
    scale = Fraction(2) ** ulp
    return (exact_membership_sum(limits, (units - 1) * scale) < 1
            < exact_membership_sum(limits, (units + 1) * scale))


def eta_z(limits, r, prec: int = DEFAULT_PRECISION):
    """The boundary weights (|L_1| r, |L_2| r^2, ...); they sum to 1 at r = r*."""
    mags = _abs_limits(limits, prec)
    with mp.workprec(prec):
        return tuple(_weights(mags, as_mp(r, prec)))
