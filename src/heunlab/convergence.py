"""Absolute-convergence domain, boundary radius, and a Gauss-series tester.

For a recurrence whose lag coefficients tend to limits L_1 .. L_k, the
guaranteed domain of absolute convergence of sum d_n x^n is the set where
sum_i |L_i| |x|^i < 1.  Its boundary meets the positive axis at the unique
positive root r* of sum_i |L_i| r^i = 1 (the membership polynomial is
strictly increasing in r, so the root is simple and bisection is safe).

gauss_test is the classical boundary case, the 2F1 series at x = 1: an exact
verdict from Re(c - a - b) next to an empirical one.  Its terms stream
through the probes' chunked driver and reused workspace as the scalar step
rule, and the decay exponent is fitted from running least-squares sums, so
no array grows with the number of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .errors import AllZeroLimits, InputError, InvalidParams
from .probes import stream_terms
from .scalars import DEFAULT_PRECISION, as_mp, is_exact
from .special import Hyp2F1Params, _is_nonpositive_integer


def _abs_limits(limits, prec):
    with mp.workprec(prec):
        mags = [mp.fabs(as_mp(L, prec)) for L in limits]
    if all(m == 0 for m in mags):
        raise AllZeroLimits("every lag limit vanishes; no finite boundary radius")
    return mags


def membership_sum(limits, x, prec: int = DEFAULT_PRECISION):
    """sum_i |L_i| |x|^i evaluated at working precision."""
    with mp.workprec(prec):
        return sum(eta_z(limits, mp.fabs(as_mp(x, prec)), prec), mp.mpf(0))


@dataclass(frozen=True)
class MembershipReport:
    inside: bool
    total: object
    radius_bound: object  # r*; |x| < r* is sufficient but not necessary for inside


def exact_membership_sum(limits, x) -> Fraction:
    """sum_i |L_i| |x|^i in Fractions, for rational limits and x."""
    ax = abs(Fraction(x))
    total, p = 0, 1
    for L in limits:
        p *= ax
        total += abs(L) * p
    return total


def is_inside(limits, x, total) -> bool:
    """Whether sum_i |L_i| |x|^i < 1: exactly for rational limits and x, else
    from `total`, the sum membership_sum gave."""
    if is_exact(x) and all(is_exact(L) for L in limits):
        return exact_membership_sum(limits, x) < 1
    return bool(total < 1)


def domain_membership(limits, x, prec: int = DEFAULT_PRECISION) -> MembershipReport:
    total = membership_sum(limits, x, prec)
    return MembershipReport(is_inside(limits, x, total), total, boundary_radius(limits, prec))


def boundary_radius(limits, prec: int = DEFAULT_PRECISION, method: str = "auto"):
    """Unique positive r with sum_i |L_i| r^i = 1.

    method "closed" uses the two-lag quadratic formula (in the cancellation-free
    arrangement), "bisect" brackets and halves, "auto" picks closed when it
    applies.  Both land within an ulp or two of each other at the working
    precision; tests compare them across random limit pairs.
    """
    mags = _abs_limits(limits, prec)
    if method not in ("auto", "closed", "bisect"):
        raise InvalidParams(f"unknown method {method!r}")
    with mp.workprec(prec + 16):
        if method in ("auto", "closed") and len(mags) <= 2:
            if len(mags) == 1:
                r = 1 / mags[0]
            else:
                m1, m2 = mags
                if m2 == 0:
                    if m1 == 0:
                        raise AllZeroLimits("every lag limit vanishes")
                    r = 1 / m1
                else:
                    # root of m2 r^2 + m1 r - 1; this form avoids subtractive cancellation
                    r = 2 / (m1 + mp.sqrt(m1 * m1 + 4 * m2))
            with mp.workprec(prec):
                return +r
        if method == "closed":
            raise InvalidParams("closed form is only available for k <= 2 lags")

        def f(r):
            total = mp.mpf(-1)
            p = mp.mpf(1)
            for m in mags:
                p = p * r
                total = total + m * p
            return total

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
        rv = as_mp(r, prec)
        out = []
        p = mp.mpf(1)
        for m in mags:
            p = p * rv
            out.append(m * p)
        return tuple(out)


@dataclass(frozen=True)
class GaussReport:
    """Verdict and empirical diagnostics for sum |(a)_n (b)_n / ((c)_n n!)|."""

    verdict: str  # ABS_CONVERGENT | DIVERGENT | TERMINATING
    s: float  # Re(c - a - b)
    predicted_exponent: float  # |t_n| ~ n^predicted
    fitted_exponent: float
    checkpoints: tuple  # (n, partial sum) at powers of two
    gaps: tuple
    gap_ratios: tuple
    trend: str  # shrinking | growing | flat
    terminated: bool
    n_terms: int


def _ratio_step(ac: complex, bc: complex, cc: complex, terminated: bool):
    """The scalar step rule: t_j = t_{j-1} |(a+n)(b+n)| / |(c+n)(n+1)|, n = j - 1.

    The k = 1 case of the probes' scan, with no rescaling: the carried state
    is t_{j0-1}, and a cumulative product seeded with it gives the chunk's
    terms in stream order.
    """

    def step(ws, j0, j1, carry):
        count = j1 - j0
        n = np.add(ws.base[:count], j0 - 1, out=ws.idx[:count])
        num, den = ws.c1[:count], ws.c2[:count]
        ratio, scratch = ws.a[:count], ws.b[:count]
        np.abs(np.multiply(np.add(n, ac, out=num), np.add(n, bc, out=den), out=num), out=ratio)
        np.multiply(np.add(n, cc, out=den), np.add(n, 1.0, out=scratch), out=den)
        np.divide(ratio, np.abs(den, out=scratch), out=ratio)
        ratio[0] *= carry
        terms = np.cumprod(ratio, out=ws.terms[:count])
        if terminated:
            np.copyto(terms, 0.0, where=np.isnan(terms, out=ws.keep[:count]))
        return terms, None, float(terms[-1])

    return step


def gauss_test(a, b, c, n_max: int = 1 << 20) -> GaussReport:
    """Classify absolute convergence of the Gauss series at x = 1 and measure it.

    The exact verdict uses the classical criterion: absolutely convergent iff
    Re(c - a - b) > 0 (with termination when a or b is a nonpositive integer).
    The empirical channel streams |t_n|, n = 0 .. n_max, in float64 through
    the probes' chunked driver (probes.stream_terms) and its reused
    workspace, so no array grows with n_max.  It reports Cauchy gaps
    S_{2n} - S_n at dyadic checkpoints (shrinking gaps are the observable
    signature of a summable tail) and fits the decay exponent of the terms
    by least squares of ln |t_n| on ln n over [n_max/4, n_max], accumulated
    chunk by chunk as running sums.  The sums are centred at ln n_max and
    ln t_{n_max/4}, so the normal equations do not cancel even when the
    exponent is near 0.
    """
    Hyp2F1Params(a, b, c)  # validates c
    if n_max < 1 << 12:
        raise InvalidParams("n_max too small for dyadic diagnostics")
    terminated = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)

    def _c(v):
        try:
            return complex(float(v), 0.0) if isinstance(v, Fraction) else complex(v)
        except OverflowError as exc:
            raise InputError("gauss parameter does not fit in float64") from exc

    ac, bc, cc = _c(a), _c(b), _c(c)
    s_val = (cc - ac - bc).real
    if is_exact(a) and is_exact(b) and is_exact(c):
        s_exact = Fraction(c) - Fraction(a) - Fraction(b)
        convergent = s_exact > 0
    else:
        convergent = s_val > 0
    if terminated:
        verdict = "TERMINATING"
    else:
        verdict = "ABS_CONVERGENT" if convergent else "DIVERGENT"

    lo, top = n_max // 4, math.log(n_max)
    fit = [0, 0.0, 0.0, 0.0, 0.0]  # count, sum x, sum y, sum x^2, sum x y
    level = None  # ln t_lo, once the window is reached

    def visit(ws, j0, mant, expo, terms, sums):
        # x = ln n - ln n_max, y = ln t_n - ln t_lo over the window, 0 where t_n <= 0
        nonlocal level
        skip = max(lo - j0, 0)
        size = terms.size - skip
        if size <= 0:
            return
        vals = terms[skip:]
        if level is None:
            level = math.log(vals[0]) if vals[0] > 0 else 0.0
        x, y, keep = ws.idx[:size], ws.a[:size], ws.keep[:size]
        np.greater(vals, 0.0, out=keep)
        np.log(np.add(ws.base[:size], j0 + skip, out=x), out=x)
        x -= top
        x *= keep
        y.fill(level)
        np.log(vals, out=y, where=keep)
        y -= level
        # products by ufunc, not BLAS: a threaded BLAS's spinning workers
        # would bill their wait to this op and the next
        xx, xy = np.multiply(x, x, out=ws.b[:size]), np.multiply(x, y, out=ws.spare[:size])
        for i, v in enumerate((np.count_nonzero(keep), x.sum(), y.sum(), xx.sum(), xy.sum())):
            fit[i] += v

    checkpoints, _ = stream_terms(_ratio_step(ac, bc, cc, terminated), 1.0,
                                  n_max + 1, n_max, visit)
    gaps = tuple(round(b2 - b1, 12) for (_, b1), (_, b2) in zip(checkpoints, checkpoints[1:]))
    ratios_g = []
    for g0, g1 in zip(gaps, gaps[1:]):
        ratios_g.append(float("inf") if g0 == 0 else g1 / g0)
    tail = ratios_g[-3:]
    if tail and all(q < 0.98 for q in tail):
        trend = "shrinking"
    elif tail and all(q > 1.02 for q in tail):
        trend = "growing"
    else:
        trend = "flat"

    count, sx, sy, sxx, sxy = fit
    if count < 16:
        slope = float("-inf")
    else:
        # a term past float64 range makes the sums non-finite: no fit
        slope = float((count * sxy - sx * sy) / (count * sxx - sx * sx))
        if not math.isfinite(slope):
            slope = float("nan")
    predicted = (ac + bc - cc).real - 1.0
    return GaussReport(verdict, float(s_val), float(predicted), slope,
                       tuple(checkpoints), gaps, tuple(round(q, 12) for q in ratios_g),
                       trend, bool(terminated), n_max)
