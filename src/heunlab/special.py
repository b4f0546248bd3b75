"""Pochhammer products, a truncating Gauss-series summer, and a gamma-ratio bound.

The Gauss series here is deliberately a plain term recurrence rather than a
call into a library hypergeometric: callers need the exact tier to stay exact
and they need the truncation status, not an analytically continued value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

from .errors import DomainError, InvalidC
from .scalars import DEFAULT_PRECISION, as_mp, is_exact, scalar_abs


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); exact for exact input."""
    if k < 0:
        raise DomainError("pochhammer needs k >= 0")
    acc = Fraction(1) if is_exact(a) else a ** 0
    for i in range(k):
        acc = acc * (a + i)
    return acc


def _is_nonpositive_integer(c) -> bool:
    if isinstance(c, int):
        return c <= 0
    if isinstance(c, Fraction):
        return c.denominator == 1 and c <= 0
    if isinstance(c, (mpmath.mpf, mpmath.mpc)):
        if mp.im(c) != 0:
            return False
        re = mp.re(c)
        return re <= 0 and mpmath.isint(re)
    return False


@dataclass(frozen=True)
class Hyp2F1Params:
    """Upper parameters a, b and lower parameter c of a Gauss series."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        if _is_nonpositive_integer(self.c):
            raise InvalidC(f"lower parameter c = {self.c} is a nonpositive integer")


def hyp2f1_series(params: Hyp2F1Params, x, tol, n_max: int, prec: int = DEFAULT_PRECISION):
    """Partial sum of 2F1(a, b; c; x) by the term ratio recurrence.

    Terms satisfy t_0 = 1 and t_{k+1} = t_k (a+k)(b+k) x / ((c+k)(k+1)).
    Summation stops when |t_k| < tol or after n_max terms.

    Returns:
        (value, converged): the partial sum and whether the tolerance was met.
    """
    a, b, c = params.a, params.b, params.c
    exact = is_exact(a) and is_exact(b) and is_exact(c) and is_exact(x) and is_exact(tol)
    if exact:
        term = Fraction(1)
        total = Fraction(0)
        xv = Fraction(x)
    else:
        with mp.workprec(prec):
            term = as_mp(1, prec)
            total = as_mp(0, prec)
            xv = as_mp(x, prec)
            a, b, c = as_mp(a, prec), as_mp(b, prec), as_mp(c, prec)
    tol_abs = scalar_abs(tol, prec)
    with mp.workprec(prec):
        for k in range(n_max):
            total = total + term
            if scalar_abs(term, prec) < tol_abs:
                return total, True
            term = term * (a + k) * (b + k) * xv / ((c + k) * (k + 1))
    return total, False


@lru_cache(maxsize=16)  # an audit searches six parameter sets, one after another
def _ratio_base(N, h2, r, i2r, prec: int):
    """Validated (h2, x1, x2, loggamma(x1), loggamma(x2)) of one ratio bound.

    The part that does not depend on the index i2r1: a floor search probes
    one parameter set at many indices and computes it once.
    """
    with mp.workprec(prec):
        N, h2, r, i2r = (as_mp(v, prec) for v in (N, h2, r, i2r))
        if not (N - h2 > 0):
            raise DomainError(f"need N - h2 > 0, got N = {N}, h2 = {h2}")
        if h2 < 0 or r < 0 or i2r < 0:
            raise DomainError("h2, r, i2r must be nonnegative")
        x1 = (2 + r + N - h2) / 2 + i2r
        x2 = (2 + r + N) / 2 + i2r
        if x1 <= 0:
            raise DomainError(f"gamma argument {x1} is not positive")
        return h2, x1, x2, mp.loggamma(x1), mp.loggamma(x2)


def pochhammer_ratio_lower_bound(N, h2, r, i2r, i2r1: int, prec: int = DEFAULT_PRECISION):
    """Evaluate both sides of the Pochhammer-ratio lower bound.

    With x1 = (2+r+N-h2)/2 + i2r and x2 = (2+r+N)/2 + i2r the bound compares

        lhs = (x1)_{i2r1} / (x2)_{i2r1}
        rhs = Gamma(x2) / (2 Gamma(x1)) * i2r1^(-h2/2)

    and holds (strictly) for every i2r1 past a parameter-dependent floor, see
    :func:`min_index_for_ratio_bound`.  Evaluation goes through loggamma so
    large indices neither overflow nor underflow; loggamma(x1) and
    loggamma(x2) are kept for the last few parameter sets, so the probes of a
    floor search compute them once.

    Returns:
        (lhs, rhs, holds) as mpmath reals and a bool.

    Raises:
        DomainError: if N - h2 <= 0 or any argument leaves the positive region.
    """
    h2, x1, x2, lg_x1, lg_x2 = _ratio_base(N, h2, r, i2r, prec)
    if i2r1 < 1:
        raise DomainError("i2r1 must be a positive integer")
    with mp.workprec(prec):
        lg = mp.loggamma
        lhs = mp.exp(lg(x1 + i2r1) - lg_x1 - lg(x2 + i2r1) + lg_x2)
        rhs = mp.exp(lg_x2 - lg_x1 - (h2 / 2) * mp.log(i2r1)) / 2
        return lhs, rhs, bool(lhs > rhs)


def min_index_for_ratio_bound(N, h2, r, i2r, prec: int = DEFAULT_PRECISION,
                              hard_cap: int = 10 ** 7) -> int:
    """Smallest index for which the Pochhammer-ratio bound holds.

    The ratio lhs/rhs = 2 M^(h2/2) Gamma(x1+M)/Gamma(x2+M) increases strictly
    in M (consecutive ratio (1+1/M)^(h2/2) (x1+M)/(x2+M) > 1) and tends to 2,
    so the predicate is monotone and a doubling search is exact.
    """
    def holds(M):
        return pochhammer_ratio_lower_bound(N, h2, r, i2r, M, prec)[2]

    if holds(1):
        return 1
    lo, hi = 1, 2
    while not holds(hi):
        lo, hi = hi, hi * 2
        if hi > hard_cap:
            raise DomainError(f"ratio bound still fails at index {hard_cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi
