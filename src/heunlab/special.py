"""Pochhammer products, a truncating Gauss-series summer, and a gamma-ratio bound.

The Gauss series here is deliberately a plain term recurrence rather than a
call into a library hypergeometric: callers need the exact tier to stay exact
and they need the truncation status, not an analytically continued value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .errors import DomainError, InvalidC
from .scalars import DEFAULT_PRECISION, as_mp, is_exact, to_rational


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); exact for exact input."""
    if k < 0:
        raise DomainError("pochhammer needs k >= 0")
    acc = Fraction(1) if is_exact(a) else a ** 0
    for i in range(k):
        acc = acc * (a + i)
    return acc


def _is_nonpositive_integer(c: Fraction) -> bool:
    return c.denominator == 1 and c <= 0


@dataclass(frozen=True)
class Hyp2F1Params:
    """Rational upper parameters a, b and lower parameter c of a Gauss series.
    Each is read by to_scalar, as HeunParams' are, so ints, Fractions,
    rational strings and finite Python floats are exact; an mpmath or
    complex value raises InputError."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, to_rational(getattr(self, name), name))
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
    if is_exact(x) and is_exact(tol):
        term = Fraction(1)
        total = Fraction(0)
        xv = Fraction(x)
    else:
        with mp.workprec(prec):
            term = as_mp(1, prec)
            total = as_mp(0, prec)
            xv = as_mp(x, prec)
            a, b, c = as_mp(a, prec), as_mp(b, prec), as_mp(c, prec)
    with mp.workprec(prec):
        tol_abs = abs(tol)
        for k in range(n_max):
            total = total + term
            if abs(term) < tol_abs:
                return total, True
            term = term * (a + k) * (b + k) * xv / ((c + k) * (k + 1))
    return total, False


def _ratio_args(N, h2, r, i2r, i2r1: int = 1):
    """(u, h2) of one ratio bound, u = 2 x1 = 2 + r + N - h2 + 2 i2r, validated."""
    try:
        ints = [int(v) for v in (N, h2, r, i2r)]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != [N, h2, r, i2r]:
        raise DomainError("N, h2, r, i2r must be integers")
    N, h2, r, i2r = ints
    if not (N - h2 > 0):
        raise DomainError(f"need N - h2 > 0, got N = {N}, h2 = {h2}")
    if h2 < 0 or r < 0 or i2r < 0:
        raise DomainError("h2, r, i2r must be nonnegative")
    if i2r1 < 1:
        raise DomainError("i2r1 must be a positive integer")
    return 2 + r + N - h2 + 2 * i2r, h2


@lru_cache(maxsize=None)
def _pi_enclosure(bits: int):
    """Integers (lo, hi) with lo < pi 2^bits < hi, from Machin's formula.

    pi = 16 atan(1/5) - 4 atan(1/239).  Each atan(1/x) 2^bits is summed from
    terms floor(2^bits / ((2k+1) x^(2k+1))) until they vanish: every term is
    off by less than 1 and the omitted tail is below 1, so k terms are off by
    less than k + 1.  Built on first use, once per bit count.
    """
    def atan_inv(x):
        total, power, k = 0, (1 << bits) // x, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k & 1 else term
            power //= x * x
            k += 1
        return total, k + 1

    a, err_a = atan_inv(5)
    b, err_b = atan_inv(239)
    mid, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    return mid - err, mid + err


def _pi_exceeds(num: int, den: int) -> bool:
    """Whether pi > num / den (num, den > 0); doubles the enclosure's bits
    until it decides, which ends because pi is irrational."""
    bits = 64
    while True:
        lo, hi = _pi_enclosure(bits)
        if lo * den >= num << bits:
            return True
        if hi * den <= num << bits:
            return False
        bits *= 2


def _bound_holds(u: int, h2: int, M: int) -> bool:
    """2 M^(h2/2) Gamma(s) > Gamma(s + h2/2) at s = x1 + M = (u + 2M)/2, exactly.

    This is lhs > rhs of pochhammer_ratio_lower_bound divided through by
    Gamma(x2) / Gamma(x1) > 0.  For even h2 = 2t, Gamma(s+t)/Gamma(s) is
    (s)_t, and 2^t clears the half-integers.  For odd h2 = 2t+1 both sides
    are squared: Gamma(s+t+1/2)/Gamma(s) is s C(2s, s) (s+1/2)_t sqrt(pi) / 4^s
    for an integer s, and (k+1)_t 4^k / (C(2k, k) sqrt(pi)) for s = k + 1/2,
    so the square is a rational times pi or over pi, decided against an
    integer enclosure of pi.
    """
    t, odd = divmod(h2, 2)
    v = u + 2 * M  # 2s
    if not odd:
        return 2 * (2 * M) ** t > math.prod(range(v, v + 2 * t, 2))
    side = 4 * M ** h2  # the left side squared
    if v % 2 == 0:
        s = v // 2
        num = s * math.comb(v, s) * math.prod(range(v + 1, v + 1 + 2 * t, 2))
        den = 4 ** s * 2 ** t
        return not _pi_exceeds(side * den * den, num * num)
    k = v // 2
    num = math.prod(range(k + 1, k + t + 1)) * 4 ** k
    den = math.comb(2 * k, k)
    return _pi_exceeds(num * num, side * den * den)


def ratio_bound_holds(N, h2, r, i2r, i2r1: int) -> bool:
    """The strict bound lhs > rhs of pochhammer_ratio_lower_bound, decided in integers."""
    return _bound_holds(*_ratio_args(N, h2, r, i2r, i2r1), i2r1)


def pochhammer_ratio_lower_bound(N, h2, r, i2r, i2r1: int, prec: int = DEFAULT_PRECISION):
    """Evaluate both sides of the Pochhammer-ratio lower bound.

    With x1 = (2+r+N-h2)/2 + i2r and x2 = (2+r+N)/2 + i2r the bound compares

        lhs = (x1)_{i2r1} / (x2)_{i2r1}
        rhs = Gamma(x2) / (2 Gamma(x1)) * i2r1^(-h2/2)

    and holds (strictly) for every i2r1 past a parameter-dependent floor, see
    :func:`min_index_for_ratio_bound`.  N, h2, r and i2r are integers.
    `holds` is decided exactly, in integers (ratio_bound_holds), so it is
    right at an exact tie; `prec` only sets the bits of the rendered lhs
    and rhs, which go through loggamma so large indices neither overflow
    nor underflow.

    Returns:
        (lhs, rhs, holds) as mpmath reals and a bool.

    Raises:
        DomainError: if N - h2 <= 0 or any argument leaves the positive region.
    """
    u, h2 = _ratio_args(N, h2, r, i2r, i2r1)
    holds = _bound_holds(u, h2, i2r1)
    with mp.workprec(prec):
        x1 = mp.mpf(u) / 2
        x2 = x1 + mp.mpf(h2) / 2
        lg = mp.loggamma
        lg_x1, lg_x2 = lg(x1), lg(x2)
        lhs = mp.exp(lg(x1 + i2r1) - lg_x1 - lg(x2 + i2r1) + lg_x2)
        rhs = mp.exp(lg_x2 - lg_x1 - (mp.mpf(h2) / 2) * mp.log(i2r1)) / 2
        return lhs, rhs, holds


def min_index_for_ratio_bound(N, h2, r, i2r, hard_cap: int = 10 ** 7) -> int:
    """Smallest index for which the Pochhammer-ratio bound holds.

    The ratio lhs/rhs = 2 M^(h2/2) Gamma(x1+M)/Gamma(x2+M) increases strictly
    in M (consecutive ratio (1+1/M)^(h2/2) (x1+M)/(x2+M) > 1) and tends to 2,
    so the predicate is monotone.  Since Gamma(s + a) / Gamma(s) is close to
    (s + (a-1)/2)^a, a = h2/2, the floor is guessed as the least integer F >=
    (x1 + (a-1)/2) / (2^(1/a) - 1); the exact predicate (ratio_bound_holds)
    then certifies that F holds and F - 1 fails, widening the bracket
    when either check is off, so the floor is exact whatever the guess.
    """
    u, h2 = _ratio_args(N, h2, r, i2r)

    def holds(M):
        return M >= 1 and _bound_holds(u, h2, M)

    a = h2 / 2  # x1 + (a-1)/2 >= 5/4 > 0, as x1 >= 3/2
    hi = 1 if h2 == 0 else min(math.ceil((u / 2 + (a - 1) / 2) / (2 ** (1 / a) - 1)), hard_cap)
    # widen lo < hi around the guess, by doubling steps, until holds(hi)
    # and not holds(lo); then bisect
    lo, step = hi - 1, 1
    while not holds(hi):
        if hi >= hard_cap:
            raise DomainError(f"ratio bound still fails at index {hard_cap}")
        lo, hi, step = hi, min(hi + step, hard_cap), 2 * step
    while holds(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi
