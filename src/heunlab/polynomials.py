"""Polynomials and rational functions in the index variable n.

Coefficients are stored lowest power first.  The scalar tier is whatever
the caller put in, and arithmetic never converts; a RationalFnInN, the
recurrences' lag coefficient, takes rational coefficients only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError, InvalidParams, PoleAtIndex
from .scalars import is_exact


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class PolynomialInN:
    """Dense polynomial p(n), coefficients lowest power first.

    The zero polynomial is the empty tuple and reports degree -1.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise InvalidParams("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @cached_property
    def _cleared(self):
        """(integer numerators, common denominator) of rational coefficients,
        the denominator 1 for integers; InputError for any other coefficient."""
        if not all(is_exact(c) for c in self.coeffs):
            raise InputError(f"coefficients {self.coeffs} are not all rational")
        fracs = [Fraction(c) for c in self.coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        return tuple(f.numerator * (den // f.denominator) for f in fracs), den

    @cached_property
    def integer_roots(self) -> frozenset:
        """nonneg_integer_roots(self), isolated once per polynomial: the lags
        of a Heun system share one denominator object."""
        return nonneg_integer_roots(self)

    def __call__(self, n):
        """p(n) by Horner, in the tier of the coefficients and of n."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolynomialInN(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return PolynomialInN(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolynomialInN(out)

    def scale(self, factor):
        return PolynomialInN(tuple(factor * c for c in self.coeffs))


def poly_from(*coeffs) -> PolynomialInN:
    return PolynomialInN(coeffs)


def exact_div(a, b):
    """a / b, as a Fraction when both are ints (true division would give a float)."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _taylor_shift(ints, a) -> list:
    """Coefficients of p(n + a), lowest power first."""
    c = list(ints)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _sign_changes(coeffs) -> bool:
    """Whether the nonzero coefficients change sign; if not, by Descartes' rule
    of signs, the polynomial has no positive root."""
    signs = [c > 0 for c in coeffs if c]
    return any(s != t for s, t in zip(signs, signs[1:]))


def cauchy_bound(coeffs) -> int:
    """2 + floor(max_{i<d} |c_i| / |c_d|), 1 for a constant: an integer above
    every root's modulus (Cauchy), exact for int and Fraction coefficients."""
    if len(coeffs) <= 1:
        return 1
    return 2 + max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1])


def _closed_form_roots(ints) -> set:
    """Positive integer roots of an integer polynomial p of degree 1 or 2
    with p(0) != 0: -c0 / c1, or (-c1 +- s) / (2 c2) when the discriminant
    c1^2 - 4 c2 c0 is a perfect square s^2 (otherwise the roots are
    irrational or complex), each kept when the division is exact."""
    if len(ints) == 2:
        candidates = [(-ints[0], ints[1])]
    else:
        c0, c1, c2 = ints
        disc = c1 * c1 - 4 * c2 * c0
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return set()
        candidates = [(-c1 + s, 2 * c2), (-c1 - s, 2 * c2)]
    return {num // den for num, den in candidates if num % den == 0 and num // den > 0}


def _positive_integer_roots(ints) -> set:
    """Positive integer roots of an integer polynomial p with p(0) != 0:
    in closed form up to degree 2 (every Heun denominator's), by bisection
    above it."""
    return _closed_form_roots(ints) if len(ints) in (2, 3) else _bisect_roots(ints)


def _bisect_roots(ints) -> set:
    """Positive integer roots of an integer polynomial p with p(0) != 0.

    Bisects (0, 2^k), 2^k past the Cauchy root bound, into dyadic intervals
    and tests each midpoint exactly.  An interval (lo, lo + w) is dropped when
    (1 + x)^d p(lo + w / (1 + x)), whose positive roots are p's roots in it,
    has no sign change, or when w = 1, as it then holds no integer; so every
    integer root is the midpoint of an interval that is kept.
    """
    roots = set()
    stack = [(0, 1 << cauchy_bound(ints).bit_length(), ints)] if _sign_changes(ints) else []
    while stack:
        lo, width, shifted = stack.pop()  # shifted holds p(lo + n)
        if width == 1 or not _sign_changes(
                _taylor_shift([c * width ** i for i, c in enumerate(shifted)][::-1], 1)):
            continue
        half = width // 2
        right = _taylor_shift(shifted, half)
        if right[0] == 0:
            roots.add(lo + half)
        stack += [(lo, half, shifted), (lo + half, half, right)]
    return roots


def nonneg_integer_roots(poly: PolynomialInN) -> frozenset:
    """Nonnegative integer roots of a polynomial with rational coefficients.

    The coefficients are cleared to integers and the roots found exactly
    (see _positive_integer_roots), so no root is missed, however large,
    multiple or clustered.  Any other coefficient raises InputError.
    """
    if poly.is_zero:
        raise InvalidParams("zero polynomial has every integer as a root")
    coeffs = poly._cleared[0]
    # strip a factor n^v exactly
    v = next(i for i, c in enumerate(coeffs) if c != 0)
    coeffs = coeffs[v:]
    roots = {0} if v else set()
    if len(coeffs) > 1:
        roots |= _positive_integer_roots(coeffs)
    return frozenset(roots)


@dataclass(frozen=True)
class RationalFnInN:
    """Ratio of two polynomials in n with rational coefficients, its
    nonnegative integer poles precomputed."""

    num: PolynomialInN
    den: PolynomialInN

    def __post_init__(self):
        if self.den.is_zero:
            raise InvalidParams("rational function needs a nonzero denominator")
        if not all(is_exact(c) for c in (*self.num.coeffs, *self.den.coeffs)):
            raise InputError("a lag coefficient needs rational polynomial coefficients")

    @cached_property
    def pole_set(self) -> frozenset:
        return self.den.integer_roots

    def __call__(self, n):
        if n in self.pole_set:
            raise PoleAtIndex(n)
        return exact_div(self.num(n), self.den(n))

    @property
    def degrees(self):
        return (self.num.degree, self.den.degree)

    def leading_ratio(self):
        """Limit of num/den when the degrees match; 0 when num trails; error otherwise."""
        dn, dd = self.degrees
        if dn > dd:
            raise InvalidParams("rational coefficient function diverges with n")
        if dn < dd:
            return Fraction(0)
        return exact_div(self.num.leading, self.den.leading)
