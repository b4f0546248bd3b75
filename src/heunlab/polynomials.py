"""Polynomials and rational functions in the index variable n.

Coefficients are stored lowest power first.  The scalar tier (exact Fraction
or mpmath float) is whatever the caller put in; arithmetic never converts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParams, PoleAtIndex
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
        """(integer numerators, common denominator) for rational coefficients.

        None unless every coefficient is an int or a Fraction and at least one
        is a Fraction: only then does Horner return a Fraction, which the
        cleared form reproduces with one gcd instead of one per step.
        """
        coeffs = self.coeffs
        if not (all(isinstance(c, (int, Fraction)) for c in coeffs)
                and any(isinstance(c, Fraction) for c in coeffs)):
            return None
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        return tuple(f.numerator * (den // f.denominator) for f in fracs), den

    def __call__(self, n):
        cleared = self._cleared if isinstance(n, int) else None
        if cleared is not None:
            nums, den = cleared
            acc = 0
            for c in reversed(nums):
                acc = acc * n + c
            return Fraction(acc, den)
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

    def shift(self, offset):
        """Return the polynomial q with q(n) = p(n + offset)."""
        # Horner composition with (n + offset); degree stays tiny here so O(d^2) is fine
        result = PolynomialInN(())
        x_plus = PolynomialInN((offset, 1))
        for c in reversed(self.coeffs):
            result = result * x_plus + PolynomialInN((c,))
        return result

    def as_float(self) -> "PolynomialInN":
        """The polynomial with float64 coefficients, to evaluate on numpy arrays."""
        return PolynomialInN(tuple(float(c) for c in self.coeffs))

    def abs_coeffs(self):
        return PolynomialInN(tuple(abs(c) for c in self.coeffs))


def poly_from(*coeffs) -> PolynomialInN:
    return PolynomialInN(coeffs)


def _low_degree_roots(coeffs) -> set:
    """Nonnegative integer roots of c0 + c1 n or c0 + c1 n + c2 n^2, exactly.

    The coefficients are rational; cleared to integers, a linear root is one
    division and a quadratic's roots are rational only when the discriminant
    is a perfect square, which math.isqrt decides.
    """
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    if len(ints) == 2:
        pairs = [(-ints[0], ints[1])]
    else:
        c, b, a = ints
        disc = b * b - 4 * a * c
        root = math.isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            return set()
        pairs = [(-b + root, 2 * a), (-b - root, 2 * a)]
    return {num // d for num, d in pairs if num % d == 0 and num // d >= 0}


def nonneg_integer_roots(poly: PolynomialInN, tol: float = 1e-9) -> frozenset:
    """Nonnegative integer roots of a polynomial.

    Rational polynomials of degree <= 2 (once a factor n^v is split off) are
    solved exactly, which covers every Heun denominator.  Otherwise candidates
    come from a numeric root solve; each candidate is then verified in the
    polynomial's own scalar tier, so exact-tier results are exact.  The
    numeric localization can miss a root: it looks only at the integers next
    to each numeric root, and clustered or multiple roots far from the origin
    can land farther away.
    """
    if poly.is_zero:
        raise InvalidParams("zero polynomial has every integer as a root")
    if poly.degree == 0:
        return frozenset()
    cand = set()
    # strip a factor n^v exactly
    v = 0
    coeffs = list(poly.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        v += 1
    if v:
        cand.add(0)
    if 1 < len(coeffs) <= 3 and all(is_exact(c) for c in coeffs):
        return frozenset(cand | _low_degree_roots(coeffs))
    if len(coeffs) > 1:
        try:
            floats = [float(c) for c in coeffs]
        except OverflowError:
            big = max(abs(Fraction(c)) for c in coeffs)
            floats = [float(Fraction(c) / big) for c in coeffs]
        arr = np.array(list(reversed(floats)), dtype=float)
        for root in np.roots(arr):
            if abs(root.imag) > 1e-6 * (1 + abs(root.real)):
                continue
            k = round(root.real)
            if k >= 0 and abs(root.real - k) < 0.5:
                cand.update(j for j in (k - 1, k, k + 1) if j >= 0)
    roots = set()
    for k in cand:
        val = poly(k)
        if is_exact(val):
            if val == 0:
                roots.add(k)
        elif abs(val) <= tol * max(1.0, float(max(abs(c) for c in poly.coeffs))):
            roots.add(k)
    return frozenset(roots)


@dataclass(frozen=True)
class RationalFnInN:
    """Ratio of two polynomials in n with its nonnegative integer poles precomputed."""

    num: PolynomialInN
    den: PolynomialInN

    def __post_init__(self):
        if self.den.is_zero:
            raise InvalidParams("rational function needs a nonzero denominator")

    @cached_property
    def pole_set(self) -> frozenset:
        return nonneg_integer_roots(self.den)

    def __call__(self, n):
        if n in self.pole_set:
            raise PoleAtIndex(n)
        num, den = self.num(n), self.den(n)
        # int / int is the one exact pair that true division turns into a float
        if isinstance(num, int) and isinstance(den, int):
            return Fraction(num, den)
        return num / den

    def shift(self, offset) -> "RationalFnInN":
        return RationalFnInN(self.num.shift(offset), self.den.shift(offset))

    def scale(self, factor) -> "RationalFnInN":
        return RationalFnInN(self.num.scale(factor), self.den)

    @property
    def degrees(self):
        return (self.num.degree, self.den.degree)

    def leading_ratio(self):
        """Limit of num/den when the degrees match; 0 when num trails; error otherwise."""
        dn, dd = self.degrees
        if dn > dd:
            raise InvalidParams("rational coefficient function diverges with n")
        if dn < dd:
            nl = self.num.leading if not self.num.is_zero else 0
            return 0 * nl if not is_exact(nl) else Fraction(0)
        return self.num.leading / self.den.leading


def monic_quadratic(c1, c0) -> PolynomialInN:
    """n^2 + c1*n + c0 with exact coefficients preserved."""
    if is_exact(c1) and is_exact(c0):
        return PolynomialInN((Fraction(c0), Fraction(c1), Fraction(1)))
    return PolynomialInN((c0, c1, 1))
