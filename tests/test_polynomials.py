"""Polynomials and rational functions in the recurrence index."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (InputError, InvalidParams, PoleAtIndex, PolynomialInN,
                     RationalFnInN, nonneg_integer_roots, poly_from)
from heunlab.polynomials import _bisect_roots, _closed_form_roots


def test_quadratic_evaluation():
    p = poly_from(2, 3, 1)  # n^2 + 3n + 2, lowest power first
    assert p(1) == 6
    assert p(Fraction(1, 2)) == Fraction(15, 4)


def test_zero_polynomial():
    z = PolynomialInN(())
    assert z(7) == 0
    assert z.degree == -1 and z.is_zero
    with pytest.raises(InvalidParams):
        _ = z.leading


def test_monomial():
    p = poly_from(0, 0, 0, 1)  # n^3
    assert p(2) == 8
    assert p.degree == 3


def test_arithmetic_matches_pointwise(rng):
    for _ in range(20):
        a = poly_from(*[Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 5))])
        b = poly_from(*[Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(1, 5))])
        n = Fraction(rng.randrange(-10, 11), rng.randrange(1, 4))
        assert (a + b)(n) == a(n) + b(n)
        assert (a - b)(n) == a(n) - b(n)
        assert (a * b)(n) == a(n) * b(n)
        assert a.scale(Fraction(3, 2))(n) == Fraction(3, 2) * a(n)


def test_trailing_zero_coefficients_are_trimmed():
    p = PolynomialInN((Fraction(1), Fraction(2), Fraction(0), Fraction(0)))
    assert p.degree == 1
    assert p == poly_from(1, 2)


def test_nonneg_integer_roots_exact():
    # (n + 1)(n - 3)(n - 7)(n + 2) has nonnegative integer roots {3, 7}
    q = poly_from(1, 1) * poly_from(-3, 1) * poly_from(-7, 1) * poly_from(2, 1)
    assert nonneg_integer_roots(q) == frozenset({3, 7})
    assert nonneg_integer_roots(poly_from(1)) == frozenset()


def test_nonneg_integer_roots_strips_origin_factor():
    # n^2 (n - 4): the origin root comes from the monomial factor
    p = poly_from(0, 0, -4, 1)
    assert nonneg_integer_roots(p) == frozenset({0, 4})


def test_nonneg_integer_roots_with_huge_coefficients():
    # coefficients past float range force the exact rescale before localization
    scale = Fraction(10) ** 400
    p = (poly_from(-2, 1) * poly_from(-5, 1)).scale(scale)
    assert nonneg_integer_roots(p) == frozenset({2, 5})


def test_exact_double_root_far_out():
    # (n - 10^9)^2: a float64 solve splits the double root to about
    # 10^9 +- 11, outside the +-1 window around each candidate; the exact
    # discriminant is 0
    p = poly_from(-10 ** 9, 1) * poly_from(-10 ** 9, 1)
    assert nonneg_integer_roots(p) == frozenset({10 ** 9})
    assert nonneg_integer_roots(p.scale(Fraction(3, 7))) == frozenset({10 ** 9})


def test_exact_roots_of_low_degree_denominators():
    assert nonneg_integer_roots(poly_from(0, -10 ** 6, 1)) == frozenset({0, 10 ** 6})
    # (2n - 3)(n - 4): one rational root and one integer root
    assert nonneg_integer_roots(poly_from(12, -11, 2)) == frozenset({4})
    # n^2 - 2 and n^2 + 1: no rational roots at all
    assert nonneg_integer_roots(poly_from(-2, 0, 1)) == frozenset()
    assert nonneg_integer_roots(poly_from(1, 0, 1)) == frozenset()
    # linear, negative leading coefficient, and a negative root
    assert nonneg_integer_roots(poly_from(Fraction(21, 2), Fraction(-3, 2))) == frozenset({7})
    assert nonneg_integer_roots(poly_from(3, 1)) == frozenset()
    # n^3 (n - 5)(n + 5) reduces to a quadratic after the n^3 factor
    assert nonneg_integer_roots(poly_from(0, 0, 0, -25, 0, 1)) == frozenset({0, 5})


def _random_quadratic(rng):
    """Integer coefficients (c0, c1, c2), c0 != 0: planted roots (integer,
    rational, double or none), any sign, and some scaled by 10^400."""
    kind = rng.randrange(4)
    if kind == 0:  # two planted roots p/q, integers among them
        (p1, q1), (p2, q2) = ((rng.randrange(-60, 61) or 1, rng.choice((1, 1, 2, 3)))
                              for _ in range(2))
        coeffs = [p1 * p2, -(p1 * q2 + p2 * q1), q1 * q2]
    elif kind == 1:  # a double root, near or far out
        r = rng.choice((rng.randrange(1, 60), 10 ** 9 + rng.randrange(9), -rng.randrange(1, 60)))
        coeffs = [r * r, -2 * r, 1]
    elif kind == 2:  # random, almost never a perfect-square discriminant
        coeffs = [rng.randrange(-99, 100) or 1, rng.randrange(-99, 100), rng.randrange(-9, 10) or 1]
    else:  # roots of about 10^40 and 10^-40 in one polynomial
        big = 10 ** 40 + rng.randrange(-5, 6)
        coeffs = [-big, big * big - 1, -big] if rng.random() < 0.5 else [big, -(big * big + 1), big]
    sign = rng.choice((1, -1))  # a negative leading coefficient half of the time
    scale = rng.choice((1, 1, 10 ** 400))
    return [sign * scale * c for c in coeffs]


def test_closed_form_roots_match_the_isolation(rng):
    # degrees 1 and 2 are solved in closed form; the bisection, which still
    # serves degree 3 and up, is the oracle
    for _ in range(400):
        ints = _random_quadratic(rng)
        assert _closed_form_roots(ints) == _bisect_roots(ints), ints
        linear = ints[:2] if ints[1] else [ints[0], rng.choice((1, -1))]
        assert _closed_form_roots(linear) == _bisect_roots(linear), linear


def test_closed_form_roots_of_scaled_quadratics():
    # (n - 3)(n - 10^9) scaled by 10^400, 10^-400 and a negative fraction
    p = poly_from(-3, 1) * poly_from(-10 ** 9, 1)
    for scale in (Fraction(10) ** 400, Fraction(1, 10 ** 400), Fraction(-7, 3)):
        assert nonneg_integer_roots(p.scale(scale)) == frozenset({3, 10 ** 9})
    # (n - 10^400)(n - 1): a root of 401 digits
    assert nonneg_integer_roots(poly_from(10 ** 400, -10 ** 400 - 1, 1)) == frozenset({1, 10 ** 400})


def _linear_product(*roots):
    p = poly_from(1)
    for r in roots:
        p = p * poly_from(-r, 1)
    return p


@pytest.mark.parametrize("roots, extra", [
    ((10 ** 6, 10 ** 6 + 1, 10 ** 6 + 2), poly_from(1)),
    ((10 ** 6,) * 3, poly_from(1)),
    ((10 ** 9, 10 ** 9, 10 ** 9 + 1), poly_from(1, 0, 1)),  # times n^2 + 1
    ((10 ** 9 - 1, 10 ** 9, 10 ** 9 + 1, 10 ** 9 + 2), poly_from(Fraction(-1, 3))),
    ((3, 10 ** 6), poly_from(-(10 ** 6) - Fraction(1, 2), 1)),  # a rational root next to one
], ids=["cluster-1e6", "triple-1e6", "double-1e9", "cluster-1e9", "half-step"])
def test_exact_roots_of_clusters_far_out(roots, extra):
    # a float64 solve of a cubic spreads these roots by far more than the
    # +-1 window the numeric localization looks at; the exact isolation
    # finds each one, and exact evaluation around them agrees
    p = _linear_product(*roots) * extra
    got = nonneg_integer_roots(p)
    assert got == frozenset(roots)
    near = {k + d for k in (0, *roots) for d in range(-3, 4) if k + d >= 0}
    assert got == frozenset(k for k in near if p(k) == 0)


def test_exact_roots_match_exact_evaluation(rng):
    for _ in range(300):
        roots = [rng.randrange(-5, 60) for _ in range(rng.randrange(1, 6))]
        p = _linear_product(*roots).scale(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)))
        if rng.random() < 0.3:
            p = p * poly_from(rng.randrange(1, 9), rng.randrange(-3, 4), 1)
        assert nonneg_integer_roots(p) == frozenset(k for k in range(100) if p(k) == 0)


def test_floating_coefficients_are_refused():
    # roots are decided exactly, so there is no numeric solve to fall back on
    p = poly_from(mp.mpf(6), mp.mpf(-5), mp.mpf(1))  # (n - 2)(n - 3)
    assert p(2) == 0 and p(3) == 0
    for q in (p, p * poly_from(0, 1), poly_from(mp.mpc(6, 0), mp.mpf(-5), mp.mpf(1))):
        with pytest.raises(InputError):
            nonneg_integer_roots(q)


def test_near_integer_root_is_rejected_exactly():
    # (n - 2) shifted by a tiny rational: float localization would say 2
    p = poly_from(Fraction(-2) + Fraction(1, 10 ** 12), 1)
    assert nonneg_integer_roots(p) == frozenset()


def test_rational_fn_pole_detection():
    fn = RationalFnInN(poly_from(Fraction(1)),
                       poly_from(Fraction(2), 1) * poly_from(Fraction(-2), 1))
    assert fn.pole_set == frozenset({2})
    with pytest.raises(PoleAtIndex):
        fn(2)
    assert fn(3) == Fraction(1, 5)


def test_rational_fn_identity():
    r = RationalFnInN(poly_from(1, 1), poly_from(1, 1))  # (n+1)/(n+1)
    for n in (0, 1, 5, Fraction(7, 2)):
        assert r(n) == 1


def test_rational_fn_degrees_and_leading_ratio():
    fn = RationalFnInN(poly_from(1, 4, 6), poly_from(2, 3, 2))
    assert fn.degrees == (2, 2)
    assert fn.leading_ratio() == 3
    low = RationalFnInN(poly_from(1, 1), poly_from(2, 3, 2))
    assert low.leading_ratio() == 0
    with pytest.raises(InvalidParams):
        RationalFnInN(poly_from(0, 0, 1), poly_from(1, 1)).leading_ratio()


def test_rational_fn_rejects_zero_denominator():
    with pytest.raises(InvalidParams):
        RationalFnInN(poly_from(1), PolynomialInN(()))


def _generic_horner(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@pytest.mark.parametrize("coeffs", [
    (Fraction(-3, 4), Fraction(5, 6), Fraction(1, 8), Fraction(7, 3)),
    (4, -2, 0, 9),
    (Fraction(1, 2), 3, Fraction(-5, 7), 2),
    (2, Fraction(1, 3), 5),
    (mp.mpf("0.25"), mp.mpf(3), mp.mpf("-1.5")),
    (mp.mpc(1, 2), mp.mpf("0.5"), mp.mpc(0, -1)),
    (),
], ids=["fractions", "ints", "mixed-int-top", "mixed-fraction-top", "mpf", "mpc", "zero"])
def test_evaluation_matches_generic_horner(coeffs):
    p = PolynomialInN(coeffs)
    for n in (-7, -1, 0, 1, 2, 10 ** 6, Fraction(-3, 2)):
        expected = _generic_horner(p.coeffs, n)
        got = p(n)
        assert got == expected and type(got) is type(expected), (coeffs, n)


def test_rational_fn_pole_with_fraction_coefficients():
    # (n/2 + 1) / ((n - 3)(n + 1/3)): a pole at 3 and nowhere else on n >= 0
    fn = RationalFnInN(poly_from(Fraction(1), Fraction(1, 2)),
                       poly_from(Fraction(-1), Fraction(-8, 3), Fraction(1)))
    with pytest.raises(PoleAtIndex):
        fn(3)
    assert fn(5) == Fraction(21, 64)  # (7/2) / (32/3)
