"""Frobenius machinery for the Heun equation.

The equation, in its standard normal form on (0, 1, a, infinity), is

    y'' + (g/x + d/(x-1) + e/(x-a)) y' + (A B x - q) / (x (x-1) (x-a)) y = 0

with e = A + B - g - d + 1 (so that infinity stays regular singular).  A
Frobenius solution x^lam sum d_n x^n about the origin exists for each
indicial root lam in {0, 1-g}, and its coefficients satisfy a three-term
recurrence whose lag coefficients are ratios of monic quadratics in n.

Two independent routes to the same object live here: the recurrence that
generates the coefficients, and a direct residual check that substitutes a
finite coefficient block into the differential equation cleared of
denominators.  Tests play them against each other.

The domain is read from the system: RecurrenceSystem.limits, judged by
convergence.domain_sum.  series_limits keeps the limits' closed form, which
holds also where an exponent sits on a pole and no system can be built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .convergence import domain_sum
from .errors import InputError, InvalidParams, OutsideDomain
from .polynomials import PolynomialInN, RationalFnInN
from .recurrence import (CoefficientStream, RecurrenceSystem, iter_cleared,
                         iter_values)
from .scalars import (DEFAULT_PRECISION, as_mp, is_exact, parse_precision,
                      to_rational, to_scalar)


@dataclass(frozen=True)
class HeunParams:
    """Rational parameters (a, q, alpha, beta, gamma, delta) with the
    accessory e derived.  Each is read by to_scalar, so ints, Fractions,
    rational strings and finite Python floats are exact; an mpmath or
    complex value raises InputError."""

    a: object
    q: object
    alpha: object
    beta: object
    gamma: object
    delta: object

    def __post_init__(self):
        for name in ("a", "q", "alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, to_rational(getattr(self, name), name))
        if self.a == 0 or self.a == 1:
            raise InvalidParams("the third singular point a must avoid 0 and 1")

    @property
    def epsilon(self):
        return self.alpha + self.beta - self.gamma - self.delta + 1


def indicial_roots(params: HeunParams):
    """The two exponents at the origin: 0 and 1 - gamma."""
    return Fraction(0), 1 - params.gamma


def _check_root(params: HeunParams, root) -> Fraction:
    root = to_rational(root, "the root")
    r0, r1 = indicial_roots(params)
    if root != r0 and root != r1:
        raise InvalidParams(f"{root} is not an indicial root; expected {r0} or {r1}")
    return root


def heun_recurrence(params: HeunParams, root=0) -> RecurrenceSystem:
    """Three-term recurrence for the Frobenius coefficients at exponent `root`.

    Both lag coefficients share the denominator (n+1+lam)(n+gamma+lam).  The
    lag-1 numerator is quadratic with leading coefficient (1+a)/a and the
    lag-2 numerator is -1/a times a monic quadratic; the numerators are built
    un-divided so that a = -1 (vanishing lag-1 limit) stays representable.

    The last system built is kept and returned again for the same
    (params, root), so parsing an instance and then evaluating or auditing
    it builds the system and finds its poles once.  Keeping only one bounds
    what a long-lived process retains.  The root must be rational, like
    every parameter, so the coefficients are too.
    """
    return _build_recurrence(params, _check_root(params, root))


@lru_cache(maxsize=1)
def _build_recurrence(params: HeunParams, lam: Fraction) -> RecurrenceSystem:
    a, q, al, be, ga, de = (params.a, params.q, params.alpha, params.beta,
                            params.gamma, params.delta)
    den = PolynomialInN(((1 + lam) * (ga + lam), 1 + ga + 2 * lam, 1))
    num1 = PolynomialInN((
        (lam * (al + be - de + lam + a * (ga + de - 1 + lam)) + q) / a,
        (al + be - de + 2 * lam + a * (ga + de - 1 + 2 * lam)) / a,
        (1 + a) / a,
    ))
    num2 = PolynomialInN((
        -(al - 1 + lam) * (be - 1 + lam) / a,
        -(al + be - 2 + 2 * lam) / a,
        -1 / a,
    ))
    return RecurrenceSystem((RationalFnInN(num1, den), RationalFnInN(num2, den)))


def series_limits(params: HeunParams):
    """Large-n limits of the two lag coefficients: ((1+a)/a, -1/a), equal in
    value and type to heun_recurrence(params, root).limits at either root."""
    a = params.a
    return ((1 + a) / a, -1 / a)


def ode_residual(params: HeunParams, root, stream: CoefficientStream, order: int | None = None):
    """Residual coefficients from substituting the series into the cleared equation.

    Multiplying the equation by x(x-1)(x-a) gives P2 y'' + P1 y' + P0 y with
    polynomial coefficients; substituting y = x^lam sum d_n x^n and collecting
    x^(lam+j) yields one residual per j.  The list returned covers
    j = -1 .. order, where j = -1 is the indicial term (zero by the choice of
    root) and each j needs d_{j+1}, so order is capped at len(stream) - 2.

    Each P_m's row, from x^(m+1) down, meets d_n at n = j - 1, j, j + 1
    through d_n (n + lam) .. (n + lam - m + 1), P2's terms added first.  This
    route never touches the recurrence; it is the independent witness that
    the recurrence was transcribed correctly.
    """
    lam = _check_root(params, root)
    a, q = params.a, params.q
    al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
    ep = params.epsilon
    d = stream.values
    top = len(d) - 2
    if order is None:
        order = top
    if order > top:
        raise InputError(f"order {order} needs d_{order + 1}; stream has {len(d)} values")
    # P2 = x^3 - (1+a) x^2 + a x ; P1 = (g+d+e) x^2 - (g(1+a)+d a+e) x + g a ; P0 = A B x - q
    p1 = (ga + de + ep, -(ga * (1 + a) + de * a + ep), ga * a)
    p0 = (al * be, -q)
    out = []
    with mp.workprec(53 if stream.precision == "exact" else stream.precision):
        rows = ((2, (1, -(1 + a), a)), (1, p1), (0, p0))
        for j in range(-1, order + 1):
            acc = d[0] * 0
            for m, row in rows:
                for n, c in enumerate(row, start=j - 1):
                    if n >= 0:
                        w = d[n]
                        for t in range(m):
                            w = w * (n + lam - t)
                        acc += c * w
            out.append(acc)
    return out


@dataclass(frozen=True)
class EvalResult:
    value: object
    n_used: int
    converged: bool
    domain_sum: object
    inside: bool


def absolute_profile_sum(params: HeunParams, x, prec: int = DEFAULT_PRECISION):
    """|(1+a)/a| |x| + |1/a| |x|^2 by convergence.domain_sum."""
    return domain_sum(series_limits(params), x, prec)


def _sum_exact(system, x: Fraction, lam: int, tol: Fraction, n_max: int):
    """The exact tier summed in integers; returns (value, n_used, converged).

    The coefficients come from the shared integer stepper as d_n = P_n / Q_n
    unreduced, with Q_n = Q_{n-1} g_n (recurrence.iter_cleared).  The
    partial sum is U / V over V = Q_n xd^(n+lam) for x = xn / xd, and a term
    is T = P_n xn^(n+lam) over the same V.  The stop test
    |T| td < tn max(V, |U|) for tol = tn / td is the rational comparison
    |term| < tol max(1, |sum|) multiplied through by V td > 0.  One gcd at
    the end reduces the value.
    """
    xn, xd = x.numerator, x.denominator
    tn, td = tol.numerator, tol.denominator
    power, U, V = xn ** lam, 0, xd ** lam
    small_run = n_used = 0
    converged = False
    for n, (p, g) in zip(range(n_max), iter_cleared(system)):
        if n:
            U *= g * xd
            V *= g * xd
            power *= xn
        t = p * power
        U += t
        n_used = n + 1
        if abs(t) * td < tn * max(V, abs(U)):
            small_run += 1
            if small_run >= 3:
                converged = True
                break
        else:
            small_run = 0
    return Fraction(U, V), n_used, converged


def _sum_mp(system, x, lam, tol, n_max: int, prec: int):
    """The fixed-precision tier in one workprec block; returns (value, n_used, converged)."""
    with mp.workprec(prec):
        xv = as_mp(x, prec)
        total = mp.mpf(0)
        lam_v = as_mp(lam, prec)
        power = mp.power(xv, lam_v) if xv != 0 else (mp.mpf(1) if lam_v == 0 else mp.mpf(0))
        tol_v = as_mp(tol, prec)
        fabs = mp.fabs
        small_run = n_used = 0
        converged = False
        for n, d in zip(range(n_max), iter_values(system)):
            term = d * power
            total = total + term
            n_used = n + 1
            scale = fabs(total)
            if fabs(term) < (tol_v if scale < 1 else tol_v * scale):
                small_run += 1
                if small_run >= 3:
                    converged = True
                    break
            else:
                small_run = 0
            power = power * xv
    return total, n_used, converged


def heun_eval(params: HeunParams, x, root=0, tol=Fraction(1, 10 ** 30),
              n_max: int = 10 ** 5, force: bool = False,
              precision: int | str = DEFAULT_PRECISION) -> EvalResult:
    """Evaluate the Frobenius solution x^lam sum d_n x^n at the point x.

    Points outside the guaranteed absolute-convergence region are refused
    unless force=True: outside that region a partial sum can look settled
    while the tail is not summable, so a silent number would be a lie.
    The region is judged by convergence.domain_sum on the system's limits,
    the rule `domain` applies: domain_sum is an exact Fraction for rational
    parameters and point, else the membership sum at the working precision.
    Summation stops once three consecutive terms fall below tol relative to
    max(1, |partial sum|).  That stop is a heuristic, not a bound on the
    tail: `converged` means the terms looked settled, not that the error
    is below tol.

    The exact tier works in integers: the coefficients and the partial sum
    are carried as unreduced numerators over a running common denominator
    (the lag values' shared integer denominator times the point's), the stop
    test is decided on those integers, and the value is reduced once at the
    end.  The floating tier runs the whole sum at the working precision,
    rounding each rational lag value once, correctly.

    Returns:
        EvalResult with the value, terms consumed, and convergence flag.

    Raises:
        InvalidParams: when n_max < 1.
        InputError: when tol < 0, a stop no term can meet.
        IndicialPole: when the recurrence at `root` cannot advance past a
            pole; the system is built before the point is judged.
        OutsideDomain: when force is False and the membership sum is >= 1.
    """
    if n_max < 1:
        raise InvalidParams(f"n_max {n_max} must be at least 1: an empty sum is no value")
    if to_scalar(tol) < 0:
        raise InputError(f"tol {tol} must be nonnegative: no term falls below a negative one")
    precision = parse_precision(precision)
    lam = _check_root(params, root)
    x = to_scalar(x)
    prec = DEFAULT_PRECISION if precision == "exact" else precision
    system = heun_recurrence(params, lam)
    dsum = domain_sum(system.limits, x, prec)
    inside = bool(dsum < 1)
    if not inside and not force:
        try:
            shown = float(dsum)  # inf for a huge mpf, OverflowError for a Fraction
        except OverflowError:
            shown = math.inf
        shown = f"{shown:.6g}" if math.isfinite(shown) else mp.nstr(as_mp(dsum, prec), 6)
        raise OutsideDomain(
            f"membership sum {shown} >= 1: outside the guaranteed "
            f"absolute-convergence domain (use force to evaluate anyway)"
        )
    if precision != "exact":
        return EvalResult(*_sum_mp(system, x, lam, tol, n_max, prec), dsum, inside)
    if not (is_exact(x) and is_exact(tol)):
        raise InputError("exact evaluation needs rational parameters, point, and tolerance")
    if not (lam.denominator == 1 and lam >= 0):
        raise InputError("exact evaluation needs a nonnegative integer exponent; use a bit precision")
    x = Fraction(x)
    # about 19,700 digits: past what a document renders, and a huge lam never finishes
    if lam * max(x.numerator.bit_length(), x.denominator.bit_length()) > 1 << 16:
        raise InputError("exact x^lam would be wider than 2^16 bits; use a bit precision")
    value = _sum_exact(system, x, int(lam), Fraction(tol), n_max)
    return EvalResult(*value, dsum, inside)
