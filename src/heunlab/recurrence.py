"""General (k+1)-term recurrences with rational-function coefficients.

A system prescribes d_{n+1} = sum_{i=1..k} alpha_i(n) d_{n+1-i} for n >= 0
with d_0 = 1, where each lag coefficient alpha_i is a ratio of polynomials in
the index n.  Terms whose index n+1-i would be negative are dropped, which
reproduces the usual seeding (d_1 = alpha_1(0) d_0, and so on).

The module also builds the modulus-majorant sequences: replace every
coefficient by its absolute value evaluated from a base offset upward.  Those
majorants drive the domination bound used by the boundary analysis, which
domination_bounds decides at any N without the solution's values: it bounds
the coefficients of d_{N+j} on d_N and d_{N-1} by the majorants (the
majorant lemma), so the bound holds for every solution.

An exact system's lags have one evaluator, cleared_steps: over the integer
polynomials of RecurrenceSystem.cleared, alpha_i(n) = A_i(n) / G(n) with one
shared denominator G, it yields each step's integers (A_i(n), |G(n)|) by
inline Horner, through |A_i| when `modulus` is set, and the proof constants'
margin sweeps (proofs._decide) read them directly.  One stepper per tier
runs every sequence s_{j+1} = sum_i alpha_i(offset + j) s_{j+1-i} from
(s_{-1}, s_0) = (0, 1): offset 0 gives the solution d_n, modulus at N the
majorant c_j, and offset N alone the signed sequence the lemma compares
with it.

- iter_cleared steps exact sequences as unreduced integer numerators over a
  running product of step divisors, with no gcd.  Exact streams
  (stream_coefficients) reduce each value to a Fraction;
  heun_eval's exact sum reduces once at the end (heun._sum_exact); the
  audit rounds every term once, correctly, from the integer pair;
  domination_bounds zips four of its streams, and the audit's path tables
  (rearrange) hold unreduced integers over the same divisors, read from
  cleared_steps.
- iter_values steps the same sequences at the working precision, rounding
  each of cleared_steps' lag values once, correctly, from its integer pair
  (scalars.rational_to_mp, the rule as_mp applies to a Fraction).

Every lag has rational coefficients (RationalFnInN refuses any other), so
every system has both tiers.

recurrence_residuals keeps the per-lag RationalFnInN evaluation as the
reference the steppers are checked against.  RecurrenceSystem.limits, cached
per system like cleared, holds the lags' large-n limits that the domain,
the boundary radius and the audit read.

An exact stream reduces each value over the product of every divisor so far,
which grows with the index, so long streams cost more than stepping reduced
Fractions would.  Over the 32 Heun systems of one seeded audit pool, 600
terms each took 4.70 s of CPU against 3.37 s for a reduced-Fraction stepper,
300 terms 0.60 s against 0.66 s and 60 terms 24 ms against 38 ms (minimum of
3 runs, one 2-core x86 machine).  No command makes an exact stream: the
audit's pass over d_n, its domination bound and its path-table check read
iter_cleared directly.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mpmath import mp

from .errors import DegreeMismatch, IndicialPole, InvalidParams
from .polynomials import PolynomialInN, RationalFnInN, exact_div
from .scalars import log_abs, parse_precision, rational_to_mp


@dataclass(frozen=True)
class RecurrenceSystem:
    """Lag coefficients alpha_1 .. alpha_k as rational functions of n."""

    lags: tuple

    def __post_init__(self):
        if not self.lags:
            raise InvalidParams("a recurrence needs at least one lag coefficient")
        for i, fn in enumerate(self.lags, start=1):
            if not isinstance(fn, RationalFnInN):
                raise InvalidParams(f"lag {i} is not a rational function of n")
            # lag i first fires at n = i-1 (it multiplies d_{n+1-i})
            bad = [p for p in fn.pole_set if p >= i - 1]
            if bad:
                raise IndicialPole(
                    f"lag {i} coefficient has a pole at n = {min(bad)}; "
                    f"the recurrence cannot advance past it"
                )

    @property
    def k(self) -> int:
        return len(self.lags)

    def coefficient(self, i: int, n: int):
        """alpha_i(n) for 1-based lag i."""
        return self.lags[i - 1](n)

    @cached_property
    def cleared(self):
        """((A_1, .., A_k), G): integer polynomials with alpha_i(n) = A_i(n) / G(n).

        G is the lcm of the numerators' denominators times the product of the
        lags' distinct denominators cleared to integers, so lags that share
        one (every Heun system) share it once.
        """
        nums = [fn.num._cleared for fn in self.lags]
        dens = [fn.den._cleared for fn in self.lags]
        lcm = math.lcm(*(c for _, c in nums))
        distinct = [PolynomialInN(d) for d in dict.fromkeys(d for d, _ in dens)]
        lags = tuple(PolynomialInN(num) * math.prod([p for p in distinct if p.coeffs != den],
                                                    start=PolynomialInN((e * (lcm // c),)))
                     for (num, c), (den, e) in zip(nums, dens))
        return lags, math.prod(distinct, start=PolynomialInN((lcm,)))

    @cached_property
    def limits(self) -> tuple:
        """(L_1, .., L_k) with L_i = lim_n alpha_i(n): zero where a lag's
        numerator has the lower degree.  Raises DegreeMismatch when a lag
        grows without bound in n."""
        if any(dn > dd for dn, dd in (fn.degrees for fn in self.lags)):
            raise DegreeMismatch("lag coefficient grows without bound in n")
        return tuple(fn.leading_ratio() for fn in self.lags)


@dataclass(frozen=True)
class CoefficientStream:
    """Computed values s_0 .. s_{len-1} of a recurrence sequence."""

    values: tuple
    precision: object  # "exact" or bit count

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n: int):
        if not 0 <= n < len(self.values):
            raise IndexError(f"index {n} outside stream range")
        return self.values[n]

    @cached_property
    def log_mags(self) -> tuple:
        return tuple(log_abs(v) for v in self.values)


def cleared_steps(system: RecurrenceSystem, offset: int = 0, *, modulus: bool = False):
    """Yield (A, g) for the steps j = 0, 1, ..., alpha_i(offset + j) = A[i-1] / g.

    The one evaluator of RecurrenceSystem.cleared: A holds the integers
    A_i(n) at n = offset + j, or |A_i(n)| with modulus, and g = |G(n)| > 0,
    with G's sign moved into A.  Where G vanishes, at the pole of a lag that
    has not fired yet, A holds only the min(k, j + 1) lags that fire at step
    j, cleared over their own common denominator g.  A negative offset
    raises InvalidParams.
    """
    if offset < 0:
        raise InvalidParams(f"offset {offset} must be nonnegative")
    # Horner inline on the coefficients, from the leading one (a zero
    # polynomial reads (0,)): a PolynomialInN call per polynomial per step
    # took 1.8x the time of a 60-term step loop
    lags, den = system.cleared
    rows = [poly.coeffs[::-1] or (0,) for poly in (den, *lags)]
    (g0, den_row), *lag_rows = [(r[0], r[1:]) for r in rows]
    for n in itertools.count(offset):
        g = g0
        for c in den_row:
            g = g * n + c
        if g:
            values = []
            for a, row in lag_rows:
                for c in row:
                    a = a * n + c
                values.append(abs(a) if modulus else a if g > 0 else -a)
            yield values, abs(g)
        else:  # the pole of a lag that has not fired yet, at step n - offset
            fired = [Fraction(fn.num(n), fn.den(n)) for fn in system.lags[:n - offset + 1]]
            g = math.lcm(*(v.denominator for v in fired))
            values = [v.numerator * (g // v.denominator) for v in fired]
            yield ([abs(a) for a in values] if modulus else values), g


def iter_values(system: RecurrenceSystem, offset: int = 0, *, modulus: bool = False):
    """Yield s_0 = 1, s_1, ... as mpmath numbers at the working precision.

    The sequence is iter_cleared's for the same offset and modulus: the
    step into s_{j+1} reads the lags at n = offset + j, through their
    absolute values with modulus.  The lags come from cleared_steps, each
    rounded once from its integer pair.  Values are computed at the working
    precision in force when the generator is advanced, so callers advance it
    inside workprec.  A negative offset raises InvalidParams.
    """
    steps = ([rational_to_mp(a, g, mp.prec) for a in values]
             for values, g in cleared_steps(system, offset, modulus=modulus))
    history = deque([mp.mpf(1)], maxlen=system.k)
    yield history[0]
    for factors in steps:
        # left to right from lag 1: the pinned documents' values depend on this order
        products = map(operator.mul, factors, reversed(history))
        history.append(sum(products, next(products)))
        yield history[-1]


def iter_cleared(system: RecurrenceSystem, offset: int = 0, *, modulus: bool = False):
    """Yield (P_j, g_j) for j = 0, 1, ..., with s_j = P_j / Q_j unreduced.

    The sequence starts from (s_{-1}, s_0) = (0, 1) and steps
    s_{j+1} = sum_i alpha_i(offset + j) s_{j+1-i}; offset 0 gives the
    solution d_n, and with modulus every lag is replaced by |alpha_i|, so
    offset N gives the majorant c_j.  Q_0 = 1 and Q_j = Q_{j-1} g_j, where
    g_j > 0 is the divisor of the step that made s_j (g_0 = 1), so a caller
    holding the running Q_j has every value without a gcd.  Over the lags
    A_i / g of cleared_steps, P_{j+1} = sum_i A_i P_{j+1-i} g_{j+2-i} .. g_j:
    each lag's numerator is lifted by the divisors of the steps since it was
    made.
    """
    history = deque(maxlen=system.k)  # (P, g) of the last k values, oldest first
    step = (1, 1)  # s_0 = 1 over g_0 = 1
    for values, g in cleared_steps(system, offset, modulus=modulus):
        history.append(step)
        yield step
        # zip stops at the lags that fire: history holds min(k, j + 1) values;
        # lag 1 reads the newest numerator unlifted, so it starts the sum
        lags = zip(values, reversed(history))
        a, (p, lift) = next(lags)
        p *= a
        for a, (h, gh) in lags:
            p += a * lift * h
            lift *= gh
        step = (p, g)


def stream_coefficients(system: RecurrenceSystem, count: int,
                        precision: int | str = "exact", offset: int = 0, *,
                        modulus: bool = False) -> CoefficientStream:
    """The first `count` values of iter_cleared's sequence for the same
    offset and modulus: d_0 = 1, d_1, ... by default, the majorant c_j
    with modulus at offset N.

    With precision="exact" the values are Fractions and satisfy the recurrence
    identically; with a bit count they are iter_values' mpmath numbers at that
    working precision.
    """
    precision = parse_precision(precision)
    if count < 1:
        raise InvalidParams("count must be at least 1")
    if precision == "exact":
        q, values = 1, []
        for p, g in itertools.islice(iter_cleared(system, offset, modulus=modulus), count):
            q *= g
            values.append(Fraction(p, q))
    else:
        with mp.workprec(precision):
            values = list(itertools.islice(
                iter_values(system, offset, modulus=modulus), count))
    return CoefficientStream(tuple(values), precision)


def recurrence_residuals(system: RecurrenceSystem, stream: CoefficientStream):
    """d_{n+1} - sum_i alpha_i(n) d_{n+1-i} for every computable n; exact tier gives exact zeros."""
    out = []
    vals = stream.values
    k = system.k
    with mp.workprec(53 if stream.precision == "exact" else stream.precision):
        for n in range(len(vals) - 1):
            acc = vals[n + 1] * 0
            for i in range(1, min(k, n + 1) + 1):
                acc += system.coefficient(i, n) * vals[n + 1 - i]
            out.append(vals[n + 1] - acc)
    return out


def domination_bounds(system: RecurrenceSystem, N: int, M: int) -> tuple:
    """The majorant lemma's 2(M + 1) inequalities at N, each on integers.

    Any solution of a three-term system has d_{N+j} = u_j d_N + v_j d_{N-1}:
    u is iter_cleared's signed sequence from N, and v_j = alpha_2(N) w_{j-1}
    with w the signed sequence from N + 1 (w_{-1} = 0).  The triangle
    inequality bounds them by the majorants from the same offsets,
    |u_j| <= cbar_j and |v_j| <= |alpha_2(N)| chat_{j-1} (chat_{-1} = 0),
    and together they give the domination bound
    |d_{N+j}| <= cbar_j |d_N| + chat_{j-1} |alpha_2(N)| |d_{N-1}| for every
    pair of start values.  All four share the divisor product
    Q_j = G(N) .. G(N+j-1) once |alpha_2(N)| = |A_2(N)| / G(N) joins the
    pair from N + 1 (G has no zero past n = 0, so every divisor is G's own).
    Returns (|U_j|, C_j, Q_j) and (|A_2(N)| |W_{j-1}|, |A_2(N)| H_{j-1}, Q_j)
    for j = 0 .. M: the lemma holds iff rhs >= lhs in each.
    """
    if system.k != 2:
        raise InvalidParams("domination bound is stated for three-term recurrences")
    if N < 1:
        raise InvalidParams("need N >= 1 so that d_{N-1} exists")
    a2 = next(cleared_steps(system, N, modulus=True))[0][1]  # |A_2(N)|, G(N) > 0
    u, cbar = (iter_cleared(system, N, modulus=m) for m in (False, True))
    w, chat = (itertools.chain([(0, 1)], iter_cleared(system, N + 1, modulus=m))
               for m in (False, True))  # w_{-1} = chat_{-1} = 0
    q, out = 1, []
    for _, (p, g), (c, _), (h, _), (e, _) in zip(range(M + 1), u, cbar, w, chat):
        q *= g
        out += [(abs(p), c, q), (a2 * abs(h), a2 * e, q)]
    return tuple(out)


def domination_verdict(bounds) -> tuple:
    """(holds, num, den) for domination_bounds' triples: holds iff rhs >= lhs
    for every one, and num / den is the least margin (rhs - lhs) / den,
    found by cross-multiplying."""
    num, den = bounds[0][1] - bounds[0][0], bounds[0][2]
    holds = True
    for lhs, rhs, d in bounds:
        holds = holds and rhs >= lhs
        if (rhs - lhs) * den < num * d:
            num, den = rhs - lhs, d
    return holds, num, den


@dataclass(frozen=True)
class LimitProfile:
    """The lag limits of RecurrenceSystem.limits, plus sub-leading data for
    the case classification (proofs.classify_case).

    For lags whose numerator and denominator share the same degree t >= 1,
    subleading[i-1] = (num_sub, den_sub) holds the monic-normalized n^(t-1)
    coefficients; it is None when the numerator degree drops (limit zero) or
    the lag is constant.
    """

    limits: tuple
    subleading: tuple


def limit_profile(system: RecurrenceSystem) -> LimitProfile:
    """system.limits with each lag's sub-leading pair; DegreeMismatch when a lag grows."""
    limits, subs = system.limits, []
    for fn in system.lags:
        dn, dd = fn.degrees
        if dn == dd and dd >= 1:
            subs.append((exact_div(fn.num.coeffs[dn - 1], fn.num.leading),
                         exact_div(fn.den.coeffs[dd - 1], fn.den.leading)))
        else:
            subs.append(None)
    return LimitProfile(limits, tuple(subs))
