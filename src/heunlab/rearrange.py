"""Path-product rearrangement of the modulus-majorant series.

Every term of the majorant sequence c_n from an offset N (built by
iter_cleared(system, N, modulus=True)) is a sum of products of step factors:
a path from index 0 to index n takes steps of size 1 (factor |alpha_1| at the
arrival index) and size 2 (factor |alpha_2|).  path_table(system, N, M)
tabulates them to depth M.
Grouping paths by their count tau of size-1 steps rearranges the series

    sum_n c_n |x|^n  =  sum_tau eta^tau * y_tau(z)

with eta = |L_1| |x| and z = |L_2| |x|^2, where y_tau collects the normalized
path products with exactly tau size-1 steps, as a power series in z.

The tables are built on the majorant stepper's integers (recurrence.iter_cleared
at the same offset): with |alpha_i(n - 1 + offset)| = |A_i| / g_n from the one
lag evaluator, recurrence.cleared_steps, every entry of column n is an
unreduced integer over den[n] = g_1 .. g_n, so no gcd runs.  A size-1 step
into n carries the integer factor |A_1|, a size-2 step |A_2| g_{n-1}, the
divisor of the index it skips.  Two implementations live here: a lattice-path
dynamic program (linear in the table size) and a brute-force path enumeration
(exponential, small depths only).  They must agree entry by entry.  Every
audit compares them at its enumeration depth, on purpose: at the default
depth 14 the walk costs 1.0-1.5 ms on the a=2 sample at its audit offset
N = 301, against 18 ms for the Fraction walk it replaced (minimum of 7 runs,
2-core x86)."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mpmath import mp

from .errors import InputError, InvalidParams, TruncationTooLarge
from .recurrence import RecurrenceSystem, cleared_steps, iter_cleared
from .scalars import as_mp, is_exact, rational_to_mp

ENUMERATION_DEPTH_CAP = 32  # paths grow like Fibonacci(M); past this the walk is hopeless


@dataclass(frozen=True)
class PathTable:
    """table[tau][n] = num[tau][n] / den[n], the sum of path products reaching
    n with tau size-1 steps.

    num holds unreduced integers over den[n] = g_1 .. g_n, the running product
    of the majorant stepper's divisors, so column sums are the stepper's
    numerators P_n.  Entries are zero unless n - tau is even and nonnegative
    (tau single steps and (n-tau)/2 double steps).  table, column_sum and
    row_series_coefficients are exact Fraction views.
    """

    num: tuple  # num[tau] is a tuple of ints indexed by n, 0..M
    den: tuple  # den[n] > 0
    M: int
    offset: int

    @cached_property
    def columns(self) -> tuple:
        """Integer column sums: c_n = columns[n] / den[n]."""
        return tuple(map(sum, zip(*self.num)))

    @cached_property
    def table(self) -> tuple:
        return tuple(tuple(Fraction(p, q) for p, q in zip(row, self.den))
                     for row in self.num)

    def column_sum(self, n: int) -> Fraction:
        return Fraction(self.columns[n], self.den[n])


def _step_factors(system: RecurrenceSystem, offset: int, M: int):
    """Integer factors (a1[n], a2[n]) of a size-1 and a size-2 step into n,
    and the divisors den[n], for n = 0..M (index 0 unused by the steps)."""
    if system.k != 2:
        raise InvalidParams("path rearrangement is stated for three-term recurrences")
    a1, a2, g = [0], [0], [1]
    # the step into n reads the lags at n - 1 + offset, as iter_cleared does;
    # zip advances the steps first, so negative offsets are refused at M = 0 too
    steps = cleared_steps(system, offset, modulus=True)
    for (values, gn), n in zip(steps, range(1, M + 1)):
        a1.append(values[0])
        a2.append(values[1] * g[-1] if n >= 2 else 0)
        g.append(gn)
    return a1, a2, tuple(itertools.accumulate(g, operator.mul))


def path_table(system: RecurrenceSystem, offset: int, M: int) -> PathTable:
    """Dynamic program over (tau, n) on the stepper's integers: the majorant
    from `offset` to depth M."""
    if M < 0:
        raise InvalidParams("truncation depth must be nonnegative")
    a1, a2, den = _step_factors(system, offset, M)
    num = [[0] * (M + 1) for _ in range(M + 1)]
    num[0][0] = 1
    for n in range(1, M + 1):
        f1, f2 = a1[n], a2[n]
        for tau in range(n % 2, n + 1, 2):
            acc = f1 * num[tau - 1][n - 1] if tau else 0
            if n >= 2:
                acc += f2 * num[tau][n - 2]
            num[tau][n] = acc
    return PathTable(tuple(map(tuple, num)), den, M, offset)


def path_table_enumerate(system: RecurrenceSystem, offset: int, M: int) -> PathTable:
    """Walk every step sequence explicitly; oracle for the dynamic program."""
    if M < 0:
        raise InvalidParams("truncation depth must be nonnegative")
    if M > ENUMERATION_DEPTH_CAP:
        raise TruncationTooLarge(
            f"enumeration at depth {M} would walk too many paths; cap is {ENUMERATION_DEPTH_CAP}"
        )
    a1, a2, den = _step_factors(system, offset, M)
    num = [[0] * (M + 1) for _ in range(M + 1)]
    # depth-first over (position, tau, prefix product); every node is a valid path
    stack = [(0, 0, 1)]
    while stack:
        pos, tau, prod = stack.pop()
        num[tau][pos] += prod
        if pos + 1 <= M:
            stack.append((pos + 1, tau + 1, prod * a1[pos + 1]))
        if pos + 2 <= M:
            stack.append((pos + 2, tau, prod * a2[pos + 2]))
    return PathTable(tuple(map(tuple, num)), den, M, offset)


def table_matches_stream(tbl: PathTable, system: RecurrenceSystem) -> bool:
    """Column sums of the path table must equal the majorant sequence exactly:
    the same integers P_n over the same divisors as iter_cleared's from the
    table's offset."""
    q = 1
    majorant = iter_cleared(system, tbl.offset, modulus=True)
    for s, d, (p, g) in zip(tbl.columns, tbl.den, majorant):
        q *= g
        if (s, d) != (p, q):
            return False
    return True


def _row_pairs(tbl: PathTable, a_mag, b_mag):
    """Yield row tau as pairs (p, q), q > 0, with p / q = table[tau][tau + 2b]
    / (a_mag^tau b_mag^b); one row at a time, so no caller holds them all."""
    if not (is_exact(a_mag) and is_exact(b_mag)):
        raise InputError("row normalization needs exact lag limits")
    if a_mag <= 0 or b_mag <= 0:
        raise InvalidParams("row normalization needs the positive magnitudes |L_1| and |L_2|")
    a, b = Fraction(a_mag), Fraction(b_mag)
    up, down = 1, 1  # a's denominator and numerator to the power tau
    for tau in range(tbl.M + 1):
        row, p, q = [], up, down
        for n in range(tau, tbl.M + 1, 2):
            row.append((tbl.num[tau][n] * p, tbl.den[n] * q))
            p, q = p * b.denominator, q * b.numerator
        yield row
        up, down = up * a.denominator, down * a.numerator


def row_series_coefficients(tbl: PathTable, a_mag, b_mag):
    """Normalized z-power coefficients of each row: rows[tau][b] with n = tau + 2b.

    Dividing by |L_1|^tau |L_2|^b turns raw path products into the normalized
    products appearing in the grouped series; the row then depends on x only
    through z.  Requires exact positive limits; the rows are Fractions.
    """
    return tuple(tuple(Fraction(p, q) for p, q in row) for row in _row_pairs(tbl, a_mag, b_mag))


def grouped_partial_sum(tbl: PathTable, a_mag, b_mag, x_mag):
    """Evaluate sum_tau eta^tau y_tau(z) from the normalized rows.

    eta = a_mag * x_mag and z = b_mag * x_mag^2.  Because the grouping is a
    finite rearrangement, this equals sum_{n<=M} c_n x_mag^n exactly when
    x_mag is exact; tests compare the two routes.  A floating x_mag gives the
    sum at the working precision, with each normalized coefficient and both
    limits rounded once, to nearest, from their exact integers
    (scalars.rational_to_mp), so no rational meets an mpf.
    """
    if is_exact(x_mag):
        rows = row_series_coefficients(tbl, a_mag, b_mag)
        eta = a_mag * x_mag
        z = b_mag * x_mag * x_mag
    else:
        prec = mp.prec
        rows = ([rational_to_mp(p, q, prec) for p, q in row]
                for row in _row_pairs(tbl, a_mag, b_mag))
        eta = as_mp(a_mag, prec) * x_mag
        z = as_mp(b_mag, prec) * x_mag * x_mag
    zero = eta - eta  # additive identity in the operand tier
    total = zero
    eta_pow = zero + 1
    for row in rows:
        z_pow = zero + 1
        row_val = zero
        for c in row:
            row_val = row_val + c * z_pow
            z_pow = z_pow * z
        total = total + eta_pow * row_val
        eta_pow = eta_pow * eta
    return total
