"""Path-product rearrangement of the modulus-majorant series.

Every term of the majorant sequence c_n (built by modulus_stream) is a sum of
products of step factors: a path from index 0 to index n takes steps of size
1 (factor |alpha_1| at the arrival index) and size 2 (factor |alpha_2|).
Grouping paths by their count tau of size-1 steps rearranges the series

    sum_n c_n |x|^n  =  sum_tau eta^tau * y_tau(z)

with eta = |L_1| |x| and z = |L_2| |x|^2, where y_tau collects the normalized
path products with exactly tau size-1 steps, as a power series in z.

Two implementations live here: a lattice-path dynamic program (linear in the
table size) and a brute-force path enumeration (exponential, small depths
only).  They must agree coefficient by coefficient; tests insist on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams, TruncationTooLarge
from .recurrence import ModulusRecurrence, modulus_stream

ENUMERATION_DEPTH_CAP = 32  # paths grow like Fibonacci(M); past this the walk is hopeless


@dataclass(frozen=True)
class PathTable:
    """table[tau][n] = sum of path products reaching n with tau size-1 steps.

    Entries are zero unless n - tau is even and nonnegative (tau single steps
    and (n-tau)/2 double steps).  Row sums over tau reproduce the majorant
    sequence exactly.
    """

    table: tuple  # table[tau] is a tuple indexed by n, 0..M
    M: int
    offset: int

    def column_sum(self, n: int):
        return sum(row[n] for row in self.table)


def path_table(mod: ModulusRecurrence, M: int) -> PathTable:
    """Dynamic program over (tau, n); exact when the system is exact."""
    if M < 0:
        raise InvalidParams("truncation depth must be nonnegative")
    if mod.base.k != 2:
        raise InvalidParams("path rearrangement is stated for three-term recurrences")
    zero = Fraction(0)
    tbl = [[zero] * (M + 1) for _ in range(M + 1)]
    tbl[0][0] = Fraction(1)
    # arrival at n via a size-1 step uses |alpha_1(n-1+offset)|, via size-2 |alpha_2(n-1+offset)|
    for n in range(1, M + 1):
        a_fac = mod.coefficient(1, n - 1)
        b_fac = mod.coefficient(2, n - 1) if n >= 2 else None
        for tau in range(0, n + 1):
            acc = zero
            if tau >= 1:
                acc = acc + a_fac * tbl[tau - 1][n - 1]
            if n >= 2:
                acc = acc + b_fac * tbl[tau][n - 2]
            tbl[tau][n] = acc
    return PathTable(tuple(tuple(row) for row in tbl), M, mod.offset)


def path_table_enumerate(mod: ModulusRecurrence, M: int) -> PathTable:
    """Walk every step sequence explicitly; oracle for the dynamic program."""
    if M < 0:
        raise InvalidParams("truncation depth must be nonnegative")
    if M > ENUMERATION_DEPTH_CAP:
        raise TruncationTooLarge(
            f"enumeration at depth {M} would walk too many paths; cap is {ENUMERATION_DEPTH_CAP}"
        )
    if mod.base.k != 2:
        raise InvalidParams("path rearrangement is stated for three-term recurrences")
    zero = Fraction(0)
    tbl = [[zero] * (M + 1) for _ in range(M + 1)]
    one = Fraction(1)
    # depth-first over (position, tau, prefix product); every node is a valid path
    stack = [(0, 0, one)]
    while stack:
        pos, tau, prod = stack.pop()
        tbl[tau][pos] = tbl[tau][pos] + prod
        if pos + 1 <= M:
            stack.append((pos + 1, tau + 1, prod * mod.coefficient(1, pos)))
        if pos + 2 <= M:
            stack.append((pos + 2, tau, prod * mod.coefficient(2, pos + 1)))
    return PathTable(tuple(tuple(row) for row in tbl), M, mod.offset)


def table_matches_stream(tbl: PathTable, mod: ModulusRecurrence) -> bool:
    """Column sums of the path table must equal the majorant sequence exactly."""
    stream = modulus_stream(mod, tbl.M + 1, "exact")
    return all(tbl.column_sum(n) == stream.values[n] for n in range(tbl.M + 1))


def row_series_coefficients(tbl: PathTable, a_mag, b_mag):
    """Normalized z-power coefficients of each row: rows[tau][b] with n = tau + 2b.

    Dividing by |L_1|^tau |L_2|^b turns raw path products into the normalized
    products appearing in the grouped series; the row then depends on x only
    through z.  Requires nonzero limits.
    """
    if a_mag == 0 or b_mag == 0:
        raise InvalidParams("row normalization needs nonzero lag limits")
    rows = []
    for tau in range(tbl.M + 1):
        coeffs = []
        b = 0
        while tau + 2 * b <= tbl.M:
            coeffs.append(tbl.table[tau][tau + 2 * b] / (a_mag ** tau * b_mag ** b))
            b += 1
        rows.append(tuple(coeffs))
    return tuple(rows)


def grouped_partial_sum(tbl: PathTable, a_mag, b_mag, x_mag):
    """Evaluate sum_tau eta^tau y_tau(z) from the normalized rows.

    eta = a_mag * x_mag and z = b_mag * x_mag^2.  Because the grouping is a
    finite rearrangement, this equals sum_{n<=M} c_n x_mag^n exactly when the
    inputs are exact; tests compare the two routes.
    """
    rows = row_series_coefficients(tbl, a_mag, b_mag)
    eta = a_mag * x_mag
    z = b_mag * x_mag * x_mag
    zero = eta - eta  # additive identity in the operand tier
    total = zero
    eta_pow = zero + 1
    for tau in range(tbl.M + 1):
        z_pow = zero + 1
        row_val = zero
        for c in rows[tau]:
            row_val = row_val + c * z_pow
            z_pow = z_pow * z
        total = total + eta_pow * row_val
        eta_pow = eta_pow * eta
    return total
