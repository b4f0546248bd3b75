"""The integer path tables against the Fraction loops they replaced.

The reference dynamic program and enumeration below are the path-table code
the package used before the tables moved onto the majorant stepper's
unreduced integers: each step factor |alpha_i(j + offset)| is a reduced
Fraction and every entry is reduced after each step.  The integer tables'
exact views must equal them in value, and the mp-tier grouped sum must equal,
bit for bit, the sum over coefficients rounded once by rational_to_mp.
"""

from fractions import Fraction

import mpmath.rational
import pytest
from mpmath import mp

from heunlab import (HeunParams, IndicialPole, InputError, RationalFnInN,
                     RecurrenceSystem, find_proof_constants,
                     grouped_partial_sum, heun_recurrence, path_table,
                     path_table_enumerate, poly_from, run_system_audit,
                     series_limits, table_matches_stream)
from heunlab.rearrange import row_series_coefficients
from heunlab.scalars import as_mp, rational_to_mp, scalar_abs

F = Fraction
M = 30
ENUM_DEPTH = 14


def factor(system, offset, i, j):
    return scalar_abs(system.coefficient(i, j + offset))


def reference_table(system, offset, depth):
    zero = Fraction(0)
    tbl = [[zero] * (depth + 1) for _ in range(depth + 1)]
    tbl[0][0] = Fraction(1)
    for n in range(1, depth + 1):
        a_fac = factor(system, offset, 1, n - 1)
        b_fac = factor(system, offset, 2, n - 1) if n >= 2 else None
        for tau in range(0, n + 1):
            acc = zero
            if tau >= 1:
                acc = acc + a_fac * tbl[tau - 1][n - 1]
            if n >= 2:
                acc = acc + b_fac * tbl[tau][n - 2]
            tbl[tau][n] = acc
    return tuple(tuple(row) for row in tbl)


def reference_enumerate(system, offset, depth):
    zero = Fraction(0)
    tbl = [[zero] * (depth + 1) for _ in range(depth + 1)]
    stack = [(0, 0, Fraction(1))]
    while stack:
        pos, tau, prod = stack.pop()
        tbl[tau][pos] = tbl[tau][pos] + prod
        if pos + 1 <= depth:
            stack.append((pos + 1, tau + 1, prod * factor(system, offset, 1, pos)))
        if pos + 2 <= depth:
            stack.append((pos + 2, tau, prod * factor(system, offset, 2, pos + 1)))
    return tuple(tuple(row) for row in tbl)


def reference_rows(table, a_mag, b_mag):
    return tuple(tuple(table[tau][n] / (a_mag ** tau * b_mag ** ((n - tau) // 2))
                       for n in range(tau, len(table), 2))
                 for tau in range(len(table)))


def assert_tables(system, offset, limits=None):
    tbl = path_table(system, offset, M)
    expected = reference_table(system, offset, M)
    assert tbl.table == expected
    assert all(type(v) is Fraction for row in tbl.table for v in row)
    assert [tbl.column_sum(n) for n in range(M + 1)] == [sum(col) for col in zip(*expected)]
    assert table_matches_stream(tbl, system)
    enum = path_table_enumerate(system, offset, ENUM_DEPTH)
    assert enum.table == reference_enumerate(system, offset, ENUM_DEPTH)
    assert enum.num == tuple(row[:ENUM_DEPTH + 1] for row in tbl.num[:ENUM_DEPTH + 1])
    if limits is not None:
        a_mag, b_mag = limits
        assert row_series_coefficients(tbl, a_mag, b_mag) == reference_rows(expected, a_mag, b_mag)


def test_tables_match_fraction_loops_over_the_pool(instance_pool):
    for params in instance_pool:
        system = heun_recurrence(params)
        A, B = series_limits(params)
        limits = (abs(A), abs(B)) if A and B else None
        N = find_proof_constants(system).N
        for offset in (0, 11, N):
            assert_tables(system, offset, limits)


def lag(num, den):
    return RationalFnInN(poly_from(*num), poly_from(*den))


# For k = 2 the shared denominator G can vanish only at lag 2's pole n = 0,
# where lag 2 has not fired yet (RecurrenceSystem refuses a lag-2 pole at
# n >= 1): the table at offset 0 takes its first step there over lag 1's own
# denominator, the table at offset 1 starts past it.
G_ZERO_SYSTEMS = {
    "lag2_pole_at_0": RecurrenceSystem((
        lag((F(1),), (F(1),)),
        lag((F(1),), (F(0), F(1))),
    )),
    "shared_pole_at_0": RecurrenceSystem((
        lag((F(1, 2), F(3)), (F(3), F(7, 5))),
        lag((F(-2), F(5, 3), F(1)), (F(0), F(4), F(3, 2))),
    )),
}


@pytest.mark.parametrize("name", sorted(G_ZERO_SYSTEMS))
def test_tables_step_over_a_vanishing_denominator(name):
    system = G_ZERO_SYSTEMS[name]
    assert system.cleared[1](0) == 0
    for offset in (0, 1, 11):
        assert_tables(system, offset)
    with pytest.raises(IndicialPole):
        RecurrenceSystem((system.lags[0], lag((F(1),), (F(-1), F(1)))))


def test_path_tables_refuse_floating_inputs():
    with pytest.raises(InputError):
        path_table(heun_recurrence(HeunParams(mp.mpf(2), 1, 1, 1, 1, 1)), 3, 4)
    # the rows are normalized by exact limits, in either tier of x
    tbl = path_table(heun_recurrence(HeunParams(2, 1, 1, 1, 1, 1)), 3, 4)
    for x in (F(1, 3), mp.mpf(1) / 3):
        with pytest.raises(InputError):
            grouped_partial_sum(tbl, mp.mpf(1.5), F(1, 2), x)


@pytest.mark.parametrize("prec", [53, 256])
def test_mp_grouped_sum_rounds_each_coefficient_once(instance_pool, prec):
    x = F(1, 3)
    for params in instance_pool[:10]:
        A, B = series_limits(params)
        if A == 0 or B == 0:
            continue
        a_mag, b_mag = abs(A), abs(B)
        for offset in (0, 11):
            tbl = path_table(heun_recurrence(params), offset, M)
            rows = row_series_coefficients(tbl, a_mag, b_mag)
            with mp.workprec(prec):
                x_mp = as_mp(x, prec)
                eta = rational_to_mp(a_mag.numerator, a_mag.denominator, prec) * x_mp
                z = rational_to_mp(b_mag.numerator, b_mag.denominator, prec) * x_mp * x_mp
                expected, eta_pow = mp.mpf(0), mp.mpf(1)
                for row in rows:
                    row_val, z_pow = mp.mpf(0), mp.mpf(1)
                    for c in row:
                        row_val += as_mp(c, prec) * z_pow
                        z_pow *= z
                    expected += eta_pow * row_val
                    eta_pow *= eta
                grouped = grouped_partial_sum(tbl, a_mag, b_mag, x_mp)
            assert grouped._mpf_ == expected._mpf_, params


def test_audit_converts_no_rational_through_mpq(a2_params, monkeypatch):
    calls = []
    original = mpmath.rational.create_reduced

    def counting(p, q, *args):
        calls.append((p, q))
        return original(p, q, *args)

    monkeypatch.setattr(mpmath.rational, "create_reduced", counting)
    document, _ = run_system_audit(heun_recurrence(a2_params))
    assert document["verdicts"]["rearrangement_ok"]
    assert calls == []
