"""Path-product rearrangement: dynamic program, enumeration, and regrouping."""

from fractions import Fraction

import pytest

from heunlab import (InvalidParams, TruncationTooLarge, grouped_partial_sum,
                     heun_recurrence, path_table, path_table_enumerate,
                     series_limits, stream_coefficients, table_matches_stream)
from heunlab.rearrange import row_series_coefficients

F = Fraction


@pytest.fixture()
def a2_system(a2_params):
    return heun_recurrence(a2_params)


def test_hand_checked_table_depth_two(a2_system):
    tbl = path_table(a2_system, 0, 2)
    # one empty path; one single step of weight 1/2; at n = 2 either a
    # double step of weight 1/8 or two singles of weight (1/2)(7/8)
    assert tbl.table[0][0] == 1
    assert tbl.table[1][1] == F(1, 2)
    assert tbl.table[0][2] == F(1, 8)
    assert tbl.table[2][2] == F(7, 16)
    assert tbl.table[1][2] == 0
    assert tbl.column_sum(2) == F(9, 16)


def test_parity_vanishing(a2_system):
    tbl = path_table(a2_system, 0, 9)
    for tau in range(10):
        for n in range(10):
            if (n - tau) % 2 or n < tau:
                assert tbl.table[tau][n] == 0


def test_column_sums_reproduce_majorant(a2_system, a2_params):
    tbl = path_table(a2_system, 0, 20)
    assert table_matches_stream(tbl, a2_system)
    stream = stream_coefficients(a2_system, 21, modulus=True)
    assert tbl.column_sum(20) == stream[20]


def test_table_with_offset(a2_params):
    system = heun_recurrence(a2_params)
    tbl = path_table(system, 10, 12)
    assert tbl.offset == 10
    assert tbl.table[1][1] == abs(system.lags[0](10))
    assert table_matches_stream(tbl, system)


def test_enumeration_matches_dynamic_program(instance_pool):
    for params in instance_pool[:4]:
        for offset in (0, 7):
            system = heun_recurrence(params)
            assert (path_table(system, offset, 12).table
                    == path_table_enumerate(system, offset, 12).table)


def test_enumeration_matches_at_depth_twenty(a2_system):
    assert path_table(a2_system, 0, 20).table == path_table_enumerate(a2_system, 0, 20).table


def test_enumeration_depth_cap(a2_system):
    with pytest.raises(TruncationTooLarge):
        path_table_enumerate(a2_system, 0, 33)


def test_pure_double_step_row(a2_params):
    system = heun_recurrence(a2_params)
    tbl = path_table(system, 0, 6)
    b_at = lambda j: abs(system.lags[1](j))
    assert tbl.table[0][4] == b_at(1) * b_at(3)
    assert tbl.table[0][6] == b_at(1) * b_at(3) * b_at(5)


def test_normalized_rows(a2_system, a2_params):
    A, B = series_limits(a2_params)
    rows = row_series_coefficients(path_table(a2_system, 0, 6), abs(A), abs(B))
    assert rows[0][0] == 1
    # first normalized double-step weight: |alpha_2(1)| / |L_2| = (1/8)/(1/2)
    assert rows[0][1] == F(1, 4)
    # rows shrink with tau: row tau has entries for n = tau, tau+2, .. <= M
    assert len(rows[0]) == 4 and len(rows[6]) == 1


def test_row_normalization_needs_nonzero_limits(a2_system):
    with pytest.raises(InvalidParams):
        row_series_coefficients(path_table(a2_system, 0, 4), F(0), F(1, 2))


def test_grouped_equals_direct_exactly(instance_pool):
    for params in instance_pool[:5]:
        A, B = series_limits(params)
        if A == 0 or B == 0:
            continue
        system = heun_recurrence(params)
        M = 30
        tbl = path_table(system, 0, M)
        x = F(1, 7)
        grouped = grouped_partial_sum(tbl, abs(A), abs(B), x)
        stream = stream_coefficients(system, M + 1, modulus=True)
        direct = sum(stream[n] * x ** n for n in range(M + 1))
        assert grouped == direct


def test_grouped_base_case(a2_system):
    tbl = path_table(a2_system, 0, 0)
    assert grouped_partial_sum(tbl, F(3, 2), F(1, 2), F(1, 3)) == 1


def test_depth_must_be_nonnegative(a2_system):
    with pytest.raises(InvalidParams):
        path_table(a2_system, 0, -1)
    with pytest.raises(InvalidParams):
        path_table_enumerate(a2_system, 0, -1)


@pytest.mark.parametrize("M", [0, 4])
def test_offset_must_be_nonnegative(a2_system, M):
    # the majorant stepper refuses it, before any step is taken
    with pytest.raises(InvalidParams, match="offset -1 must be nonnegative"):
        path_table(a2_system, -1, M)
    with pytest.raises(InvalidParams, match="offset -1 must be nonnegative"):
        path_table_enumerate(a2_system, -1, M)
