"""Float64 boundary probes: scans, traces, and the radius estimator."""

import math
from fractions import Fraction

import numpy as np
import pytest

import heunlab.probes as probes
from heunlab import (HeunParams, InsufficientData, InvalidParams,
                     MagnitudeOverflow, RationalFnInN, RecurrenceSystem,
                     boundary_radius, discrepancy_report, empirical_radius,
                     eta_z, heun_recurrence, poly_from, series_limits,
                     stream_coefficients, term_scan, term_trace)

F = Fraction
R_STAR_A2 = 0.5615528128088303


def geometric_system(ratio=F(1, 2)):
    one = poly_from(F(1))
    return RecurrenceSystem((
        RationalFnInN(poly_from(ratio), one),
        RationalFnInN(poly_from(F(0)), one),
    ))


def gauss_coefficient_system():
    """Single-lag system with d_{n+1}/d_n -> 1: unit radius, slow polynomial drift."""
    num = poly_from(F(1, 2), 1) * poly_from(F(1, 3), 1)
    den = poly_from(F(5, 4), 1) * poly_from(F(1), 1)
    zero = RationalFnInN(poly_from(F(0)), poly_from(F(1)))
    return RecurrenceSystem((RationalFnInN(num, den), zero))


def test_scan_geometric_control_converges():
    scan = term_scan(geometric_system(), 1.0, 1 << 13)
    assert scan.verdict == "converges-empirically"
    assert all(abs(g) < 1e-8 for g in scan.gaps)
    assert scan.checkpoints[0][0] == 1024
    assert scan.max_abs_partial == pytest.approx(2.0, rel=1e-9)


def test_scan_modulus_diverges_at_boundary(a2_params):
    system = heun_recurrence(a2_params)
    scan = term_scan(system, R_STAR_A2, 1 << 17)
    assert scan.which == "modulus"
    assert scan.verdict == "diverges-empirically"
    assert all(g > 0 for g in scan.gaps)


def test_scan_modulus_converges_inside(a2_params):
    system = heun_recurrence(a2_params)
    scan = term_scan(system, 0.99 * R_STAR_A2, 1 << 17)
    assert scan.verdict == "converges-empirically"


def test_scan_signed_settles_at_boundary(a2_params):
    # sign cancellation: the signed series converges where the majorant blows up
    system = heun_recurrence(a2_params)
    scan = term_scan(system, R_STAR_A2, 1 << 17, which="signed")
    assert scan.offset == 0
    assert scan.verdict == "converges-empirically"


def test_scan_saturates_instead_of_overflowing(a2_params):
    # far outside the disk the real-scale partials leave float64; the verdict
    # must still come out as divergence, not an exception or "inconclusive"
    system = heun_recurrence(a2_params)
    scan = term_scan(system, 2.0, 1 << 13)
    assert scan.verdict == "diverges-empirically"
    assert math.isinf(scan.max_abs_partial)
    assert all(math.isfinite(lm) for lm in scan.term_log_mags)


def test_scan_tiny_radius_keeps_log_magnitudes(a2_params):
    # r * r underflows float64 here; the transfer matrices must not
    scan = term_scan(heun_recurrence(a2_params), 1e-200, 1 << 13)
    assert scan.verdict == "converges-empirically"
    assert scan.max_abs_partial == 1.0
    assert all(math.isfinite(lm) and lm < -4e5 for lm in scan.term_log_mags)


def test_scan_stride_fills_trace_rows(a2_params):
    system = heun_recurrence(a2_params)
    scan = term_scan(system, 0.5, 1 << 12, stride=1000)
    assert scan.trace == tuple(term_trace(system, 0.5, 1 << 12, stride=1000))
    assert [row[0] for row in scan.trace] == [0, 1000, 2000, 3000, 4000, 4095]
    assert scan.trace[-1][5] == scan.checkpoints[-1][1]
    assert term_scan(system, 0.5, 1 << 12).trace == ()


def test_scan_input_guards(a2_params):
    system = heun_recurrence(a2_params)
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 100)
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 1 << 12, which="absolute")
    for bad_r in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParams):
            term_scan(system, bad_r, 1 << 12)
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 1 << 12, stride=0)
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 1 << 12, offset=-1)
    # float64 indices are exact up to 2^53; the signed channel ignores offset
    top = (1 << 53) - (1 << 12)
    assert term_scan(system, 0.5, 1 << 12, offset=top).offset == top
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 1 << 12, offset=top + 1)
    with pytest.raises(InvalidParams):
        term_scan(system, 0.5, 1 << 12, offset=10 ** 400)
    assert term_scan(system, 0.5, 1 << 12, "signed", offset=10 ** 400).offset == 0
    one_lag = RecurrenceSystem((RationalFnInN(poly_from(F(1, 2)), poly_from(F(1))),))
    with pytest.raises(InvalidParams):
        term_scan(one_lag, 0.5, 1 << 12)


def test_coefficient_rounding_to_zero_is_refused(a2_params):
    # gamma = 10^-400 puts 0.0 in the shared denominator's constant term:
    # step 0 would divide by zero and every checkpoint read nan
    system = heun_recurrence(HeunParams(2, 1, 1, 1, F(1, 10 ** 400), 1))
    for which in ("modulus", "signed"):
        with pytest.raises(MagnitudeOverflow, match="does not fit in float64"):
            term_scan(system, 0.5, 1 << 12, which)
    # exact zeros, such as the two low coefficients of lag 2's numerator, stay
    (_, _), (num2, _) = probes._lag_coefficients(heun_recurrence(a2_params))
    assert num2 == (0.0, 0.0, -0.5)


def test_workspace_footprint():
    # buffers that no stage of a chunk reads at the same time share memory;
    # a new buffer has to fit in what is left under 40 bytes per term
    ws = probes._Workspace(probes._CHUNK)
    # the scan's prefix products live over the terms and the sums
    assert np.shares_memory(ws.z, ws.terms) and np.shares_memory(ws.z, ws.sums)
    owners = {}
    for buf in vars(ws).values():
        if isinstance(buf, np.ndarray):
            while buf.base is not None:
                buf = buf.base
            owners[id(buf)] = buf
    assert sum(buf.nbytes for buf in owners.values()) <= 40 * probes._CHUNK


def test_trace_matches_exact_majorant(a2_params):
    system = heun_recurrence(a2_params)
    r = 0.5
    rows = term_trace(system, r, 60, stride=1)
    exact = stream_coefficients(system, 60, offset=1, modulus=True)
    assert rows[0] == (0, 1.0, 0.0, 0.0, 1.0, 1.0)
    partial = 1.0
    for n, value, value_im, log_mag, term, total in rows[1:]:
        c = float(exact[n])
        assert value_im == 0.0
        assert value == pytest.approx(c, rel=1e-9)
        assert term == pytest.approx(c * r ** n, rel=1e-9)
        assert log_mag == pytest.approx(math.log(c), rel=1e-9)
        partial += c * r ** n
        assert total == pytest.approx(partial, rel=1e-9)


def test_trace_signed_matches_exact_stream(a2_params):
    system = heun_recurrence(a2_params)
    rows = term_trace(system, 0.25, 40, stride=1, which="signed")
    exact = stream_coefficients(system, 40)
    for n, value, _, _, term, _ in rows[1:]:
        d = float(exact[n])
        assert value == pytest.approx(d, rel=1e-9)
        assert term == pytest.approx(d * 0.25 ** n, rel=1e-9)


def test_trace_stride_decimation(a2_params):
    system = heun_recurrence(a2_params)
    rows = term_trace(system, 0.5, 100, stride=7)
    assert [r[0] for r in rows] == [0] + list(range(7, 100, 7)) + [99]


def test_trace_saturation_keeps_log_column(a2_params):
    system = heun_recurrence(a2_params)
    rows = term_trace(system, 2.0, 3000, stride=500)
    last = rows[-1]
    assert math.isinf(last[4]) and math.isinf(last[5])
    assert math.isfinite(last[3])  # log magnitude still informative


def test_trace_input_guards(a2_params):
    system = heun_recurrence(a2_params)
    with pytest.raises(InvalidParams):
        term_trace(system, 0.5, 10, stride=0)
    with pytest.raises(InvalidParams):
        term_trace(system, -1.0, 10)
    with pytest.raises(InvalidParams):
        term_trace(system, 0.5, 0)


def test_empirical_radius_geometric():
    stream = stream_coefficients(geometric_system(), 2048, 53)
    assert empirical_radius(stream) == pytest.approx(2.0, rel=1e-6)


def test_empirical_radius_unit_disk():
    stream = stream_coefficients(gauss_coefficient_system(), 4096, 53)
    assert empirical_radius(stream) == pytest.approx(1.0, abs=1e-2)


def test_empirical_radius_heun(a2_params):
    # the true Frobenius solution is dominant: its disk ends at the nearest
    # singularity (1), not at the guaranteed-domain radius
    stream = stream_coefficients(heun_recurrence(a2_params), 4096, 53)
    assert empirical_radius(stream) == pytest.approx(1.0, abs=1e-2)


def test_empirical_radius_needs_points():
    stream = stream_coefficients(geometric_system(), 100, 53)
    with pytest.raises(InsufficientData):
        empirical_radius(stream)


def test_discrepancy_report(a2_params):
    system = heun_recurrence(a2_params)
    limits = series_limits(a2_params)
    r = boundary_radius(limits)
    eta, z = eta_z(limits, r)
    rep = discrepancy_report(system, r, eta, z, n_terms=1 << 17, stream_len=2048)
    assert rep.agreement == "cancellation"
    assert rep.signed.verdict == "converges-empirically"
    assert rep.modulus.verdict == "diverges-empirically"
    assert rep.r_star == pytest.approx(R_STAR_A2)
    assert rep.eta + rep.z == pytest.approx(1.0)
    assert rep.radius_estimate == pytest.approx(1.0, abs=1e-2)
    assert len(rep.gap_ratios) == len(rep.modulus.gaps)
    # cancellation in numbers: signed gaps are a vanishing share of majorant gaps
    assert rep.gap_ratios[-1] < 1e-6
