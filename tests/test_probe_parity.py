"""The chunked blocked-scan probe kernel against a term-by-term reference.

The reference below is the sequential float64 loop the probes were first
written as: one step of the three-term recurrence per term, with the state
rescaled by 2^+-512 whenever it leaves [2^-500, 2^500].  The kernel
reassociates the products of the transfer matrices, so its terms differ from
the reference's in the last digits only; the verdicts, indices and the
places where values saturate to inf or turn nan must agree exactly.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import heunlab.probes as probes
from heunlab import (HeunParams, RationalFnInN, RecurrenceSystem,
                     boundary_radius, gauss_test, heun_recurrence, poly_from,
                     series_limits, term_scan, term_trace)

from test_acceptance import PROBE_POOL

RTOL = 1e-12

_RESCALE_HI = math.ldexp(1.0, 500)
_RESCALE_LO = math.ldexp(1.0, -500)
_RESCALE_SHIFT = 512


def _real_scale(u, scale_pow):
    if u == 0.0:
        return 0.0
    try:
        return math.ldexp(u, scale_pow)
    except OverflowError:
        return math.copysign(math.inf, u)


def reference_probe(system, r, n_terms, which="modulus", offset=1, stride=1):
    """(checkpoints, term_log_mags, max_abs_partial, trace rows), one term at a time."""
    signed = which == "signed"
    if signed:
        offset = 0
    n = np.arange(offset, offset + n_terms, dtype=np.float64)
    a_arr, b_arr = probes._lag_values(probes._lag_coefficients(system), n, signed)
    a_arr = a_arr * r
    b_arr = b_arr * (r * r)
    ln2, lnr = math.log(2.0), math.log(r)
    marks = {1 << p for p in range(10, 64) if (1 << p) <= n_terms}
    checkpoints, term_logs = [], []
    rows = [(0, 1.0, 0.0, 0.0, 1.0, 1.0)]
    u_prev, u, scale_pow, total, max_abs = 0.0, 1.0, 0, 1.0, 1.0
    for j in range(1, n_terms):
        nxt = a_arr[j - 1] * u + b_arr[j - 1] * u_prev if j >= 2 else a_arr[0] * u
        u_prev, u = u, float(nxt)
        mag = max(abs(u), abs(u_prev))
        if mag > _RESCALE_HI:
            u = math.ldexp(u, -_RESCALE_SHIFT)
            u_prev = math.ldexp(u_prev, -_RESCALE_SHIFT)
            scale_pow += _RESCALE_SHIFT
        elif 0.0 < mag < _RESCALE_LO:
            u = math.ldexp(u, _RESCALE_SHIFT)
            u_prev = math.ldexp(u_prev, _RESCALE_SHIFT)
            scale_pow -= _RESCALE_SHIFT
        term = _real_scale(u, scale_pow)
        total += term
        if abs(total) > max_abs:
            max_abs = abs(total)
        log_t = math.log(abs(u)) + scale_pow * ln2 if u != 0 else -math.inf
        if j + 1 in marks:
            checkpoints.append((j + 1, total))
            term_logs.append(log_t)
        if j % stride == 0 or j == n_terms - 1:
            if u != 0.0:
                log_coef = log_t - j * lnr
                try:
                    value = math.copysign(math.exp(log_coef), u)
                except OverflowError:
                    value = math.copysign(math.inf, u)
            else:
                log_coef, value = -math.inf, 0.0
            rows.append((j, value, 0.0, log_coef, term, total))
    return checkpoints, term_logs, max_abs, rows


def assert_close(got, want, scale=0.0, factor=1.0, what=""):
    """Equal non-finite values; finite ones within factor * RTOL of
    max(|got|, |want|, scale)."""
    if not (math.isfinite(got) and math.isfinite(want)):
        assert got == want or (math.isnan(got) and math.isnan(want)), (what, got, want)
        return
    bound = factor * RTOL * max(abs(got), abs(want), scale)
    assert abs(got - want) <= bound, (what, got, want)


def log_scale(log_value, n, r):
    """Size of the terms that log |t_n| and log |t_n| - n log r add up: the
    two codes round them in a different order, so a log carries an absolute
    error of RTOL times this, and its exponential that relative error."""
    return max(1.0, abs(log_value), n * abs(math.log(r)))


def assert_rows_match(rows, ref_rows, r):
    assert [row[0] for row in rows] == [row[0] for row in ref_rows]
    for row, ref in zip(rows, ref_rows):
        n = row[0]
        assert type(n) is int and row[2] == 0.0
        lsc = log_scale(ref[3], n, r)
        assert_close(row[3], ref[3], scale=lsc, what=f"log_mag at {n}")
        assert_close(row[1], ref[1], factor=lsc, what=f"value at {n}")
        assert_close(row[4], ref[4], what=f"term at {n}")
        assert_close(row[5], ref[5], what=f"sum at {n}")


def assert_scan_matches(scan, reference, r):
    checkpoints, term_logs, max_abs, rows = reference
    assert scan.verdict == probes._verdict_from_gaps(
        [s2 - s1 for (_, s1), (_, s2) in zip(checkpoints, checkpoints[1:])])
    assert [n for n, _ in scan.checkpoints] == [n for n, _ in checkpoints]
    for (n, s), (_, s_ref) in zip(scan.checkpoints, checkpoints):
        assert_close(s, s_ref, what=f"S_{n}")
    # a gap is a difference of two checkpoint sums, so it carries their error
    sums = [s for _, s in checkpoints]
    for g, s1, s2 in zip(scan.gaps, sums, sums[1:]):
        assert_close(g, s2 - s1, scale=max(abs(s1), abs(s2)), what="gap")
    for (n, _), lm, lm_ref in zip(checkpoints, scan.term_log_mags, term_logs):
        assert_close(lm, lm_ref, scale=max(1.0, abs(lm_ref)), what=f"log |t_{n - 1}|")
    assert_close(scan.max_abs_partial, max_abs, what="max_abs_partial")
    assert_rows_match(list(scan.trace), rows, r)


@pytest.fixture
def small_chunks(monkeypatch):
    # two blocks per chunk: every stream below crosses chunk and block edges
    monkeypatch.setattr(probes, "_CHUNK", 2 * probes._BLOCK)


@pytest.mark.parametrize("which", ["modulus", "signed"])
@pytest.mark.parametrize("ptuple", PROBE_POOL,
                         ids=[f"{i:02d}-a={s[0]}" for i, s in enumerate(PROBE_POOL, 1)])
def test_kernel_matches_reference_on_probe_pool(ptuple, which, monkeypatch):
    params = HeunParams(*ptuple)
    system = heun_recurrence(params)
    r_star = float(boundary_radius(series_limits(params)))
    n_terms, stride = (1 << 14) - 3, 97
    for r in (r_star, 0.99 * r_star, 2.0):
        reference = reference_probe(system, r, n_terms, which, stride=stride)
        assert_scan_matches(term_scan(system, r, n_terms, which, stride=stride),
                            reference, r)
        with monkeypatch.context() as m:
            m.setattr(probes, "_CHUNK", 1 << 12)
            assert_scan_matches(term_scan(system, r, n_terms, which, stride=stride),
                                reference, r)


B = probes._BLOCK


@pytest.mark.parametrize("which", ["modulus", "signed"])
@pytest.mark.parametrize("n_terms", [1, 2, 3, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1,
                                     5 * B + 7, 1 << 11, (1 << 11) + 1, 5000])
def test_trace_chunk_and_block_edges(a2_params, small_chunks, which, n_terms):
    system = heun_recurrence(a2_params)
    r = 0.5615528128088303
    for stride in (1, 7, 300):
        _, _, _, ref_rows = reference_probe(system, r, n_terms, which, stride=stride)
        assert_rows_match(term_trace(system, r, n_terms, stride, which), ref_rows, r)


@pytest.mark.parametrize("r", [0.5615528128088303, 2.0])
def test_scan_chunk_edges(a2_params, small_chunks, r):
    system = heun_recurrence(a2_params)
    for n_terms in (1 << 11, (1 << 12) + 1, (1 << 12) + 5 * B + 3):
        for which in ("modulus", "signed"):
            assert_scan_matches(term_scan(system, r, n_terms, which, stride=255),
                                reference_probe(system, r, n_terms, which, stride=255), r)


def test_step_one_never_reads_b0(small_chunks):
    # b_n = 1/(4n) has its pole at n = 0, where t_{-1} = 0 would turn it into nan
    system = RecurrenceSystem((RationalFnInN(poly_from(1), poly_from(2)),
                               RationalFnInN(poly_from(1), poly_from(0, 4))))
    scan = term_scan(system, 1.0, 1 << 12, "signed", stride=100)
    assert all(math.isfinite(s) for _, s in scan.checkpoints)
    assert_scan_matches(scan, reference_probe(system, 1.0, 1 << 12, "signed", stride=100), 1.0)


def test_concurrent_streams_keep_their_own_workspace(a2_params, small_chunks):
    # threads interleave inside numpy calls; each stream must take its own
    # workspace from the idle pool, or one would overwrite another's chunk
    system = heun_recurrence(a2_params)
    r = 0.5615528128088303
    calls = [(term_scan, (system, r, 1 << 13, "modulus", 1, 97)),
             (term_scan, (system, r, 1 << 13, "signed", 0, 97)),
             (gauss_test, (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), 1 << 13))] * 4
    expected = [fn(*args) for fn, args in calls[:3]] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [pool.submit(fn, *args) for fn, args in calls]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


@pytest.fixture
def segments(monkeypatch):
    """Every segment length the kernel picks, in call order."""
    picked = []
    pick = probes._segment_steps

    def record(*args):
        picked.append(pick(*args))
        return picked[-1]

    monkeypatch.setattr(probes, "_segment_steps", record)
    return picked


def _scan_fields(scan):
    # repr is exact for floats and equates nan with nan
    return repr((scan.checkpoints, scan.gaps, scan.term_log_mags, scan.verdict,
                 scan.max_abs_partial, scan.trace))


@pytest.mark.parametrize("chunk", [None, 2 * B], ids=["default-chunk", "two-block-chunk"])
@pytest.mark.parametrize("which", ["modulus", "signed"])
@pytest.mark.parametrize("ptuple", PROBE_POOL,
                         ids=[f"{i:02d}-a={s[0]}" for i, s in enumerate(PROBE_POOL, 1)])
def test_rescale_schedule_leaves_results_unchanged(ptuple, which, chunk, monkeypatch, segments):
    # rescaling by powers of two is exact and the logs read the canonical
    # frexp split, so a rescale per step and one per segment agree exactly
    params = HeunParams(*ptuple)
    system = heun_recurrence(params)
    r_star = float(boundary_radius(series_limits(params)))
    if chunk is not None:
        monkeypatch.setattr(probes, "_CHUNK", chunk)
    for r in (r_star, 0.99 * r_star, 2.0):
        segmented = term_scan(system, r, (1 << 14) - 3, which, stride=97)
        with monkeypatch.context() as m:
            m.setattr(probes, "_RENORM", 1)
            per_step = term_scan(system, r, (1 << 14) - 3, which, stride=97)
        assert _scan_fields(segmented) == _scan_fields(per_step)
    assert max(segments) == probes._RENORM > 1


def _coefficient_system(a_num, a_den, b_num, b_den):
    return RecurrenceSystem((RationalFnInN(poly_from(*a_num), poly_from(*a_den)),
                             RationalFnInN(poly_from(*b_num), poly_from(*b_den))))


@pytest.mark.parametrize("which", ["modulus", "signed"])
def test_huge_lag_coefficient_rescales_every_step(small_chunks, segments, which):
    # a_n = 1e200 (n + 1) / (n + 2): at r = 1e-200 the terms decay like 1/n,
    # but the scaled steps grow by about 2^664 each, so 16 would overflow
    system = _coefficient_system((Fraction(1e200), Fraction(1e200)), (2, 1), (1,), (1,))
    r, n_terms = 1e-200, (1 << 12) + 5 * B + 3
    scan = term_scan(system, r, n_terms, which, stride=61)
    assert set(segments) == {1}
    assert all(math.isfinite(s) for _, s in scan.checkpoints)
    assert_scan_matches(scan, reference_probe(system, r, n_terms, which, stride=61), r)


@pytest.mark.parametrize("which", ["modulus", "signed"])
def test_vanishing_second_lag_rescales_every_step_in_its_chunk(small_chunks, segments, which):
    # b_n = (n - 300) / (4 (n + 1)) vanishes at n = 300, inside the second
    # two-block chunk; only that chunk falls back to a rescale per step
    system = _coefficient_system((1,), (2,), (-300, 1), (4, 4))
    r, n_terms = 0.5, (1 << 12) + 5 * B + 3
    scan = term_scan(system, r, n_terms, which, stride=61)
    assert segments[1] == 1 and segments.count(1) == 1
    assert_scan_matches(scan, reference_probe(system, r, n_terms, which, stride=61), r)
