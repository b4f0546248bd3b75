"""The streamed gauss_test against the full-array version it replaced.

The reference below materialises every ratio, term and partial sum of the
Gauss series at x = 1 and fits the decay exponent with one lstsq call over
[n_max/4, n_max].  The streamed version runs the same float64 operations in
the same order chunk by chunk, so everything but the fit must agree exactly;
its fit accumulates running least-squares sums and agrees in the last digits.
Streaming also keeps the op's memory flat in n_max, which the last test
measures in fresh processes.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import heunlab
import heunlab.probes as probes
from heunlab import gauss_test
from heunlab.special import _is_nonpositive_integer

FIT_RTOL = 1e-12


def reference_gauss(a, b, c, n_max):
    """(checkpoints, gaps, gap_ratios, trend, fitted_exponent, terminated), all in memory."""
    terminated = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    ac, bc, cc = (complex(float(v), 0.0) for v in (a, b, c))
    n = np.arange(n_max, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.abs((ac + n) * (bc + n)) / np.abs((cc + n) * (n + 1.0))
        t = np.empty(n_max + 1, dtype=np.float64)
        t[0] = 1.0
        np.cumprod(ratios, out=t[1:])
        if terminated:
            t[np.isnan(t)] = 0.0
        partial = np.cumsum(t)

    checkpoints = []
    j = 10
    while (1 << j) <= n_max:
        checkpoints.append(((1 << j), float(partial[(1 << j) - 1])))
        j += 1
    with np.errstate(invalid="ignore"):
        gaps = tuple(round(b2 - b1, 12) for (_, b1), (_, b2) in zip(checkpoints, checkpoints[1:]))
        ratios_g = [(math.nan if g1 == 0 else math.inf) if g0 == 0 or not math.isfinite(g1) else g1 / g0 for g0, g1 in zip(gaps, gaps[1:])]
    tail = ratios_g[-3:]
    if tail and all(q < 0.98 for q in tail):
        trend = "shrinking"
    elif tail and all(q > 1.02 for q in tail):
        trend = "growing"
    else:
        trend = "flat"

    lo = n_max // 4
    idx = np.arange(lo, n_max + 1)
    vals = t[lo:]
    mask = vals > 0
    if mask.sum() >= 16:
        X = np.stack([np.log(idx[mask]), np.ones(mask.sum())], axis=1)
        with np.errstate(invalid="ignore"):
            slope = float(np.linalg.lstsq(X, np.log(vals[mask]), rcond=None)[0][0])
    else:
        slope = float("-inf")
    return (tuple(checkpoints), gaps, tuple(round(q, 12) for q in ratios_g), trend, slope,
            bool(terminated))


def _same(x, y):
    return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))


def assert_matches_reference(a, b, c, n_max, fit_floor=0.0):
    """Everything equal but the fit, which agrees within FIT_RTOL * max(|slope|, fit_floor)."""
    checkpoints, gaps, gap_ratios, trend, slope, terminated = reference_gauss(a, b, c, n_max)
    rep = gauss_test(a, b, c, n_max)
    assert rep.checkpoints == checkpoints
    assert all(_same(x, y) for x, y in zip(rep.gaps, gaps)) and len(rep.gaps) == len(gaps)
    assert (all(_same(x, y) for x, y in zip(rep.gap_ratios, gap_ratios))
            and len(rep.gap_ratios) == len(gap_ratios))
    assert rep.trend == trend
    assert rep.terminated == terminated
    assert rep.verdict == ("TERMINATING" if terminated
                           else "ABS_CONVERGENT" if F(c) - F(a) - F(b) > 0 else "DIVERGENT")
    if math.isfinite(slope):
        assert abs(rep.fitted_exponent - slope) <= FIT_RTOL * max(abs(slope), fit_floor), \
            (a, b, c, n_max)
    else:
        assert _same(rep.fitted_exponent, slope)
    return rep


def _random_triples(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (F(rng.randrange(-30, 31), rng.randrange(1, 7)) for _ in range(3))
        if not _is_nonpositive_integer(c):
            out.append((a, b, c))
    return out


N_MAX = [1 << 12, (1 << 16) + 3, 10 ** 6]


@pytest.mark.parametrize("n_max", N_MAX)
def test_random_triples_match_reference(n_max):
    for a, b, c in _random_triples(n_max, 4 if n_max == 10 ** 6 else 10):
        assert_matches_reference(a, b, c, n_max)


@pytest.mark.parametrize("n_max", N_MAX)
def test_terminating_case_matches_reference(n_max):
    rep = assert_matches_reference(F(-3), F(1, 2), F(2), n_max)
    assert rep.terminated and rep.fitted_exponent == float("-inf")


def test_two_block_chunks_match_reference(monkeypatch):
    # every stream below crosses many chunk edges, the fit window's start too
    monkeypatch.setattr(probes, "_CHUNK", 2 * probes._BLOCK)
    for a, b, c in _random_triples(7, 4) + [(F(-3), F(1, 2), F(2))]:
        for n_max in N_MAX[:2]:
            assert_matches_reference(a, b, c, n_max)


def test_overflowing_terms_match_reference():
    # the terms leave float64 range: the partial sums saturate and no fit exists
    rep = assert_matches_reference(F(100), F(100), F(1), 1 << 12)
    assert math.isnan(rep.fitted_exponent)


def test_c04_shifts_match_reference():
    # the acceptance sweep's parameters.  At c - a - b = -1 the exponent is
    # near 0 (about 1e-5 here), where the reference's lstsq, on an
    # uncentred design, keeps only about 1e-12 of it in absolute terms
    for a, b in ((F(1, 2), F(1, 3)), (F(5, 4), F(3, 4))):
        for s in (F(-1), F(-1, 10), F(0), F(1, 10), F(1)):
            assert_matches_reference(a, b, a + b + s, 1 << 16, fit_floor=1.0)


def exact_fit(a, b, c, n_max):
    """The least-squares slope of the reference's float64 data, in exact arithmetic."""
    ac, bc, cc = (complex(float(v), 0.0) for v in (a, b, c))
    n = np.arange(n_max, dtype=np.float64)
    t = np.cumprod(np.abs((ac + n) * (bc + n)) / np.abs((cc + n) * (n + 1.0)))
    lo = n_max // 4
    xs = [F(v) for v in np.log(np.arange(lo, n_max + 1)).tolist()]
    ys = [F(v) for v in np.log(t[lo - 1:]).tolist()]
    count, sx, sy = len(xs), sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return float((count * sxy - sx * sy) / (count * sxx - sx * sx))


@pytest.mark.parametrize("s", [F(-1), F(1)])
def test_fit_matches_exact_least_squares(s):
    # centred sums keep the fit's relative accuracy when the exponent is near 0
    a, b = F(1, 2), F(1, 3)
    fitted = gauss_test(a, b, a + b + s, 1 << 12).fitted_exponent
    exact = exact_fit(a, b, a + b + s, 1 << 12)
    assert abs(fitted - exact) <= FIT_RTOL * abs(exact)


def _gauss_peak_growth_mb(n_max):
    """Peak RSS a fresh process adds running one `gauss` op of n_max terms, in MB.

    The peak is the kernel's VmHWM: a child's ru_maxrss starts from the peak
    of the process that started it, which under pytest hides the op's own.
    The child imports probes (and numpy, about 14 MB) before the first read,
    since the CLI itself loads them on the first `gauss` call.
    """
    code = ("import contextlib, io\n"
            "import heunlab.probes\n"
            "from heunlab.cli import main\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(x.split()[1]) for x in f if x.startswith('VmHWM:'))\n"
            "before = peak()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['gauss', '1/2', '1/3', '5/2', '--n-max', '{n_max}']) == 0\n"
            "print(peak() - before)\n")
    src = str(Path(heunlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return int(done.stdout) / 1024  # VmHWM is in kB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_gauss_memory_does_not_grow_with_n_max():
    small, large = _gauss_peak_growth_mb(1 << 20), _gauss_peak_growth_mb(1 << 22)
    assert small < 15 and large < 15, (small, large)
    assert abs(large - small) < 2, (small, large)
