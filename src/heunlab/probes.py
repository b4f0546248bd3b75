"""Empirical boundary probes: stream millions of terms, watch the Cauchy gaps.

The analytic machinery certifies what happens at the boundary radius; these
probes measure it.  A probe streams term values t_n (either the majorant
sequence c_n r^n or the signed d_n r^n) in float64 with power-of-two
rescaling, records partial sums at dyadic checkpoints, and issues a verdict
from the final Cauchy gaps S_{2n} - S_n:

* gaps below 1e-8 across three doublings: converges-empirically;
* gaps at or above 1e-3 across three doublings: diverges-empirically;
* anything else: inconclusive.

Rescaling matters: at 0.99 of the boundary radius the terms underflow float64
long before the last checkpoint, and without the scale channel the recurrence
itself would degenerate to 0/0.

One kernel streams the three-term recurrence for every probe, the scan and
its CSV trace together.  Step j maps v_{j-1} = (t_{j-1}, t_{j-2}) to
v_j = M_j v_{j-1} with M_j = [[a_{j-1} r, b_{j-1} r^2], [1, 0]], from
v_0 = (1, 0).  The kernel works through the stream in chunks of _CHUNK terms
and carries (state, scale exponent, running total) from one chunk to the
next, so its memory does not grow with the number of terms.  Inside a chunk
it is a blocked scan (Blelloch, "Prefix sums and their applications", 1990):

1. the prefix products of the M_j inside each _BLOCK-term block are formed
   for all blocks of the chunk at once, renormalised by powers of two with
   an integer exponent per block;
2. a sequential carry over the block totals gives each block its start state;
3. one broadcast turns start states and prefix products into every term.

Partial sums are a cumulative sum seeded with the carried total, so they add
the terms in stream order.  The radius enters as r = m 2^k: the scan runs on
a m and b m^2, and each term's exponent gains j k, so no radius that float64
holds can overflow the transfer matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidParams, MagnitudeOverflow
from .recurrence import CoefficientStream, RecurrenceSystem, stream_coefficients

VERDICT_CONVERGES = "converges-empirically"
VERDICT_DIVERGES = "diverges-empirically"
VERDICT_INCONCLUSIVE = "inconclusive"

GAP_SMALL = 1e-8
GAP_LARGE = 1e-3
SUSTAIN = 3

_SCAN_MIN_TERMS = 1 << 11  # the first dyadic checkpoint is 2^10; gaps need two

_CHUNK = 1 << 16  # terms per chunk: bounds the kernel's working set
_BLOCK = 128  # terms per block of the in-chunk scan; _CHUNK is a multiple
_LN2 = math.log(2.0)


def _lag_coefficients(system: RecurrenceSystem) -> tuple:
    """(numerator, denominator) of the two lags with float64 coefficients."""
    if system.k != 2:
        raise InvalidParams("probes are stated for three-term recurrences")
    try:
        return tuple((fn.num.as_float(), fn.den.as_float()) for fn in system.lags)
    except OverflowError as exc:
        raise MagnitudeOverflow("a lag coefficient does not fit in float64") from exc


def _lag_values(coeffs: tuple, n: np.ndarray, signed: bool) -> tuple:
    """Float64 arrays of the two lag coefficients at the indices n."""
    out = []
    for num, den in coeffs:
        # a leading pole entry can be inf/nan; the recurrence never reads it.
        # out= keeps an array when both polynomials are zero after rounding
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.divide(num(n), den(n), out=np.empty_like(n))
        out.append(vals if signed else np.abs(vals))
    return tuple(out)


@dataclass(frozen=True)
class ProbeSeries:
    which: str  # "modulus" or "signed"
    r: float
    offset: int
    n_terms: int
    checkpoints: tuple  # (n, partial sum S_n)
    gaps: tuple  # S_{2n} - S_n between consecutive checkpoints
    term_log_mags: tuple  # natural log |t_n| at checkpoints, -inf when zero
    verdict: str
    max_abs_partial: float
    # decimated CSV rows (see term_trace), filled when a stride is given
    trace: tuple = field(default=(), repr=False)


def _verdict_from_gaps(gaps) -> str:
    tail = [abs(g) for g in gaps[-SUSTAIN:]]
    if len(tail) < SUSTAIN:
        return VERDICT_INCONCLUSIVE
    if all(g < GAP_SMALL for g in tail):
        return VERDICT_CONVERGES
    # a non-finite gap means the partial sums already left float range
    if all(g >= GAP_LARGE or not math.isfinite(g) for g in tail):
        return VERDICT_DIVERGES
    return VERDICT_INCONCLUSIVE


def _scan_chunk(a: np.ndarray, b: np.ndarray, state: tuple) -> tuple:
    """Blocked scan of u_j = a_j u_{j-1} + b_j u_{j-2} over one chunk.

    state = (u, w, e) holds the two values before the chunk as u 2^e and
    w 2^e.  Returns (mantissas, exponents) of every u_j of the chunk and the
    state after it.  Only the stream's last chunk can be short; it is padded
    with zero steps, so its returned state is meaningless and never read.
    Values past float64 range saturate to inf or nan; the caller silences
    numpy's warnings about that.
    """
    count = a.size
    nb = -(-count // _BLOCK)
    pad = nb * _BLOCK - count
    if pad:
        a = np.concatenate((a, np.zeros(pad)))
        b = np.concatenate((b, np.zeros(pad)))
    # row i holds step i of every block
    a = np.ascontiguousarray(a.reshape(nb, _BLOCK).T)
    b = np.ascontiguousarray(b.reshape(nb, _BLOCK).T)

    # per block, the two solutions started from (u, w) = (1, 0) and (0, 1):
    # rows of the prefix product, scaled by 2^-shift
    cur = np.zeros((2, nb))
    cur[0] = 1.0
    prev = np.zeros((2, nb))
    prev[1] = 1.0
    z = np.empty((_BLOCK, 2, nb))
    zexp = np.empty((_BLOCK, nb), dtype=np.int64)
    shift = np.zeros(nb, dtype=np.int64)
    for i, (ai, bi) in enumerate(zip(a, b)):
        cur, prev = ai * cur + bi * prev, cur
        _, d = np.frexp(np.maximum(np.abs(cur), np.abs(prev)).max(axis=0))
        d = -d
        cur = np.ldexp(cur, d)
        prev = np.ldexp(prev, d)
        shift -= d
        z[i] = cur
        zexp[i] = shift

    # carry: each block's end values, in the exponent of its last step, as a
    # 2x2 map of its start values
    last = z[-1].tolist()
    before = np.ldexp(z[-2], zexp[-2] - zexp[-1]).tolist()
    u, w, e = state
    starts_u, starts_w, starts_e = [], [], []
    for p, q, s, t, g in zip(last[0], last[1], before[0], before[1], zexp[-1].tolist()):
        starts_u.append(u)
        starts_w.append(w)
        starts_e.append(e)
        u, w = p * u + q * w, s * u + t * w
        _, d = math.frexp(max(abs(u), abs(w)))
        u, w, e = math.ldexp(u, -d), math.ldexp(w, -d), e + g + d

    mant = z[:, 0] * np.array(starts_u) + z[:, 1] * np.array(starts_w)
    expo = zexp + np.array(starts_e, dtype=np.int64)
    return mant.T.ravel()[:count], expo.T.ravel()[:count], (u, w, e)


def _probe(system: RecurrenceSystem, r, n_terms: int, which: str, offset: int,
           stride, min_terms: int) -> ProbeSeries:
    """Validate, then stream t_0 .. t_{n_terms-1} once through the kernel."""
    if which not in ("modulus", "signed"):
        raise InvalidParams(f"unknown probe channel {which!r}")
    try:
        rf = float(r)
    except OverflowError:
        rf = math.inf
    if not (rf > 0.0 and math.isfinite(rf)):
        raise InvalidParams("probe radius must be a positive finite number")
    if n_terms < min_terms:
        raise InvalidParams(f"probe needs at least {min_terms} terms")
    if stride is not None and stride < 1:
        raise InvalidParams("trace stride must be at least 1")
    if offset < 0:
        raise InvalidParams("probe offset must be nonnegative")
    coeffs = _lag_coefficients(system)
    signed = which == "signed"
    if signed:
        offset = 0
    m, k = math.frexp(rf)
    lnr = math.log(rf)

    checkpoints = []
    term_logs = []
    marks = [(1 << p) - 1 for p in range(10, 64) if (1 << p) <= n_terms]
    rows = [(0, 1.0, 0.0, 0.0, 1.0, 1.0)] if stride is not None else []
    state = (1.0, 0.0, 0)  # (t_0, t_{-1}) scaled by m^j, with their exponent
    total = 1.0  # real-scale running sum, starts with t_0 = 1
    max_abs = 1.0
    # terms and partial sums past float64 range saturate to +-inf (or nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j0 in range(1, n_terms, _CHUNK):
            j1 = min(j0 + _CHUNK, n_terms)
            a, b = _lag_values(coeffs, np.arange(offset + j0 - 1, offset + j1 - 1,
                                                 dtype=np.float64), signed)
            a = a * m
            b = b * (m * m)
            if j0 == 1:
                b[0] = 0.0  # step 1 multiplies t_{-1} = 0; b_0 may be a pole
            mant, expo, state = _scan_chunk(a, b, state)
            expo += np.arange(j0, j1, dtype=np.int64) * k
            terms = np.ldexp(mant, expo)
            first = terms[0]
            terms[0] += total
            sums = np.cumsum(terms)
            terms[0] = first
            max_abs = float(np.fmax.reduce(np.abs(sums), initial=max_abs))
            total = float(sums[-1])

            for jm in marks:
                if j0 <= jm < j1:
                    u = float(mant[jm - j0])
                    checkpoints.append((jm + 1, float(sums[jm - j0])))
                    term_logs.append(math.log(abs(u)) + int(expo[jm - j0]) * _LN2
                                     if u != 0.0 else -math.inf)
            if stride is not None:
                sel = np.arange(-(-j0 // stride) * stride, j1, stride, dtype=np.int64)
                if j0 <= n_terms - 1 < j1 and (n_terms - 1) % stride:
                    sel = np.append(sel, n_terms - 1)
                at = sel - j0
                u = mant[at]
                zero = u == 0.0  # written as 0.0, never -0.0
                log_coef = np.log(np.abs(u)) + expo[at] * _LN2 - sel * lnr
                value = np.where(zero, 0.0, np.copysign(np.exp(log_coef), u))
                rows.extend(zip(sel.tolist(), value.tolist(), [0.0] * sel.size,
                                log_coef.tolist(), np.where(zero, 0.0, terms[at]).tolist(),
                                sums[at].tolist()))
    gaps = tuple(s2 - s1 for (_, s1), (_, s2) in zip(checkpoints, checkpoints[1:]))
    return ProbeSeries(which, rf, offset, n_terms, tuple(checkpoints), gaps,
                       tuple(term_logs), _verdict_from_gaps(gaps), max_abs, tuple(rows))


def term_scan(system: RecurrenceSystem, r: float, n_terms: int = 1 << 20,
              which: str = "modulus", offset: int = 1, stride=None) -> ProbeSeries:
    """Stream t_0 .. t_{n_terms-1} at radius r and collect dyadic diagnostics.

    For "modulus" the recurrence is the majorant sequence from `offset` (so
    t_j = c_j r^j); for "signed" it is the true coefficient recurrence from
    index 0 (t_n = d_n r^n).  The kernel carries a power-of-two scale so the
    recurrence state never leaves the representable range even when the
    real-scale terms underflow.  With a stride the same pass also fills
    `trace` with the rows term_trace returns.
    """
    return _probe(system, r, n_terms, which, offset, stride, _SCAN_MIN_TERMS)


def term_trace(system: RecurrenceSystem, r: float, n_terms: int,
               stride: int = 1, which: str = "modulus", offset: int = 1) -> list:
    """Decimated per-term trace rows at radius r, for CSV export.

    Rows are (n, value_re, value_im, log_mag, term_at_r, partial_sum), where
    value is the bare coefficient and term_at_r = value * r^n, for n = 0,
    every multiple of stride, and n_terms - 1.  The value and sum columns
    saturate to +-inf once they leave float64 range; log_mag is the column
    that stays informative there.
    """
    return list(_probe(system, r, n_terms, which, offset, stride, 1).trace)


def empirical_radius(stream: CoefficientStream, min_points: int = 64) -> float:
    """Estimate the radius of convergence from coefficient magnitudes.

    Fits log |d_n| = c + s log n + n log(rho) over the tail half of the
    stream and returns 1/rho.  The power correction term soaks up the
    polynomial factor that otherwise biases a pure geometric fit.
    """
    logs = stream.log_mags
    n0 = len(logs) // 2
    pts = [(n, lm) for n, lm in enumerate(logs) if n >= max(n0, 1) and math.isfinite(lm)]
    if len(pts) < min_points:
        raise InsufficientData(f"need {min_points} usable tail points, have {len(pts)}")
    ns = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    X = np.stack([ns, np.log(ns), np.ones_like(ns)], axis=1)
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    return float(math.exp(-coef[0]))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Side-by-side behavior of the signed series and its majorant at the boundary.

    The majorant diverging while the signed gaps shrink is not a
    contradiction: the majorant bounds the absolute series, and sign
    cancellation can leave the signed partial sums settling anyway.  The
    gap_ratios column makes the cancellation visible.
    """

    r_star: float
    eta: float
    z: float
    radius_estimate: float
    signed: ProbeSeries
    modulus: ProbeSeries
    gap_ratios: tuple  # |signed gap| / modulus gap at matching checkpoints
    agreement: str  # "both-diverge", "both-converge", "cancellation", "inconclusive"


def discrepancy_report(system: RecurrenceSystem, r_star, eta, z,
                       n_terms: int = 1 << 20, stream_len: int = 4096,
                       offset: int = 1) -> DiscrepancyReport:
    signed = term_scan(system, float(r_star), n_terms, "signed")
    modulus = term_scan(system, float(r_star), n_terms, "modulus", offset)
    ratios = []
    for gs, gm in zip(signed.gaps, modulus.gaps):
        ratios.append(abs(gs) / gm if gm > 0 else math.inf)
    diag = stream_coefficients(system, stream_len, 53)
    estimate = empirical_radius(diag)
    sv, mv = signed.verdict, modulus.verdict
    if sv == VERDICT_DIVERGES and mv == VERDICT_DIVERGES:
        agreement = "both-diverge"
    elif sv == VERDICT_CONVERGES and mv == VERDICT_CONVERGES:
        agreement = "both-converge"
    elif sv == VERDICT_CONVERGES and mv == VERDICT_DIVERGES:
        agreement = "cancellation"
    else:
        agreement = "inconclusive"
    return DiscrepancyReport(float(r_star), float(eta), float(z), estimate,
                             signed, modulus, tuple(ratios), agreement)
