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

One driver, stream_terms, streams every float64 scan: the probes, their CSV
trace and gauss_test.  It works through the stream in chunks of
_CHUNK terms and carries (state, running total) from one chunk to the next;
a step rule turns the carried state into the chunk's terms.  Partial sums
are a cumulative sum seeded with the carried total, so they add the terms in
stream order, and the driver records them at the dyadic checkpoints.  Every
per-chunk buffer (indices, coefficients, prefix products, mantissas and
exponents, terms, sums) lives in one workspace that is allocated once and
reused through out=, so a stream's memory does not grow with the number of
terms and no chunk-sized array is allocated afresh for each chunk.  Two
buffers share memory wherever no stage of a chunk reads both at once (the
stage by stage table is in _Workspace), which keeps the workspace under 40
bytes per term.  No index table is stored: _indices forms a chunk's indices
from a _BLOCK-long column or the row of block starts, in whichever buffer
is free.  The mantissas and exponents stay in block order, over the steps'
own buffers, and the driver forms the terms from them with one transposed
copy.

The probes' step rule is the three-term recurrence.  Step j maps
v_{j-1} = (t_{j-1}, t_{j-2}) to v_j = M_j v_{j-1} with
M_j = [[a_{j-1} r, b_{j-1} r^2], [1, 0]], from v_0 = (1, 0), as a blocked
scan (Blelloch, "Prefix sums and their applications", 1990):

1. the prefix products of the M_j inside each _BLOCK-term block are formed
   for all blocks of the chunk at once, renormalised by powers of two with
   an integer exponent per block.  The renormalisation runs once per
   segment of R steps, R = min(_RENORM, R_safe): between two rescales a
   block's values move by at most g^R up and c^R down, with g and c taken
   from the chunk's own steps (see _segment_steps), and R_safe keeps both
   within 2^+-_HEADROOM.  A chunk with a zero second lag or extreme
   coefficients gets R = 1, a rescale per step.  Power-of-two scaling is
   exact, so terms and sums do not depend on R; only the split of a term
   into mantissa and exponent does, so every log is read from the
   canonical split (f, e) = frexp(mantissa), ln |t| = ln |f| + (e + expo) ln 2;
2. a sequential carry over the block totals gives each block its start state;
3. one broadcast turns start states and prefix products into every term's
   mantissa and exponent.  It runs in block order, over contiguous rows, and
   leaves both there; the driver clips the exponents, runs ldexp in block
   order and copies the terms into stream order once, transposed.

The radius enters as r = m 2^k: the scan runs on a m and b m^2, and each
term's exponent gains j k (a step skipped for radii in [1/2, 1), whose k is
0), so no radius that float64 holds can overflow the transfer matrices.
The Gauss series' rule is the scalar (k = 1) case: a cumulative product of
the term ratio seeded with the carried term.  gauss_test is the classical
boundary case, the 2F1 series at x = 1: an exact verdict from c - a - b
next to an empirical one, whose decay exponent is fitted from running
least-squares sums, so no array grows with the number of terms.

This is the package's one numpy module.  Nothing on the exact path imports
it: heunlab and its CLI reach it on the first probe or Gauss test, so a
start that never probes never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InsufficientData, InvalidParams
from .recurrence import CoefficientStream, RecurrenceSystem, stream_coefficients
from .scalars import to_float64
from .special import Hyp2F1Params, _is_nonpositive_integer

VERDICT_CONVERGES = "converges-empirically"
VERDICT_DIVERGES = "diverges-empirically"
VERDICT_INCONCLUSIVE = "inconclusive"

GAP_SMALL = 1e-8
GAP_LARGE = 1e-3
SUSTAIN = 3

_SCAN_MIN_TERMS = 1 << 11  # the first dyadic checkpoint is 2^10; gaps need two

_CHUNK = 1 << 16  # terms per chunk: bounds the kernel's working set
_BLOCK = 128  # terms per block of the in-chunk scan; _CHUNK is a multiple
_RENORM = 16  # most steps of the scan between two rescales
_HEADROOM = 200  # binary orders a block's values may drift between two rescales
_EXP_CLIP = 1 << 30  # bound on the exponents handed to ldexp, which saturates far inside
_LN2 = math.log(2.0)


def _lag_coefficients(system: RecurrenceSystem) -> tuple:
    """(numerator, denominator) float64 coefficient tuples of the two lags.

    A coefficient past float64 range, or a nonzero one that rounds to 0.0
    (a denominator's constant term would then put a pole at n = 0), raises
    MagnitudeOverflow (scalars.to_float64).
    """
    if system.k != 2:
        raise InvalidParams("probes are stated for three-term recurrences")
    floats = [tuple(to_float64(c, "a lag coefficient") for c in p.coeffs)
              for fn in system.lags for p in (fn.num, fn.den)]
    return tuple(zip(floats[::2], floats[1::2]))


def _horner(coeffs: tuple, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """p(n) into out, by the operations PolynomialInN.__call__ does on arrays.

    The first step multiplies n by the leading coefficient directly, with no
    fill pass: float multiplication commutes, so the bits are the same.
    """
    if len(coeffs) < 2:
        out.fill(coeffs[-1] if coeffs else 0.0)
        return out
    np.multiply(n, coeffs[-1], out=out)
    np.add(out, coeffs[-2], out=out)
    for c in reversed(coeffs[:-2]):
        np.multiply(out, n, out=out)
        np.add(out, c, out=out)
    return out


def _lag_values(coeffs: tuple, n: np.ndarray, signed: bool, out=None) -> tuple:
    """Float64 arrays of the two lag coefficients at the indices n.

    out = (a, b, scratch), arrays shaped like n, receives them; without it
    fresh arrays are made.
    """
    a, b, den = out if out is not None else (np.empty_like(n) for _ in range(3))
    done = None  # the denominator den holds; a Heun system's two lags share it
    for vals, (num, dnm) in zip((a, b), coeffs):
        if dnm != done:
            _horner(dnm, n, den)
            done = dnm
        # a leading pole entry can be inf/nan; the recurrence never reads it
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(_horner(num, n, vals), den, out=vals)
        if not signed:
            np.abs(vals, out=vals)
    return a, b


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


def _view(buf: np.ndarray, *shape) -> np.ndarray:
    """The leading elements of a flat buffer, as a C-ordered array of this shape."""
    return buf[:math.prod(shape)].reshape(shape)


class _Workspace:
    """Every per-chunk buffer of stream_terms and its step rules.

    One workspace serves chunks of up to `size` terms and is reused from
    stream to stream: steps, the driver and visits write into these buffers
    through out=, so no chunk-sized array is allocated per chunk.  The
    driver reads nothing of a chunk after its visit, so a visit may
    overwrite any buffer, the sums it is handed among them, once it has
    read what it needs; the probe's visit writes none.

    Per term it owns 36.9 bytes: a, b, z (2 floats, terms and sums being
    its first two `size` slices), zexp (int32), plus per-block rows (the
    block starts among them) and the column col.  What each holds, stage
    by stage:

    * 2x2 rule (_lag_step): terms holds the step indices n, in block order,
      and sums the lags' shared denominator while _lag_values fills a and b;
      then _segment_steps reads |a| and |b| through sums and terms; the scan
      fills z, over terms, sums and a tail of 2 floats per block, and
      zexp; the broadcast forms the mantissas over a and the second product
      over b, then the int64 exponents over b; the k-shift, once z is read,
      forms j k in an int64 view of sums.  Mantissas and exponents stay in
      block order.
    * k = 1 rule (_ratio_step): terms holds the indices n; a holds n + a
      and then the numerator (n + a)(n + b), with n + b in b; sums its
      modulus, the ratio once divided; b holds n + c and then the
      denominator (n + c)(n + 1), with n + 1 formed over the indices, and
      then its modulus.  np.cumprod then writes the terms over n + 1.
    * the driver: for block-order steps, an int32 view of zexp holds the
      clipped exponents, sums the terms in block order (ldexp of mant and
      expo) and terms, after one transposed copy, the terms in stream
      order; then sums the partial sums.
    * visits: the probe's visit reads only what it is handed; gauss_test's
      fit puts ln n in a, ln t_n in b and each of its two products in turn
      in sums, and keep, a bool view of zexp, marks the positive terms.
    """

    def __init__(self, size: int):
        nb = size // _BLOCK
        self.size = size
        # a block's positions and the blocks' first positions: see _indices
        self.col = np.arange(_BLOCK, dtype=np.int64)
        self.starts = np.arange(0, size, _BLOCK, dtype=np.int64)
        self.a, self.b = np.empty((2, size))  # a step's coefficients
        self.z = np.empty(2 * (size + nb))  # per-block prefix products of the scan
        self.zexp = np.empty(size + nb, dtype=np.int32)  # their exponents, per block
        # the scan writes z only while terms and sums hold nothing
        self.terms, self.sums = _view(self.z, 2, size)
        self.keep = self.zexp.view(bool)[:size]
        # per block: the scan's previous values, a product and four magnitudes
        self.prev, self.prod = np.empty((2, 2 * nb))
        self.mags = np.empty(4 * nb)
        self.peak, self.frac = np.empty((2, nb))
        self.drop = np.empty(nb, dtype=np.intc)


# Workspaces between streams, kept for the life of the process: one in steady
# state, one per stream running at the same time in other threads.  Buffers
# allocated afresh for every stream would be mapped and faulted in again by
# each op (about 1000-3500 minor faults per 2^20-term probe).
_IDLE: list = []


def _indices(ws: _Workspace, first: int, count: int, buf: np.ndarray,
             blocked: bool) -> np.ndarray:
    """first + p for the positions p < count of a chunk, formed in buf.

    Blocked, the result is buf's (_BLOCK, blocks) view, position p at
    [p % _BLOCK, p // _BLOCK] as the scan reads it, padding included;
    otherwise buf's first count elements in stream order.  The first row
    is the block starts (blocked) or the column 0 .. _BLOCK-1 plus first,
    and each doubling adds a constant to the rows so far: contiguous adds,
    several times faster in numpy than one broadcast of a column against a
    row.  buf may be float64 or int64; the values are exact below 2^53 in
    either.
    """
    nb = -(-count // _BLOCK)
    out, row, step = ((_view(buf, _BLOCK, nb), ws.starts[:nb], 1) if blocked
                      else (_view(buf, nb, _BLOCK), ws.col, _BLOCK))
    np.add(row, first, out=out[0])
    w = 1
    while w < len(out):
        rows = out[w:2 * w]
        np.add(out[:len(rows)], w * step, out=rows)
        w *= 2
    return out if blocked else out.reshape(-1)[:count]


def _segment_steps(ws: _Workspace, a: np.ndarray, b: np.ndarray, count: int) -> int:
    """Steps of one chunk's scan between two rescales: _RENORM, or fewer when needed.

    A step maps a solution's pair (prev, cur) to (cur, new) with
    new = a cur + b prev, so the larger of |cur| and |new| is at most
    g = max(1, |a| + |b|) times the larger of |prev| and |cur|, and at least
    c = min(1, |b| / (1 + |a|)) times it.  Over R steps a block's pair
    maximum therefore stays within [c^R, g^R] of its value at the last
    rescale; R is the largest count, up to _RENORM, that keeps both bounds
    within 2^+-_HEADROOM, far from float64's overflow and subnormal ranges.
    A zero b or a non-finite step gives 1, a rescale per step.  Padding
    steps past `count` and the first step of each block are left out of c:
    padding is never read, and a block's first step keeps the start value 1
    of its first solution in the pair.  ws.sums and ws.terms, which
    nothing reads during the scan, serve as scratch.
    """
    nb = a.shape[1]
    mag_a, mag_b = _view(ws.sums, _BLOCK, nb), _view(ws.terms, _BLOCK, nb)
    np.abs(a, out=mag_a)
    np.add(mag_a, np.abs(b, out=mag_b), out=mag_b)
    grow = float(np.maximum.reduce(mag_b, axis=None))
    np.add(mag_a, 1.0, out=mag_a)
    np.divide(np.abs(b, out=mag_b), mag_a, out=mag_b)
    mag_b[count - (nb - 1) * _BLOCK:, -1] = 1.0
    shrink = float(np.minimum.reduce(mag_b[1:], axis=None, initial=1.0))
    if not (grow < math.inf and shrink > 0.0):  # also catches nan
        return 1
    span = max(math.log2(max(grow, 1.0)), -math.log2(shrink))
    return _RENORM if span * _RENORM <= _HEADROOM else max(1, int(_HEADROOM / span))


def _scan_chunk(ws: _Workspace, a: np.ndarray, b: np.ndarray, count: int,
                state: tuple) -> tuple:
    """Blocked scan of u_j = a_j u_{j-1} + b_j u_{j-2} over one chunk.

    a and b hold the chunk's steps block-transposed, shape (_BLOCK, blocks):
    row i is step i of every block.  Steps past `count`, which pad the
    stream's last chunk, must be zero; its returned state is then
    meaningless and never read.  state = (u, w, e) holds the two values
    before the chunk as u 2^e and w 2^e.  Returns (mantissas, exponents) of
    every u_j of the chunk in block order, the layout of a and b, over
    which they are formed (the exponents as int64), and the state after it;
    ws.sums and ws.terms serve as scratch, and then ws.z, formed over them,
    holds the prefix products.  Values past float64 range
    saturate to inf or nan; the caller silences numpy's warnings about that.
    """
    nb = a.shape[1]
    seg = _segment_steps(ws, a, b, count)
    # per block, the two solutions started from (u, w) = (1, 0) and (0, 1):
    # rows of the prefix product, scaled by 2^-zexp; z[0] is the start and
    # z[i] the values after step i.  Rows between two rescales share the
    # exponent of the segment's first row.
    z = _view(ws.z, _BLOCK + 1, 2, nb)
    zexp = _view(ws.zexp, _BLOCK + 1, nb)
    prev, prod, mags = _view(ws.prev, 2, nb), _view(ws.prod, 2, nb), _view(ws.mags, 4, nb)
    peak, frac, drop = ws.peak[:nb], ws.frac[:nb], ws.drop[:nb]
    z[0, 0], z[0, 1], prev[0], prev[1] = 1.0, 0.0, 0.0, 1.0
    zexp[0] = 0
    # back: the values before z[i - 1], in its exponent; start: the segment's first row
    back, start = prev, 0
    for i in range(1, _BLOCK + 1):
        cur, new = z[i - 1], z[i]
        np.multiply(a[i - 1], cur, out=new)
        np.add(new, np.multiply(b[i - 1], back, out=prod), out=new)
        if i % seg and i < _BLOCK:
            back = cur
            continue
        # one power of two per block brings both values back to range
        np.maximum.reduce(np.abs(z[i - 1:i + 1].reshape(4, nb), out=mags), axis=0, out=peak)
        np.frexp(peak, out=(frac, drop))
        np.negative(drop, out=drop)
        np.ldexp(cur, drop, out=prev)
        np.ldexp(new, drop, out=new)
        zexp[start + 1:i] = zexp[start]
        np.subtract(zexp[start], drop, out=zexp[i])
        back, start = prev, i
    z, zexp = z[1:], zexp[1:]

    # carry: each block's end values, in the exponent of its last step, as a
    # 2x2 map of its start values
    last = z[-1].tolist()
    before = np.ldexp(z[-2], zexp[-2] - zexp[-1]).tolist()
    u, w, e = state
    starts_u, starts_w, starts_e = [], [], []
    put_u, put_w, put_e = starts_u.append, starts_w.append, starts_e.append
    frexp, ldexp = math.frexp, math.ldexp
    for p, q, s, t, g in zip(last[0], last[1], before[0], before[1], zexp[-1].tolist()):
        put_u(u)
        put_w(w)
        put_e(e)
        u, w = p * u + q * w, s * u + t * w
        d = frexp(max(abs(u), abs(w)))[1]
        u, w, e = ldexp(u, -d), ldexp(w, -d), e + g + d

    # formed in block order over the steps, which are read by now: a takes
    # the mantissas, b the second product and then the exponents
    mant = np.multiply(z[:, 0], np.array(starts_u), out=a)
    np.add(mant, np.multiply(z[:, 1], np.array(starts_w), out=b), out=mant)
    expo = np.add(zexp, np.array(starts_e, dtype=np.int64), out=b.view(np.int64))
    return mant, expo, (u, w, e)


def stream_terms(step, state, n_terms: int, mark_limit: int, visit) -> tuple:
    """Stream t_0 = 1 and t_1 .. t_{n_terms-1} chunk by chunk; return the checkpoints.

    The driver of every float64 scan.  For each chunk of at most _CHUNK
    indices j0 <= j < j1, step(ws, j0, j1, state) returns (mant, expo,
    state), views into the workspace ws.  Either expo is None and mant
    holds the terms, t_j = mant[j - j0], or mant and expo are
    (_BLOCK, blocks) arrays in block order: t_j = mant[q] 2^expo[q] at
    q = (p % _BLOCK, p // _BLOCK), p = j - j0.  For the latter the driver
    clips expo to +-2^30 into an int32 view of ws.zexp, runs ldexp into
    ws.sums, both in block order, and copies the terms into ws.terms in
    stream order, transposed; so such a step may leave nothing in zexp, z,
    terms or sums.
    numpy's ldexp has a vector loop for int32 exponents only, and any finite
    mantissa saturates to inf or 0 far inside that range.  The driver forms
    the partial sums, seeded with the carried total so that they add the
    terms in stream order, and records at each dyadic mark
    n = 2^p <= mark_limit, p >= 10, the checkpoint (n, S_{n-1}) and
    ln |t_{n-1}| (-inf when zero), the latter from frexp of the mantissa so
    that it does not depend on how the step split the term.  Then
    visit(ws, j0, mant, expo, terms, sums) sees the chunk, terms and sums
    in stream order; the driver reads nothing of the chunk after it.
    Returns (checkpoints, term_log_mags).
    """
    try:
        ws = _IDLE.pop()
    except IndexError:
        ws = None
    if ws is None or ws.size != _CHUNK:
        ws = _Workspace(_CHUNK)
    marks = [(1 << p) - 1 for p in range(10, 64) if (1 << p) <= mark_limit]
    checkpoints, term_logs = [], []
    total = 1.0  # running sum, starts with t_0 = 1
    try:
        # terms and partial sums past float64 range saturate to +-inf (or nan)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for j0 in range(1, n_terms, _CHUNK):
                j1 = min(j0 + _CHUNK, n_terms)
                mant, expo, state = step(ws, j0, j1, state)
                if expo is None:
                    terms = mant
                else:
                    e32 = np.clip(expo, -_EXP_CLIP, _EXP_CLIP, out=_view(ws.zexp, *expo.shape))
                    blocked = np.ldexp(mant, e32, out=_view(ws.sums, *mant.shape))
                    _view(ws.terms, mant.shape[1], _BLOCK)[...] = blocked.T
                    terms = ws.terms[:j1 - j0]
                sums = ws.sums[:j1 - j0]
                first = terms[0]
                terms[0] += total
                np.cumsum(terms, out=sums)
                terms[0] = first
                total = float(sums[-1])
                for jm in marks:
                    if j0 <= jm < j1:
                        p = jm - j0
                        at = p if expo is None else (p % _BLOCK, p // _BLOCK)
                        u, e = math.frexp(float(mant[at]))
                        if expo is not None:
                            e += int(expo[at])
                        checkpoints.append((jm + 1, float(sums[jm - j0])))
                        term_logs.append(math.log(abs(u)) + e * _LN2 if u != 0.0 else -math.inf)
                visit(ws, j0, mant, expo, terms, sums)
    finally:
        _IDLE.append(ws)
    return checkpoints, term_logs


def _lag_step(coeffs: tuple, signed: bool, offset: int, m: float, k: int):
    """The 2x2 step rule: lag values at radius r = m 2^k through the blocked scan."""
    mm = m * m

    def step(ws, j0, j1, state):
        count = j1 - j0
        nb = -(-count // _BLOCK)
        # the lags are evaluated block-transposed, as the scan reads them
        n = _indices(ws, offset + j0 - 1, count, ws.terms, True)
        a, b = _lag_values(coeffs, n, signed, tuple(_view(buf, _BLOCK, nb)
                                                    for buf in (ws.a, ws.b, ws.sums)))
        np.multiply(a, m, out=a)
        np.multiply(b, mm, out=b)
        if j0 == 1:
            b[0, 0] = 0.0  # step 1 multiplies t_{-1} = 0; b_0 may be a pole
        # zero steps pad the last block
        a[count - (nb - 1) * _BLOCK:, -1] = 0.0
        b[count - (nb - 1) * _BLOCK:, -1] = 0.0
        mant, expo, state = _scan_chunk(ws, a, b, count, state)
        if k:
            j = _indices(ws, j0, count, ws.sums.view(np.int64), True)
            expo += np.multiply(j, k, out=j)
        return mant, expo, state

    return step


def _probe(system: RecurrenceSystem, r, n_terms: int, which: str, offset: int,
           stride, min_terms: int) -> ProbeSeries:
    """Validate, then stream t_0 .. t_{n_terms-1} once through the kernel."""
    if which not in ("modulus", "signed"):
        raise InvalidParams(f"unknown probe channel {which!r}")
    rf = to_float64(r, "probe radius")
    if not (rf > 0.0 and math.isfinite(rf)):
        raise InvalidParams("probe radius must be a positive finite number")
    if n_terms < min_terms:
        raise InvalidParams(f"probe needs at least {min_terms} terms")
    if stride is not None and stride < 1:
        raise InvalidParams("trace stride must be at least 1")
    if offset < 0:
        raise InvalidParams("probe offset must be nonnegative")
    signed = which == "signed"
    if signed:
        offset = 0
    if offset + n_terms > 1 << 53:
        raise InvalidParams("probe offset plus terms must not exceed 2**53, "
                            "past which float64 indices are not exact")
    coeffs = _lag_coefficients(system)
    m, k = math.frexp(rf)
    lnr = math.log(rf)

    rows = [(0, 1.0, 0.0, 0.0, 1.0, 1.0)] if stride is not None else []
    max_abs = 1.0

    def visit(ws, j0, mant, expo, terms, sums):
        nonlocal max_abs
        # max |S_n| from both ends, with no scratch; fmax and fmin skip nan
        max_abs = max(float(np.fmax.reduce(sums, initial=max_abs)),
                      -float(np.fmin.reduce(sums, initial=-max_abs)))
        if stride is None:
            return
        j1 = j0 + sums.size
        sel = np.arange(-(-j0 // stride) * stride, j1, stride, dtype=np.int64)
        if j0 <= n_terms - 1 < j1 and (n_terms - 1) % stride:
            sel = np.append(sel, n_terms - 1)
        at = sel - j0
        q = (at % _BLOCK, at // _BLOCK)  # mant and expo are in block order
        u, e = np.frexp(mant[q])  # the canonical split, as at the checkpoints
        zero = u == 0.0  # written as 0.0, never -0.0
        log_coef = np.log(np.abs(u)) + (expo[q] + e) * _LN2 - sel * lnr
        value = np.where(zero, 0.0, np.copysign(np.exp(log_coef), u))
        rows.extend(zip(sel.tolist(), value.tolist(), [0.0] * sel.size,
                        log_coef.tolist(), np.where(zero, 0.0, terms[at]).tolist(),
                        sums[at].tolist()))

    # the state is (t_0, t_{-1}) scaled by m^j, with their exponent
    checkpoints, term_logs = stream_terms(_lag_step(coeffs, signed, offset, m, k),
                                          (1.0, 0.0, 0), n_terms, n_terms, visit)
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


def empirical_radius(stream: CoefficientStream) -> float:
    """Estimate the radius of convergence from coefficient magnitudes.

    Fits log |d_n| = c + s log n + n log(rho) over the tail half of the
    stream and returns 1/rho.  The power correction term soaks up the
    polynomial factor that otherwise biases a pure geometric fit.  It needs
    64 finite tail points.
    """
    logs = stream.log_mags
    n0 = len(logs) // 2
    pts = [(n, lm) for n, lm in enumerate(logs) if n >= max(n0, 1) and math.isfinite(lm)]
    if len(pts) < 64:
        raise InsufficientData(f"need 64 usable tail points, have {len(pts)}")
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


@dataclass(frozen=True)
class GaussReport:
    """Verdict and empirical diagnostics for sum |(a)_n (b)_n / ((c)_n n!)|."""

    verdict: str  # ABS_CONVERGENT | DIVERGENT | TERMINATING
    s: float  # c - a - b, in float64
    predicted_exponent: float  # |t_n| ~ n^predicted
    fitted_exponent: float
    checkpoints: tuple  # (n, partial sum) at powers of two
    gaps: tuple
    gap_ratios: tuple
    trend: str  # shrinking | growing | flat
    terminated: bool
    n_terms: int


def _ratio_step(af: float, bf: float, cf: float, terminated: bool):
    """The scalar step rule: t_j = t_{j-1} |(n+a)(n+b)| / |(n+c)(n+1)|, n = j - 1.

    The k = 1 case of the probes' scan, with no rescaling: the carried state
    is t_{j0-1}, and a cumulative product seeded with it gives the chunk's
    terms in stream order.  The indices are in terms, the numerator in a
    (n + b in b), its modulus and then the ratio in sums, and the
    denominator in b (n + 1 over the indices); no other buffer is touched.
    """

    def step(ws, j0, j1, carry):
        count = j1 - j0
        n = _indices(ws, j0 - 1, count, ws.terms, False)
        num, den = ws.a[:count], ws.b[:count]
        ratio = ws.sums[:count]
        np.abs(np.multiply(np.add(n, af, out=num), np.add(n, bf, out=den), out=num), out=ratio)
        np.multiply(np.add(n, cf, out=den), np.add(n, 1.0, out=n), out=den)
        np.divide(ratio, np.abs(den, out=den), out=ratio)
        ratio[0] *= carry
        terms = np.cumprod(ratio, out=ws.terms[:count])
        if terminated:
            np.copyto(terms, 0.0, where=np.isnan(terms, out=ws.keep[:count]))
        return terms, None, float(terms[-1])

    return step


def gauss_test(a, b, c, n_max: int = 1 << 20) -> GaussReport:
    """Classify absolute convergence of the Gauss series at x = 1 and measure it.

    The parameters are rational, read by Hyp2F1Params.  The verdict uses the
    classical criterion, decided exactly: absolutely convergent iff
    c - a - b > 0 (with termination when a or b is a nonpositive integer).
    The empirical channel rounds each parameter to float64 once and streams
    |t_n|, n = 0 .. n_max, through the chunked driver stream_terms and its
    reused workspace, so no array grows with n_max.  It reports Cauchy gaps
    S_{2n} - S_n at dyadic checkpoints (shrinking gaps are the observable
    signature of a summable tail) and fits the decay exponent of the terms
    by least squares of ln |t_n| on ln n over [n_max/4, n_max], accumulated
    chunk by chunk as running sums.  The sums are centred at ln n_max and
    ln t_{n_max/4}, so the normal equations do not cancel even when the
    exponent is near 0.  A parameter past float64's range or rounding to 0
    raises MagnitudeOverflow (scalars.to_float64), and a c that rounds onto a
    pole InputError.
    """
    params = Hyp2F1Params(a, b, c)
    if n_max < 1 << 12:
        raise InvalidParams("n_max too small for dyadic diagnostics")
    a, b, c = params.a, params.b, params.c
    terminated = _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
    af, bf, cf = (to_float64(v, "gauss parameter") for v in (a, b, c))
    if cf <= 0 and cf.is_integer():
        raise InputError(f"gauss lower parameter c rounds to the pole c = {cf:g} in float64")
    if terminated:
        verdict = "TERMINATING"
    else:
        verdict = "ABS_CONVERGENT" if c - a - b > 0 else "DIVERGENT"

    lo, top = n_max // 4, math.log(n_max)
    fit = [0, 0.0, 0.0, 0.0, 0.0]  # count, sum x, sum y, sum x^2, sum x y
    level = None  # ln t_lo, once the window is reached

    def visit(ws, j0, mant, expo, terms, sums):
        # x = ln n - ln n_max, y = ln t_n - ln t_lo over the window, 0 where t_n <= 0
        nonlocal level
        skip = max(lo - j0, 0)
        size = terms.size - skip
        if size <= 0:
            return
        vals = terms[skip:]
        if level is None:
            level = math.log(vals[0]) if vals[0] > 0 else 0.0
        x, y, keep = ws.a[:size], ws.b[:size], ws.keep[:size]
        np.greater(vals, 0.0, out=keep)
        np.log(_indices(ws, j0 + skip, size, ws.a, False), out=x)
        x -= top
        x *= keep
        y.fill(level)
        np.log(vals, out=y, where=keep)
        y -= level
        # products by ufunc, not BLAS: a threaded BLAS's spinning workers
        # would bill their wait to this op and the next; each is summed
        # before the next is formed over it, in sums, which is read by now
        prod = ws.sums[:size]
        for i, v in enumerate((np.count_nonzero(keep), x.sum(), y.sum(),
                               np.multiply(x, x, out=prod).sum(),
                               np.multiply(x, y, out=prod).sum())):
            fit[i] += v

    checkpoints, _ = stream_terms(_ratio_step(af, bf, cf, terminated), 1.0,
                                  n_max + 1, n_max, visit)
    gaps = tuple(round(b2 - b1, 12) for (_, b1), (_, b2) in zip(checkpoints, checkpoints[1:]))
    ratios_g = []
    for g0, g1 in zip(gaps, gaps[1:]):
        # 0/0, a terminated series, is no trend; a gap past float64 range,
        # once the partial sums overflow, is growth
        ratios_g.append((math.nan if g1 == 0 else math.inf)
                        if g0 == 0 or not math.isfinite(g1) else g1 / g0)
    tail = ratios_g[-3:]
    if tail and all(q < 0.98 for q in tail):
        trend = "shrinking"
    elif tail and all(q > 1.02 for q in tail):
        trend = "growing"
    else:
        trend = "flat"

    count, sx, sy, sxx, sxy = fit
    if count < 16:
        slope = float("-inf")
    else:
        # a term past float64 range makes the sums non-finite: no fit
        slope = float((count * sxy - sx * sy) / (count * sxx - sx * sx))
        if not math.isfinite(slope):
            slope = float("nan")
    return GaussReport(verdict, cf - af - bf, af + bf - cf - 1.0, slope,
                       tuple(checkpoints), gaps, tuple(round(q, 12) for q in ratios_g),
                       trend, bool(terminated), n_max)
