"""A fixed reference computation for gauging the machine's speed during a run.

On a shared host the CPU's speed drifts by 20% or more over tens of seconds,
and a whole run can fall into a fast or a slow phase.  The loop times this
kernel every few seconds between ops; a per-op time divided by the kernel's
median time in the same run is then expressed in units of the machine's
speed during that run.  The kernel does, in about equal shares, the three
kinds of work heunlab does: a float64 two-term recurrence over NumPy arrays
with power-of-two rescaling, as in the boundary probes; an exact rational
recurrence whose numbers grow, as in the exact tier; and a 256-bit mpmath
recurrence, as in the multiprecision tier.  It is frozen here, apart from
the program, so that a change to the program cannot change it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import mpmath
import numpy as np

FLOAT_TERMS = 30_000
EXACT_TERMS = 440
MP_TERMS = 3_600

_CTX = mpmath.MPContext()  # private context: the program's mp.prec is untouched
_CTX.prec = 256


def _float_part():
    a = np.linspace(0.9, 1.1, FLOAT_TERMS)
    b = np.linspace(-0.2, 0.3, FLOAT_TERMS)
    u_prev, u, scale, total = 0.0, 1.0, 0, 1.0
    rows = []
    for j in range(1, FLOAT_TERMS):
        u_prev, u = u, a[j - 1] * u + b[j - 1] * u_prev
        if max(abs(u), abs(u_prev)) > 1e100:
            u, u_prev, scale = math.ldexp(u, -300), math.ldexp(u_prev, -300), scale + 300
        total += u
        if j % 64 == 0:
            rows.append((j, float(u), scale, float(total)))
    return total, len(rows)


def _exact_part():
    a, b = Fraction(1), Fraction(1, 3)
    for n in range(1, EXACT_TERMS + 1):
        a, b = Fraction(2 * n + 1, n + 2) * a - Fraction(n, 3 * n + 1) * b, a
    return a


def _mp_part():
    x, y = _CTX.mpf(1), _CTX.mpf(1) / 3
    for n in range(1, MP_TERMS + 1):
        x, y = (x * (2 * n + 1) - y * n) / (n + 2), x
    return x


def timed() -> tuple:
    """(wall, cpu) seconds of one run of the kernel."""
    start, cpu_start = time.perf_counter(), time.process_time()
    _float_part()
    _exact_part()
    _mp_part()
    return time.perf_counter() - start, time.process_time() - cpu_start
