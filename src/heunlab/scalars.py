"""Three-tier scalar arithmetic.

Every quantity in this package lives in one of three tiers:

* exact: ``fractions.Fraction`` (integers are promoted on entry), closed under
  the arithmetic the recurrences need, so residual checks can assert equality
  with zero rather than smallness;
* mpmath: real/complex numbers at an explicit binary precision, used where
  roots, logarithms, or gamma functions force approximation;
* float64: the probes' plain floats, rounded from exact values.

Functions here never silently change tier.  Callers choose a tier by passing
``precision="exact"`` or a bit count, and each crossing has one function:
to_rational into the exact tier, rational_to_mp from it into mpmath, and
to_float64 from it into float64.
"""

from __future__ import annotations

import math
import os
import re
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_div, round_nearest

from .errors import InputError, MagnitudeOverflow

DEFAULT_PRECISION = 256  # bits
# mpmath's cost grows faster than linearly in the bits; at 2^20 `domain` takes
# seconds, and far past it a working precision exhausts memory
MAX_PRECISION = 1 << 20
ENV_PRECISION = "HEUNLAB_PRECISION"
# Fraction builds 10^|e| for a decimal exponent e, which past Python's limit
# on integer digits takes seconds to minutes
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)$", re.IGNORECASE)
_LN2 = math.log(2.0)


def precision_from_env() -> int | str:
    """Resolve the working precision from the environment.

    Returns ``"exact"`` or a bit count, DEFAULT_PRECISION when the variable
    is unset.  Malformed values raise InputError rather than being ignored;
    a silently dropped precision request is worse than a loud one.
    """
    raw = os.environ.get(ENV_PRECISION)
    if raw is None:
        return DEFAULT_PRECISION
    return parse_precision(raw)


def parse_precision(raw: int | str) -> int | str:
    if isinstance(raw, int) and not isinstance(raw, bool):
        bits = raw
    else:
        text = str(raw).strip().lower()
        if text == "exact":
            return "exact"
        try:
            bits = int(text)
        except ValueError:
            raise InputError(f"precision must be 'exact' or a bit count, got {raw!r}") from None
    if bits < 2:
        raise InputError(f"precision must be at least 2 bits, got {bits}")
    if bits > MAX_PRECISION:
        raise InputError(f"precision must be at most {MAX_PRECISION} bits, got {bits}")
    return bits


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def _exponent(text: str) -> int:
    """|e| for text that ends in a decimal exponent e, else 0.  mpmath reads
    10^e in time cubic in e's digits: past 300 of them, InputError."""
    m = _EXPONENT.search(text)
    if m and len(m.group(1)) > 300:
        raise InputError(f"exponent of more than 300 digits: {text!r}")
    return int(m.group(1)) if m else 0


def parse_number(text: str) -> Fraction:
    """Parse a rational literal: 'p/q', integers, decimals, scientific notation,
    with an exponent of at most MAX_EXPONENT in magnitude."""
    text = str(text).strip()
    if _exponent(text) > MAX_EXPONENT:
        raise InputError(f"exponent past +-{MAX_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {text!r}") from exc


def parse_int(value, where: str) -> int:
    """An instance field that must be an integer: an int or an integer string.

    A bool, float, null, list or object raises InputError naming the field.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{where}: expected an integer, got {value!r}")


def parse_point(text: str, prec: int = DEFAULT_PRECISION):
    """Parse an evaluation point: rational if possible, else a complex literal.
    A real one with an exponent past MAX_EXPONENT is an mpf at prec bits; a
    complex literal whose real or imaginary part is not finite in float64
    (nan, inf, or past its range, like 1e400j) raises InputError."""
    text = str(text).strip()
    try:
        if _exponent(text) > MAX_EXPONENT:
            with mp.workprec(prec):
                return mp.mpf(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        z = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InputError(f"not a number: {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"not a finite number: {text!r}")
    with mp.workprec(prec):
        if z.imag == 0.0:
            return mp.mpf(z.real)
        return mp.mpc(z.real, z.imag)


def to_scalar(value):
    """Promote a Python value to a Fraction, or keep an mpmath number; a
    complex becomes an mpc at 53 bits, which holds it exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"not a finite number: {value!r}")
        return Fraction(value)  # finite floats are exact binary rationals
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return value
    if isinstance(value, complex):
        with mp.workprec(53):
            return mp.mpc(value.real, value.imag)
    if isinstance(value, str):
        return parse_number(value)
    raise InputError(f"cannot interpret {value!r} as a scalar")


def to_rational(value, name: str) -> Fraction:
    """value through to_scalar; InputError unless it is rational."""
    value = to_scalar(value)
    if not is_exact(value):
        raise InputError(f"{name} must be rational, got {value}")
    return value


def to_float64(value, name: str) -> float:
    """value rounded once to float64.

    A finite value past float64's range, or a nonzero one that rounds to 0,
    raises MagnitudeOverflow naming it; inf and nan pass through.
    """
    try:
        f = float(value)
    except OverflowError as exc:
        raise MagnitudeOverflow(f"{name} does not fit in float64") from exc
    if f == 0.0 and value != 0:
        raise MagnitudeOverflow(f"{name} does not fit in float64: it rounds to 0")
    return f


def as_mp(x, prec: int = DEFAULT_PRECISION):
    """Convert to an mpmath number at the given precision.

    An int or Fraction is rounded once, correctly (rational_to_mp).
    """
    if isinstance(x, (int, Fraction)):
        return rational_to_mp(x.numerator, x.denominator, prec)
    with mp.workprec(prec):
        if isinstance(x, complex):
            return mp.mpc(x.real, x.imag)
        return +mpmath.mpmathify(x)  # unary + rounds to working precision


def _exact_mpf(n: int):
    """The integer n as an exact raw mpf.

    Its factor of two is split off in one shift: mpmath's from_int strips
    it 8 bits per shift of the whole integer, which is quadratic in the
    trailing zeros of a long product of step divisors.
    """
    twos = (n & -n).bit_length() - 1 if n else 0
    return from_man_exp(n >> twos, twos)


def rational_to_mp(num: int, den: int, prec: int = DEFAULT_PRECISION):
    """num / den (den > 0) correctly rounded to nearest at prec bits.

    When both operands are wider than prec + 96 bits, their top prec + 64
    bits are divided as integers first.  That quotient lies within 4 units
    of the exact quotient at the same scale, so unless it is within 4 units
    of a half-ulp its top prec bits round as the exact value does (Ziv's
    rounding test).  Otherwise, and for narrower operands, one division of
    the exact integers with a sticky bit decides.  Either way no gcd is
    needed, and the result is p/q rounded once, not a quotient of rounded
    p and q.  as_mp, the mp stepper and the audit all round exact values
    here.
    """
    keep = prec + 64
    cut_num, cut_den = num.bit_length() - keep, den.bit_length() - keep
    if cut_num > 32 and cut_den > 32:
        # with n = |num| 2^-cut_num and d = den 2^-cut_den, both of keep
        # bits: quot - n 2^keep / d lies in (-3, 4)
        quot = ((abs(num) >> cut_num) << keep) // (den >> cut_den)
        extra = quot.bit_length() - prec
        half = 1 << (extra - 1)
        low = quot & (2 * half - 1)
        if abs(low - half) > 4:
            man = (quot >> extra) + (low > half)
            return mp.make_mpf(from_man_exp(-man if num < 0 else man,
                                            cut_num - cut_den - keep + extra))
    return mp.make_mpf(mpf_div(_exact_mpf(num), _exact_mpf(den), prec, round_nearest))


def log_abs(x) -> float:
    """ln |x| as a float, -inf at zero, from the mantissa and exponent.

    x = f 2^e with 1/2 <= |f| < 1 read from the mantissa's top 53 bits, and
    ln |x| = ln |f| + e ln 2, so huge and tiny values lose nothing to a
    cancellation between two large logs.  A rational is first rounded once
    to 53 bits; 0, inf and nan give -inf, inf and nan.
    """
    if isinstance(x, (int, Fraction)):
        x = rational_to_mp(x.numerator, x.denominator, 53)
    _, man, exp, bc = x._mpf_
    if not man:
        return -math.inf if x == 0 else abs(float(x))
    drop = max(bc - 53, 0)
    f, e = math.frexp(man >> drop)
    return math.log(f) + (e + exp + drop) * _LN2


def fmt_scalar(x) -> str:
    """Deterministic human-readable rendering: exact tier as 'p/q', mpmath
    tier as 30 significant digits."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        try:
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        except ValueError:  # Python's limit on integer digits
            raise InputError(f"an exact value of more than {MAX_EXPONENT} digits cannot be "
                             f"rendered; use a bit precision or a shorter value") from None
    return mpmath.nstr(x if isinstance(x, mpmath.mpc) else mpmath.mpf(x), 30)
