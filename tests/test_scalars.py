"""Scalar tier: parsing, promotion, formatting, magnitude helpers."""

import math
from fractions import Fraction

import pytest
from mpmath import mp
from mpmath.libmp import mpf_div

from heunlab import (DEFAULT_PRECISION, InputError, as_mp, fmt_scalar,
                     is_exact, parse_number, parse_point, parse_precision,
                     precision_from_env, to_scalar)
from heunlab import scalars
from heunlab.scalars import ENV_PRECISION, log_abs, rational_to_mp, scalar_abs


def test_parse_number_rational_forms():
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("-7") == Fraction(-7)
    assert parse_number("0.5") == Fraction(1, 2)
    assert parse_number("2.5e-3") == Fraction(1, 400)
    assert parse_number(" 1/3 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["", "one", "1/0", "2+3j", "1..2"])
def test_parse_number_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        parse_number(bad)


def test_parse_precision_accepts_exact_and_bits():
    assert parse_precision("exact") == "exact"
    assert parse_precision("EXACT") == "exact"
    assert parse_precision(128) == 128
    assert parse_precision("64") == 64
    with pytest.raises(InputError):
        parse_precision("fast")
    with pytest.raises(InputError):
        parse_precision(1)


def test_parse_precision_caps_the_bits():
    # refused before any working precision is set, so nothing is allocated
    assert parse_precision(scalars.MAX_PRECISION) == scalars.MAX_PRECISION
    for bits in (scalars.MAX_PRECISION + 1, 10 ** 11, "100000000000"):
        with pytest.raises(InputError):
            parse_precision(bits)


def test_precision_env_override(monkeypatch):
    monkeypatch.delenv(ENV_PRECISION, raising=False)
    assert precision_from_env() == DEFAULT_PRECISION
    monkeypatch.setenv(ENV_PRECISION, "exact")
    assert precision_from_env() == "exact"
    monkeypatch.setenv(ENV_PRECISION, "192")
    assert precision_from_env() == 192
    monkeypatch.setenv(ENV_PRECISION, "junk")
    with pytest.raises(InputError):
        precision_from_env()


def test_parse_number_refuses_exponents_past_the_digit_limit():
    # Fraction would build 10^|e|, which takes seconds past e = 10^6
    assert parse_number("1e4300") == 10 ** 4300
    assert parse_number("2e-04_300") == Fraction(2, 10 ** 4300)
    for bad in ("1e4301", "-1.5E-4301", "1e100000000", "1e" + "9" * 5000):
        with pytest.raises(InputError):
            parse_number(bad)


def test_parse_point_reads_a_far_point_at_the_working_precision():
    x = parse_point("-2.5e100000000", 64)
    assert isinstance(x, mp.mpf)
    with mp.workprec(64):
        assert x == mp.mpf("-2.5e100000000")
    assert parse_point("1e-4300") == Fraction(1, 10 ** 4300)
    for bad in ("1e" + "9" * 301, "x1e5000"):
        with pytest.raises(InputError):
            parse_point(bad)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "infinity", "nanj", "1+infj",
                                  "1e400j", "1e400+1j", "-1e5000j"])
def test_parse_point_refuses_non_finite_literals(text):
    with pytest.raises(InputError, match="not a finite number"):
        parse_point(text, 64)


def test_parse_point_prefers_exact():
    assert parse_point("2/7") == Fraction(2, 7)
    assert parse_point("0.25") == Fraction(1, 4)
    z = parse_point("1+2j", 64)
    assert z.real == 1 and z.imag == 2
    with pytest.raises(InputError):
        parse_point("nope")


def test_to_scalar_keeps_exactness():
    assert to_scalar(3) == Fraction(3)
    assert is_exact(to_scalar(0.125))  # binary floats are exact rationals
    assert to_scalar(0.125) == Fraction(1, 8)
    with pytest.raises(InputError):
        to_scalar(True)
    with pytest.raises(InputError):
        to_scalar(object())
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="not a finite number"):
            to_scalar(value)


def test_as_mp_rounds_to_working_precision():
    x = as_mp(Fraction(1, 3), 128)
    with mp.workprec(200):
        err = abs(x - mp.mpf(1) / 3)
    assert err < mp.mpf(2) ** (-125)


def nearest(num, den, prec):
    """num / den rounded to nearest, ties to even, at prec bits, in integers.

    Exact rather than a 2x-precision quotient: at a pair within 2^-(2 prec)
    of a tie, that quotient lands on the tie itself and rounds again.
    """
    if num == 0:
        return mp.mpf(0)
    mag = abs(num)
    shift = prec - mag.bit_length() + den.bit_length()
    while True:  # quotient = floor(|num| 2^shift / den) in [2^(prec-1), 2^prec)
        quot, rem = divmod(mag << shift if shift >= 0 else mag, den << -shift if shift < 0 else den)
        if quot >= 1 << prec:
            shift -= 1
        elif quot < 1 << (prec - 1):
            shift += 1
        else:
            break
    divisor = den << -shift if shift < 0 else den
    if 2 * rem > divisor or (2 * rem == divisor and quot & 1):
        quot += 1
    with mp.workprec(prec + 1):  # quot <= 2^prec: exact
        return mp.ldexp(mp.mpf(quot if num > 0 else -quot), -shift)


TIE_Q = 3 ** 300  # wider than 2 x 256 bits


def tie_cases(prec):
    """(num, den) at a tie between two prec-bit values, and just either side."""
    for mant in (2 ** (prec - 1) + 4, 2 ** (prec - 1) + 5):  # even and odd lower neighbour
        tie = 2 * mant + 1  # tie / 2 is halfway between mant and mant + 1
        yield tie, 2
        yield -tie * 3, 6
        for side in (-1, 1):
            yield tie * TIE_Q + 2 * side, 2 * TIE_Q
            yield -(tie * TIE_Q + 2 * side) * 5 ** 40, 2 * TIE_Q * 2 ** 90


def wide_cases(prec):
    """(num, den) both wider than prec + 96 bits.

    Generic quotients, and quotients at tie / 2 + s 2^-64 for a prec + 1 bit
    odd tie: with s near 0 they sit within a unit of the half boundary of the
    top prec + 64 bits' quotient, and with |s| up to 9 just outside it.
    """
    wide = 7 ** (prec // 2 + 60)  # 1.4 prec + 168 bits
    for num in (11 ** (prec // 2 + 80), -(13 ** (prec + 40)), 2 ** (prec + 200) - 1):
        yield num, wide
        yield num, wide * 3 ** 90 + 1
    for mant in (2 ** (prec - 1) + 4, 2 ** (prec - 1) + 5):
        tie = 2 * mant + 1
        for s in (-9, -5, -4, -3, -1, 0, 1, 3, 4, 5, 9):
            yield (tie * 2 ** 63 + s) * wide, 2 ** 64 * wide
            yield -(tie * 2 ** 63 + s) * wide * 5, 2 ** 64 * wide * 5
        yield tie * wide + 1, 2 * wide  # within 1/(2 wide) of the tie
    # den's dropped bits all ones and num's all zero: the top bits' quotient
    # lies 2 units above this value, which is just below a tie
    den = (((1 << (prec + 63)) + 1) << 40) | ((1 << 40) - 1)
    yield (((((2 ** (prec + 1) - 1) * den) << 59 >> 40) - 1) << 40), den


@pytest.mark.parametrize("prec", [12, 53, 256])
def test_rational_to_mp_rounds_correctly(prec, monkeypatch):
    divisions = []

    def counting(*args):
        divisions.append(args)
        return mpf_div(*args)

    monkeypatch.setattr(scalars, "mpf_div", counting)
    cases = [(0, 1), (0, 7 ** 50), (1, 3), (-2, 3), (-10 ** 400, 7), (10 ** 400, 3 ** 500),
             (5 ** 300, 2 ** 1000 * 3 ** 700), (-(2 ** 700) * 3, 2 ** 350),
             *tie_cases(prec), *wide_cases(prec)]
    wide_exact = []
    for num, den in cases:
        before = len(divisions)
        got = rational_to_mp(num, den, prec)
        assert got == nearest(num, den, prec), (num, den)
        assert got._mpf_[3] <= prec
        exact = len(divisions) > before
        if min(num.bit_length(), den.bit_length()) > prec + 96:
            wide_exact.append(exact)
        else:
            assert exact, (num, den)
        # as_mp rounds a Fraction by the same rule, not p and q separately
        assert as_mp(Fraction(num, den), prec) == got, (num, den)
    # wide operands take the top-bits quotient, and near a tie the exact division
    assert any(wide_exact) and not all(wide_exact)


def test_scalar_abs_stays_in_tier():
    assert scalar_abs(Fraction(-3, 4)) == Fraction(3, 4)
    assert is_exact(scalar_abs(-5))
    m = scalar_abs(mp.mpf(-2.5), 64)
    assert not is_exact(m) and m == 2.5


def test_log_abs_handles_huge_exact_values():
    big = Fraction(10) ** 5000
    assert abs(log_abs(big) - 5000 * math.log(10)) < 1e-6
    assert log_abs(Fraction(0)) == -math.inf
    assert abs(log_abs(Fraction(-1, 2)) + math.log(2)) < 1e-12
    # near 1 with wide p and q: log(p) - log(q) would cancel to 2e-14
    near_one = Fraction(3 ** 1000, 2 ** 1585)
    with mp.workprec(400):
        ref = mp.log(mp.mpf(3) ** 1000 / mp.mpf(2) ** 1585)
    assert abs(log_abs(near_one) - ref) < 1e-15
    # the floating tier by the same rule
    assert log_abs(mp.mpf(0)) == -math.inf
    assert log_abs(mp.mpf("inf")) == math.inf
    assert log_abs(mp.mpf("-inf")) == math.inf
    assert math.isnan(log_abs(mp.mpf("nan")))
    with mp.workprec(256):
        x = mp.mpf(-3) / 7
        z = mp.mpc(3, -4) / 10 ** 60
        assert abs(log_abs(x) - mp.log(mp.mpf(3) / 7)) < 1e-15
        assert abs(log_abs(z) - mp.log(mp.mpf(5) / 10 ** 60)) < 1e-13


def test_fmt_scalar_deterministic():
    assert fmt_scalar(Fraction(3, 4)) == "3/4"
    assert fmt_scalar(Fraction(5)) == "5"
    with mp.workprec(256):
        s1 = fmt_scalar(mp.mpf(1) / 3, 30)
        s2 = fmt_scalar(mp.mpf(1) / 3, 30)
    assert s1 == s2 and s1.startswith("0.3333333333")


def test_default_precision_is_256_bits():
    assert DEFAULT_PRECISION == 256
