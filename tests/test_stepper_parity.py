"""The recurrence steppers against the per-tier loops they replaced.

The reference loops below are the stepping code the package used before
every tier moved onto `iter_cleared` (exact) and `iter_values` (a bit
count): the exact `Fraction` stream, the mpmath stream with the lag
polynomials converted once and evaluated by Horner, and the modulus-majorant
loop; reference_from steps the signed or modulus sequence from any offset.
Exact and majorant values must equal them in value and type.  mpmath
streams of exact systems round each lag value once, so they must equal a
loop that rounds the exact lag values once, bit for bit, and stay within
2^(10-p) of the Horner loop relative to the majorant c_n >= |d_n|.
"""

import itertools
from fractions import Fraction

import pytest
from mpmath import mp

import heunlab
from heunlab import (InputError, PolynomialInN, RationalFnInN, RecurrenceSystem,
                     heun_recurrence, path_table, poly_from, stream_coefficients)
from heunlab.recurrence import (cleared_steps, domination_bounds, iter_cleared,
                                iter_values)
from heunlab.scalars import as_mp, is_exact, scalar_abs

from conftest import admissible_roots

F = Fraction
COUNT = 60


def reference_exact(system, count):
    values = [Fraction(1)]
    for n in range(count - 1):
        acc = Fraction(0)
        for i in range(1, min(system.k, n + 1) + 1):
            acc += system.coefficient(i, n) * values[n + 1 - i]
        values.append(acc)
    return values


def _horner(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def reference_horner(system, count, prec):
    with mp.workprec(prec):
        lags = [(tuple(as_mp(c, prec) for c in fn.num.coeffs),
                 tuple(as_mp(c, prec) for c in fn.den.coeffs)) for fn in system.lags]
        values = [mp.mpf(1)]
        for n in range(count - 1):
            acc = mp.mpf(0)
            for i in range(1, min(system.k, n + 1) + 1):
                num, den = lags[i - 1]
                acc += _horner(num, n) / _horner(den, n) * values[n + 1 - i]
            values.append(acc)
    return values


def reference_rounded_once(system, count, prec):
    """Each exact lag value rounded once to the working precision."""
    with mp.workprec(prec):
        values = [mp.mpf(1)]
        for n in range(count - 1):
            acc = mp.mpf(0)
            for i in range(1, min(system.k, n + 1) + 1):
                acc += as_mp(system.coefficient(i, n), prec) * values[n + 1 - i]
            values.append(acc)
    return values


def reference_modulus(system, offset, count, precision):
    convert = (lambda v: v) if precision == "exact" else (lambda v: as_mp(v, precision))
    with mp.workprec(53 if precision == "exact" else precision):
        values = [Fraction(1) if precision == "exact" else mp.mpf(1)]
        for j in range(count - 1):
            acc = values[0] * 0
            for i in range(1, min(system.k, j + 1) + 1):
                factor = scalar_abs(system.coefficient(i, j + offset))
                acc += convert(factor) * values[j + 1 - i]
            values.append(acc)
    return values


def assert_same(values, expected):
    assert len(values) == len(expected)
    for v, e in zip(values, expected):
        assert type(v) is type(e)
        assert v == e


def assert_close(values, expected, system, prec):
    """|v - e| <= 2^(10-p) c_n, with c_n the exact majorant at offset 0.

    c_n >= |d_n| bounds how rounding errors carry through the recurrence, so
    it is the scale of both loops' error; where d_n is much smaller than its
    terms, the difference relative to d_n itself reaches 2e-12 at 53 bits
    and 6e-74 at 256 bits on the pool.
    """
    majorant = stream_coefficients(system, len(values), modulus=True).values
    slack = mp.mpf(2) ** (10 - prec)
    with mp.workprec(prec):
        for v, e, c in zip(values, expected, majorant):
            assert abs(v - e) <= slack * as_mp(c, prec)


def lag(num, den):
    return RationalFnInN(poly_from(*num), poly_from(*den))


def user_systems():
    """Non-Heun exact systems: k = 1, k = 3, early poles, the geometric case."""
    return {
        "k1": RecurrenceSystem((lag((F(1, 2), F(3)), (F(2), F(1))),)),
        "k3": RecurrenceSystem((
            lag((F(1), F(-3, 2), F(1)), (F(2), F(3), F(1))),
            lag((F(-1, 3), F(2, 5)), (F(7, 2), F(1))),
            lag((F(1, 4),), (F(5), F(1, 2))),
        )),
        # lag 3 fires from n = 2, so its pole at n = 1 is harmless
        "k3_pole": RecurrenceSystem((
            lag((F(1), F(1)), (F(1), F(2))),
            lag((F(-1, 2),), (F(3), F(1))),
            lag((F(1), F(1, 3)), (F(-1), F(1))),
        )),
        # lag 2 fires from n = 1, so its pole at n = 0 is harmless
        "lag2_pole_at_0": RecurrenceSystem((
            lag((F(1),), (F(1),)),
            lag((F(1),), (F(0), F(1))),
        )),
        "geometric": RecurrenceSystem((
            lag((F(1, 2),), (F(1),)),
            lag((F(0),), (F(1),)),
        )),
    }


def pool_systems(instance_pool):
    return [heun_recurrence(p, root) for p in instance_pool for root in admissible_roots(p)]


def all_systems(instance_pool):
    return pool_systems(instance_pool) + list(user_systems().values())


def test_exact_streams_match_fraction_loop(instance_pool):
    for system in all_systems(instance_pool):
        stream = stream_coefficients(system, COUNT)
        assert_same(stream.values, reference_exact(system, COUNT))


def _reduced_pairs(pairs, count):
    q, values = 1, []
    for p, g in itertools.islice(pairs, count):
        assert g > 0
        q *= g
        values.append(Fraction(p, q))
    return values


def test_integer_stepper_reduces_to_the_exact_stream(instance_pool):
    systems = all_systems(instance_pool)
    assert len(pool_systems(instance_pool)) == 48
    # G vanishes where a lag that has not fired yet has its pole
    assert user_systems()["lag2_pole_at_0"].cleared[1](0) == 0
    assert user_systems()["k3_pole"].cleared[1](1) == 0
    for system in systems:
        assert _reduced_pairs(iter_cleared(system), COUNT) == reference_exact(system, COUNT)
        for offset in (0, 1, 40):
            assert (_reduced_pairs(iter_cleared(system, offset, modulus=True), 40)
                    == reference_modulus(system, offset, 40, "exact"))


def reference_from(system, offset, count, modulus):
    """s_{j+1} = sum_i alpha_i(offset + j) s_{j+1-i} from (s_{-1}, s_0) = (0, 1)
    in Fractions, through |alpha_i| with modulus; a lag reaching before s_0
    multiplies a zero and is skipped, pole or not."""
    values = [Fraction(1)]
    for j in range(count - 1):
        acc = Fraction(0)
        for i in range(1, min(system.k, j + 1) + 1):
            factor = system.coefficient(i, offset + j)
            acc += (abs(factor) if modulus else factor) * values[j + 1 - i]
        values.append(acc)
    return values


@pytest.mark.parametrize("offset", [0, 1, 40])
def test_signed_stepper_from_any_offset_reduces_to_the_fraction_loop(instance_pool, offset):
    # k3_pole's G vanishes at n = 1, where its lag 3 has not fired yet: the
    # step at j = 1 from offset 0 and the first step from offset 1 go through
    # cleared_steps' fallback
    assert user_systems()["k3_pole"].cleared[1](1) == 0
    for system in all_systems(instance_pool):
        assert (_reduced_pairs(iter_cleared(system, offset), 40)
                == reference_from(system, offset, 40, False))


@pytest.mark.parametrize("offset", [0, 1, 40])
def test_values_stepper_from_any_offset_is_within_2_to_the_minus_240(instance_pool, offset):
    bound = mp.mpf(2) ** -240
    for system in all_systems(instance_pool):
        for modulus in (False, True):
            expected = reference_from(system, offset, 40, modulus)
            with mp.workprec(256):
                values = itertools.islice(iter_values(system, offset, modulus=modulus), 40)
                for v, e in zip(values, expected):
                    e = as_mp(e, 256)
                    assert abs(v - e) <= bound * abs(e), (system, offset, modulus)


# at 12 bits the cleared lag integers are wider than the precision; rounded
# once, correctly, the unreduced pair and the reduced Fraction agree
@pytest.mark.parametrize("prec", [12, 53, 256])
def test_mp_streams_round_each_lag_value_once(instance_pool, prec):
    for system in all_systems(instance_pool):
        stream = stream_coefficients(system, COUNT, prec)
        assert_same(stream.values, reference_rounded_once(system, COUNT, prec))
        assert_close(stream.values, reference_horner(system, COUNT, prec), system, prec)


@pytest.mark.parametrize("offset", [0, 1, 40])
def test_majorants_match_modulus_loop(instance_pool, offset):
    for system in all_systems(instance_pool):
        for precision in ("exact", 53):
            stream = stream_coefficients(system, 40, precision, offset, modulus=True)
            assert_same(stream.values, reference_modulus(system, offset, 40, precision))


def test_majorant_resumes_from_its_memo(a2_params):
    system = heun_recurrence(a2_params)
    head = stream_coefficients(system, 7, offset=3, modulus=True)
    full = stream_coefficients(system, 50, offset=3, modulus=True)
    assert full.values[:7] == head.values
    assert_same(full.values, reference_modulus(system, 3, 50, "exact"))


def test_exact_streams_refuse_floating_systems():
    # no system with a floating lag coefficient is built, so none is streamed
    with mp.workprec(80):
        third = mp.mpf(1) / 3
    with pytest.raises(InputError):
        RecurrenceSystem((lag((third, F(1)), (F(2), F(1))), lag((F(-1, 4),), (F(1), F(1)))))


def test_cleared_lags_reproduce_every_lag(instance_pool):
    for system in all_systems(instance_pool):
        lags, den = system.cleared
        assert all(is_exact(c) and Fraction(c).denominator == 1
                   for poly in (*lags, den) for c in poly.coeffs)
        # from n = k - 1 on, G has no zero and every lag is read
        steps = cleared_steps(system, system.k - 1)
        for n, (nums, g) in zip(range(system.k - 1, 40), steps):
            assert g > 0
            assert [Fraction(a, g) for a in nums] == [
                system.coefficient(i, n) for i in range(1, system.k + 1)]


def test_exact_readers_evaluate_no_lag_polynomial(a2_params, monkeypatch):
    # every exact reader takes its lag integers from cleared_steps' Horner rows
    system = heun_recurrence(a2_params)
    calls = []
    call = PolynomialInN.__call__

    def counting(self, n):
        calls.append(n)
        return call(self, n)

    monkeypatch.setattr(PolynomialInN, "__call__", counting)
    with mp.workprec(256):
        assert len(list(itertools.islice(iter_values(system), 200))) == 200
    path_table(system, 301, 30)
    domination_bounds(system, 301, 30)
    assert calls == []
    system.coefficient(1, 5)  # the per-lag reference still goes through the patch
    assert calls


def test_heun_lags_share_one_denominator(a2_params):
    system = heun_recurrence(a2_params)
    (a1, a2), g = system.cleared
    assert g.degree == 2 and a1.degree == 2 and a2.degree == 2


def test_cleared_at_skips_a_silent_lag_pole():
    # G vanishes at lag 2's pole n = 0, where only lag 1 fires
    system = user_systems()["lag2_pole_at_0"]
    assert system.cleared[1](0) == 0
    assert next(cleared_steps(system)) == ([1], 1)
    assert stream_coefficients(system, 4).values == (1, 1, 2, F(5, 2))


def test_public_names_resolve_once():
    names = heunlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(heunlab, name) is not None, name
