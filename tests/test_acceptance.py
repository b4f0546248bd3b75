"""Acceptance gate: every release criterion as one test with its stated bound.

Each test prints nothing on success; `pytest -v tests/test_acceptance.py`
gives the one pass/fail line per criterion.  Bounds and tolerances here are
frozen deliberately; loosening one is a release decision, not a test fix.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (HeunParams, OutsideDomain, absolute_profile_sum,
                     boundary_radius, discrepancy_report, empirical_radius,
                     eta_z, find_proof_constants, gauss_test, heun_eval,
                     heun_recurrence, membership_sum,
                     min_index_for_ratio_bound, ode_residual,
                     pochhammer_ratio_lower_bound, series_limits,
                     stream_coefficients, term_scan, verify_proof_constants)
from heunlab.cli import main as cli_main
from heunlab.convergence import _bisect_radius
from heunlab.rearrange import (grouped_partial_sum, path_table,
                               path_table_enumerate, table_matches_stream)

from conftest import SEED, admissible_roots, sample_pool

F = Fraction

# the ten boundary-divergence probe instances (criterion 7): a, q, alpha,
# beta, gamma, delta, chosen to cover |a| < 1, |a| > 1, both signs, and
# non-unit exponent parameters
PROBE_POOL = (
    (2, 1, 1, 1, 1, 1),
    (F(1, 2), 1, 1, 1, 1, 1),
    (-2, 1, 1, 1, 1, 1),
    (F(-1, 2), 1, 1, 1, 1, 1),
    (3, 1, 2, 1, 1, 1),
    (2, 0, 2, 2, 1, 1),
    (F(5, 2), 1, 2, 1, 1, 1),
    (-3, 1, 1, 1, 1, 1),
    (F(3, 2), 1, 1, 1, 1, 1),
    (2, 1, 3, 1, 1, 2),
)


def test_c01_frobenius_exactness(instance_pool):
    start = time.monotonic()
    checked = 0
    for params in instance_pool:
        for root in admissible_roots(params):
            stream = stream_coefficients(heun_recurrence(params, root), 200, "exact")
            residuals = ode_residual(params, root, stream, order=198)
            assert all(r == 0 for r in residuals), (params, root)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 25
    assert elapsed < 30.0, f"exactness sweep took {elapsed:.1f} s"


def test_c02_limit_correctness(instance_pool):
    n = 10 ** 6
    bound = F(10 * 2, n)  # 10 t / n with t = 2
    for params in instance_pool:
        A, B = series_limits(params)
        assert (A, B) == ((1 + F(params.a)) / F(params.a), -1 / F(params.a))
        lag1, lag2 = heun_recurrence(params).lags
        assert abs(lag1(n) - A) <= bound
        assert abs(lag2(n) - B) <= bound


def test_c03_domain_boundary_geometry():
    tol = mp.mpf(10) ** -30
    rng = random.Random(SEED)
    with mp.workprec(256):
        for i in range(1000):
            A = F(rng.randrange(1, 400), rng.randrange(1, 50))
            B = F(rng.randrange(0, 400), rng.randrange(1, 50)) if i % 37 else F(0)
            if A == 0 and B == 0:
                continue
            limits = (A, B)
            closed = boundary_radius(limits, 256)
            bisect = _bisect_radius(limits, 256)
            assert mp.fabs(closed - bisect) < tol, limits
            eta, z = eta_z(limits, closed, 256)
            assert mp.fabs(eta + z - 1) < tol, limits
        r = boundary_radius((F(3, 2), F(1, 2)), 256)
        assert mp.fabs(r - (mp.sqrt(17) - 3) / 2) < tol


def test_c04_gauss_boundary_sweep():
    shifts = (F(-1), F(-1, 10), F(0), F(1, 10), F(1))
    for a, b in ((F(1, 2), F(1, 3)), (F(5, 4), F(3, 4))):
        for s in shifts:
            c = a + b + s
            rep = gauss_test(a, b, c, n_max=10 ** 6)
            assert rep.verdict == ("ABS_CONVERGENT" if s > 0 else "DIVERGENT"), (a, b, s)
            assert (rep.trend == "shrinking") == (rep.verdict == "ABS_CONVERGENT")
            predicted = float(a + b - c) - 1.0
            assert abs(rep.fitted_exponent - predicted) < 0.05, (a, b, s)


def test_c05_rearrangement_identity(instance_pool):
    x = F(1, 3)
    for params in instance_pool[:10]:
        A, B = series_limits(params)
        system = heun_recurrence(params)
        for offset in (0, 11):
            tbl = path_table(system, offset, 30)
            assert table_matches_stream(tbl, system), params
            grouped = grouped_partial_sum(tbl, abs(A), abs(B), x)
            stream = stream_coefficients(system, 31, offset=offset, modulus=True)
            direct = sum(stream[n] * x ** n for n in range(31))
            assert grouped == direct, params
            small = path_table(system, offset, 14)
            assert small.table == path_table_enumerate(system, offset, 14).table, params


def test_c06_proof_constant_audit(instance_pool):
    tuples_checked = 0
    for params in instance_pool:
        system = heun_recurrence(params)
        pc = find_proof_constants(system, N_check=10 ** 5)
        assert pc.verified, params
        ver = verify_proof_constants(system, pc, n_lo=pc.N, n_hi=10 ** 5)
        assert ver.ok, params
        for r in (0, 1, 2, 3):
            for i2r in (2, 5):
                floor = min_index_for_ratio_bound(pc.N, pc.h_lag2, r, i2r)
                for extra in (0, 1, 2, 3, 10):
                    holds = pochhammer_ratio_lower_bound(
                        pc.N, pc.h_lag2, r, i2r, floor + extra)[2]
                    assert holds, (params, r, i2r, extra)
                    tuples_checked += 1
    assert tuples_checked == 1000


@pytest.mark.parametrize("ptuple", PROBE_POOL,
                         ids=[f"{i:02d}-a={s[0]}" for i, s in enumerate(PROBE_POOL, 1)])
def test_c07_boundary_divergence(ptuple):
    params = HeunParams(*ptuple)
    system = heun_recurrence(params)
    r_star = float(boundary_radius(series_limits(params)))
    start = time.monotonic()
    at_boundary = term_scan(system, r_star, 1 << 20)
    assert at_boundary.verdict == "diverges-empirically"
    assert all(g >= 1e-3 for g in at_boundary.gaps)
    inside = term_scan(system, 0.99 * r_star, 1 << 20)
    assert inside.verdict == "converges-empirically"
    assert time.monotonic() - start < 120.0


def test_c08_containment_and_discrepancy(instance_pool, a2_params, capsys):
    for params in instance_pool:
        limits = series_limits(params)
        r_star = float(boundary_radius(limits))
        stream = stream_coefficients(heun_recurrence(params), 4096, 53)
        estimate = empirical_radius(stream)
        assert estimate >= r_star - 1e-3, (params, estimate, r_star)
    limits = series_limits(a2_params)
    r = boundary_radius(limits)
    eta, z = eta_z(limits, r)
    report = discrepancy_report(heun_recurrence(a2_params), r, eta, z)
    assert report.agreement in ("both-diverge", "both-converge",
                                "cancellation", "inconclusive")
    assert report.signed.verdict == "converges-empirically"
    assert len(report.gap_ratios) == len(report.modulus.gaps) > 0
    with capsys.disabled():
        print(f"\n  [c08] signed series at r* = {report.r_star:.6f}: "
              f"{report.signed.verdict} (majorant {report.modulus.verdict}, "
              f"agreement {report.agreement}, "
              f"radius estimate {report.radius_estimate:.4f})")


def test_c09_sufficiency(a2_params):
    rng = random.Random(SEED)
    tol = F(1, 10 ** 30)
    inside_checked = 0
    while inside_checked < 20:
        x = F(rng.randrange(-550, 551), 1000)
        if membership_sum(series_limits(a2_params), x) > mp.mpf("0.99"):
            continue
        res = heun_eval(a2_params, x, tol=tol, precision="exact")
        assert res.converged and res.inside
        assert res.n_used <= 200, (x, res.n_used)
        inside_checked += 1
    outside_checked = 0
    while outside_checked < 5:
        x = F(rng.randrange(590, 1000), 1000) * rng.choice((-1, 1))
        if membership_sum(series_limits(a2_params), x) < mp.mpf("1.01"):
            continue
        assert absolute_profile_sum(a2_params, x) >= F(101, 100)
        with pytest.raises(OutsideDomain):
            heun_eval(a2_params, x, tol=tol, precision="exact")
        outside_checked += 1


def test_c10_determinism(tmp_path, capsys):
    instance = tmp_path / "sample.json"
    instance.write_text(
        '{"heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1", '
        '"gamma": "1", "delta": "1", "lambda": "0"}, "precision": "exact"}')
    payloads = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli_main(["proof-audit", str(instance), "--out", str(out),
                         "--n-check", "100000"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        payloads.append((captured.out,
                         (out / "sample.proof-audit.json").read_bytes(),
                         (out / "sample.proof-audit.csv").read_bytes()))
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0][0])["verdicts"]["overall"] is True
