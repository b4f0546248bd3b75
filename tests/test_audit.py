"""The end-to-end audit document: structure, verdicts, determinism."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from mpmath import mp

from heunlab import (DegreeMismatch, HeunParams, InputError, TruncationTooLarge,
                     document_bytes, heun_recurrence, parse_instance,
                     run_system_audit, series_limits, stream_coefficients,
                     trace_bytes)
from heunlab import audit
from heunlab.audit import AUDIT_DEPTH_CAP
from heunlab.cli import main as cli_main
from heunlab.convergence import boundary_radius
from heunlab.scalars import as_mp

F = Fraction


@pytest.fixture(scope="module")
def a2_audit():
    params = HeunParams(2, 1, 1, 1, 1, 1)
    return run_system_audit(heun_recurrence(params), root_echo=F(0))


def test_verdicts_all_true(a2_audit):
    document, _ = a2_audit
    v = document["verdicts"]
    assert v == {
        "constants_verified": True,
        "ratio_bound_all_hold": True,
        "minorant_divergent_regime": True,
        "domination_holds": True,
        "rearrangement_ok": True,
        "overall": True,
    }


def test_document_constants_and_boundary(a2_audit):
    document, _ = a2_audit
    assert document["kind"] == "proof-audit"
    assert document["classification"] == {"case": "CASE1", "h_labels": ["h1", "h2"]}
    c = document["constants"]
    assert (c["h_lag1"], c["h_lag2"], c["N"]) == (2, 3, 301)
    assert c["verified"]
    b = document["boundary"]
    assert b["r_star"].startswith("0.561552812808830274910")
    assert b["r_star_bracketed"] is True
    assert float(b["eta_plus_z"]) == pytest.approx(1.0, abs=1e-70)
    assert document["root"] == "0"


def test_ratio_bound_rows(a2_audit):
    document, _ = a2_audit
    rows = document["ratio_bound"]
    assert len(rows) == 6
    for row in rows:
        assert row["holds"] and row["sharp_below"]
        assert row["floor"] >= 1
        assert float(row["lhs"]) > float(row["rhs"])
    assert sorted({row["r"] for row in rows}) == [0, 1, 2]
    assert sorted({row["i2r"] for row in rows}) == [2, 5]


def test_minorant_and_domination_sections(a2_audit):
    document, _ = a2_audit
    mino = document["minorant"]
    assert mino["regime"] == "divergent" and mino["growing"]
    assert float(mino["w"]) == pytest.approx(81.73111990733928)
    assert mino["h2_slot"] == {"label": "h2", "value": 3}
    assert mino["value_closed"] is None
    dom = document["domination"]
    assert dom["holds"] and dom["precision"] == "exact"
    assert dom == {"N": 301, "M": 30, "holds": True, "precision": "exact",
                   "min_margin": dom["min_margin"]}
    assert float(dom["min_margin"]) >= 0
    rearr = document["rearrangement"]
    assert rearr["table_matches_stream"] and rearr["enumeration_matches"]
    assert float(rearr["regroup_abs_diff"]) < 1e-60


def test_trace_rows(a2_audit):
    document, rows = a2_audit
    assert rows[0] == (0, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert len(rows) == document["constants"]["N"] + document["options"]["M"] + 1
    n, value_re, value_im, log_mag, term, partial = rows[1]
    assert (n, value_re, value_im) == (1, 0.5, 0.0)
    assert term == pytest.approx(0.5 * 0.5615528128088303)
    assert partial == pytest.approx(1.0 + term)


@pytest.fixture(scope="module")
def golden_traces(a2_audit):
    """(params, trace rows) of the two golden audits."""
    pool06 = HeunParams(2, 0, 2, 2, 1, 1)
    return [(HeunParams(2, 1, 1, 1, 1, 1), a2_audit[1]),
            (pool06, run_system_audit(heun_recurrence(pool06))[1])]


def exact_terms(params, count):
    return stream_coefficients(heun_recurrence(params), count).values


def test_trace_log_mags_match_a_400_bit_reference(golden_traces):
    for params, rows in golden_traces:
        with mp.workprec(400):
            for row, v in zip(rows, exact_terms(params, len(rows))):
                if v == 0:
                    assert row[3] == -math.inf
                    continue
                ref = mp.log(abs(mp.mpf(v.numerator) / v.denominator))
                assert abs(row[3] - ref) <= 1e-13


def test_trace_values_match_the_reduced_fraction_path(golden_traces):
    # the trace before the integer stepper: reduced Fractions through as_mp
    for params, rows in golden_traces:
        r = boundary_radius(series_limits(params), 256)
        expect = []
        with mp.workprec(256):
            partial, power = mp.mpf(0), mp.mpf(1)
            for v in exact_terms(params, len(rows)):
                mv = as_mp(v, 256)
                term = mv * power
                partial += term
                expect.append((float(mp.re(mv)), float(mp.im(mv)), float(term), float(partial)))
                power *= r
        assert [(row[1], row[2], row[4], row[5]) for row in rows] == expect


def test_system_route_matches_heun_route(a2_audit):
    # a recurrence instance with the Heun lags audits as the heun one does
    lags = heun_recurrence(HeunParams(2, 1, 1, 1, 1, 1)).lags
    block = {"lags": [{"num": list(map(str, fn.num.coeffs)), "den": list(map(str, fn.den.coeffs))}
                      for fn in lags]}
    document, rows = run_system_audit(parse_instance({"recurrence": block}).system)
    base_doc, base_rows = a2_audit
    expect = dict(base_doc)
    expect["root"] = None
    assert document == expect
    assert rows == base_rows


def test_determinism(a2_audit):
    params = HeunParams(2, 1, 1, 1, 1, 1)
    document, _ = run_system_audit(heun_recurrence(params), root_echo=F(0))
    assert document_bytes(document) == document_bytes(a2_audit[0])


def test_int_root_renders_like_a_fraction(a2_audit):
    params = HeunParams(2, 1, 1, 1, 1, 1)
    document, _ = run_system_audit(heun_recurrence(params), root_echo=0)
    assert document["root"] == "0"
    assert document_bytes(document) == document_bytes(a2_audit[0])


def test_audit_needs_rational_input():
    with pytest.raises(InputError):
        run_system_audit(heun_recurrence(HeunParams(mp.mpf(2), 1, 1, 1, 1, 1)))
    params = HeunParams(2, 1, 1, 1, 1, 1)
    with pytest.raises(InputError):
        run_system_audit(heun_recurrence(params, mp.mpf(0)))


def test_audit_depth_is_capped():
    params = HeunParams(2, 1, 1, 1, 1, 1)
    with pytest.raises(TruncationTooLarge):
        run_system_audit(heun_recurrence(params), M=AUDIT_DEPTH_CAP + 1)


def test_audit_rejects_out_of_hypothesis_systems():
    params = HeunParams(-1, 1, 1, 1, 1, 1)
    with pytest.raises(DegreeMismatch):
        run_system_audit(heun_recurrence(params))


def test_audit_echoes_instance(a2_audit):
    params = HeunParams(2, 1, 1, 1, 1, 1)
    echo = {"heun": {"a": "2"}}
    document, _ = run_system_audit(heun_recurrence(params), instance_echo=echo)
    assert document["instance"] == echo
    assert a2_audit[0]["instance"] == {}


# sha256 of the proof-audit JSON and CSV, recorded before the audit stages were
# sped up (running z-power product, integer-cleared Horner, memoized modulus
# factors, shared loggamma base).  Speedups must not move a rendered digit;
# a deliberate document change (a new field, a version bump) updates these.
# Re-recorded at 0.2.0: the JSON differs from 0.1.0's only in version and in
# reverification.min_margin_lag*, now exact minima; the CSVs are unchanged.
# CSVs re-recorded when the exact trace moved onto the integer stepper: only
# log_mag changed, in its last digits (at most 1.2e-13 here), as it is now
# read from the mantissa and exponent of the correctly rounded term instead
# of log(p) - log(q), whose cancellation cost up to 1.2e-13 against a 400-bit
# reference; the JSONs are unchanged.
# JSONs re-recorded at 0.2.1, when as_mp began to round a Fraction once,
# correctly: both differ only in version, and the sample also in
# rearrangement.regroup_abs_diff (1.38178696881511114006181629805e-75 became
# 1.65814436257813336807417955766e-75), whose direct sum now rounds each
# exact majorant c_j once; the CSVs are unchanged.
# JSONs re-recorded at 0.2.2, when the path tables moved onto the stepper's
# integers and the mp grouped sum began to round each normalized coefficient
# and both limits once, to nearest, instead of toward zero through mpmath's
# mpq: both differ only in version, and the sample also in
# rearrangement.regroup_abs_diff (1.65814436257813336807417955766e-75 became
# 1.93450175634115559608654281727e-75); the CSVs are unchanged.
# JSONs re-recorded at 0.3.0, when the r* cross-check became an exact
# bracket: both differ only in version and in boundary.closed_vs_bisect_diff
# ("0.0"), replaced by boundary.r_star_bracketed (true); the CSVs are
# unchanged.
GOLDEN_AUDITS = {
    # the a=2 worked sample, h2 = 3
    "sample": (
        '{"heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1", '
        '"gamma": "1", "delta": "1", "lambda": "0"}, "precision": "exact"}',
        "b0700cd1fe26c1f48530e08592430dbc7d52a67cf983a9057c770b19ea061b67",
        "d5d0fa604ffe6a59897db80c2fea111d15d274b3ec4bc3963a06274711242f61",
    ),
    # PROBE_POOL instance (2, 0, 2, 2, 1, 1), h2 = 1
    "pool06": (
        '{"heun": {"a": "2", "q": "0", "alpha": "2", "beta": "2", '
        '"gamma": "1", "delta": "1", "lambda": "0"}}',
        "c7669a9ce6f93ed2b6c4d568b1fa367d4421a4a4b6e49c119d1a7fe40b9c044b",
        "fb8c5f87ba2adc037bb8972763540e7cdde8f26d74564c20e369932fb40cb9e8",
    ),
    # recorded at 0.3.0, before the audit's floating work moved onto raw mpf
    # values: both exponents, even and odd h2, both minorant regimes
    "even_root0": (  # h2 = 2
        '{"heun": {"a": "-3", "q": "1", "alpha": "3/5", "beta": "3/2", '
        '"gamma": "3/4", "delta": "-1/4", "lambda": "0"}}',
        "9ee8c7b491cb38c86e261b55b2dd67b8a949aab34923b8a9beb52f4534be3578",
        "fe5ba21b2263cd052a3c38424590486b4f031ce3740b55af43e44b2e30b4af82",
    ),
    "even_root1": (  # h2 = 2
        '{"heun": {"a": "-3", "q": "1", "alpha": "3/5", "beta": "3/2", '
        '"gamma": "3/4", "delta": "-1/4", "lambda": "1/4"}}',
        "143d6a05c8be955fc73aa0ce677931dd6ca67c8ccde582a3036bc0bcff05024f",
        "c1b8ce6bcd1ef4b2a483bbbe43871e344163ad7524a13a8cbdbd438430ab3970",
    ),
    "h4_root1": (
        '{"heun": {"a": "3", "q": "1/2", "alpha": "-3/5", "beta": "-2/5", '
        '"gamma": "-1/5", "delta": "-1/3", "lambda": "6/5"}}',
        "fc716ab3262fb2914619f9b1e3add07837ebee0046cf5b67e35290688ff0b2a1",
        "bf24a8cd66461bf1ecbcf0eec655ae467d0a389836adaf52a7072979f5aeacd1",
    ),
    "odd_root1": (  # h2 = 3
        '{"heun": {"a": "-2", "q": "-6/5", "alpha": "1/2", "beta": "-1/4", '
        '"gamma": "-3/4", "delta": "1", "lambda": "7/4"}}',
        "d2c4bd67653a3cbe32c75aa618340d8b60299d8e90a2643b89c798cb2ab782a5",
        "97f49d8dac49eedbdff7db1af5d37b673373c5ac414759197b8fae35e2b5ad37",
    ),
    "h5_root0": (
        '{"heun": {"a": "4", "q": "-3/8", "alpha": "0", "beta": "-6/5", '
        '"gamma": "1/4", "delta": "2/5", "lambda": "0"}}',
        "cbb365a5b8f249d3ce70dfcd273ca23f36795b14323f1d4c691ad3fa93a7162d",
        "93d466056880362420d933ecf8f50fe625d8d97e91c57bda584a6633f2b43525",
    ),
    "h7_root1": (
        '{"heun": {"a": "1/2", "q": "-3/4", "alpha": "-2/3", "beta": "-3/2", '
        '"gamma": "5/4", "delta": "1/4", "lambda": "-1/4"}}',
        "f3bb37b3552ddcdcc7247e54312a7c21055e8a13b482b4b21b342847835239b9",
        "8cbefe4439733cc24fd86e9fa488d534d9bcd8624e0361df16c0384d84e25a5b",
    ),
    "summable_even": (  # h2 = 2, with a closed-route value
        '{"heun": {"a": "7/3", "q": "1/4", "alpha": "-1/2", "beta": "1/3", '
        '"gamma": "-5/4", "delta": "5/6", "lambda": "9/4"}, "analysis": {"eps": "1/3"}}',
        "3a1f4d540edf9529271f0c0a908139c57f19f0b66a19cd5c0516ebde57f5f3fc",
        "d66818229f1b3bd7b9d1b7df5f2760a703997d14d438db9687db19b9127d68b2",
    ),
    "summable_odd": (  # h2 = 3, with a closed-route value
        '{"heun": {"a": "-5/2", "q": "6/5", "alpha": "3/8", "beta": "-5/8", '
        '"gamma": "-2/5", "delta": "1/4", "lambda": "0"}, "analysis": {"eps": "1/2"}}',
        "ecc1721c15158668e9f9f6f9a59720a04b0b642dbe88795445f4ea8d31b09d35",
        "620d6911cd1f2ba43ccd084e5ad1c9215019534c7e7ace4b53377a8664d27233",
    ),
    # its domination window holds ~10^5-bit integers
    "wide": (
        '{"heun": {"a": "21/11", "q": "2", "alpha": "-33/7' + "0" * 81 + '", "beta": "0", '
        '"gamma": "1/1875' + "0" * 80 + '", "delta": "1", "lambda": "0"}}',
        "fa1cb7511817fc6d5dfda63dd0142a165fac451626051f6141740a85bfce517b",
        "2e03d7aa21451b07f643385f05c23ba664db166ccea0a721229eecdbe7245fee",
    ),
}


@pytest.mark.parametrize("stem", sorted(GOLDEN_AUDITS))
def test_audit_documents_golden_bytes(stem, tmp_path, capsys):
    text, json_sha, csv_sha = GOLDEN_AUDITS[stem]
    instance = tmp_path / f"{stem}.json"
    instance.write_text(text)
    out = tmp_path / "out"
    code = cli_main(["proof-audit", str(instance), "--out", str(out),
                     "--n-check", "100000"])
    assert code == 0, capsys.readouterr().err
    digest = lambda suffix: hashlib.sha256(
        (out / f"{stem}.proof-audit.{suffix}").read_bytes()).hexdigest()
    assert (digest("json"), digest("csv")) == (json_sha, csv_sha)


def test_ratio_floor_at_an_exact_tie_from_the_cli(tmp_path, capsys):
    # h2 = 2 and x1 = 203 on row r = 1, i2r = 2: lhs = rhs = 1/2 at index
    # 203, so the strict bound first holds at 204
    instance = tmp_path / "tie.json"
    instance.write_text('{"heun": {"a": "-2", "q": "-1/8", "alpha": "1", "beta": "3/4", '
                        '"gamma": "3/5", "delta": "1/6", "lambda": "0"}}')
    assert cli_main(["proof-audit", str(instance)]) == 0
    outputs = json.loads(capsys.readouterr().out)
    assert (outputs["constants"]["N"], outputs["constants"]["h_lag2"]) == (401, 2)
    row = next(r for r in outputs["ratio_bound"] if (r["r"], r["i2r"]) == (1, 2))
    assert (row["floor"], row["holds"], row["sharp_below"]) == (204, True, True)


def test_wide_rational_instance_audits_exactly():
    # the trace's exact pass rounds ~10^5-bit integers; the domination lemma
    # steps only the window's own coefficients
    params = HeunParams(F(21, 11), 2, F(-33, 7 * 10 ** 81), 0, F(1, 1875 * 10 ** 80), 1)
    document, _ = run_system_audit(heun_recurrence(params))
    assert document["domination"]["precision"] == "exact"
    assert document["verdicts"]["overall"] is True


# trace CSVs recorded before the domination bound moved onto the majorant
# lemma; N + M crosses audit.EXACT_TRACE_CAP between 1/1650 and 1/1700, so
# the first trace is rounded from exact values and the others come from the
# 256-bit stream
@pytest.mark.parametrize("params, eps, N, csv_sha", [
    (HeunParams(2, 1, 1, 1, 1, 1), F(1, 1650), 4951,
     "1810637dd6690910c20e071a387e5e30db42d543c390a461d632001922f0a8e5"),
    (HeunParams(2, 1, 1, 1, 1, 1), F(1, 1700), 5101,
     "b02ede4ae0911628016efa6f6e5b2e2118851f179f0ae6b422936537b70ad54e"),
    # the floating bound's slack once let this pass with min_margin -4.9e-91
    (HeunParams(-2, F(1, 8), F(2, 3), F(-1, 6), F(-5, 4), -1), F(1, 1650), 13201,
     "b6a525fcfb0f87da52d1e69395359166950564232a5e62356723b551af21368b"),
])
def test_domination_is_exact_on_both_sides_of_the_trace_cap(params, eps, N, csv_sha):
    document, rows = run_system_audit(heun_recurrence(params), eps=eps)
    M = document["options"]["M"]
    assert (N + M <= audit.EXACT_TRACE_CAP) is (N == 4951)
    assert document["constants"]["N"] == N
    assert document["domination"]["precision"] == "exact"
    assert document["domination"]["min_margin"] == "0.0"
    assert document["verdicts"]["overall"] is True
    assert len(rows) == N + M + 1
    assert hashlib.sha256(trace_bytes(rows)).hexdigest() == csv_sha


def test_audit_makes_no_fraction_in_the_domination_window(a2_params, monkeypatch):
    made, watching = [], [False]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        if watching[0]:
            made.append(args)
        return original(cls, *args, **kwargs)

    def watched(fn):
        def run(*args, **kwargs):
            watching[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                watching[0] = False
        return run

    monkeypatch.setattr(Fraction, "__new__", counting)
    watched(Fraction)(3, 6)  # the counter sees a construction
    assert made == [(3, 6)]
    made.clear()
    for name in ("_exact_terms", "domination_bounds"):
        monkeypatch.setattr(audit, name, watched(getattr(audit, name)))
    system = heun_recurrence(a2_params)
    system.cleared  # the lags cleared to integers once, before the window
    document, _ = run_system_audit(system)
    assert document["verdicts"]["domination_holds"]
    assert made == []
