"""Command-line behavior: documents, exit codes, traces, fan-out."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import heunlab
import heunlab.cli as cli
import heunlab.probes as probes
from heunlab.cli import main

F = Fraction

A2_JSON = ('{"heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1", '
           '"gamma": "1", "delta": "1", "lambda": "0"}, '
           '"analysis": {"x": "1/10"}, "precision": "exact"}')

REC_JSON = ('{"recurrence": {"k": 2, "lags": ['
            '{"num": ["1", "3", "3/2"], "den": ["2", "3", "1"]}, '
            '{"num": ["-1/4", "-1", "-1/2"], "den": ["2", "3", "1"]}]}}')


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(A2_JSON)
    return path


@pytest.fixture()
def rec_file(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text(REC_JSON)
    return path


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_doc(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_eval_document(a2_file, capsys):
    doc = run_doc(capsys, ["eval", str(a2_file)])
    assert doc["command"] == "eval"
    assert doc["precision"] == "exact"
    out = doc["outputs"]
    assert out["n_used"] == 32
    assert out["converged"] and out["inside"] and not out["forced"]
    assert abs(float(F(out["value"])) - 1.0533616862337971) < 1e-12
    assert out["x"] == "1/10"
    assert out["r_star"].startswith("0.561552812808830274910")
    assert float(F(out["membership_sum"])) == pytest.approx(0.155)


def test_eval_origin(a2_file, capsys):
    doc = run_doc(capsys, ["eval", str(a2_file), "--x", "0"])
    assert doc["outputs"]["value"] == "1"


def test_eval_outside_domain_exits_2(a2_file, capsys):
    code, out, err = run(capsys, ["eval", str(a2_file), "--x", "9/10"])
    assert code == 2
    assert out == ""
    assert "membership sum" in err and "force" in err


@pytest.mark.parametrize("precision", ["exact", "64"])
def test_eval_huge_point_exits_2(a2_file, capsys, precision):
    # the membership sum is about 1e800, past float64 range
    code, out, err = run(capsys, ["eval", str(a2_file), "--x", "1e400",
                                  "--precision", precision])
    assert code == 2 and out == ""
    assert err.startswith("heunlab: membership sum 5.0e+799 >= 1") and err.count("\n") == 1


def test_eval_far_mpf_point_shows_a_finite_sum(a2_file, capsys):
    # float() of the 64-bit membership sum is inf; the message falls back to mpmath
    code, out, err = run(capsys, ["eval", str(a2_file), "--x", "1e100000000",
                                  "--precision", "64"])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("heunlab: membership sum 5.0e+199999999 >= 1") and "inf" not in err


@pytest.mark.parametrize("precision", ["exact", "64"])
def test_eval_point_past_the_exponent_limit_exits_2(a2_file, capsys, precision):
    # read as an mpf: Fraction would build 10^(10^8) for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", str(a2_file), "--x", "1e100000000",
                                  "--precision", precision])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "") and "membership sum" in err


def test_instance_number_past_the_exponent_limit_exits_3(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(A2_JSON.replace('"q": "1"', '"q": "1e100000000"'))
    start = time.perf_counter()
    code, out, err = run(capsys, ["eval", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and "heun.q" in err


def test_eval_huge_exponent_exits_3(tmp_path, capsys):
    # lambda = 1 - gamma = 10^400 + 1: the exact tier would build x^lambda
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"heun": {
        "a": "2", "q": "1", "alpha": "1", "beta": "1", "gamma": "-1" + "0" * 400,
        "delta": "1", "lambda": "1" + "0" * 399 + "1"}}))
    code, out, err = run(capsys, ["eval", str(path), "--x", "1/10", "--precision", "exact"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "use a bit precision" in err
    doc = run_doc(capsys, ["eval", str(path), "--x", "1/10", "--precision", "64"])
    assert doc["outputs"]["converged"]


@pytest.mark.parametrize("precision", ["256", "exact"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_eval_without_terms_exits_3(a2_file, capsys, precision, n_max):
    # an empty partial sum is no value
    code, out, err = run(capsys, ["eval", str(a2_file), f"--n-max={n_max}",
                                  "--precision", precision])
    assert (code, out) == (3, "")
    assert f"n_max {n_max} must be at least 1" in err and err.count("\n") == 1
    doc = run_doc(capsys, ["eval", str(a2_file), "--n-max", "1", "--precision", precision])
    assert doc["outputs"]["n_used"] == 1 and doc["outputs"]["value"] in ("1", "1.0")


@pytest.mark.parametrize("argv", [
    ["eval", "--x=nan", "--force"], ["eval", "--x=inf"], ["eval", "--x=1e400j", "--force"],
    ["domain", "--x=nan"], ["domain", "--x=inf"], ["domain", "--x=nanj"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_points_exit_3(a2_file, capsys, argv):
    code, out, err = run(capsys, [argv[0], str(a2_file), *argv[1:], "--precision", "64"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "not a finite number" in err


def test_eval_force(a2_file, capsys):
    doc = run_doc(capsys, ["eval", str(a2_file), "--x", "9/10", "--force",
                           "--precision", "128"])
    out = doc["outputs"]
    assert out["forced"] and not out["inside"]
    assert float(out["value"]) == pytest.approx(2.3527158167797426)


def test_eval_needs_a_point(tmp_path, capsys):
    path = tmp_path / "nopoint.json"
    path.write_text(A2_JSON.replace('"analysis": {"x": "1/10"}, ', ""))
    code, _, err = run(capsys, ["eval", str(path)])
    assert code == 3
    assert "analysis.x" in err


def test_eval_rejects_recurrence_instance(rec_file, capsys):
    code, _, err = run(capsys, ["eval", str(rec_file), "--x", "1/10"])
    assert code == 3
    assert "heun block" in err


def test_domain_document(a2_file, capsys):
    doc = run_doc(capsys, ["domain", str(a2_file), "--x", "1/2"])
    out = doc["outputs"]
    assert out["limits"] == ["3/2", "-1/2"]
    assert float(out["r_star"]) == pytest.approx(0.5615528128088303)
    assert float(out["eta"]) == pytest.approx(0.8423292192132454)
    assert float(out["z"]) == pytest.approx(0.1576707807867546)
    assert float(out["eta_plus_z"]) == pytest.approx(1.0, abs=1e-25)
    assert out["membership"]["inside"]
    assert float(out["membership"]["sum"]) == pytest.approx(0.875)


def test_domain_inside_is_exact_for_a_rational_x(a2_file, capsys):
    # k / 2^300 < r* < (k + 1) / 2^300 for the sample's r* = (sqrt(17) - 3)/2;
    # the two points share one 53-bit sum, and inside still tells them apart
    k = math.isqrt(17 * 4 ** 300) - 3 * 2 ** 300
    k //= 2
    seen = []
    for x in (F(k, 2 ** 300), F(k + 1, 2 ** 300)):
        doc = run_doc(capsys, ["domain", str(a2_file), f"--x={x}", "--precision", "53"])
        seen.append((doc["outputs"]["membership"]["sum"], doc["outputs"]["membership"]["inside"]))
    assert seen[0][0] == seen[1][0]
    assert [inside for _, inside in seen] == [True, False]


@pytest.mark.parametrize("bits, total", [
    ("53", "0.9375"),
    ("64", "0.937500000000000023906657903305"),
])
def test_eval_and_domain_share_the_membership_sum(tmp_path, capsys, bits, total):
    # a = 5/11 at a complex point; eval once summed in its own order and
    # printed 0.937499999999999888977697537484 at 53 bits
    path = tmp_path / "a511.json"
    path.write_text(A2_JSON.replace('"a": "2"', '"a": "5/11"'))
    argv = [str(path), "--x=0.2-0.15j", "--precision", bits]
    evaluated = run_doc(capsys, ["eval", *argv])["outputs"]
    judged = run_doc(capsys, ["domain", *argv])["outputs"]["membership"]
    assert evaluated["membership_sum"] == judged["sum"] == total
    assert evaluated["inside"] is judged["inside"] is True


@pytest.mark.parametrize("command", ["domain", "classify", "boundary", "proof-audit"])
def test_growing_lag_exits_3(tmp_path, capsys, command):
    path = tmp_path / "grow.json"
    path.write_text('{"recurrence": {"lags": [{"num": ["0", "0", "1"], "den": ["1", "1"]}, '
                    '{"num": ["1"], "den": ["2"]}]}}')
    code, out, err = run(capsys, [command, str(path)])
    assert code == 3 and out == ""
    assert err == "heunlab: lag coefficient grows without bound in n\n"


def test_domain_works_for_recurrence_kind(rec_file, capsys):
    doc = run_doc(capsys, ["domain", str(rec_file)])
    assert doc["outputs"]["limits"] == ["3/2", "-1/2"]


@pytest.mark.parametrize("lags", [
    '[{"num": ["1/2"], "den": ["1"]}]',
    '[{"num": ["1/2"], "den": ["1"]}, {"num": ["1/4"], "den": ["1"]}, '
    '{"num": ["1/8"], "den": ["1"]}]',
])
def test_domain_needs_three_terms(tmp_path, capsys, lags):
    path = tmp_path / "k.json"
    path.write_text('{"recurrence": {"lags": %s}}' % lags)
    code, out, err = run(capsys, ["domain", str(path)])
    assert code == 3 and out == ""
    assert "three-term" in err and err.count("\n") == 1


def test_classify_document(a2_file, capsys):
    doc = run_doc(capsys, ["classify", str(a2_file)])
    out = doc["outputs"]
    assert out["case"] == "CASE1"
    assert out["h_labels"] == ["h1", "h2"]
    assert out["lag1"] == {"num_sub": "1", "den_sub": "2", "strictly_less": True}
    assert out["lag2"]["num_sub"] == "0" and out["lag2"]["strictly_less"]


def test_classify_degenerate_exits_3(tmp_path, capsys):
    path = tmp_path / "deg.json"
    path.write_text(A2_JSON.replace('"a": "2"', '"a": "-1"'))
    code, _, err = run(capsys, ["classify", str(path)])
    assert code == 3


def test_boundary_converging_probe(a2_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    doc = run_doc(capsys, ["boundary", str(a2_file), "--n-max", "16384",
                           "--radius-scale", "9/10", "--out", str(out_dir)])
    out = doc["outputs"]
    assert out["which"] == "modulus"
    assert out["verdict"] == "converges-empirically"
    assert out["r"] == pytest.approx(0.9 * 0.5615528128088303)
    assert doc["trace_files"] == ["a2.boundary.csv"]
    csv_text = (out_dir / "a2.boundary.csv").read_text()
    assert csv_text.splitlines()[0] == "n,value_re,value_im,log_mag,term_at_r,partial_sum"
    assert (out_dir / "a2.boundary.json").exists()


def test_boundary_diverging_probe(a2_file, capsys):
    doc = run_doc(capsys, ["boundary", str(a2_file), "--n-max", "16384",
                           "--radius", "2"])
    assert doc["outputs"]["verdict"] == "diverges-empirically"
    assert doc["outputs"]["r"] == 2.0


def test_boundary_signed_channel(a2_file, capsys):
    doc = run_doc(capsys, ["boundary", str(a2_file), "--n-max", "16384",
                           "--which", "signed"])
    assert doc["outputs"]["offset"] == 0
    assert len(doc["outputs"]["gaps"]) == 4


def test_boundary_overflowing_coefficient_exits_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"recurrence": {"lags": [{"num": ["1e400", "1"], "den": ["1", "1"]}, '
                    '{"num": ["1"], "den": ["4"]}]}}')
    code, _, err = run(capsys, ["boundary", str(path), "--n-max", "4096"])
    assert code == 3
    assert err.count("\n") == 1 and "float64" in err


def test_boundary_pole_cluster_far_out_exits_3(tmp_path, capsys):
    # lag-2 denominator (n - 10^6)(n - 10^6 - 1)(n - 10^6 - 2): the probe
    # would reach the poles, so the instance is refused before any streaming
    m = 10 ** 6
    den = [-m * (m + 1) * (m + 2), 3 * m * m + 6 * m + 2, -3 * m - 3, 1]
    lags = [{"num": ["1"], "den": ["1"]},
            {"num": ["-1/4", "0", "0", "1"], "den": [str(c) for c in den]}]
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({"recurrence": {"k": 2, "lags": lags}}))
    code, out, err = run(capsys, ["boundary", str(path), "--which", "signed",
                                  "--n-max", "2097152"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and f"pole at n = {m}" in err


def test_boundary_huge_radius(a2_file, capsys):
    # r * r overflows float64 here; the transfer matrices must not
    doc = run_doc(capsys, ["boundary", str(a2_file), "--n-max", "8192",
                           "--radius", "1e200"])
    out = doc["outputs"]
    assert out["verdict"] == "diverges-empirically"
    assert len(out["term_log_mags"]) == 4
    assert all(math.isfinite(v) for v in out["term_log_mags"])


@pytest.mark.parametrize("flag", ["--radius=-1", "--radius=0", "--radius=1e400",
                                  "--radius-scale=1e400", "--stride=0", "--n-max=100",
                                  "--offset=-1", "--offset=9007199254740992",
                                  "--offset=" + "9" * 401])
def test_boundary_rejects_probe_arguments_before_streaming(a2_file, capsys,
                                                           monkeypatch, flag):
    def no_streaming(*args):
        raise AssertionError("streamed before the arguments were checked")

    monkeypatch.setattr(probes, "_scan_chunk", no_streaming)
    code, _, err = run(capsys, ["boundary", str(a2_file), flag])
    assert code == 3
    assert err.startswith("heunlab: ") and err.count("\n") == 1


def test_boundary_refuses_an_unknown_channel_before_writing(tmp_path, capsys):
    doc = json.loads(A2_JSON)
    doc["analysis"]["which"] = "both"
    out_dir = tmp_path / "out"
    path = write_json(tmp_path / "both.json", doc)
    code, out, err = run(capsys, ["boundary", str(path), "--n-max", "4096",
                                  "--out", str(out_dir)])
    assert (code, out) == (3, "")
    assert "'both'" in err and err.count("\n") == 1
    assert not out_dir.exists()  # neither the CSV nor the document


def test_gauss_convergent(capsys, tmp_path):
    out_dir = tmp_path / "g"
    doc = run_doc(capsys, ["gauss", "1/2", "1/2", "2",
                           "--n-max", "65536", "--out", str(out_dir)])
    assert doc["command"] == "gauss"
    assert doc["precision"] == "float64"
    assert doc["outputs"]["verdict"] == "ABS_CONVERGENT"
    assert doc["outputs"]["trend"] == "shrinking"
    assert (out_dir / "gauss.json").read_bytes() == (json.dumps(doc, sort_keys=True,
                                                                indent=2) + "\n").encode()


def test_gauss_divergent(capsys):
    doc = run_doc(capsys, ["gauss", "1/2", "1/2", "1", "--n-max", "65536"])
    assert doc["outputs"]["verdict"] == "DIVERGENT"
    assert doc["outputs"]["s"] == 0.0


def test_gauss_bad_c_exits_3(capsys):
    code, _, err = run(capsys, ["gauss", "1/2", "1/2", "0"])
    assert code == 3


@pytest.mark.parametrize("args", [("1e400", "1", "1"), ("1", "-1e400", "1"), ("1", "1", "1e400")],
                         ids=["a", "b", "c"])
def test_gauss_parameter_past_float64_exits_3(args, capsys):
    code, out, err = run(capsys, ["gauss", *args, "--n-max", "4096"])
    assert code == 3 and out == ""
    assert "gauss parameter does not fit in float64" in err and "Traceback" not in err


def test_gauss_parameter_rounding_onto_a_pole_exits_3(capsys):
    # c = 10^-400 rounds to 0.0, the pole that an exact c = 0 is refused for
    code, out, err = run(capsys, ["gauss", "1", "1", "1e-400", "--n-max", "4096"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gauss_terminating_trend_is_flat(capsys):
    out = run_doc(capsys, ["gauss", "0", "1", "1", "--n-max", "8192"])["outputs"]
    assert set(out["gaps"]) == {0.0}
    assert out["gap_ratios"] == ["nan", "nan"] and out["trend"] == "flat"


def test_gauss_overflowing_partial_sums_read_growing(capsys):
    # the partial sums leave float64 range after the first checkpoint: the
    # gaps read inf, then inf - inf = nan, and that is growth, not a flat trend
    out = run_doc(capsys, ["gauss", "201/2", "201/2", "1/2"])["outputs"]
    assert out["gaps"] == ["inf"] + ["nan"] * 9
    assert out["gap_ratios"] == ["inf"] * 9 and out["trend"] == "growing"
    assert out["verdict"] == "DIVERGENT"
    # a zero gap after a zero gap is still no trend
    out = run_doc(capsys, ["gauss", "-3", "1/2", "2"])["outputs"]
    assert out["terminated"] and set(out["gap_ratios"]) == {"nan"}
    assert out["trend"] == "flat"


# sha256 (first 16 hex digits) of stdout, recorded while every boundary op
# still built its trace rows
BOUNDARY_STDOUT = {(): "d95a93502f749918",
                   ("--which", "signed", "--stride", "100"): "20c9fce65541af23"}


@pytest.mark.parametrize("extra", sorted(BOUNDARY_STDOUT))
def test_boundary_builds_trace_rows_only_for_a_csv(a2_file, tmp_path, capsys, monkeypatch,
                                                   extra):
    strides = []
    scan = cli.term_scan

    def spy(*args):
        strides.append(args[5])
        return scan(*args)

    monkeypatch.setattr(cli, "term_scan", spy)
    code, out, _ = run(capsys, ["boundary", str(a2_file), "--n-max", "16384", *extra])
    assert code == 0 and strides == [None]
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == BOUNDARY_STDOUT[extra]
    assert json.loads(out)["outputs"]["stride"] == (100 if extra else 4)
    run(capsys, ["boundary", str(a2_file), "--n-max", "16384", *extra,
                 "--out", str(tmp_path / "out")])
    assert strides == [None, 100 if extra else 4]


def test_boundary_coefficient_rounding_to_zero_exits_3(tmp_path, capsys):
    # gamma = 10^-400: the lags' shared denominator would read 0.0 at n = 0
    path = tmp_path / "tiny.json"
    path.write_text(A2_JSON.replace('"gamma": "1"', '"gamma": "1e-400"'))
    code, out, err = run(capsys, ["boundary", str(path), "--which", "signed",
                                  "--n-max", "4096"])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "float64" in err


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON value")


def test_gauss_document_with_non_finite_values_is_strict_json(capsys, tmp_path):
    # the terms overflow float64: the sums are infinite, the gaps and fit nan
    out_dir = tmp_path / "g"
    code, out, err = run(capsys, ["gauss", "1e308", "1e308", "1", "--n-max", "4096",
                                  "--out", str(out_dir)])
    assert code == 0, err
    assert out == (out_dir / "gauss.json").read_text()
    outputs = json.loads(out, parse_constant=_reject_constant)["outputs"]
    assert outputs["checkpoints"][-1] == [4096, "inf"]
    assert (outputs["s"], outputs["fitted_exponent"]) == ("-inf", "nan")
    assert outputs["verdict"] == "DIVERGENT"


def test_proof_audit_heun(a2_file, capsys):
    doc = run_doc(capsys, ["proof-audit", str(a2_file), "--n-check", "5000"])
    assert doc["command"] == "proof-audit"
    assert doc["root"] == "0"
    assert doc["constants"]["h_lag1"] == 2 and doc["constants"]["h_lag2"] == 3
    assert doc["constants"]["N"] == 301
    assert doc["verdicts"]["overall"] is True
    assert doc["minorant"]["regime"] == "divergent"


def test_proof_audit_recurrence(rec_file, capsys):
    doc = run_doc(capsys, ["proof-audit", str(rec_file), "--n-check", "5000"])
    assert doc["root"] is None
    assert doc["verdicts"]["overall"] is True


def test_proof_audit_depth_cap_exits_3(a2_file, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("an audit stage ran past the depth cap")

    monkeypatch.setattr(heunlab.audit, "path_table", unreachable)
    monkeypatch.setattr(heunlab.audit, "find_proof_constants", unreachable)
    code, out, err = run(capsys, ["proof-audit", str(a2_file), "--depth", "100000"])
    assert code == 3 and out == ""
    assert "cap is 256" in err and err.count("\n") == 1


def test_proof_audit_forwards_only_the_options_set(tmp_path, capsys, monkeypatch):
    seen = []

    def audit(system, **options):
        seen.append(sorted(options))
        return {}, None

    monkeypatch.setattr(heunlab.cli, "run_system_audit", audit)
    doc = json.loads(A2_JSON)
    doc["analysis"]["minorant-K"] = "1/3"
    path = write_json(tmp_path / "k.json", doc)
    assert run(capsys, ["proof-audit", str(path), "--depth", "5"])[0] == 0
    assert seen == [["K", "M", "instance_echo", "prec", "root_echo"]]


@pytest.mark.parametrize("depth", ["-1", "0"])
def test_proof_audit_depth_below_one_exits_3(a2_file, capsys, monkeypatch, depth):
    def unreachable(*args):
        raise AssertionError("an audit stage ran with a depth below 1")

    monkeypatch.setattr(heunlab.audit, "find_proof_constants", unreachable)
    code, out, err = run(capsys, ["proof-audit", str(a2_file), "--depth", depth])
    assert code == 3 and out == ""
    assert f"audit depth {depth} must be at least 1" in err and err.count("\n") == 1


def test_directory_fan_out(tmp_path, capsys):
    (tmp_path / "one.json").write_text(A2_JSON)
    (tmp_path / "two.json").write_text(REC_JSON)
    code, out, err = run(capsys, ["domain", str(tmp_path), "--jobs", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.endswith(": ok") for line in lines)
    assert (tmp_path / "one.domain.json").exists()
    assert (tmp_path / "two.domain.json").exists()


def test_directory_fan_out_clamps_jobs_to_the_files(tmp_path, capsys, monkeypatch):
    # a fork pool starts max_workers processes at once; this one starts none
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(heunlab.cli, "concurrent", SimpleNamespace(
        futures=SimpleNamespace(ProcessPoolExecutor=InlinePool)))
    (tmp_path / "one.json").write_text(A2_JSON)
    (tmp_path / "two.json").write_text(REC_JSON)
    code, out, _ = run(capsys, ["domain", str(tmp_path), "--jobs", "5000"])
    assert code == 0 and workers == [2]
    assert [line.endswith(": ok") for line in out.strip().splitlines()] == [True, True]
    single = tmp_path / "single"
    single.mkdir()
    (single / "one.json").write_text(A2_JSON)
    code, out, _ = run(capsys, ["domain", str(single), "--jobs", "5000"])
    assert code == 0 and workers == [2]  # one file runs inline, without a pool
    assert out.strip().endswith("one.json: ok")


def test_directory_fan_out_reports_failures(tmp_path, capsys):
    (tmp_path / "good.json").write_text(A2_JSON)
    (tmp_path / "bad.json").write_text("{broken")
    code, out, _ = run(capsys, ["domain", str(tmp_path)])
    assert code == 3
    lines = out.strip().splitlines()
    assert any("exit 3" in line for line in lines)
    assert any(line.endswith(": ok") for line in lines)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


INTEGER_FIELDS = [("eval", "n-max"), ("boundary", "n-max"), ("boundary", "stride"),
                  ("boundary", "offset"), ("proof-audit", "depth"),
                  ("proof-audit", "n-check"), ("proof-audit", "minorant-m"),
                  ("proof-audit", "j-max"), ("proof-audit", "k-max"),
                  ("proof-audit", "enum-depth")]


@pytest.mark.parametrize("value", [None, [3], {"n": 3}, True, 3.5, "three"], ids=repr)
@pytest.mark.parametrize("command, field", INTEGER_FIELDS)
def test_integer_fields_refuse_other_json_values(tmp_path, capsys, command, field, value):
    doc = json.loads(A2_JSON)
    doc["analysis"][field] = value
    path = write_json(tmp_path / "bad.json", doc)
    code, out, err = run(capsys, [command, str(path)])
    assert (code, out) == (3, "")
    assert f"analysis.{field}: expected an integer" in err and err.count("\n") == 1


def test_integer_fields_read_integer_strings(tmp_path, capsys):
    doc = json.loads(A2_JSON)
    doc["analysis"].update({"n-max": "5", "depth": "3", "enum-depth": "2"})
    path = write_json(tmp_path / "strings.json", doc)
    assert run_doc(capsys, ["eval", str(path)])["outputs"]["n_used"] == 5
    audit = run_doc(capsys, ["proof-audit", str(path), "--n-check", "5000"])
    assert (audit["options"]["M"], audit["options"]["enum_depth"]) == (3, 2)


@pytest.mark.parametrize("k", [None, [2], {"k": 2}, True, "two"], ids=repr)
def test_recurrence_k_must_be_an_integer(tmp_path, capsys, k):
    doc = json.loads(REC_JSON)
    doc["recurrence"]["k"] = k
    code, out, err = run(capsys, ["domain", str(write_json(tmp_path / "rec.json", doc))])
    assert (code, out) == (3, "")
    assert "recurrence.k: expected an integer" in err and err.count("\n") == 1
    doc["recurrence"]["k"] = "2"
    assert run_doc(capsys, ["domain", str(write_json(tmp_path / "rec.json", doc))])


@pytest.mark.parametrize("force, code", [(True, 0), (False, 2), ("no", 3), ("true", 3),
                                         (1, 3), (None, 3)])
def test_force_must_be_a_json_boolean(tmp_path, capsys, force, code):
    doc = json.loads(A2_JSON)
    doc["analysis"].update({"x": "9/10", "force": force})
    path = write_json(tmp_path / "f.json", doc)
    got, out, err = run(capsys, ["eval", str(path), "--precision", "64"])
    assert got == code
    if code == 0:
        assert json.loads(out)["outputs"]["forced"]
    if code == 3:
        assert "analysis.force: expected true or false" in err and err.count("\n") == 1


def test_analysis_keys_no_command_reads_are_refused(tmp_path, capsys):
    doc = json.loads(A2_JSON)
    doc["analysis"]["n-chek"] = "5"
    path = write_json(tmp_path / "typo.json", doc)
    for argv in (["proof-audit", str(path), "--n-check", "5000"], ["eval", str(path)],
                 ["classify", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "'n-chek'" in err and err.count("\n") == 1


def test_analysis_keys_of_other_commands_are_accepted(tmp_path, capsys):
    # one instance file serves every command: eval passes over the audit's
    # and the probe's keys
    doc = json.loads(A2_JSON)
    doc["analysis"].update({"eps": "1/3", "which": "signed", "radius-scale": "1/2"})
    path = write_json(tmp_path / "shared.json", doc)
    assert run_doc(capsys, ["eval", str(path)])["outputs"]["converged"]


def test_exact_value_past_the_digit_limit_exits_3(a2_file, capsys):
    code, out, err = run(capsys, ["eval", str(a2_file), "--x", "1/10",
                                  "--tol", "1e-4300", "--precision", "64"])
    assert (code, out) == (3, "")
    assert "4300 digits" in err and "set_int_max_str_digits" not in err
    assert err.count("\n") == 1


def test_directory_fan_out_reports_a_bad_integer_field(tmp_path, capsys):
    (tmp_path / "one.json").write_text(A2_JSON)
    (tmp_path / "two.json").write_text(REC_JSON)
    bad = json.loads(REC_JSON)
    bad["recurrence"]["k"] = None
    write_json(tmp_path / "bad.json", bad)
    code, out, err = run(capsys, ["domain", str(tmp_path)])
    assert code == 3 and err == ""
    lines = dict(line.rsplit(".json: ", 1) for line in out.strip().splitlines())
    assert {Path(k).name: v for k, v in lines.items()} == {
        "bad": "exit 3: recurrence.k: expected an integer, got None",
        "one": "ok", "two": "ok"}


def test_fan_out_and_single_file_share_exit_codes(tmp_path, capsys):
    # exit 2 for a refused evaluation, 3 for bad input, in both routes
    doc = json.loads(A2_JSON)
    for name, x, code in (("outside", "9/10", 2), ("junk", "nine", 3)):
        doc["analysis"]["x"] = x
        folder = tmp_path / name
        folder.mkdir()
        path = write_json(folder / "one.json", doc)
        assert run(capsys, ["eval", str(path)])[0] == code
        got, out, _ = run(capsys, ["eval", str(folder)])
        assert got == code and f"one.json: exit {code}: " in out


def test_empty_directory_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, ["domain", str(tmp_path)])
    assert code == 3
    assert "no .json" in err


def test_env_precision(tmp_path, capsys, monkeypatch):
    path = tmp_path / "noprec.json"
    path.write_text(A2_JSON.replace(', "precision": "exact"', ""))
    monkeypatch.setenv("HEUNLAB_PRECISION", "128")
    doc = run_doc(capsys, ["domain", str(path)])
    assert doc["precision"] == 128
    monkeypatch.setenv("HEUNLAB_PRECISION", "junk")
    code, _, err = run(capsys, ["domain", str(path)])
    assert code == 3


def test_precision_past_the_cap_exits_3(tmp_path, capsys, monkeypatch):
    # from the flag, the instance and the environment alike: one line, no traceback
    huge = "100000000000"
    path = tmp_path / "huge.json"
    path.write_text(A2_JSON.replace('"precision": "exact"', f'"precision": "{huge}"'))
    plain = tmp_path / "noprec.json"
    plain.write_text(A2_JSON.replace(', "precision": "exact"', ""))
    for argv in (["eval", str(plain), "--x", "1/10", "--precision", huge],
                 ["eval", str(path), "--x", "1/10"]):
        code, _, err = run(capsys, argv)
        assert code == 3 and err.count("\n") == 1 and "Traceback" not in err, err
    monkeypatch.setenv("HEUNLAB_PRECISION", huge)
    code, _, err = run(capsys, ["domain", str(plain)])
    assert code == 3 and err.count("\n") == 1, err


def test_precision_flag_beats_instance(a2_file, capsys):
    doc = run_doc(capsys, ["domain", str(a2_file), "--precision", "96"])
    assert doc["precision"] == 96


def test_bad_flag_exits_3(a2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(a2_file), "--nope"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, ["domain", str(tmp_path / "absent.json")])
    assert code == 3


@pytest.mark.parametrize("point, value", [("-1/5", "-1/5"), ("-2e-1", "-1/5"),
                                          ("-.2", "-1/5"), ("-0.2", "-1/5")])
def test_negative_point_as_separate_argument(a2_file, capsys, point, value):
    # the spaced form reads the same as --x=<point>
    doc = run_doc(capsys, ["eval", str(a2_file), "--x", point])
    assert doc["outputs"]["x"] == value
    assert doc == run_doc(capsys, ["eval", str(a2_file), f"--x={point}"])


def test_negative_complex_point_as_separate_argument(a2_file, capsys):
    doc = run_doc(capsys, ["eval", str(a2_file), "--x", "-0.1-0.2j", "--precision", "64"])
    assert doc["outputs"]["converged"]


def test_negative_gauss_parameters(capsys):
    doc = run_doc(capsys, ["gauss", "-1/2", "1/2", "2", "--n-max", "4096"])
    assert doc["instance"] == {"gauss": {"a": "-1/2", "b": "1/2", "c": "2"}}
    assert run_doc(capsys, ["gauss", "-5e-1", "1/2", "2", "--n-max", "4096"])["outputs"] \
        == doc["outputs"]


def test_unknown_dash_argument_is_still_a_flag(a2_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(a2_file), "--x", "-y"])
    assert exc.value.code == 3
    capsys.readouterr()


def test_main_builds_the_parser_once(a2_file, capsys, monkeypatch):
    import heunlab.cli as cli
    built = []

    def counting():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    run_doc(capsys, ["classify", str(a2_file)])
    run_doc(capsys, ["domain", str(a2_file)])
    assert len(built) == 1


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import heunlab, heunlab.cli\n"
            "assert heunlab.cli._parser is None and not built, built\n")
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr


def run_fresh(code, *args):
    """Run code in a fresh interpreter that imports heunlab from this tree."""
    src = str(Path(heunlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)


# the modules only the float64 probes need
FLOAT64_MODULES = ("numpy", "heunlab.probes")
# the modules of the divergence audit; classify needs proofs and special
AUDIT_MODULES = ("heunlab.audit", "heunlab.proofs", "heunlab.rearrange", "heunlab.special")

STARTUP_PREAMBLE = ("import contextlib, io, sys\n"
                    "def loaded():\n"
                    f"    return [m for m in {FLOAT64_MODULES + AUDIT_MODULES!r} if m in sys.modules]\n"
                    "def run(argv):\n"
                    "    with contextlib.redirect_stdout(io.StringIO()):\n"
                    "        assert main(argv) == 0, argv\n"
                    "import heunlab, heunlab.cli\n"
                    "from heunlab.cli import main\n"
                    "assert not loaded(), loaded()\n"
                    "a2, rec = sys.argv[1:3]\n")


def test_exact_commands_start_without_numpy(a2_file, rec_file):
    code = STARTUP_PREAMBLE + (
        "heunlab.load_instance(a2), heunlab.load_instance(rec)\n"
        "assert not loaded(), ('load_instance', loaded())\n"
        "for argv in (['eval', a2], ['eval', a2, '--precision', '256'],\n"
        "             ['domain', a2], ['domain', rec, '--x', '1/3']):\n"
        "    run(argv)\n"
        "    assert not loaded(), (argv, loaded())\n"
        "for argv in (['classify', a2], ['classify', rec]):\n"
        "    run(argv)\n"
        "    assert loaded() == ['heunlab.proofs', 'heunlab.special'], (argv, loaded())\n"
        "run(['proof-audit', a2, '--n-check', '5000'])\n"
        f"assert loaded() == {list(AUDIT_MODULES)!r}, loaded()\n")
    done = run_fresh(code, a2_file, rec_file)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    "['boundary', a2, '--n-max', '4096']",
    "['gauss', '1/2', '1/3', '5/2', '--n-max', '4096']",
])
def test_float64_commands_load_numpy_on_first_use(a2_file, rec_file, argv):
    code = STARTUP_PREAMBLE + (
        f"run({argv})\n"
        f"assert loaded() == {[*FLOAT64_MODULES, 'heunlab.special']!r}, loaded()\n")
    done = run_fresh(code, a2_file, rec_file)
    assert done.returncode == 0, done.stderr


def test_lazy_modules_resolve_after_a_bare_import():
    code = ("import sys, heunlab\n"
            f"assert not [m for m in {AUDIT_MODULES!r} if m in sys.modules]\n"
            "assert heunlab.audit.run_system_audit is heunlab.run_system_audit\n"
            "assert heunlab.proofs.H_LABELS is heunlab.H_LABELS\n"
            "assert 'classify_case' in dir(heunlab)\n")
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
