"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest bench/test_bench.py

Each workload runs a few ops, one of each kind it has, untraced and traced;
every metric BENCHMARK.json names must come out with its unit, the output
check of every kind of op must run on real outputs and pass, and the checks
must reject wrong ones.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


# the shortest prefix of each op list that holds one op of each kind
SMOKE_OPS = {"audit-pool": 2, "boundary-probe": 2, "series-eval": 4}


def _smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "60", "--trace", str(trace), "--max-ops", str(SMOKE_OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    report, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    checked = dict(item.split("=") for item in
                   next(line for line in report if line.startswith("checked: ")).split()[1:])
    kinds = {op.kind for op in workloads.build(workload, 3, tmp_path, tmp_path)}
    if workload == "series-eval":
        kinds.add("eval-pair")
    assert kinds | {"repeat"} == set(checked)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if not trace:
        for name, unit in run.UNITS.items():
            assert any(line.startswith(f"metric {name} ") for line in report), name
            if name in result["metrics"]:
                assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith("env {") for line in report)


def _payload(outputs: dict, **top) -> bytes:
    return json.dumps({"outputs": outputs, **top}).encode()


def test_checks_reject_wrong_outputs(tmp_path):
    audit = workloads.Op([], "proof-audit")
    assert workloads.check(audit, 0, json.dumps({"verdicts": {"overall": True}}).encode()) is None
    assert workloads.check(audit, 0, json.dumps({"verdicts": {"overall": False}}).encode())
    assert workloads.check(audit, 3, b"", "bad input")

    gauss = workloads.Op([], "gauss", {"s": Fraction(1, 2)})
    assert workloads.check(gauss, 0, _payload({"verdict": "ABS_CONVERGENT"})) is None
    assert workloads.check(gauss, 0, _payload({"verdict": "DIVERGENT"}))

    domain = workloads.Op([], "domain")
    good = {"eta_plus_z": "1.0", "membership": {"inside": True}}
    assert workloads.check(domain, 0, _payload(good)) is None
    assert workloads.check(domain, 0, _payload({**good, "eta_plus_z": "0.9999999"}))

    exact = _payload({"value": "1/3", "tol": "1/1000000000000000000000000000000"})
    close = _payload({"value": "0.333333333333333333333333333333"})
    assert workloads.check_eval_pair(exact, close) is None
    assert workloads.check_eval_pair(exact, _payload({"value": "0.3333333"}))

    csv_path = tmp_path / "t.csv"
    csv_path.write_text("n,value_re,value_im,log_mag,term_at_r,partial_sum\n0,1.0,0.0,0.0,1.0,1.0\n")
    probe = workloads.Op([], "boundary", {"which": "modulus", "scale": "1", "csv": csv_path})
    doc = {"verdict": "diverges-empirically", "n_terms": 2048, "stride": 2048}
    assert workloads.check(probe, 0, _payload(doc)) is None
    assert workloads.check(probe, 0, _payload({**doc, "verdict": "converges-empirically"}))


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_same_seed_gives_same_instances(tmp_path, name):
    built = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        ops = workloads.build(name, 7, tmp_path / d, tmp_path / "out")
        files = sorted((tmp_path / d).iterdir())
        built.append(([op.kind for op in ops], [(f.name, f.read_bytes()) for f in files]))
    assert built[0] == built[1]


# series-eval keeps its exact-tier points below workloads.EXACT_REACH until
# this passes; then the mark goes and the exact tier reaches EVAL_REACH
@pytest.mark.xfail(strict=True, reason="exact eval near r* exits 3: the exact value "
                   "has more than 4300 digits, Python's int-to-str limit (see NOTES.md)")
def test_exact_eval_near_the_boundary(tmp_path):
    from heunlab.cli import main

    params = (Fraction(-1, 2), 1, 1, 1, 1, 1)
    path = workloads.write_instance(tmp_path / "slow.json", params)
    x = Fraction(round(1000 * workloads.EVAL_REACH * workloads.r_star(params)), 1000)
    code = main(["eval", str(path), f"--x={x}", "--precision", "exact", "--out", str(tmp_path)])
    assert code == 0
