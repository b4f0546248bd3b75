"""heunlab benchmark: drive the CLI on seeded instances and report metrics.

    python3 bench/run.py --workload audit-pool --seed 1 --seconds 36 --trace 0

One client runs a closed loop: each op is one ``heunlab`` command, called
in-process through ``heunlab.cli.main`` on one generated instance file with
``--out`` pointing at a scratch directory, and the next op starts when the
previous one returns.  The loop runs for ``--seconds``; every output is then
checked.  Every few seconds, between ops, the loop also times a fixed
reference kernel (reference.py) to gauge the machine's speed during the
run.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries
the per-layer metrics from a traced run over a fixed prefix of the op list
(see tracing.py).  The lines before it report every metric, the
environment, and what each figure is based on.

The program is imported from ``src/`` next to this directory; nothing is
installed.  Scratch files live under ``.bench_work/`` and are removed at the
end, except the span dumps of traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 12  # fresh-interpreter set-ups timed in an untraced run
# setup_s is each set-up divided by a bare interpreter start timed next to it,
# times this nominal bare start (about that of the machine the benchmark was
# tuned on): the host's drift moves both starts alike and cancels
BARE_START_S = 0.055
TAIL_MIN_BEYOND = 10  # samples a tail percentile must have above it
TAIL_MIN_SAMPLES = 40  # with fewer, the tail would sit below p75
REF_EVERY = 1.0  # seconds of loop between two runs of the reference kernel

# what a fresh interpreter does before a user's first op
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import heunlab; "
              "[heunlab.load_instance(p) for p in sys.argv[2:]]")

UNITS = {
    "setup_s": "s", "setup_raw_s": "s", "bare_start_s": "s",
    "wall_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "cpu_s": "s", "cpu_p50_s": "s", "ref_cpu_s": "s",
    "cpu_p50_per_ref": "1", "peak_rss_mb": "MB", "failed_ratio": "1",
}


@dataclass
class Result:
    op: int  # index into the workload's op list
    code: int
    payload: bytes
    error: str
    latency: float
    cpu: float  # user+sys CPU time of the process during the op


@dataclass
class Loop:
    results: list
    wall: float  # without the reference kernel's and set-up's runs
    cpu: float
    ref_cpu: list  # CPU seconds of each run of the reference kernel
    setup: list  # (set-up, bare start) wall seconds of each fresh-interpreter pair


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_op(call, ops, index: int, op_id=None) -> Result:
    """Run ops[index] through call(op_id, argv); only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = call(op_id, ops[index].argv)
        except SystemExit as exc:  # argparse rejects bad command lines this way
            code = exc.code if isinstance(exc.code, int) else 3
        except Exception:  # a crash fails this op, not the whole run
            code = 1
            traceback.print_exc()
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return Result(index, code, out.getvalue().encode("utf-8"), err.getvalue(), latency, cpu)


def closed_loop(ops, call, seconds: float, max_ops: int | None = None, setup=None) -> Loop:
    """Run ops in order, cycling, until `seconds` have passed or `max_ops` ran.

    The op in flight at the deadline finishes, and so does its partner when
    it holds the next op.  Workloads order their pools so that any prefix is
    balanced across strata, so a run that covers only part of its pool still
    samples it evenly.  Between ops, every REF_EVERY seconds, the reference
    kernel runs.  If `setup` is given, it is timed SETUP_RUNS times at even
    intervals through the loop, also between ops, so that its median spans
    the run as the ops do; samples the loop left over are taken at its end.
    The time of both is left out of the loop's wall and CPU time.
    """
    results, ref_cpu, setups = [], [], []
    documents = {}  # op -> its first document
    aside_wall = aside_cpu = 0.0
    start = time.perf_counter()
    cpu_start = time.process_time()
    deadline = start + seconds
    next_ref = next_setup = start
    while True:
        if time.perf_counter() >= next_ref:
            wall, cpu = reference.timed()
            ref_cpu.append(cpu)
            aside_wall, aside_cpu = aside_wall + wall, aside_cpu + cpu
            next_ref = time.perf_counter() + REF_EVERY
        if setup is not None and time.perf_counter() >= next_setup:
            cpu = time.process_time()
            setups.append(setup())
            aside_wall += sum(setups[-1])
            aside_cpu += time.process_time() - cpu
            next_setup += seconds / SETUP_RUNS
        i = len(results)
        r = run_op(call, ops, i % len(ops), i)
        # a repeated document shares the first copy, so that memory does not
        # grow with the number of ops a run gets through
        if documents.setdefault(r.op, r.payload) == r.payload:
            r.payload = documents[r.op]
        results.append(r)
        if ops[i % len(ops)].holds_next:
            continue
        if max_ops is not None and i + 1 >= max_ops:
            break
        if time.perf_counter() >= deadline:
            break
    loop = Loop(results, time.perf_counter() - start - aside_wall,
                time.process_time() - cpu_start - aside_cpu, ref_cpu, setups)
    while setup is not None and len(setups) < SETUP_RUNS:
        setups.append(setup())
    return loop


def find_failures(ops, results, call) -> tuple:
    """(result index -> reason for every op whose output is wrong, checks run).

    The second item counts the checks that ran, by op kind, plus "eval-pair"
    for the exact/256-bit comparisons and "repeat" for the repeated op.
    """
    failures = {}
    first = {}
    checked = Counter()
    for k, r in enumerate(results):
        reason = workloads.check(ops[r.op], r.code, r.payload, r.error)
        checked[ops[r.op].kind] += 1
        if reason is None and r.op in first and first[r.op] != r.payload:
            reason = "document differs from an earlier repetition"
        first.setdefault(r.op, r.payload)
        if reason is None and ops[r.op].holds_next:
            partner = results[k + 1]
            if partner.code == 0:
                reason = workloads.check_eval_pair(r.payload, partner.payload)
                checked["eval-pair"] += 1
        if reason is not None:
            failures[k] = reason
    # documents must be byte-identical across repetitions: repeat the
    # quickest op that passed, so the check costs little on every workload
    passed = [k for k in range(len(results)) if k not in failures]
    if passed:
        k = min(passed, key=lambda j: results[j].latency)
        again = run_op(call, ops, results[k].op)
        checked["repeat"] += 1
        if again.payload != results[k].payload:
            failures[k] = "document differs when the op is repeated"
    return failures, checked


def tail(latencies):
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None, None
    rank = n - TAIL_MIN_BEYOND  # 1-based rank of the sample with 10 above it
    return sorted(latencies)[rank - 1], 100.0 * rank / n


def _time_interpreter(*args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def time_setup(files) -> tuple:
    """Wall seconds of a fresh interpreter that imports heunlab and loads
    `files`, and of a bare one (`-c pass`) started just before it."""
    bare = _time_interpreter("-c", "pass")
    return _time_interpreter("-c", SETUP_CODE, str(SRC), *map(str, files)), bare


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # the ceiling keeps git from taking the commit of a repository above ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
    }


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def per_op(results, field: str) -> dict:
    """`field` of each distinct op: the median over its runs in the loop.

    Counting every op of the pool once keeps the per-op statistics from
    leaning on the ops a partial last pass happened to repeat.
    """
    runs = {}
    for r in results:
        runs.setdefault(r.op, []).append(getattr(r, field))
    return {op: statistics.median(v) for op, v in runs.items()}


def _label(op) -> str:
    argv = op.argv[:op.argv.index("--out")] if "--out" in op.argv else op.argv
    return " ".join(Path(a).name if a.endswith(".json") else a for a in argv)


def end_to_end(ops, loop: Loop, failures: dict) -> dict:
    latencies = per_op(loop.results, "latency")
    cpu_p50 = statistics.median(per_op(loop.results, "cpu").values())
    ref_cpu = statistics.median(loop.ref_cpu)
    n = len(loop.results)
    # the tail is taken over every run, as the client saw them
    tail_value, tail_pct = tail([r.latency for r in loop.results])
    metrics = {
        "setup_s": BARE_START_S * statistics.median(s / b for s, b in loop.setup),
        "setup_raw_s": statistics.median(s for s, _ in loop.setup),
        "bare_start_s": statistics.median(b for _, b in loop.setup),
        "wall_s": loop.wall,
        "ops_per_s": n / loop.wall,
        "latency_p50_s": statistics.median(latencies.values()),
        "latency_tail_s": tail_value,
        "cpu_s": loop.cpu,
        "cpu_p50_s": cpu_p50,
        "ref_cpu_s": ref_cpu,
        "cpu_p50_per_ref": cpu_p50 / ref_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": len(failures) / n,
    }
    notes = {
        "setup_s": (f"median over {len(loop.setup)} fresh interpreters through the run of "
                    f"set-up / bare start, times {BARE_START_S} s"),
        "setup_raw_s": "median of the same set-ups as timed",
        "bare_start_s": "median of the bare starts paired with them",
        "latency_p50_s": f"median over {len(latencies)} distinct ops of each op's median",
        "latency_tail_s": (f"p{tail_pct:.1f} of {n} op runs, {TAIL_MIN_BEYOND} beyond it"
                           if tail_value is not None else
                           f"{n} op runs < {TAIL_MIN_SAMPLES}"),
        "cpu_s": "user+sys of this process over the loop",
        "cpu_p50_s": f"user+sys per op, median over {len(latencies)} distinct ops",
        "ref_cpu_s": f"reference kernel, median of {len(loop.ref_cpu)} runs between ops",
        "cpu_p50_per_ref": "cpu_p50_s / ref_cpu_s",
        "peak_rss_mb": "peak resident set of this process",
        "failed_ratio": f"{len(failures)} failed / {n} attempted",
    }
    for name, value in metrics.items():
        if value is not None:
            report(name, value, UNITS[name], notes.get(name, ""))
        else:
            print(f"metric {name} omitted  ({notes[name]})")
    slowest = sorted(latencies, key=latencies.get, reverse=True)[:3]
    print("slowest ops: " + "; ".join(f"{_label(ops[k])} {latencies[k]:.3f} s" for k in slowest))
    return metrics


def layer_report(tracer, untraced: Loop, traced: Loop) -> dict:
    metrics = tracer.layer_metrics()
    print(f"# per-layer figures are totals over the first {len(traced.results)} ops "
          "of the op list, a set fixed by the seed")
    for name, value in metrics.items():
        report(name, value, tracing.COUNT_METRICS.get(name, "s"))
    terms = metrics["probes.terms"]
    if terms:
        per_term = (metrics["probes.scan_s"] + metrics["probes.trace_s"]) / terms * 1e9
        report("probes.ns_per_term", per_term, "ns", f"base: {terms} float64 terms")
    else:
        print("metric probes.ns_per_term omitted  (no probe terms in this workload)")
    overhead = traced.wall - untraced.wall
    report("tracing.overhead_s", overhead, "s",
           f"traced {traced.wall:.4f} s - untraced {untraced.wall:.4f} s "
           f"over the same {len(traced.results)} ops")
    for name in tracer.missing:
        print(f"note: {name} not found, its layer time reads 0")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (smoke runs)")
    args = parser.parse_args(argv)

    if not (SRC / "heunlab" / "__init__.py").is_file():
        return _fail(f"no heunlab sources at {SRC}")
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {SPEC.name}: {exc}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("HEUNLAB_PRECISION", None)  # documents must not depend on it
    try:
        import heunlab.cli
    except ImportError as exc:
        return _fail(f"cannot import heunlab: {exc}")
    if not Path(heunlab.cli.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported heunlab from {heunlab.cli.__file__}, not from {SRC}")
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inst_dir, out_dir = run_dir / "instances", run_dir / "out"
    inst_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, inst_dir, out_dir)
        print(f"# heunlab bench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} ops_in_pool={len(ops)}")
        print("env " + json.dumps(environment(), sort_keys=True))
        cli_main = heunlab.cli.main
        plain = lambda _, argv: cli_main(argv)  # noqa: E731
        if not args.trace:
            files = sorted(inst_dir.glob("*.json"))
            loop = closed_loop(ops, plain, args.seconds, args.max_ops,
                               setup=lambda: time_setup(files))
            failures, checked = find_failures(ops, loop.results, plain)
            metrics = end_to_end(ops, loop, failures)
            attempted = len(loop.results)
            listed = spec["end_to_end"]
        else:
            # a fixed prefix of the op list twice: untraced for the overhead
            # baseline, then traced; the layer totals are over those ops alone
            count = args.max_ops or workloads.TRACE_OPS.get(args.workload, len(ops))
            untraced = closed_loop(ops, plain, math.inf, count)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                loop = closed_loop(ops, lambda i, argv: tracer.op(i, cli_main, argv),
                                   math.inf, count)
            finally:
                tracer.uninstall()
            failures, checked = find_failures(ops, untraced.results + loop.results, plain)
            metrics = layer_report(tracer, untraced, loop)
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans)
            print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
            attempted = len(untraced.results) + len(loop.results)
            listed = spec["per_layer"]
        print("checked: " + " ".join(f"{kind}={n}" for kind, n in sorted(checked.items())))
        for k, reason in sorted(failures.items()):
            print(f"failed op {k}: {reason}")
        missing = [m["name"] for m in listed if metrics.get(m["name"]) is None]
        if missing:
            return _fail(f"no value for {', '.join(missing)}")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
