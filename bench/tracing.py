"""Spans and counters around the calls into each heunlab module.

Tracing wraps public functions at the module attribute where their caller
looks them up (``heunlab.cli.term_scan``, ``heunlab.audit.find_proof_constants``
and so on), so nothing under ``src/`` changes.  Leaf hot paths such as
``PolynomialInN.__call__`` stay unwrapped: they run tens of thousands of
times per audit and a wrapper there would distort what it measures.

A span is kept in memory as [name, start, end, parent, op]; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path


def _precision_tier(precision) -> str:
    return "exact" if precision == "exact" else "mp"


def _radius_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    limits = args[0]
    bisect = method == "bisect" or (method == "auto" and len(limits) > 2)
    return "convergence.radius_bisect" if bisect else "convergence.radius_closed"


def _stream_name(args, kwargs):
    precision = kwargs.get("precision", args[2] if len(args) > 2 else "exact")
    return f"recurrence.stream_{_precision_tier(precision)}"


def _eval_name(args, kwargs):
    precision = kwargs.get("precision", args[6] if len(args) > 6 else 256)
    return f"heun.eval_{_precision_tier(precision)}"


def _count_rechecked(tracer, result, args, kwargs):
    tracer.count("proofs.sweep_rechecked",
                 result.sweep_lag1.rechecked + result.sweep_lag2.rechecked)


def _count_values(tracer, result, args, kwargs):
    tracer.count("recurrence.terms_streamed", len(result.values))


def _count_eval(tracer, result, args, kwargs):
    tracer.count("heun.eval_terms", result.n_used)
    if isinstance(result.value, Fraction):
        bits = result.value.numerator.bit_length() + result.value.denominator.bit_length()
        tracer.maximum("heun.exact_bits_max", bits)


def _count_probe_terms(tracer, result, args, kwargs):
    n_terms = kwargs.get("n_terms", args[2] if len(args) > 2 else 1 << 20)
    tracer.count("probes.terms", n_terms)


def _count_document(tracer, result, args, kwargs):
    tracer.count("instances.bytes_out", len(result))


def _count_trace_file(tracer, result, args, kwargs):
    tracer.count("instances.bytes_out", Path(args[1]).stat().st_size)


def _count_ratio_bound(tracer, result, args, kwargs):
    tracer.count("special.ratio_bound_calls", 1)


# (module, attribute, span name or a function of the call's arguments giving
# it, counter hook); a span name of None records the counter alone
WRAPS = (
    ("heunlab.cli", "load_instance", "instances.load", None),
    ("heunlab.cli", "document_bytes", "instances.render", _count_document),
    ("heunlab.cli", "write_trace", "instances.render", _count_trace_file),
    ("heunlab.cli", "run_proof_audit", "audit", None),
    ("heunlab.cli", "run_system_audit", "audit", None),
    ("heunlab.audit", "find_proof_constants", "proofs.find_constants", _count_rechecked),
    ("heunlab.audit", "verify_proof_constants", "proofs.verify_constants", None),
    ("heunlab.audit", "minorant_partial", "proofs.minorant", None),
    ("heunlab.proofs", "z_power_tail", "proofs.z_power_tail", None),
    ("heunlab.cli", "classify_case", "proofs.classify", None),
    ("heunlab.audit", "min_index_for_ratio_bound", "special.ratio_floor", None),
    ("heunlab.audit", "pochhammer_ratio_lower_bound", "special.ratio_bound", _count_ratio_bound),
    ("heunlab.special", "pochhammer_ratio_lower_bound", None, _count_ratio_bound),
    ("heunlab.audit", "boundary_radius", _radius_name, None),
    ("heunlab.cli", "boundary_radius", _radius_name, None),
    ("heunlab.audit", "eta_z", "convergence.weights", None),
    ("heunlab.cli", "eta_z", "convergence.weights", None),
    ("heunlab.cli", "membership_sum", "convergence.weights", None),
    ("heunlab.cli", "gauss_test", "convergence.gauss", None),
    ("heunlab.audit", "stream_coefficients", _stream_name, _count_values),
    ("heunlab.audit", "modulus_stream", _stream_name, _count_values),
    ("heunlab.recurrence", "modulus_stream", _stream_name, _count_values),
    ("heunlab.rearrange", "modulus_stream", _stream_name, _count_values),
    ("heunlab.audit", "dominating_series_check", "recurrence.domination", None),
    ("heunlab.cli", "limit_profile", "recurrence.limits", None),
    ("heunlab.audit", "path_table", "rearrange.path_table", None),
    ("heunlab.audit", "path_table_enumerate", "rearrange.enumerate", None),
    ("heunlab.audit", "table_matches_stream", "rearrange.check", None),
    ("heunlab.audit", "grouped_partial_sum", "rearrange.check", None),
    ("heunlab.cli", "heun_eval", _eval_name, _count_eval),
    ("heunlab.cli", "term_scan", "probes.scan", _count_probe_terms),
    ("heunlab.cli", "term_trace", "probes.trace", _count_probe_terms),
)

# every span name; the per-layer time metric of a span is its self time summed
# over the run, named "<span>_s" ("<layer>.self_s" for a whole layer)
SPANS = (
    "cli", "instances.load", "instances.render", "audit",
    "proofs.find_constants", "proofs.verify_constants", "proofs.minorant",
    "proofs.z_power_tail", "proofs.classify",
    "special.ratio_floor", "special.ratio_bound",
    "convergence.radius_closed", "convergence.radius_bisect",
    "convergence.weights", "convergence.gauss",
    "recurrence.stream_exact", "recurrence.stream_mp", "recurrence.domination",
    "recurrence.limits",
    "rearrange.path_table", "rearrange.enumerate", "rearrange.check",
    "heun.eval_exact", "heun.eval_mp",
    "probes.scan", "probes.trace",
)


def time_metric(span: str) -> str:
    return f"{span}.self_s" if "." not in span else f"{span}_s"


# per-layer counter -> unit
COUNT_METRICS = {
    "instances.bytes_out": "count",
    "proofs.sweep_rechecked": "count",
    "special.ratio_bound_calls": "count",
    "recurrence.terms_streamed": "count",
    "heun.eval_terms": "count",
    "heun.exact_bits_max": "bits",
    "probes.terms": "count",
}


class Tracer:
    """Span recorder; install() wraps the functions listed in WRAPS."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = defaultdict(int)
        self.missing = []  # "module.attribute" entries that could not be wrapped
        self._stack = []
        self._saved = []
        self._op = None

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span named "cli"."""
        self._op = op_id
        index = self._open("cli")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = tracer._open(label) if label is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def layer_metrics(self) -> dict:
        """Every per-layer metric: self times in seconds, then the counters."""
        totals = self.self_times()
        metrics = {time_metric(span): totals.get(span, 0.0) for span in SPANS}
        for name in COUNT_METRICS:
            metrics[name] = self.counters.get(name, 0)
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
