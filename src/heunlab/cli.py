"""Command-line front end: parse instance files, run analyses, emit documents.

Every command prints a deterministic JSON result document to stdout; with
--out DIR the document plus any CSV trace are also written there.  When the
instance argument is a directory, the command fans out over every .json file
in it but the result documents it writes there (--jobs workers, one per file
at most) and prints a status line each.

Exit codes: 0 success, 2 evaluation refused on convergence-domain grounds,
3 bad input.

Each command loads only the modules it runs.  `eval` and `domain` need the
series and the domain rule alone; `classify` imports proofs and special on
its first call, `proof-audit` the whole audit stack (audit, proofs, special,
rearrange), and `boundary` and `gauss` the float64 probes (probes, special and
numpy).  concurrent.futures loads when --jobs first starts a pool.
"""

from __future__ import annotations

import argparse
import concurrent  # the package alone: futures loads with the first pool
import re
import sys
from importlib import import_module
from pathlib import Path

from mpmath import mp

from ._version import __version__
from .convergence import boundary_radius, domain_sum, eta_z, membership_sum
from .errors import DomainError, HeunLabError, InputError, InvalidParams, OutsideDomain
from .heun import heun_eval
from .instances import (Instance, build_document, document_bytes,
                        load_instance, render_value, write_trace)
from .recurrence import limit_profile
from .scalars import (DEFAULT_PRECISION, parse_int, parse_number, parse_point,
                      parse_precision, precision_from_env, to_float64)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_INPUT = 3
PROG = "heunlab"


# a minus sign then a digit: a negative value such as -1/5, -2e-3 or -.5,
# never a flag (argparse alone knows only -12 and -1.5)
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 is reserved here for
    domain refusals, so parser errors are remapped to the input-error code."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _resolve_precision(args, instance: Instance):
    if getattr(args, "precision", None):
        return parse_precision(args.precision)
    if instance.precision is not None:
        return instance.precision
    return precision_from_env()


def _bits(precision) -> int:
    return DEFAULT_PRECISION if precision == "exact" else int(precision)


def _opt(args, instance: Instance, name: str, default=None):
    """Option lookup: CLI flag first, then the instance's analysis block."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return instance.analysis.get(name, default)


def _int_opt(args, instance: Instance, name: str, default: int) -> int:
    """An integer option, looked up as _opt does."""
    return parse_int(_opt(args, instance, name, default), f"analysis.{name}")


def _on_first_call(module: str, name: str):
    """A module-level stand-in for module.name that imports the module on its
    first call, so that a command loads only what it runs."""
    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"{module}.{name}, imported on the first call."
    return call


term_scan = _on_first_call("probes", "term_scan")
gauss_test = _on_first_call("probes", "gauss_test")
run_system_audit = _on_first_call("audit", "run_system_audit")
classify_case = _on_first_call("proofs", "classify_case")


def _require_heun(instance: Instance) -> None:
    if instance.heun is None:
        raise InputError(f"{instance.source}: this command needs a heun block")


def _cmd_eval(instance, args, precision):
    _require_heun(instance)
    raw_x = _opt(args, instance, "x")
    if raw_x is None:
        raise InputError("eval needs a point: pass --x or set analysis.x")
    prec = _bits(precision)
    x = parse_point(str(raw_x), prec)
    tol = parse_number(str(_opt(args, instance, "tol", "1e-30")))
    n_max = _int_opt(args, instance, "n-max", 10 ** 5)
    force = instance.analysis.get("force", False)
    if not isinstance(force, bool):
        raise InputError(f"analysis.force: expected true or false, got {force!r}")
    force = args.force or force
    result = heun_eval(instance.heun, x, instance.root, tol, n_max, force, precision)
    outputs = {
        "x": render_value(x, prec),
        "value": render_value(result.value, prec),
        "n_used": result.n_used,
        "converged": result.converged,
        "membership_sum": render_value(result.domain_sum, prec),
        "inside": result.inside,
        "forced": force,
        "tol": render_value(tol, prec),
        "r_star": render_value(boundary_radius(instance.system.limits, prec), prec),
    }
    return build_document("eval", instance.echo, outputs, precision), None


def _cmd_domain(instance, args, precision):
    prec = _bits(precision)
    limits = instance.system.limits
    if len(limits) != 2:
        raise InputError(f"domain is stated for three-term recurrences (k = 2 lags); "
                         f"this one has k = {len(limits)}")
    r_star = boundary_radius(limits, prec)
    with mp.workprec(prec):
        eta, z = eta_z(limits, r_star, prec)
        eta_plus_z = eta + z
    outputs = {
        "limits": [render_value(v, prec) for v in limits],
        "r_star": render_value(r_star, prec),
        "eta": render_value(eta, prec),
        "z": render_value(z, prec),
        "eta_plus_z": render_value(eta_plus_z, prec),
    }
    raw_x = _opt(args, instance, "x")
    if raw_x is not None:
        x = parse_point(str(raw_x), prec)
        # the sum shown at the working precision, inside by the one rule
        outputs["membership"] = {
            "x": render_value(x, prec),
            "sum": render_value(membership_sum(limits, x, prec), prec),
            "inside": bool(domain_sum(limits, x, prec) < 1),
        }
    return build_document("domain", instance.echo, outputs, precision), None


def _cmd_classify(instance, args, precision):
    from .proofs import H_LABELS

    prec = _bits(precision)
    profile = limit_profile(instance.system)
    report = classify_case(profile)
    outputs = {
        "case": report.case,
        "h_labels": list(H_LABELS[report.case]),
        "limits": [render_value(v, prec) for v in profile.limits],
    }
    for i, ((num_sub, den_sub), less) in enumerate(zip(report.subleading, report.strictly_less), 1):
        outputs[f"lag{i}"] = {
            "num_sub": render_value(num_sub, prec),
            "den_sub": render_value(den_sub, prec),
            "strictly_less": less,
        }
    return build_document("classify", instance.echo, outputs, precision), None


def _cmd_boundary(instance, args, precision):
    prec = _bits(precision)
    which = _opt(args, instance, "which", "modulus")
    offset = _int_opt(args, instance, "offset", 1)
    n_terms = _int_opt(args, instance, "n-max", 1 << 20)
    stride = _int_opt(args, instance, "stride", max(1, n_terms // 4096))
    r_star = boundary_radius(instance.system.limits, prec)
    raw_r = _opt(args, instance, "radius")
    if raw_r is not None:
        r = to_float64(parse_number(str(raw_r)), "probe radius")
    else:
        scale = parse_number(str(_opt(args, instance, "radius-scale", 1)))
        r = float(r_star) * to_float64(scale, "probe radius")
    if stride < 1:
        raise InvalidParams("trace stride must be at least 1")
    # the trace rows are built only for a CSV that will be written
    probe = term_scan(instance.system, r, n_terms, which, offset, stride if args.out else None)
    outputs = {
        "which": which,
        "offset": probe.offset,
        "n_terms": n_terms,
        "stride": stride,
        "r": r,
        "r_star": render_value(r_star, prec),
        "verdict": probe.verdict,
        "checkpoints": [[n, s] for n, s in probe.checkpoints],
        "gaps": list(probe.gaps),
        "term_log_mags": list(probe.term_log_mags),
        "max_abs_partial": probe.max_abs_partial,
    }
    return build_document("boundary", instance.echo, outputs, precision), probe.trace


# proof-audit's options, flag or analysis key -> run_system_audit keyword; an
# option left unset is not passed, so the audit's own default applies
_AUDIT_OPTIONS = {"eps": "eps", "n-check": "N_check", "depth": "M",
                  "minorant-m": "m_trunc", "minorant-K": "K", "j-max": "j_max",
                  "k-max": "k_max", "enum-depth": "enum_depth"}
_UNSET = object()
# every analysis key some command reads: one instance file serves several
# commands, so only a key that none of them reads is refused
_ANALYSIS_KEYS = {"x", "tol", "n-max", "force", "which", "offset", "stride",
                  "radius", "radius-scale", *_AUDIT_OPTIONS}


def _cmd_proof_audit(instance, args, precision):
    options = {}
    for name, keyword in _AUDIT_OPTIONS.items():
        value = _opt(args, instance, name, _UNSET)
        if value is not _UNSET:
            options[keyword] = (parse_number(str(value)) if keyword in ("eps", "K")
                                else parse_int(value, f"analysis.{name}"))
    document, rows = run_system_audit(instance.system, root_echo=instance.root,
                                      prec=_bits(precision), instance_echo=instance.echo,
                                      **options)
    document["command"] = "proof-audit"
    return document, rows


_HANDLERS = {
    "eval": _cmd_eval,
    "domain": _cmd_domain,
    "classify": _cmd_classify,
    "boundary": _cmd_boundary,
    "proof-audit": _cmd_proof_audit,
}
# <stem>.<command>.json, the name _process_file writes a document under
_RESULT_SUFFIXES = tuple(f".{command}.json" for command in _HANDLERS)


def _process_file(path: Path, args) -> bytes:
    """Run one command on one instance file and write any requested outputs."""
    instance = load_instance(path)
    unread = sorted(set(instance.analysis) - _ANALYSIS_KEYS)
    if unread:
        raise InputError(f"{instance.source}: no command reads the analysis keys {unread}")
    precision = _resolve_precision(args, instance)
    document, rows = _HANDLERS[args.command](instance, args, precision)
    trace_files = []
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if rows is not None:
            name = f"{path.stem}.{args.command}.csv"
            write_trace(rows, out_dir / name)
            trace_files.append(name)
    document["trace_files"] = trace_files
    payload = document_bytes(document)
    if out_dir is not None:
        (out_dir / f"{path.stem}.{args.command}.json").write_bytes(payload)
    return payload


# what a command may raise on bad input or a refused evaluation
_FAILURES = (HeunLabError, OSError, ValueError)


def _exit_code(exc: Exception) -> int:
    """The exit code of one of _FAILURES."""
    return EXIT_DOMAIN if isinstance(exc, (OutsideDomain, DomainError)) else EXIT_INPUT


def _worker(ns: dict, path_str: str):
    args = argparse.Namespace(**ns)
    try:
        _process_file(Path(path_str), args)
        return path_str, EXIT_OK, ""
    except _FAILURES as exc:
        return path_str, _exit_code(exc), str(exc)


def _dispatch(args) -> int:
    path = Path(args.instance)
    if not path.is_dir():
        sys.stdout.write(_process_file(path, args).decode("utf-8"))
        return EXIT_OK
    # the documents earlier runs wrote beside the instances are not instances
    files = sorted(f for f in path.glob("*.json") if not f.name.endswith(_RESULT_SUFFIXES))
    if not files:
        raise InputError(f"{path}: no .json instance files found")
    ns = {k: v for k, v in vars(args).items() if k != "func"}
    if ns.get("out") is None:
        ns["out"] = str(path)
    # a fork pool starts every worker at once: never more than there are files
    jobs = min(max(1, int(getattr(args, "jobs", 1) or 1)), len(files))
    if jobs == 1:
        results = [_worker(ns, str(f)) for f in files]
    else:
        import_module("concurrent.futures")
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worker, [ns] * len(files), map(str, files)))
    worst = EXIT_OK
    for path_str, code, message in results:
        print(f"{path_str}: " + ("ok" if code == EXIT_OK else f"exit {code}: {message}"))
        worst = max(worst, code)
    return worst


def _cmd_gauss(args) -> int:
    report = gauss_test(parse_number(args.a), parse_number(args.b),
                        parse_number(args.c), args.n_max)
    outputs = {
        "verdict": report.verdict,
        "s": report.s,
        "predicted_exponent": report.predicted_exponent,
        "fitted_exponent": report.fitted_exponent,
        "trend": report.trend,
        "terminated": report.terminated,
        "n_terms": report.n_terms,
        "checkpoints": [[n, v] for n, v in report.checkpoints],
        "gaps": list(report.gaps),
        "gap_ratios": list(report.gap_ratios),
    }
    echo = {"gauss": {"a": args.a, "b": args.b, "c": args.c}}
    document = build_document("gauss", echo, outputs, "float64")
    payload = document_bytes(document)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "gauss.json").write_bytes(payload)
    sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog=PROG,
        description="Power-series solutions of the Heun equation: evaluation "
                    "inside the absolute-convergence domain, boundary "
                    "diagnostics, and divergence-proof audits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser, metavar="command")

    def common(p):
        p.add_argument("instance", help="instance file (JSON) or a directory of them")
        p.add_argument("--precision", help="working precision: a bit count or 'exact'")
        p.add_argument("--out", help="directory for result documents and CSV traces")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers when instance is a directory")
        p.set_defaults(func=_dispatch)
        return p

    p = common(sub.add_parser("eval", help="evaluate the series solution at a point"))
    p.add_argument("--x", help="evaluation point ('p/q', decimal, or complex)")
    p.add_argument("--tol", help="relative term tolerance (default 1e-30)")
    p.add_argument("--n-max", type=int, help="maximum number of series terms")
    p.add_argument("--force", action="store_true",
                   help="evaluate even outside the guaranteed domain")

    p = common(sub.add_parser("domain", help="limits, boundary radius, and weights"))
    p.add_argument("--x", help="optional point to test for membership")

    common(sub.add_parser("classify", help="sub-leading case classification"))

    p = common(sub.add_parser("boundary",
                              help="long-run term probe at or near the boundary radius"))
    p.add_argument("--which", choices=("signed", "modulus"),
                   help="probe the signed series or its modulus majorant")
    p.add_argument("--offset", type=int, help="base index of the majorant (default 1)")
    p.add_argument("--n-max", type=int, help="terms to stream (default 2^20)")
    p.add_argument("--stride", type=int, help="trace decimation (default n/4096)")
    p.add_argument("--radius", help="probe radius (default r*)")
    p.add_argument("--radius-scale", help="probe at scale * r* instead")

    p = common(sub.add_parser("proof-audit",
                              help="run every stage of the divergence argument"))
    p.add_argument("--eps", help="margin parameter (default 1/100)")
    p.add_argument("--n-check", type=int,
                   help="cap on the certificate start index and on N (default 10^5)")
    p.add_argument("--depth", type=int,
                   help="rearrangement and domination depth (default 30)")

    p = sub.add_parser("gauss", help="hypergeometric boundary-point convergence test")
    p.add_argument("a", help="first upper parameter")
    p.add_argument("b", help="second upper parameter")
    p.add_argument("c", help="lower parameter (not 0 or a negative integer)")
    p.add_argument("--n-max", type=int, default=1 << 20, help="terms to sum")
    p.add_argument("--out", help="directory for the result document")
    p.set_defaults(func=_cmd_gauss)

    return parser


_parser = None  # built by the first main() call and reused after it


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
