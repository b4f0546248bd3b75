"""Instance files, result documents, and CSV trace serialization.

An instance file is a JSON object carrying exactly one equation block plus
optional analysis defaults and a precision override:

    {"heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1",
              "gamma": "1", "delta": "1", "lambda": "0"},
     "analysis": {"x": "1/10"},
     "precision": "exact"}

    {"recurrence": {"lags": [{"num": ["0", "1"], "den": ["2"]},
                             {"num": ["1"], "den": ["4"]}]},
     "precision": 128}

Numbers are written as strings ('p/q', integers, decimals, scientific
notation) so rationals survive the round trip; bare JSON floats are re-read
as strings and parsed exactly too.  Coefficient lists are lowest degree
first.  Result documents and traces are rendered deterministically: the same
inputs always serialize to the same bytes.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from ._version import __version__
from .errors import InputError
from .heun import HeunParams, heun_recurrence, indicial_roots
from .polynomials import PolynomialInN, RationalFnInN
from .recurrence import RecurrenceSystem
from .scalars import DEFAULT_PRECISION, fmt_scalar, parse_int, parse_number, parse_precision

HEUN_KEYS = ("a", "q", "alpha", "beta", "gamma", "delta")
TRACE_HEADER = ("n", "value_re", "value_im", "log_mag", "term_at_r", "partial_sum")


def render_value(x, prec: int = DEFAULT_PRECISION):
    """Deterministic document rendering for one scalar.

    Exact values become 'p/q' strings, mpmath values 30-digit decimal
    strings; ints, floats, bools and None pass through untouched.
    """
    if x is None or isinstance(x, (int, float)):  # bool is an int
        return x
    with mp.workprec(prec):
        return fmt_scalar(x)


@dataclass(frozen=True, eq=False)
class Instance:
    """One parsed instance file: the equation plus its analysis defaults."""

    system: RecurrenceSystem
    heun: HeunParams | None  # None for a recurrence instance
    root: object  # indicial exponent for heun instances, None otherwise
    analysis: dict
    precision: object  # "exact", a bit count, or None when the file is silent
    echo: dict
    source: str = "<memory>"


def _rat(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError(f"{where}: expected a number (as a string), got {value!r}")
    try:
        return parse_number(str(value))
    except InputError:
        raise InputError(f"{where}: not a rational literal: {value!r}") from None


def _poly(values, where: str) -> PolynomialInN:
    if not isinstance(values, list) or not values:
        raise InputError(f"{where}: expected a nonempty coefficient list, lowest degree first")
    return PolynomialInN(tuple(_rat(v, f"{where}[{i}]") for i, v in enumerate(values)))


def _parse_heun(block):
    if not isinstance(block, dict):
        raise InputError("heun: expected an object with fields a, q, alpha, beta, gamma, delta")
    unknown = sorted(set(block) - set(HEUN_KEYS) - {"lambda"})
    if unknown:
        raise InputError(f"heun: unknown fields {unknown}")
    missing = [k for k in HEUN_KEYS if k not in block]
    if missing:
        raise InputError(f"heun: missing fields {missing}")
    params = HeunParams(**{k: _rat(block[k], f"heun.{k}") for k in HEUN_KEYS})
    root = _rat(block.get("lambda", 0), "heun.lambda")
    r0, r1 = indicial_roots(params)
    if root != r0 and root != r1:
        raise InputError(
            f"heun.lambda: {root} is not an indicial exponent; expected {r0} or {r1}")
    return params, root


def _parse_recurrence(block) -> RecurrenceSystem:
    if not isinstance(block, dict):
        raise InputError("recurrence: expected an object with a lags list")
    unknown = sorted(set(block) - {"k", "lags"})
    if unknown:
        raise InputError(f"recurrence: unknown fields {unknown}")
    raw = block.get("lags")
    if not isinstance(raw, list) or not raw:
        raise InputError("recurrence.lags: expected a nonempty list of {num, den} objects")
    if "k" in block and parse_int(block["k"], "recurrence.k") != len(raw):
        raise InputError(
            f"recurrence.k = {block['k']} disagrees with the {len(raw)} lag entries")
    lags = []
    for i, entry in enumerate(raw):
        where = f"recurrence.lags[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"num", "den"}:
            raise InputError(f"{where}: expected exactly the fields num and den")
        lags.append(RationalFnInN(_poly(entry["num"], f"{where}.num"),
                                  _poly(entry["den"], f"{where}.den")))
    return RecurrenceSystem(tuple(lags))


def parse_instance(doc, source: str = "<memory>") -> Instance:
    if not isinstance(doc, dict):
        raise InputError(f"{source}: an instance file must be a JSON object")
    blocks = [k for k in ("heun", "recurrence") if k in doc]
    if len(blocks) != 1:
        raise InputError(f"{source}: exactly one of 'heun' or 'recurrence' is required")
    unknown = sorted(set(doc) - {"heun", "recurrence", "analysis", "precision"})
    if unknown:
        raise InputError(f"{source}: unknown top-level fields {unknown}")
    analysis = doc.get("analysis", {})
    if not isinstance(analysis, dict):
        raise InputError(f"{source}: analysis must be an object")
    precision = parse_precision(doc["precision"]) if "precision" in doc else None
    if blocks[0] == "heun":
        params, root = _parse_heun(doc["heun"])
        system = heun_recurrence(params, root)
        return Instance(system, params, root, analysis, precision, doc, source)
    system = _parse_recurrence(doc["recurrence"])
    return Instance(system, None, None, analysis, precision, doc, source)


def load_instance(path) -> Instance:
    p = Path(path)
    try:
        with open(p, "r", encoding="utf-8") as fh:
            # floats come back as strings so Fraction sees the decimal text
            doc = json.load(fh, parse_float=str)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: not valid JSON ({exc})") from exc
    return parse_instance(doc, str(p))


def build_document(command: str, echo: dict, outputs: dict, precision) -> dict:
    return {
        "command": command,
        "version": __version__,
        "precision": precision if isinstance(precision, str) else int(precision),
        "instance": echo,
        "outputs": outputs,
        "trace_files": [],
    }


def _finite_json(x):
    """x with every non-finite float spelled as the CSV spells it."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(float(x))  # 'inf', '-inf' or 'nan'
    if isinstance(x, dict):
        return {k: _finite_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_json(v) for v in x]
    return x


def document_bytes(document: dict) -> bytes:
    """Canonical serialization: sorted keys, two-space indent, final newline.

    Strict JSON (RFC 8259): a non-finite float is written as the string
    "inf", "-inf" or "nan", since the NaN and Infinity tokens are not JSON.
    """
    try:
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite_json(document), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _cell(v) -> str:
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    return repr(float(v))


def trace_bytes(rows) -> bytes:
    """CSV with the fixed column set; floats rendered shortest round-trip.

    No cell needs quoting (digits, signs, '.', 'e', 'inf', 'nan'), so a
    comma join per row gives the bytes csv.writer would.  Each line is
    encoded and written as it is made, so the one large buffer is the
    BytesIO's, which getvalue hands back without a copy.
    """
    buf = io.BytesIO()
    buf.write((",".join(TRACE_HEADER) + "\n").encode())
    buf.writelines((",".join(map(_cell, row)) + "\n").encode() for row in rows)
    return buf.getvalue()


def write_trace(rows, path) -> None:
    Path(path).write_bytes(trace_bytes(rows))
