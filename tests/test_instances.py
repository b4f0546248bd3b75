"""Instance parsing, document rendering, and deterministic serialization."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from heunlab import (InputError, document_bytes, load_instance,
                     parse_instance, render_value, trace_bytes)
from heunlab.instances import TRACE_HEADER

F = Fraction

HEUN_DOC = {
    "heun": {"a": "2", "q": "1", "alpha": "1", "beta": "1",
             "gamma": "1", "delta": "1", "lambda": "0"},
    "analysis": {"x": "1/10"},
    "precision": "exact",
}

REC_DOC = {
    "recurrence": {"k": 2, "lags": [
        {"num": ["1", "3", "3/2"], "den": ["2", "3", "1"]},
        {"num": ["-1/4", "-1", "-1/2"], "den": ["2", "3", "1"]},
    ]},
}


def test_parse_heun_instance():
    inst = parse_instance(HEUN_DOC)
    assert inst.heun is not None
    assert inst.heun.a == 2 and inst.root == 0
    assert inst.precision == "exact"
    assert inst.analysis == {"x": "1/10"}
    assert inst.system.limits == (F(3, 2), F(-1, 2))
    assert inst.echo is HEUN_DOC


def test_parse_recurrence_instance():
    inst = parse_instance(REC_DOC)
    assert inst.heun is None and inst.root is None
    assert inst.precision is None
    assert inst.system.k == 2
    assert inst.system.limits == (F(3, 2), F(-1, 2))


def test_lambda_must_be_an_indicial_exponent():
    doc = json.loads(json.dumps(HEUN_DOC))
    doc["heun"]["lambda"] = "1/3"
    with pytest.raises(InputError):
        parse_instance(doc)
    doc["heun"]["gamma"] = "2/3"
    doc["heun"]["lambda"] = "1/3"  # now 1 - gamma
    assert parse_instance(doc).root == F(1, 3)


def test_unknown_and_missing_fields_are_rejected():
    doc = json.loads(json.dumps(HEUN_DOC))
    doc["heun"]["extra"] = "1"
    with pytest.raises(InputError):
        parse_instance(doc)
    doc = json.loads(json.dumps(HEUN_DOC))
    del doc["heun"]["q"]
    with pytest.raises(InputError):
        parse_instance(doc)
    doc = json.loads(json.dumps(HEUN_DOC))
    doc["comment"] = "hi"
    with pytest.raises(InputError):
        parse_instance(doc)


def test_exactly_one_equation_block():
    with pytest.raises(InputError):
        parse_instance({"analysis": {}})
    both = dict(HEUN_DOC)
    both["recurrence"] = REC_DOC["recurrence"]
    with pytest.raises(InputError):
        parse_instance(both)
    with pytest.raises(InputError):
        parse_instance(["not", "an", "object"])


def test_recurrence_validation():
    doc = json.loads(json.dumps(REC_DOC))
    doc["recurrence"]["k"] = 3
    with pytest.raises(InputError):
        parse_instance(doc)
    doc = json.loads(json.dumps(REC_DOC))
    doc["recurrence"]["lags"][0] = {"num": ["1"]}
    with pytest.raises(InputError):
        parse_instance(doc)
    doc = json.loads(json.dumps(REC_DOC))
    doc["recurrence"]["lags"][0]["num"] = []
    with pytest.raises(InputError):
        parse_instance(doc)


def test_number_literals_are_parsed_exactly():
    doc = json.loads(json.dumps(HEUN_DOC))
    doc["heun"]["q"] = "0.125"
    doc["heun"]["alpha"] = "5e-1"
    inst = parse_instance(doc)
    assert inst.heun.q == F(1, 8)
    assert inst.heun.alpha == F(1, 2)
    doc["heun"]["q"] = "not-a-number"
    with pytest.raises(InputError):
        parse_instance(doc)
    doc["heun"]["q"] = True
    with pytest.raises(InputError):
        parse_instance(doc)


def test_load_instance_reads_bare_floats_exactly(tmp_path):
    # 0.1 the JSON float must arrive as the decimal 1/10, not the binary double
    path = tmp_path / "inst.json"
    path.write_text('{"heun": {"a": 2, "q": 0.1, "alpha": 1, "beta": 1, '
                    '"gamma": 1, "delta": 1}}')
    inst = load_instance(path)
    assert inst.heun.q == F(1, 10)
    assert inst.source == str(path)
    assert inst.root == 0  # lambda defaults to the zero exponent


def test_load_instance_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_instance(path)


def test_render_value_tiers():
    assert render_value(F(3, 4)) == "3/4"
    assert render_value(F(5, 1)) == "5"
    assert render_value(7) == 7
    assert render_value(True) is True
    assert render_value(None) is None
    assert render_value(1.5) == 1.5
    with mp.workprec(256):
        s = render_value(mp.mpf(1) / 3)
    assert isinstance(s, str) and s.startswith("0.3333333333")


def test_document_bytes_deterministic():
    doc_a = {"command": "eval", "outputs": {"b": 1, "a": 2}, "version": "x"}
    doc_b = {"version": "x", "outputs": {"a": 2, "b": 1}, "command": "eval"}
    assert document_bytes(doc_a) == document_bytes(doc_b)
    assert document_bytes(doc_a).endswith(b"}\n")


def test_trace_bytes_layout():
    rows = [(0, 1.0, 0.0, 0.0, 1.0, 1.0),
            (3, 0.125, 0.0, math.log(0.125), 0.015625, 1.2),
            (5, math.inf, 0.0, 700.0, math.inf, math.inf)]
    data = trace_bytes(rows).decode()
    lines = data.splitlines()
    assert lines[0] == "n,value_re,value_im,log_mag,term_at_r,partial_sum"
    assert lines[1] == "0,1.0,0.0,0.0,1.0,1.0"
    assert lines[2].startswith("3,0.125,0.0,")
    assert "inf" in lines[3]
    assert trace_bytes(rows) == trace_bytes(list(rows))


def reference_trace_bytes(rows) -> bytes:
    """The csv.writer renderer: an int that is not a bool prints as str,
    anything else as repr(float(v))."""
    def cell(v):
        if isinstance(v, int) and not isinstance(v, bool):
            return str(v)
        return repr(float(v))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def test_trace_bytes_match_csv_writer():
    cells = [0, 7, -12345678901234567890, True, False, 0.0, -0.0, math.inf, -math.inf,
             math.nan, 1e-300, -1e300, 5e-324, 0.1, np.float64(2.5), np.float64(-0.0),
             np.int64(3), Fraction(1, 3), Fraction(-7), mp.mpf("0.1"), mp.mpf("-inf")]
    rows = [tuple(cells[i:i + 6]) for i in range(len(cells))]
    rows += [(), (1.5,), tuple(cells), [3, 0.25, 0.0, -1.0, 0.5, 2.0]]
    assert trace_bytes(rows) == reference_trace_bytes(rows)
    assert trace_bytes([]) == reference_trace_bytes([])
