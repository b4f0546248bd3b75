"""Byte pins of the probe commands' outputs.

The digests below were recorded at version 0.3.0, before the kernel wrote
its terms in block order, handed ldexp int32 exponents and shared the lags'
denominator.  Those changes reorder no float operation, so every `boundary`
JSON and CSV and every `gauss` JSON must keep each byte.  The small-chunk
cases stream through two-block chunks, so every chunk and block edge of the
scan is crossed many times.
"""

import hashlib
import math
from fractions import Fraction

import pytest

import heunlab.probes as probes
from heunlab import heun_recurrence, term_scan
from heunlab.cli import main

from test_acceptance import PROBE_POOL


def _instance(tmp_path, idx):
    a, q, alpha, beta, gamma, delta = (str(Fraction(v)) for v in PROBE_POOL[idx])
    path = tmp_path / f"probe{idx:02d}.json"
    path.write_text(f'{{"heun": {{"a": "{a}", "q": "{q}", "alpha": "{alpha}", '
                    f'"beta": "{beta}", "gamma": "{gamma}", "delta": "{delta}", '
                    f'"lambda": "0"}}}}')
    return path


def _boundary_digest(tmp_path, capsys, idx, which, scale, *extra):
    path = _instance(tmp_path, idx)
    out_dir = tmp_path / "out"
    code = main(["boundary", str(path), "--which", which, "--radius-scale", scale,
                 "--out", str(out_dir), *extra])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256()
    for suffix in ("json", "csv"):
        digest.update((out_dir / f"{path.stem}.boundary.{suffix}").read_bytes())
    return digest.hexdigest()[:16]


# sha256 (first 16 hex digits) of JSON then CSV at --n-max 16384, per
# PROBE_POOL index, channel and radius scale
SMALL_CHUNK_DIGESTS = {
    "0-modulus-1": "6ab58c280436fb07",
    "0-modulus-0.99": "d48a6f377f2e2368",
    "0-signed-1": "6145a26dfc14b96e",
    "0-signed-0.99": "7b487309af025817",
    "1-modulus-1": "122280110568ccb0",
    "1-modulus-0.99": "95b4c5c513892205",
    "1-signed-1": "a877dd6c7e195803",
    "1-signed-0.99": "7e0ee6ca37e178c8",
    "2-modulus-1": "814e05eb866b1826",
    "2-modulus-0.99": "aff4ef1ebea0692d",
    "2-signed-1": "29447507416b1c4f",
    "2-signed-0.99": "153adec3adc44fa4",
    "3-modulus-1": "ef4a769b62a1dc5f",
    "3-modulus-0.99": "092886dd68d7c2ef",
    "3-signed-1": "285ee5cd21051cda",
    "3-signed-0.99": "d4174032564624d4",
    "4-modulus-1": "b65171f850076424",
    "4-modulus-0.99": "f5c4ec189eb6fd8c",
    "4-signed-1": "12d7527e50dc8b4b",
    "4-signed-0.99": "7b67ee19191ee1c2",
    "5-modulus-1": "bd6367d5736137ca",
    "5-modulus-0.99": "ddb0fd5db7c46314",
    "5-signed-1": "8df3152ea30b054f",
    "5-signed-0.99": "730fccb14ae4ec85",
    "6-modulus-1": "0cd8b64bde6f2006",
    "6-modulus-0.99": "36e5ea87e0d22fde",
    "6-signed-1": "94a9ad624406f314",
    "6-signed-0.99": "f1ceffaeefe81a9c",
    "7-modulus-1": "6f5ec9c82b1831ac",
    "7-modulus-0.99": "81df6e5f531fd7ec",
    "7-signed-1": "8179232ea2ea1c28",
    "7-signed-0.99": "a86621985df4b6b7",
    "8-modulus-1": "e6c257834384d0c8",
    "8-modulus-0.99": "13ea5495382ab99e",
    "8-signed-1": "eaf77c944fe07d0f",
    "8-signed-0.99": "17c8a8a880a04da2",
    "9-modulus-1": "e06ec576ae41b008",
    "9-modulus-0.99": "4b3f68e226af161d",
    "9-signed-1": "bbfbd0a20b50e67f",
    "9-signed-0.99": "da866fad09d10645",
}


@pytest.mark.parametrize("case", sorted(SMALL_CHUNK_DIGESTS))
def test_boundary_bytes_small_chunks(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(probes, "_CHUNK", 2 * probes._BLOCK)
    idx, which, scale = case.split("-")
    got = _boundary_digest(tmp_path, capsys, int(idx), which, scale, "--n-max", "16384")
    assert got == SMALL_CHUNK_DIGESTS[case]


# the default 2^20 terms in 2^16-term chunks, one op per channel
DEFAULT_SIZE_DIGESTS = {
    "0-modulus-1": "e3236b9545767952",
    "4-signed-0.99": "b25132b6a384ff75",
}


@pytest.mark.parametrize("case", sorted(DEFAULT_SIZE_DIGESTS))
def test_boundary_bytes_default_size(case, tmp_path, capsys):
    idx, which, scale = case.split("-")
    assert _boundary_digest(tmp_path, capsys, int(idx), which, scale) == DEFAULT_SIZE_DIGESTS[case]


GAUSS_DIGEST = "af8d104f82795aef"  # gauss 1/2 1/3 5/2 at the default 2^20 terms
# recorded at 0.3.0 while the ratio ran on complex128: a terminating series,
# whose ratio reaches 0, and one whose terms overflow to inf and whose fit is nan
GAUSS_TERMINATING_DIGEST = "249c26eaa7ccd00d"  # gauss -3 1/2 2
GAUSS_OVERFLOW_DIGEST = "14caaeccd55d81ab"  # gauss 201/2 201/2 1/2


def test_gauss_bytes(tmp_path, capsys):
    assert main(["gauss", "1/2", "1/3", "5/2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = hashlib.sha256((tmp_path / "gauss.json").read_bytes()).hexdigest()[:16]
    assert got == GAUSS_DIGEST


@pytest.mark.parametrize("abc, digest", [
    (("-3", "1/2", "2"), GAUSS_TERMINATING_DIGEST),
    (("201/2", "201/2", "1/2"), GAUSS_OVERFLOW_DIGEST),
], ids=["terminating", "overflowing"])
def test_gauss_bytes_at_zero_and_overflowing_ratios(tmp_path, capsys, abc, digest):
    assert main(["gauss", *abc, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = hashlib.sha256((tmp_path / "gauss.json").read_bytes()).hexdigest()[:16]
    assert got == digest


# radii 0.75 * 2^+-1000, so k = +-1000: past j = 2^31 / 1000 (about 2.1e6)
# j k leaves the int32 range and the exponents ldexp sees are clipped; the
# terms saturate to inf or 0 and the logs, read from the int64 exponents, go
# on growing or falling
WIDE_EXPONENT_DIGESTS = {
    "modulus-up": "2f480b4eb56737f8",
    "modulus-down": "363bc5492b3d8662",
    "signed-up": "a3ee78f4d57b352e",
    "signed-down": "e4b94e3f128ac7d0",
}


@pytest.mark.parametrize("case", sorted(WIDE_EXPONENT_DIGESTS))
def test_exponents_past_int32(case, a2_params):
    which, sign = case.split("-")
    r = math.ldexp(0.75, 1000 if sign == "up" else -1000)
    scan = term_scan(heun_recurrence(a2_params), r, 1 << 22, which, stride=1 << 16)
    # j k passes 2^31 before the last checkpoint
    assert scan.checkpoints[-1][0] * 1000 > 1 << 31
    logs = scan.term_log_mags
    assert all(math.isfinite(v) for v in logs)
    if sign == "up":
        assert not any(math.isfinite(s) for _, s in scan.checkpoints) and logs[-1] > 1 << 21
    else:
        assert all(math.isfinite(s) for _, s in scan.checkpoints) and logs[-1] < -(1 << 21)
    fields = repr((scan.checkpoints, scan.gaps, logs, scan.verdict,
                   scan.max_abs_partial, scan.trace))
    assert hashlib.sha256(fields.encode()).hexdigest()[:16] == WIDE_EXPONENT_DIGESTS[case]
