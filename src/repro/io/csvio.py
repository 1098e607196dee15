"""CSV trace serialisation.

The released DarkVec datasets ship as per-packet CSV files; this module
reads and writes the same layout:

    timestamp,src_ip,dst_host,dst_port,proto,mirai

``dst_host`` is the last octet of the darknet /24 address, ``proto`` is
``tcp``/``udp``/``icmp`` and ``mirai`` flags the fingerprint.

The reader accepts one grammar, the one the writers emit: a header line
then one row per line, six comma-separated fields, no quoting, lines
ending in CRLF or LF (the last may have no line end).  ``timestamp`` is
ASCII digits with an optional fraction (``1614643206.759475``), at most
17 digits and below 2**53 once the dot is dropped; ``src_ip`` a dotted
quad (:data:`repro.trace.address.QUAD_MAX_CHARS`); ``dst_host``,
``dst_port`` and ``mirai`` unsigned integers in 0-255, 0-65535 and 0-1
(:data:`repro.trace.packet.COLUMN_RANGES`).  It parses with numpy over
blocks of :data:`BLOCK_BYTES` cut at line ends, so only the typed
columns outlive a block; a line longer than any valid row
(:data:`MAX_ROW_BYTES`) is an error before it is read to its end.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.trace.address import digit_runs, ips_to_strs, parse_quads
from repro.trace.packet import COLUMN_RANGES, PROTO_NAMES, Trace

_HEADER = ["timestamp", "src_ip", "dst_host", "dst_port", "proto", "mirai"]
_HEADER_LINE = ",".join(_HEADER)

#: Bytes read per parse block (the last line of a block is carried into
#: the next one).  With :data:`MAX_ROW_BYTES` it bounds the reader's
#: temporaries, whatever the file.
BLOCK_BYTES = 1 << 20

#: Rows formatted per write.
_WRITE_ROWS = 1 << 16

#: Integer fields, and the trace column whose range bounds each.
_INTEGERS = {"dst_host": "receivers", "dst_port": "ports", "mirai": "mirai"}
_TIME_DIGITS = 17
_EXACT = 2**53
_POW10 = (10 ** np.arange(_TIME_DIGITS + 1)).astype(np.float64)  # all exact

#: Longest row the grammar allows, CRLF included: a timestamp of 17
#: digits and its dot, a 15-character quad, 3 + 5 + 4 + 1 characters
#: for the other fields, and five commas.
MAX_ROW_BYTES = (_TIME_DIGITS + 1) + 15 + (3 + 5 + 4 + 1) + 5 + 2


def _proto_key(name: str) -> int:
    """A protocol name packed into an int, its length included."""
    return int.from_bytes(name.encode(), "little") | (len(name) << 32)


#: Sorted packed protocol names, and the protocol number of each.
_PROTO_KEYS, _PROTO_NUMBERS = map(
    np.array, zip(*sorted((_proto_key(n), p) for p, n in PROTO_NAMES.items()))
)


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write a trace as CSV (one packet per row, time order, CRLF ends)."""
    path = Path(path)
    unknown = ~np.isin(trace.protos, list(PROTO_NAMES))
    if unknown.any():
        raise ValueError(f"unknown protocol number {trace.protos[unknown][0]}")
    ip_text = np.array(ips_to_strs(trace.sender_ips), dtype=object)
    proto_text = np.array([PROTO_NAMES.get(p, "") for p in range(256)], dtype=object)
    with path.open("w", newline="") as handle:
        handle.write(_HEADER_LINE + "\r\n")
        for lo in range(0, len(trace), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            columns = zip(
                trace.times[rows].tolist(),
                ip_text[trace.senders[rows]].tolist(),
                trace.receivers[rows].tolist(),
                trace.ports[rows].tolist(),
                proto_text[trace.protos[rows]].tolist(),
                trace.mirai[rows].astype(np.uint8).tolist(),
            )
            handle.writelines(
                f"{t:.6f},{ip},{r},{p},{q},{m}\r\n" for t, ip, r, p, q, m in columns
            )


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace CSV (the grammar is in the module docstring).

    Errors name the file, the 1-based line and the offending field.
    """
    path = Path(path)
    columns: list[tuple[np.ndarray, ...]] = []
    with path.open("rb") as handle:
        header = handle.readline(len(_HEADER_LINE) + 2)
        if header.removesuffix(b"\n").removesuffix(b"\r") != _HEADER_LINE.encode():
            raise ValueError(f"unexpected CSV header in {path}: {header!r}")
        line = 2
        carry = b""
        while True:
            chunk = handle.read(BLOCK_BYTES)
            data = carry + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            block, carry = data[:cut], data[cut:]
            if block:
                columns.append(_parse_block(block, path, line))
                line += len(columns[-1][0])
            if len(carry) > MAX_ROW_BYTES:
                raise ValueError(
                    f"{path}:{line}: no line end within {MAX_ROW_BYTES} bytes: "
                    f"{carry[:MAX_ROW_BYTES]!r}"
                )
            if not chunk:
                break
    if not columns:
        return Trace.empty()
    times, ips, receivers, ports, protos, mirai = (
        np.concatenate(column) for column in zip(*columns)
    )
    return Trace.from_events(
        times=times,
        sender_ips_per_packet=ips,
        ports=ports,
        protos=protos,
        receivers=receivers,
        mirai=mirai,
    )


def _parse_block(block: bytes, path: Path, first_line: int) -> tuple[np.ndarray, ...]:
    """Typed columns of the whole lines in ``block``.

    ``first_line`` is the file line number of the block's first line.
    An error names the block's first bad line and its first bad field.
    """
    codes = np.frombuffer(block, dtype=np.uint8)
    line_ends = np.flatnonzero(codes == ord("\n"))
    if block[-1:] != b"\n":
        line_ends = np.append(line_ends, len(codes))
    line_starts = np.concatenate([[0], line_ends[:-1] + 1])
    # The CR of a CRLF belongs to the line end, not to the last field.
    has_cr = codes.take(line_ends - 1, mode="clip") == ord("\r")
    ends = line_ends - (has_cr & (line_ends > line_starts))

    def fail(row: int, what: str) -> None:
        text = block[line_starts[row] : ends[row]].decode("utf-8", "replace")
        raise ValueError(f"{path}:{first_line + row}: {what}: {text[:200]!r}")

    n_fields = len(_HEADER)
    commas = np.flatnonzero(codes == ord(","))
    per_line = np.diff(np.searchsorted(commas, line_ends), prepend=0)
    if (per_line != n_fields - 1).any():
        row = int(np.argmax(per_line != n_fields - 1))
        if row:  # a bad field on an earlier line comes first
            _parse_block(block[: line_starts[row]], path, first_line)
        fail(row, f"expected {n_fields} fields")
    commas = commas.reshape(-1, n_fields - 1)
    starts = np.column_stack([line_starts, commas + 1])
    stops = np.column_stack([commas, ends])
    field = {name: (starts[:, k], stops[:, k]) for k, name in enumerate(_HEADER)}

    checks = []  # (valid, error) per field, in field order
    times, ok = _timestamps(codes, *field["timestamp"])
    checks.append((ok, "bad timestamp"))
    ips, ok = parse_quads(codes, *field["src_ip"])
    checks.append((ok, "bad src_ip"))
    integers = {}
    for name, column in _INTEGERS.items():
        high = COLUMN_RANGES[column][1]
        values, ok = digit_runs(codes, *field[name], len(str(high)))
        checks.append((ok & (values <= high), f"bad {name} (0-{high})"))
        integers[name] = values.astype(np.min_scalar_type(high))
    protos, ok = _protos(codes, *field["proto"])
    checks.append((ok, "bad proto"))
    valid = np.logical_and.reduce([ok for ok, _ in checks])
    if not valid.all():
        row = int(np.argmin(valid))
        fail(row, next(what for ok, what in checks if not ok[row]))
    return (
        times,
        ips,
        integers["dst_host"],
        integers["dst_port"],
        protos,
        integers["mirai"],
    )


def _timestamps(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``digits[.digits]`` fields as float64, bit-equal to ``float(text)``.

    The digits without the dot form an integer mantissa ``m`` below
    2**53, exact in float64, and ``m / 10**k`` (``k`` fraction digits)
    is one correctly rounded division: the same double ``float`` picks.
    """
    dots = np.append(np.flatnonzero(codes == ord(".")), len(codes))
    dot = np.minimum(dots[np.searchsorted(dots, starts)], ends)
    whole, ok = digit_runs(codes, starts, dot, _TIME_DIGITS)
    frac, ok_frac = digit_runs(codes, dot + 1, ends, _TIME_DIGITS)
    scale = np.maximum(ends - dot - 1, 0)  # fraction digits, 0 without a dot
    ok &= (ok_frac | (dot == ends)) & ((dot - starts) + scale <= _TIME_DIGITS)
    scale[~ok] = 0
    mantissa = np.where(ok, whole * 10**scale + frac, 0)
    ok &= mantissa < _EXACT
    return mantissa.astype(np.float64) / _POW10[scale], ok


def _protos(
    codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Protocol names as IP protocol numbers (uint8), and validity."""
    lengths = ends - starts
    place = np.arange(4)
    inside = place < lengths[:, None]
    chars = np.where(inside, codes.take(starts[:, None] + place, mode="clip"), 0)
    keys = (chars.astype(np.int64) @ (256**place)) | (lengths << 32)
    slot = np.minimum(np.searchsorted(_PROTO_KEYS, keys), len(_PROTO_KEYS) - 1)
    return _PROTO_NUMBERS[slot].astype(np.uint8), _PROTO_KEYS[slot] == keys
