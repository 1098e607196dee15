"""NDJSON serialisation: traces, record files and append-only logs.

One JSON object per packet — the interchange format friendliest to
log pipelines; gzip keeps month-long traces manageable.  Round-trips
exactly like the CSV format.  The same line format carries telemetry
exports (written whole, :func:`write_ndjson`) and the append-only logs
(:func:`append_ndjson`, tailed by :func:`tail_ndjson`).
"""

from __future__ import annotations

import gzip
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.trace.address import BadValueError, ip_to_str, strs_to_ips
from repro.trace.packet import PROTO_NAMES, Trace, proto_name

_PROTO_NUM = {name: number for number, name in PROTO_NAMES.items()}


def _open(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


@contextmanager
def _atomic_open(path: Path) -> Iterator[IO[str]]:
    """Open a temp file for writing; publish it at ``path`` on success.

    The payload is written to ``<name>.tmp<pid>`` in the destination
    directory and moved into place with :func:`os.replace` only after
    the handle closes cleanly, so a crash mid-write can never leave a
    truncated file under the published name — the previous version (if
    any) stays intact.  Compression still follows the *final* suffix.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        if path.suffix == ".gz":
            handle = gzip.open(tmp, "wt", encoding="utf-8")
        else:
            handle = tmp.open("w", encoding="utf-8")
        with handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _line(record) -> str:
    """One record as a compact JSON line; non-JSON values fall back to
    their ``str()`` form."""
    return json.dumps(record, separators=(",", ":"), default=str) + "\n"


def write_ndjson(records, path: str | Path) -> None:
    """Write an iterable of JSON-serialisable dicts, one per line.

    The generic sibling of :func:`write_trace_ndjson`, used by the
    telemetry exporter (:mod:`repro.obs.export`) and any other
    whole-file record producer.  Gzip-compresses when the path ends in
    ``.gz``.  The write is crash-safe: records land in a temp file that
    replaces ``path`` atomically once complete.
    """
    path = Path(path)
    with _atomic_open(path) as handle:
        for record in records:
            handle.write(_line(record))


def append_ndjson(record, path: str | Path) -> None:
    """Append one record to an NDJSON log as one line, in one write.

    The appender of the append-only logs: the live telemetry stream
    (:class:`repro.obs.live.TelemetrySink`) and the run registry
    (:mod:`repro.obs.registry`).  A reader tailing the file with
    :func:`tail_ndjson` sees at most one unfinished last line.  If a
    crash left the last line unfinished, that line is ended first, so
    readers skip the fragment and not this record.
    """
    data = _line(record).encode("utf-8")
    with open(path, "a+b", buffering=0) as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)


def tail_ndjson(path: str | Path, offset: int = 0) -> tuple[list[dict], int]:
    """Complete records appended to ``path`` since byte ``offset``.

    Returns ``(records, new_offset)``.  An unfinished last line (a
    write caught mid-way) is left unconsumed for the next call, so
    callers can poll in a ``tail -f`` loop from another process; a
    malformed line (a fragment a crash left behind) is skipped; a
    missing file reads as no records.
    """
    try:
        with Path(path).open("rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    records = []
    for line in chunk[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records, offset + end + 1


def read_ndjson(path: str | Path) -> list[dict]:
    """Read a file written by :func:`write_ndjson` back into dicts.

    Blank lines are skipped; malformed lines raise :class:`ValueError`
    with the offending line number.
    """
    path = Path(path)
    records: list[dict] = []
    with _open(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed record ({exc})"
                ) from None
    return records


def write_trace_ndjson(trace: Trace, path: str | Path) -> None:
    """Write a trace as NDJSON (gzip when the path ends in ``.gz``).

    Crash-safe like :func:`write_ndjson`: the file appears under its
    final name only once fully written.
    """
    path = Path(path)
    ips = trace.sender_ips
    with _atomic_open(path) as handle:
        for i in range(len(trace)):
            record = {
                "ts": round(float(trace.times[i]), 6),
                "src": ip_to_str(ips[trace.senders[i]]),
                "dst": int(trace.receivers[i]),
                "port": int(trace.ports[i]),
                "proto": proto_name(trace.protos[i]),
                "mirai": bool(trace.mirai[i]),
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_trace_ndjson(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace_ndjson`.

    Errors name the file and the line of the first bad record.
    """
    path = Path(path)
    times, ips, receivers, ports, protos, mirai = [], [], [], [], [], []
    lines: list[int] = []  # file line of each record
    with _open(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                times.append(float(_number(record, "ts")))
                if not isinstance(record["src"], str):
                    raise ValueError(f"src {record['src']!r} is not a dotted quad")
                ips.append(record["src"])
                receivers.append(_number(record, "dst"))
                ports.append(_number(record, "port"))
                protos.append(_PROTO_NUM[record["proto"]])
                if record["mirai"] not in (0, 1):  # true/false or 0/1
                    raise ValueError(f"mirai {record['mirai']!r} is not a flag")
                mirai.append(bool(record["mirai"]))
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed record ({exc})"
                ) from None
            lines.append(line_number)
    # Addresses and ranges are checked a column at a time; the index of
    # the first bad entry maps back to its line.
    try:
        return Trace.from_events(
            times=np.array(times),
            sender_ips_per_packet=strs_to_ips(ips),
            ports=np.array(ports),
            protos=np.array(protos),
            receivers=np.array(receivers),
            mirai=np.array(mirai),
        )
    except BadValueError as exc:
        line_number = lines[exc.index]
        raise ValueError(f"{path}:{line_number}: malformed record ({exc})") from None


def _number(record: dict, key: str) -> int | float:
    """``record[key]`` if it is a JSON number (range-checked later);
    ``true`` and ``false`` are not numbers."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} {value!r} is not a number")
    return value
