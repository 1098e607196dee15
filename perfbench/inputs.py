"""Seeded input files for the benchmark workloads.

Every input is a file the system process reads: trace CSVs in the
program's own format (``repro.io.csvio``) and ground-truth label CSVs.
The same seed always gives byte-identical files.  The paper scenario
comes from the program's simulator; the synthetic shapes are built
here, column by column, because the simulator would dominate the run
at hundreds of thousands of senders.  Both are written by the
vectorized writer below rather than the program's row-by-row one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HEADER = "timestamp,src_ip,dst_host,dst_port,proto,mirai\n"
DELTA_T = 1800.0
BASE_TIME = 1_600_000_000.0
BASE_IP = 0x0A000000


def _dotted(ips: np.ndarray) -> list[str]:
    ips = np.asarray(ips, dtype=np.uint32)
    quads = [(ips >> shift) & 0xFF for shift in (24, 16, 8, 0)]
    return [f"{a}.{b}.{c}.{d}" for a, b, c, d in zip(*(q.tolist() for q in quads))]


def write_trace_csv(
    path: Path,
    times: np.ndarray,
    ips: np.ndarray,
    receivers: np.ndarray | None = None,
    ports: np.ndarray | None = None,
    protos: list[str] | None = None,
    mirai: np.ndarray | None = None,
) -> None:
    """One packet per row, in the format ``read_trace_csv`` parses.

    Columns left out default to TCP/23 from a receiver derived from
    the sender address, without the Mirai fingerprint.
    """
    n = len(times)
    order = np.argsort(times, kind="stable")
    receivers = (ips % 256) if receivers is None else receivers
    ports = np.full(n, 23) if ports is None else ports
    protos = ["tcp"] * n if protos is None else protos
    mirai = np.zeros(n, dtype=int) if mirai is None else mirai
    columns = zip(
        times[order].tolist(),
        _dotted(ips[order]),
        np.asarray(receivers)[order].tolist(),
        np.asarray(ports)[order].tolist(),
        [protos[i] for i in order.tolist()],
        np.asarray(mirai, dtype=int)[order].tolist(),
    )
    with path.open("w", newline="") as handle:
        handle.write(HEADER)
        handle.writelines(f"{t:.6f},{ip},{r},{p},{q},{m}\n" for t, ip, r, p, q, m in columns)


def write_labels_csv(path: Path, ips: np.ndarray, labels: list[str]) -> None:
    with path.open("w", newline="") as handle:
        handle.write("src_ip,label\n")
        handle.writelines(f"{ip},{label}\n" for ip, label in zip(_dotted(ips), labels))


def window_traffic(
    sender_ips: np.ndarray,
    packets_per_sender: int,
    senders_per_window: int,
    first_window: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Packet times and IPs: senders fill consecutive dT windows.

    The shape of the repository's scale and serve benchmarks: every
    sender sends ``packets_per_sender`` packets inside its own window,
    ``senders_per_window`` senders per window.
    """
    n = len(sender_ips)
    window_of = np.arange(n) // senders_per_window + first_window
    pkt_ips = np.repeat(sender_ips, packets_per_sender)
    pkt_windows = np.repeat(window_of, packets_per_sender)
    offsets = rng.uniform(0.0, DELTA_T - 1.0, size=len(pkt_ips))
    return BASE_TIME + pkt_windows * DELTA_T + offsets, pkt_ips


def paper_inputs(out: Path, seed: int, scale: float, days: float) -> tuple[Path, Path]:
    """The EXPERIMENTS.md scenario from the program's own simulator.

    Written with the vectorized writer above: the columns ``repro
    simulate`` writes, in a fraction of its time.
    """
    from repro.trace import default_scenario, generate_trace
    from repro.trace.packet import proto_name

    bundle = generate_trace(default_scenario(scale=scale, days=days, seed=seed))
    trace = bundle.trace
    names = {int(p): proto_name(p) for p in np.unique(trace.protos)}
    path, labels = out / "trace.csv", out / "labels.csv"
    write_trace_csv(
        path,
        trace.times,
        trace.sender_ips[trace.senders].astype(np.uint32),
        trace.receivers,
        trace.ports,
        [names[int(p)] for p in trace.protos.tolist()],
        trace.mirai,
    )
    by_ip = bundle.truth.by_ip
    ips = np.array(sorted(by_ip), dtype=np.uint32)
    write_labels_csv(labels, ips, [by_ip[int(ip)] for ip in ips.tolist()])
    return path, labels


def scale_inputs(
    out: Path, seed: int, n_senders: int, senders_per_window: int, classes: int
) -> tuple[Path, Path]:
    """``n_senders`` senders of two packets each, plus synthetic labels."""
    rng = np.random.default_rng(seed)
    ips = (np.arange(n_senders, dtype=np.uint32) + BASE_IP).astype(np.uint32)
    times, pkt_ips = window_traffic(ips, 2, senders_per_window, 0, rng)
    trace, labels = out / "trace.csv", out / "labels.csv"
    write_trace_csv(trace, times, pkt_ips)
    classes_of = rng.integers(0, classes, size=n_senders)
    write_labels_csv(labels, ips, [f"class{c}" for c in classes_of.tolist()])
    return trace, labels


def serve_inputs(
    out: Path,
    seed: int,
    n_senders: int,
    senders_per_window: int,
    batches: int,
    batch_senders: int,
) -> tuple[Path, list[Path]]:
    """The served model's trace and the micro-batches ingested later.

    Batches land in windows strictly after the fitted trace and draw
    their senders from a pool slightly larger than the fitted one, so
    each batch holds re-observed senders (the warm path) and fresh
    ones.
    """
    rng = np.random.default_rng(seed)
    pool = n_senders + batch_senders
    ids = np.sort(rng.permutation(pool)[:n_senders])
    times, pkt_ips = window_traffic(
        (ids + BASE_IP).astype(np.uint32), 2, senders_per_window, 0, rng
    )
    fit = out / "fit.csv"
    write_trace_csv(fit, times, pkt_ips)
    first = n_senders // senders_per_window + 1
    paths = []
    for b in range(batches):
        chosen = np.sort(rng.permutation(pool)[:batch_senders])
        times, pkt_ips = window_traffic(
            (chosen + BASE_IP).astype(np.uint32), 2, senders_per_window,
            first + 2 * b, rng,
        )
        path = out / f"batch{b}.csv"
        write_trace_csv(path, times, pkt_ips)
        paths.append(path)
    return fit, paths
