"""Packet trace container.

A :class:`Trace` is a column-oriented, numpy-backed batch of darknet
packets, sorted by timestamp.  Senders are interned: the per-packet
``senders`` column holds indices into ``sender_ips``, so per-sender
aggregations are plain ``bincount`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.address import BadValueError

TCP = 6
UDP = 17
ICMP = 1

#: IP protocol number -> the name trace files use.
PROTO_NAMES = {TCP: "tcp", UDP: "udp", ICMP: "icmp"}

SECONDS_PER_DAY = 86_400

#: Inclusive range of each integer column :meth:`Trace.from_events` takes.
COLUMN_RANGES = {
    "sender_ips_per_packet": (0, 2**32 - 1),
    "ports": (0, 65_535),
    "receivers": (0, 255),
    "mirai": (0, 1),
}


def _first_bad(name: str, values: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise :class:`BadValueError` at the first ``bad`` entry, if any."""
    if bad.any():
        index = int(np.argmax(bad))
        value = values[index].item()
        raise BadValueError(f"column {name} holds {value!r}, not {what}", index)


def _refuse_bools(name: str, values, what: str) -> None:
    """Raise :class:`BadValueError` at the first boolean of a numeric
    column.  numpy reads ``[True, 23]`` as ``[1, 23]``, so a Python
    sequence is checked value by value, before it becomes an array."""
    if isinstance(values, np.ndarray):
        index = 0 if values.dtype.kind == "b" and len(values) else None
    else:
        index = next(
            (i for i, v in enumerate(values) if isinstance(v, (bool, np.bool_))), None
        )
    if index is not None:
        value = bool(values[index])
        raise BadValueError(f"column {name} holds {value!r}, not {what}", index)


def _in_range(name: str, values) -> np.ndarray:
    """``values`` as an array, checked against :data:`COLUMN_RANGES`.

    Every entry must be a whole number in the column's range; only the
    ``mirai`` flag may hold booleans.
    """
    low, high = COLUMN_RANGES[name]
    what = f"an integer in [{low}, {high}]"
    if name != "mirai":
        _refuse_bools(name, values, what)
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"column {name} holds {values.dtype} values, not {what}")
    bad = (values < low) | (values > high)
    if values.dtype.kind == "f":
        bad |= values != np.trunc(values)  # fractions, and NaN
    _first_bad(name, values, bad, what)
    return values


def proto_name(proto: int) -> str:
    """Human-readable protocol name (``tcp``/``udp``/``icmp``)."""
    try:
        return PROTO_NAMES[int(proto)]
    except KeyError:
        raise ValueError(f"unknown protocol number {proto}") from None


@dataclass
class Trace:
    """A timestamp-sorted packet trace.

    Attributes:
        times: float64 seconds since the epoch, non-decreasing.
        senders: int32 index of the sending IP into ``sender_ips``.
        ports: int32 destination port (0 for ICMP).
        protos: uint8 IP protocol number (6, 17 or 1).
        receivers: uint8 last octet of the targeted darknet /24 address.
        mirai: bool, True when the packet carries the Mirai fingerprint
            (TCP sequence number equal to the destination address).
        sender_ips: uint32 array mapping sender index -> IPv4 address.
    """

    times: np.ndarray
    senders: np.ndarray
    ports: np.ndarray
    protos: np.ndarray
    receivers: np.ndarray
    mirai: np.ndarray
    sender_ips: np.ndarray
    _packet_counts: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("senders", "ports", "protos", "receivers", "mirai"):
            column = getattr(self, name)
            if len(column) != n:
                raise ValueError(f"column {name} has length {len(column)}, expected {n}")
        if n and np.any(np.diff(self.times) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        if n and (self.senders.min() < 0 or self.senders.max() >= len(self.sender_ips)):
            raise ValueError("sender index out of range of sender_ips")

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_packets(self) -> int:
        """Number of packets in the trace."""
        return len(self.times)

    @property
    def n_senders(self) -> int:
        """Number of interned sender addresses (not all need packets)."""
        return len(self.sender_ips)

    @property
    def start_time(self) -> float:
        """Timestamp of the first packet."""
        if not len(self):
            raise ValueError("empty trace has no start time")
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        """Timestamp of the last packet."""
        if not len(self):
            raise ValueError("empty trace has no end time")
        return float(self.times[-1])

    @property
    def duration_days(self) -> float:
        """Span of the trace in days."""
        if not len(self):
            return 0.0
        return (self.end_time - self.start_time) / SECONDS_PER_DAY

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def packet_counts(self) -> np.ndarray:
        """Packets sent by each interned sender (len == n_senders)."""
        if self._packet_counts is None:
            self._packet_counts = np.bincount(
                self.senders, minlength=self.n_senders
            )
        return self._packet_counts

    def active_senders(self, min_packets: int = 10) -> np.ndarray:
        """Indices of senders with at least ``min_packets`` packets.

        This is the paper's activity filter (Section 3.1): only senders
        with >= 10 packets in the observation period are analysed.
        """
        if min_packets < 1:
            raise ValueError("min_packets must be positive")
        return np.flatnonzero(self.packet_counts() >= min_packets)

    def observed_senders(self) -> np.ndarray:
        """Indices of senders with at least one packet."""
        return np.flatnonzero(self.packet_counts() > 0)

    def distinct_ports(self) -> int:
        """Number of distinct (port, protocol) pairs targeted."""
        if not len(self):
            return 0
        keys = self.ports.astype(np.int64) * 256 + self.protos
        return int(np.unique(keys).size)

    def port_packet_counts(self) -> dict[tuple[int, int], int]:
        """Packets per (port, protocol) pair, as a dict."""
        if not len(self):
            return {}
        keys = self.ports.astype(np.int64) * 256 + self.protos
        uniq, counts = np.unique(keys, return_counts=True)
        return {
            (int(key // 256), int(key % 256)): int(count)
            for key, count in zip(uniq, counts)
        }

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "Trace":
        """New trace containing only packets where ``mask`` is True.

        The sender table is shared (indices stay valid), which keeps
        labels and per-sender arrays comparable across selections.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or len(mask) != len(self):
            raise ValueError("mask must be a boolean array aligned with the trace")
        return Trace(
            times=self.times[mask],
            senders=self.senders[mask],
            ports=self.ports[mask],
            protos=self.protos[mask],
            receivers=self.receivers[mask],
            mirai=self.mirai[mask],
            sender_ips=self.sender_ips,
        )

    def between(self, t_start: float, t_end: float) -> "Trace":
        """Packets with timestamp in ``[t_start, t_end)``."""
        lo = int(np.searchsorted(self.times, t_start, side="left"))
        hi = int(np.searchsorted(self.times, t_end, side="left"))
        mask = np.zeros(len(self), dtype=bool)
        mask[lo:hi] = True
        return self.select(mask)

    def last_days(self, days: float) -> "Trace":
        """Packets in the final ``days`` days of the trace."""
        if not len(self):
            return self
        return self.between(self.end_time - days * SECONDS_PER_DAY, np.inf)

    def first_days(self, days: float) -> "Trace":
        """Packets in the initial ``days`` days of the trace."""
        if not len(self):
            return self
        return self.between(-np.inf, self.start_time + days * SECONDS_PER_DAY)

    def from_senders(self, sender_indices: np.ndarray) -> "Trace":
        """Packets emitted by any of ``sender_indices``."""
        keep = np.zeros(self.n_senders, dtype=bool)
        keep[np.asarray(sender_indices, dtype=np.int64)] = True
        return self.select(keep[self.senders])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_events(
        times: np.ndarray,
        sender_ips_per_packet: np.ndarray,
        ports: np.ndarray,
        protos: np.ndarray,
        receivers: np.ndarray,
        mirai: np.ndarray,
        extra_sender_ips: np.ndarray | None = None,
    ) -> "Trace":
        """Build a sorted trace from unsorted event columns.

        ``sender_ips_per_packet`` holds raw uint32 addresses; they are
        interned into the trace sender table.  ``extra_sender_ips`` adds
        addresses with no packets (used by tests to model senders whose
        traffic was fully filtered).  Every reader builds its trace here,
        so a value that is not a finite time, a known protocol or a
        whole number in its column's :data:`COLUMN_RANGES` raises
        :class:`~repro.trace.address.BadValueError` naming the column
        (its ``index`` is the event's) rather than wrapping or being
        truncated.
        """
        _refuse_bools("times", times, "a finite number")
        times = np.asarray(times, dtype=np.float64)
        _first_bad("times", times, ~np.isfinite(times), "a finite number")
        order = np.argsort(times, kind="stable")
        raw_ips = _in_range("sender_ips_per_packet", sender_ips_per_packet)
        ports = _in_range("ports", ports)
        receivers = _in_range("receivers", receivers)
        mirai = _in_range("mirai", mirai)
        known = ", ".join(str(p) for p in sorted(PROTO_NAMES))
        _refuse_bools("protos", protos, f"one of {known}")
        protos = np.asarray(protos)
        _first_bad(
            "protos", protos, ~np.isin(protos, list(PROTO_NAMES)), f"one of {known}"
        )
        raw_ips = raw_ips.astype(np.uint64)
        if extra_sender_ips is not None:
            pool = np.concatenate([raw_ips, np.asarray(extra_sender_ips, np.uint64)])
        else:
            pool = raw_ips
        table, inverse = np.unique(pool, return_inverse=True)
        senders = inverse[: len(raw_ips)].astype(np.int32)[order]
        return Trace(
            times=times[order],
            senders=senders,
            ports=np.asarray(ports, dtype=np.int32)[order],
            protos=np.asarray(protos, dtype=np.uint8)[order],
            receivers=np.asarray(receivers, dtype=np.uint8)[order],
            mirai=np.asarray(mirai, dtype=bool)[order],
            sender_ips=table.astype(np.uint32),
        )

    @staticmethod
    def empty() -> "Trace":
        """An empty trace with no packets and no senders."""
        return Trace(
            times=np.empty(0, dtype=np.float64),
            senders=np.empty(0, dtype=np.int32),
            ports=np.empty(0, dtype=np.int32),
            protos=np.empty(0, dtype=np.uint8),
            receivers=np.empty(0, dtype=np.uint8),
            mirai=np.empty(0, dtype=bool),
            sender_ips=np.empty(0, dtype=np.uint32),
        )
