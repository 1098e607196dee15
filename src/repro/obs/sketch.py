"""Mergeable streaming quantile sketch (KLL-style, pure numpy).

:class:`QuantileSketch` is the registry's one distribution kind
(:mod:`repro.obs.metrics`): latencies, sentence lengths, packets per
sender, SGD batch sizes and neighbour distances all record into it, and
none of them needs bucket edges known up front.  It is a bounded-memory
compactor hierarchy in the style of the KLL sketch [Karnin, Lang,
Liberty 2016] that supports streaming inserts, snapshot/merge (the same
worker-scope machinery counters use), and ``p50/p95/p99`` accessors.

Level ``h`` holds raw values each representing ``2**h`` observations.
When a level overflows its capacity ``k``, it is sorted and every
other element is promoted to the next level (the survivor parity
alternates per compaction, so rank errors cancel in expectation
instead of accumulating with a sign).  Total retained values are
``O(k * log(n / k))`` and the rank error is a small multiple of
``levels / k`` — with the default ``k = 1024`` the observed relative
p99 error on heavy-tailed latency-shaped streams stays within a few
percent (pinned under 5% by ``tests/test_live.py``).

Compaction is deterministic for a fixed insertion order: no RNG
stream is consumed, so instrumented runs stay bit-identical to
uninstrumented ones.  Merging is associative and commutative up to
the sketch's error bound (exactly so while every level is still under
capacity, because then merging is pure concatenation).
"""

from __future__ import annotations

import math

import numpy as np

#: Default per-level capacity; a few KB per sketch, and comfortably
#: under the 5% relative p99 error budget on heavy-tailed latency
#: streams (pinned by ``tests/test_live.py``).
DEFAULT_K = 1024

#: Quantiles surfaced by dashboards, exports and ``runs show --quantiles``.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class QuantileSketch:
    """Bounded-memory streaming quantiles with snapshot/merge support.

    Attributes:
        k: per-level capacity (accuracy/memory knob).
        count: total observations folded in (across merges).
        sum: sum of all observations (means survive merge).
    """

    __slots__ = ("k", "count", "sum", "_min", "_max", "_levels", "_parity")

    def __init__(self, k: int = DEFAULT_K) -> None:
        if k < 8:
            raise ValueError(f"sketch capacity k must be >= 8, got {k}")
        self.k = int(k)
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # _levels[h] holds plain floats, each standing for 2**h values.
        self._levels: list[list[float]] = [[]]
        self._parity = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        self._levels[0].append(value)
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._levels[0]) >= self.k:
            self._compress()

    def observe_many(self, values: np.ndarray) -> None:
        """Fold a batch of observations in one pass."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        self._levels[0].extend(values.tolist())
        self.count += int(values.size)
        self.sum += float(values.sum())
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        if len(self._levels[0]) >= self.k:
            self._compress()

    def _compress(self) -> None:
        """Compact every overflowing level, cascading upward.

        An odd-sized buffer leaves one element behind (compacting pairs
        values, so only an even count keeps total weight exact); which
        end survives alternates with the same parity bit that picks the
        promoted elements.
        """
        h = 0
        while h < len(self._levels):
            buf = self._levels[h]
            if len(buf) < self.k:
                h += 1
                continue
            arr = np.sort(np.asarray(buf, dtype=np.float64))
            if len(arr) % 2:
                if self._parity:
                    leftover, arr = [float(arr[-1])], arr[:-1]
                else:
                    leftover, arr = [float(arr[0])], arr[1:]
            else:
                leftover = []
            promoted = arr[self._parity :: 2]
            self._parity ^= 1
            self._levels[h] = leftover
            if h + 1 == len(self._levels):
                self._levels.append([])
            self._levels[h + 1].extend(promoted.tolist())
            h += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def min(self) -> float | None:
        """Smallest observation, or None while empty."""
        return None if self.count == 0 else self._min

    @property
    def max(self) -> float | None:
        """Largest observation, or None while empty."""
        return None if self.count == 0 else self._max

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 while empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (NaN while empty).

        Every retained value is a real observation, so estimates always
        lie inside ``[min, max]``; ``q=0``/``q=1`` return the exact
        extremes (tracked separately, so compaction cannot lose them).
        """
        if self.count == 0:
            return math.nan
        q = min(max(float(q), 0.0), 1.0)
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        values, weights = [], []
        for h, buf in enumerate(self._levels):
            if buf:
                values.append(np.asarray(buf, dtype=np.float64))
                weights.append(np.full(len(buf), float(1 << h)))
        v = np.concatenate(values)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        cw = np.cumsum(w)
        idx = int(np.searchsorted(cw, q * cw[-1], side="left"))
        return float(v[min(idx, len(v) - 1)])

    @property
    def p50(self) -> float:
        """Estimated median."""
        return self.quantile(0.5)

    @property
    def p95(self) -> float:
        """Estimated 95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """Estimated 99th percentile."""
        return self.quantile(0.99)

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict (JSON-ready) form for snapshots and export."""
        return {
            "k": self.k,
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self._min,
            "max": None if self.count == 0 else self._max,
            "parity": self._parity,
            "levels": [list(buf) for buf in self._levels],
        }

    def merge_dict(self, data: dict) -> None:
        """Fold a :meth:`to_dict` snapshot into this sketch.

        Levels concatenate weight-for-weight, then any overflowing
        level compacts; capacities must match.
        """
        if int(data["k"]) != self.k:
            raise ValueError("cannot merge sketches with different capacities")
        self.count += int(data["count"])
        self.sum += float(data["sum"])
        if data.get("min") is not None:
            self._min = min(self._min, float(data["min"]))
        if data.get("max") is not None:
            self._max = max(self._max, float(data["max"]))
        for h, buf in enumerate(data["levels"]):
            while len(self._levels) <= h:
                self._levels.append([])
            self._levels[h].extend(float(x) for x in buf)
        self._compress()

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one."""
        self.merge_dict(other.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Reconstruct a sketch from its :meth:`to_dict` form."""
        sketch = cls(k=int(data["k"]))
        sketch.count = int(data["count"])
        sketch.sum = float(data["sum"])
        sketch._min = math.inf if data.get("min") is None else float(data["min"])
        sketch._max = -math.inf if data.get("max") is None else float(data["max"])
        sketch._parity = int(data.get("parity", 0))
        sketch._levels = [
            [float(x) for x in buf] for buf in data["levels"]
        ] or [[]]
        return sketch


def summarize(data: dict) -> dict:
    """Compact summary (count/sum/min/max/p50/p95/p99) of a sketch dict.

    This is what live frames, NDJSON exports and ``runs show
    --quantiles`` surface instead of the raw level buffers.
    """
    sketch = QuantileSketch.from_dict(data)
    summary = {
        "count": sketch.count,
        "sum": sketch.sum,
        "min": sketch.min,
        "max": sketch.max,
    }
    for q in SUMMARY_QUANTILES:
        value = sketch.quantile(q)
        summary[f"p{int(q * 100)}"] = None if math.isnan(value) else value
    return summary
