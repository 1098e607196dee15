"""Immutable, atomically-swappable model snapshots for the read path.

The serving layer separates *writing* (the single-writer update loop
applying ``DarkVec.update(window)``) from *reading* (queries).  A
:class:`ModelSnapshot` freezes everything a query needs — the embedded
sender table, the ANN index, the labeled k-NN classifier, the cached
Louvain partition — into one object that is built off the query path
and installed with a single attribute assignment (atomic under the
GIL).  Queries grab the current snapshot once and answer entirely from
it, so an in-flight retrain never blocks or torments a reader: until
the swap they see the previous model, after it the new one, never a
mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import obs
from repro.knn.classifier import CosineKnn
from repro.labels.groundtruth import GroundTruth
from repro.trace.address import ip_to_str


class UnknownSenderError(KeyError):
    """Raised when a queried IP is not covered by the live embedding."""


def _prewarm(index, k: int) -> None:
    """Pre-touch an ANN index on the writer side before the swap.

    Faults in every mmap-backed array the index holds (raw artifacts
    load lazily, page by page; arrays the writer just built are hot
    already) and runs one small dummy search to allocate the search
    scratch buffers and populate lazy caches (e.g. the HNSW link-span
    table), so the first reader query after promotion does not pay
    those cold costs.
    """

    def touch(value) -> None:
        if (
            isinstance(value, np.memmap)
            and value.size
            and value.dtype != object
        ):
            np.add.reduce(value, axis=None)

    for value in vars(index).values():
        if isinstance(value, (list, tuple)):
            for item in value:
                touch(item)
        else:
            touch(value)
    n = len(index.units)
    if n > 1:
        # A couple of rows is enough to allocate the search scratch
        # buffers and populate lazy caches; a wider priming batch only
        # lengthens the promotion pause (the search cost is paid on
        # every promotion, the warm-up benefit only once per cache).
        rows = np.arange(min(2, n), dtype=np.int64)
        index.search(rows, min(k, n - 1), exclude_self=True)


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable serving view of a fitted DarkVec model.

    Attributes:
        version: monotone promotion counter (0 = the initial fit).
        tokens: embedded sender indices, aligned with the index rows.
        sender_ips: uint32 IP of each embedded sender (aligned with
            ``tokens``).
        knn: labeled cosine k-NN classifier sharing the live ANN
            index; ``labels`` is all-``Unknown`` without ground truth
            (classify still answers, with the honest label).
        communities: Louvain community id per embedded sender, or None
            when cluster caching is disabled.
        modularity: modularity of the cached partition (None with it).
        built_seconds: wall time spent building this snapshot — the
            "promotion pause" of the swap (queries never pause; this
            is the writer-side cost).
    """

    version: int
    tokens: np.ndarray
    sender_ips: np.ndarray
    knn: CosineKnn
    communities: np.ndarray | None
    modularity: float | None
    built_seconds: float
    _ip_order: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def of(
        darkvec,
        truth: GroundTruth | None = None,
        version: int = 0,
        k: int = 7,
        with_clusters: bool = True,
    ) -> "ModelSnapshot":
        """Freeze the installed :class:`~repro.core.stages.FittedModel`
        of ``darkvec``.

        Runs on the writer side (initial start and after each promoted
        update).  Builds the ANN index if the model does not hold a
        live one (``DarkVec._ann_index`` reuses an evolved or cached
        index when possible) and, with ``with_clusters``, computes the
        Louvain partition once so membership queries are O(1) lookups.
        """
        t0 = perf_counter()
        fitted = darkvec._require_fit()
        trace, tokens = fitted.trace, fitted.embedding.tokens
        sender_ips = trace.sender_ips[tokens].astype(np.uint32)
        # Clamp k to the embedded population (mirroring neighbors()):
        # classify excludes the query row, so a model with fewer than
        # k+1 senders would reject every query instead of answering
        # with the neighbours it has.
        k = max(1, min(int(k), len(tokens) - 1))
        index = darkvec._ann_index()
        if truth is not None:
            labels = truth.labels_for(trace)[tokens]
        else:
            from repro.labels.groundtruth import UNKNOWN

            labels = np.full(len(tokens), UNKNOWN, dtype=object)
        knn = CosineKnn(
            vectors=None,
            labels=labels,
            k=k,
            workers=darkvec.config.workers,
            index=index,
        )
        t_warm = perf_counter()
        _prewarm(index, k)
        obs.observe("serve.warmup_seconds", perf_counter() - t_warm)
        communities = modularity = None
        if with_clusters:
            result = darkvec.cluster()
            communities = result.communities
            modularity = float(result.modularity)
        return ModelSnapshot(
            version=version,
            tokens=tokens,
            sender_ips=sender_ips,
            knn=knn,
            communities=communities,
            modularity=modularity,
            built_seconds=perf_counter() - t0,
            _ip_order=np.argsort(sender_ips, kind="stable"),
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tokens)

    def row_of_ip(self, ip: int) -> int:
        """Embedding row of sender ``ip``; raises when not embedded."""
        row = int(self.rows_of_ips([ip])[0])
        if row < 0:
            raise self._unknown(ip)
        return row

    def rows_of_ips(self, ips) -> np.ndarray:
        """Embedding row per sender IP; -1 where not embedded."""
        ips = np.asarray(ips, dtype=np.uint32)
        order = self._ip_order
        pos = self.sender_ips.searchsorted(ips, sorter=order)
        rows = order[np.minimum(pos, len(order) - 1)]
        rows[self.sender_ips[rows] != ips] = -1
        return rows

    def _unknown(self, ip: int) -> UnknownSenderError:
        return UnknownSenderError(
            f"sender {ip_to_str(int(ip))} is not covered by the live "
            f"embedding (model v{self.version}, {len(self)} senders)"
        )

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    def classify(self, ip: int) -> dict:
        """Majority-vote label of the sender's k nearest neighbours: the
        one-sender :meth:`classify_many`, unwrapped."""
        result = self._only(self.classify_many([ip]), ip)
        return {**result, "version": self.version}

    def neighbors(self, ip: int, k: int | None = None) -> dict:
        """The sender's nearest embedded senders by cosine similarity:
        the one-sender :meth:`neighbors_many`, unwrapped."""
        result = self._only(self.neighbors_many([ip], k=k), ip)
        # The reply's field order: ip, version, neighbors.
        return {"ip": result["ip"], "version": self.version, **result}

    def classify_many(self, ips) -> dict:
        """Label and mean neighbour distance of each sender, from one
        shared k-NN search and vote."""
        k = self.knn.k

        def answer(rows) -> list[dict]:
            labels, distances = self.knn.predict_rows(rows, exclude_self=True)
            return [
                {"label": str(label), "mean_distance": distance, "k": k}
                for label, distance in zip(labels.tolist(), distances.tolist())
            ]

        return self._reply(ips, answer)

    def neighbors_many(self, ips, k: int | None = None) -> dict:
        """The nearest embedded senders of each sender, from one index
        search."""
        k = self.knn.k if k is None else int(k)
        if k < 1:
            raise ValueError("k must be positive")
        k = min(k, len(self) - 1)
        sender_ips, labels = self.sender_ips, self.knn.labels

        def answer(rows) -> list[dict]:
            neighbors, sims = self.knn.index.search(rows, k, exclude_self=True)
            return [
                {
                    "neighbors": [
                        {
                            "ip": ip_to_str(sender_ips[n]),
                            "similarity": s,
                            "label": str(labels[n]),
                        }
                        for n, s in zip(row_neighbors, row_sims)
                    ]
                }
                for row_neighbors, row_sims in zip(neighbors.tolist(), sims.tolist())
            ]

        return self._reply(ips, answer)

    def _reply(self, ips, answer) -> dict:
        """``{version, results}``: one row lookup, then one ``answer`` of
        a slot per embedded sender's row.  An unknown sender does not
        fail the list: its slot carries an ``"error"`` field instead."""
        ips = np.asarray(list(ips), dtype=np.uint32)
        rows = self.rows_of_ips(ips)
        known = rows[rows >= 0]
        answers = iter(answer(known) if len(known) else ())
        results = [
            {"ip": ip_to_str(ip), **next(answers)}
            if row >= 0
            else {"ip": ip_to_str(ip), "error": "unknown sender"}
            for ip, row in zip(ips.tolist(), rows.tolist())
        ]
        return {"version": self.version, "results": results}

    def _only(self, reply: dict, ip: int) -> dict:
        """The slot of a one-sender reply; raises for an unknown sender."""
        (result,) = reply["results"]
        if "error" in result:
            raise self._unknown(ip)
        return result

    def membership(self, ip: int, sample: int = 8) -> dict:
        """Cluster membership from the cached Louvain partition."""
        if self.communities is None:
            raise ValueError(
                "cluster membership is disabled for this service "
                "(started without cluster caching)"
            )
        row = self.row_of_ip(ip)
        cluster = int(self.communities[row])
        members = np.flatnonzero(self.communities == cluster)
        preview = members[members != row][: max(sample, 0)]
        return {
            "ip": ip_to_str(int(ip)),
            "version": self.version,
            "cluster": cluster,
            "size": int(len(members)),
            "modularity": self.modularity,
            "members_sample": [
                ip_to_str(int(self.sender_ips[m])) for m in preview
            ],
        }
