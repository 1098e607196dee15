"""ANN recall self-audit: the shared measurement and its last result.

The approximate backends (IVF, IVF-PQ, HNSW) measure their own recall
on a seeded query sample at every search via :func:`audit_recall`.
Besides the ``ann.recall_at_k`` gauge, the measurement lands in module
state so callers that did not construct the index — most importantly
the health monitors in :meth:`repro.core.pipeline.DarkVec.update`,
whose churn and LOO probes build their own ephemeral indexes — can
still judge the backend's accuracy.  Semantics mirror a gauge: last
write wins, ``None`` until an audited search has run (the exact
backend never records).

Results are kept per :func:`scope`: inside ``with scope():`` a thread
reads back only the audits its own searches recorded there, so the
serve daemon's reader threads, which search the live index while the
writer monitors a candidate, cannot overwrite the candidate's recall.
Outside any scope, audits share one process-wide record.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

import numpy as np

from repro import obs


class _Audits:
    """The audit results recorded in one scope."""

    __slots__ = ("last_recall", "audited_queries")

    def __init__(self) -> None:
        self.last_recall: float | None = None
        self.audited_queries = 0


_CURRENT: ContextVar[_Audits] = ContextVar("ann_audits", default=_Audits())


@contextmanager
def scope() -> Iterator[None]:
    """Collect the calling context's audits apart from all others.

    A :class:`~contextvars.ContextVar` scope, like
    :func:`repro.parallel.pool.pool_backend`: it covers the calling
    thread only.  Searches audit on the thread that called ``search``,
    so every audit of a search made inside the block lands in it.
    """
    token = _CURRENT.set(_Audits())
    try:
        yield
    finally:
        _CURRENT.reset(token)


def audit_recall(
    units: np.ndarray,
    rows: np.ndarray,
    neighbors: np.ndarray,
    k: int,
    exclude_self: bool,
    sample: int,
    seed: int,
) -> float | None:
    """Recall@k of ``neighbors`` vs an exact rescore of a seeded sample.

    Shared by every approximate backend: draws up to ``sample`` query
    positions, re-runs them through the exact oracle, and records the
    overlap as the ``ann.recall_at_k`` gauge and the current
    :func:`scope`'s last result.  Returns the measured recall, or None
    when ``sample`` is 0 or there are no queries.  Observation only —
    results are untouched.
    """
    from repro.ann.exact import exact_topk

    m = min(sample, len(rows))
    if m == 0:
        return None
    if m < len(rows):
        rng = np.random.default_rng(seed)
        pos = rng.choice(len(rows), m, replace=False)
    else:
        pos = np.arange(len(rows))
    exact_nb, _ = exact_topk(units, rows[pos], k, exclude_self)
    overlap = sum(
        len(np.intersect1d(neighbors[pos[i]], exact_nb[i])) for i in range(m)
    )
    recall = overlap / (m * k)
    obs.set_gauge("ann.recall_at_k", recall)
    record_recall(recall, m)
    return recall


def record_recall(value: float, sampled_queries: int) -> None:
    """Record one audit result (called by auditing backends)."""
    audits = _CURRENT.get()
    audits.last_recall = float(value)
    audits.audited_queries += int(sampled_queries)


def last_recall() -> float | None:
    """Most recent measured recall@k in this scope, or None if nothing
    was audited."""
    return _CURRENT.get().last_recall


def audited_queries() -> int:
    """Total queries exact-rescored by this scope's audits since its
    last reset."""
    return _CURRENT.get().audited_queries


def reset() -> None:
    """Forget this scope's past audits (start of a monitored phase)."""
    audits = _CURRENT.get()
    audits.last_recall = None
    audits.audited_queries = 0
