"""Epoch-level training progress events.

:class:`~repro.w2v.model.Word2Vec` (and therefore
:meth:`~repro.core.pipeline.DarkVec.fit`) accepts a ``progress``
callback that receives one :class:`ProgressEvent` per finished epoch —
pairs/sec, a loss estimate and an ETA (skip-gram only; CBOW reports
no loss).  The callback runs outside the hot loop and consumes no
randomness, so providing one does not perturb the bit-reproducible
``workers=1`` path.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of training progress after one epoch.

    Attributes:
        epoch: 0-based index of the epoch that just finished.
        total_epochs: total epochs this fit will run.
        pairs_processed: skip-gram pairs trained so far (all epochs).
        total_pairs: planned pair total (expected count x epochs).
        elapsed_seconds: wall time since training started.
        pairs_per_second: overall training throughput so far.
        eta_seconds: projected seconds until the fit completes.
        loss: mean positive-pair loss ``-log s(u.v)`` over the finished
            epoch — a cheap monotone health signal, not the full SGNS
            objective — or ``None`` when no pairs were seen.
    """

    epoch: int
    total_epochs: int
    pairs_processed: int
    total_pairs: int
    elapsed_seconds: float
    pairs_per_second: float
    eta_seconds: float
    loss: float | None


def epoch_event(
    epoch: int,
    total_epochs: int,
    pairs_processed: int,
    total_pairs: int,
    elapsed_seconds: float,
    loss: float | None = None,
) -> ProgressEvent:
    """Build a :class:`ProgressEvent`, deriving rate and ETA."""
    rate = pairs_processed / elapsed_seconds if elapsed_seconds > 0 else 0.0
    remaining = max(total_pairs - pairs_processed, 0)
    eta = remaining / rate if rate > 0 else 0.0
    return ProgressEvent(
        epoch=epoch,
        total_epochs=total_epochs,
        pairs_processed=int(pairs_processed),
        total_pairs=int(total_pairs),
        elapsed_seconds=elapsed_seconds,
        pairs_per_second=rate,
        eta_seconds=eta,
        loss=loss,
    )
