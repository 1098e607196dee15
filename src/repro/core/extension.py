"""Ground-truth extension (Section 6.4).

Unknown senders classified into a ground-truth class are accepted as
new members when their mean distance to their k nearest neighbours does
not exceed the largest such distance among the class's true members —
the paper's manual-stop rule, automated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ann.base import AnnSpec, NeighborIndex
from repro.knn.classifier import CosineKnn
from repro.labels.groundtruth import UNKNOWN


@dataclass
class ExtensionResult:
    """Unknown rows accepted into each class, with their distances."""

    accepted: dict[str, np.ndarray]
    distances: dict[str, np.ndarray]

    @property
    def total_accepted(self) -> int:
        return sum(len(rows) for rows in self.accepted.values())


def extend_ground_truth(
    vectors: np.ndarray,
    labels: np.ndarray,
    k: int = 7,
    workers: int = 1,
    spec: AnnSpec | None = None,
    index: NeighborIndex | None = None,
) -> ExtensionResult:
    """Propose new class members among the Unknown senders.

    Args:
        vectors: embedding matrix.
        labels: label per row (``Unknown`` for unlabeled senders).
        k: neighbourhood size.
        workers: parallelism of the neighbour searches.
        spec: search-backend selection (None = exact).
        index: reuse an already-built index over the same vectors.

    Returns:
        Per class, the Unknown row indices accepted, sorted by
        increasing mean neighbour distance (most confident first).
    """
    labels = np.asarray(labels, dtype=object)
    classifier = CosineKnn(
        vectors, labels, k=k, workers=workers, spec=spec, index=index
    )
    unknown_rows = np.flatnonzero(labels == UNKNOWN)
    known_rows = np.flatnonzero(labels != UNKNOWN)
    accepted: dict[str, np.ndarray] = {}
    distances: dict[str, np.ndarray] = {}
    if len(unknown_rows) == 0 or len(known_rows) == 0:
        return ExtensionResult(accepted=accepted, distances=distances)

    unknown_pred, unknown_dist = classifier.predict_rows(
        unknown_rows, exclude_self=True
    )
    _, known_dist = classifier.predict_rows(known_rows, exclude_self=True)

    for name in sorted({label for label in labels if label != UNKNOWN}):
        class_rows = known_rows[labels[known_rows] == name]
        if len(class_rows) == 0:
            continue
        threshold = float(known_dist[labels[known_rows] == name].max())
        mask = (unknown_pred == name) & (unknown_dist <= threshold)
        candidate_rows = unknown_rows[mask]
        candidate_dist = unknown_dist[mask]
        order = np.argsort(candidate_dist)
        accepted[name] = candidate_rows[order]
        distances[name] = candidate_dist[order]
    return ExtensionResult(accepted=accepted, distances=distances)
