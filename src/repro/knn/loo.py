"""Leave-one-out evaluation over an embedded, labelled population.

This is the validation protocol of Sections 4 and 6: for every labelled
sender, hide its label, find its k nearest neighbours among *all*
senders (including Unknown ones), and predict by majority vote.
"""

from __future__ import annotations

import numpy as np

from repro.ann.base import AnnSpec, NeighborIndex
from repro.knn.classifier import CosineKnn


def leave_one_out_predictions(
    vectors: np.ndarray,
    labels: np.ndarray,
    eval_rows: np.ndarray,
    k: int = 7,
    workers: int = 1,
    spec: AnnSpec | None = None,
    index: NeighborIndex | None = None,
) -> np.ndarray:
    """LOO predictions for ``eval_rows``.

    Each evaluated row is excluded from its own neighbourhood; all other
    rows (whatever their label, Unknown included) may vote.  ``workers``
    parallelises the neighbour search without changing the predictions;
    ``spec`` selects the search backend, and ``index`` reuses an
    already-built index over the same vectors.
    """
    classifier = CosineKnn(
        vectors, labels, k=k, workers=workers, spec=spec, index=index
    )
    predictions, _ = classifier.predict_rows(
        np.asarray(eval_rows), exclude_self=True
    )
    return predictions
