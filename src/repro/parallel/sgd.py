"""Vectorized SGNS kernels for the skip-gram trainer.

Three optimisations make the batched step cheap:

* a word2vec-style sigmoid lookup table (the logistic function is a
  large share of a naive step's profile);
* scatter-adds expressed as one selection-matrix × dense-matrix
  product — a ``scipy.sparse`` selector at training batch sizes, a
  dense one for tiny problems — which is several times faster than the
  sort + ``reduceat`` fallback;
* per-batch deduplication of (center, context) pairs: darknet corpora
  are extremely repetitive, so collapsing the duplicates of one SGD
  batch and scaling the positive gradient by the multiplicity does the
  same SGD work on fewer rows.  Within one batch the duplicate pairs
  would have computed identical scores from the same stale vectors, so
  the summed positive gradient is exactly ``multiplicity ×`` the
  single-pair gradient.  Across batches the vectors move, so pairs are
  never merged beyond their own batch.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.w2v.mathutils import scatter_add
from repro.w2v.negative import NegativeSampler

try:  # scipy is a declared dependency, but degrade gracefully without it
    import scipy.sparse as _sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _sparse = None

_TABLE_SIZE = 2048
_TABLE_CLAMP = 12.0
_SIG_TABLE = (
    1.0
    / (1.0 + np.exp(-np.linspace(-_TABLE_CLAMP, _TABLE_CLAMP, _TABLE_SIZE)))
).astype(np.float32)
_SIG_SCALE = np.float32((_TABLE_SIZE - 1) / (2.0 * _TABLE_CLAMP))

#: Scatters into at most this many ``rows × batch`` cells use a dense
#: selector matrix: one small BLAS matmul, several times faster on tiny
#: batches than either the ``scipy.sparse`` build (~0.1 ms fixed cost)
#: or the sort + ``reduceat`` fallback.
DENSE_SELECTOR_CELLS = 1 << 16

#: Unique pairs sharing one negative draw.  The shuffled per-batch
#: uniques decorrelate the groups, which is what makes wide sharing
#: safe (and fast).
SHARED_NEGATIVES = 64


def sigmoid_table(x: np.ndarray) -> np.ndarray:
    """Table-lookup logistic function (word2vec's EXP_TABLE trick).

    Quantises the input to one of 2048 buckets on [-12, 12]; the
    resulting resolution (~0.012 in x) is far below the SGD noise floor
    and several times faster than evaluating ``exp``.
    """
    idx = ((x + np.float32(_TABLE_CLAMP)) * _SIG_SCALE).astype(np.int32)
    return _SIG_TABLE.take(idx, mode="clip")


def scaled_scatter_add(
    matrix: np.ndarray,
    rows: np.ndarray,
    updates: np.ndarray,
    scale: np.ndarray | None = None,
) -> None:
    """``matrix[rows] += scale[:, None] * updates`` with duplicates summed.

    The scatter is a selection matrix (n_rows × batch, one ``scale``
    entry per column) times the dense update block: a dense selector
    for small problems (:data:`DENSE_SELECTOR_CELLS`), a CSR one when
    scipy is available and the batch is large relative to the matrix,
    and a sort + reduce otherwise.  Folding ``scale`` into the selector
    avoids materialising the scaled update block.
    """
    batch = len(rows)
    if batch == 0:
        return
    n_rows = len(matrix)
    data = np.ones(batch, dtype=np.float32) if scale is None else scale
    if n_rows * batch <= DENSE_SELECTOR_CELLS:
        selector = np.zeros((n_rows, batch), dtype=np.float32)
        selector[rows, np.arange(batch)] = data
        matrix += selector @ updates
    elif _sparse is not None and n_rows <= 8 * batch:
        selector = _sparse.csr_matrix(
            (data, (rows, np.arange(batch))), shape=(n_rows, batch)
        )
        np.add(matrix, selector @ updates, out=matrix)
    else:
        if scale is not None:
            updates = updates * scale[:, None]
        scatter_add(matrix, rows, updates)


def dedup_pairs(
    centers: np.ndarray, contexts: np.ndarray, n_vocab: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (center, context) pairs to uniques + counts.

    Returns ``(unique_centers, unique_contexts, multiplicity)`` where
    ``multiplicity`` is float32 and sums to ``len(centers)``.  The
    uniques come out sorted by ``center * n_vocab + context``; callers
    that feed them to SGD with shared negative groups MUST shuffle them
    first, otherwise same-center pairs land in the same group and share
    one correlated negative draw, which measurably degrades embeddings.
    """
    key = centers.astype(np.int64) * np.int64(n_vocab) + contexts.astype(np.int64)
    unique_keys, multiplicity = np.unique(key, return_counts=True)
    unique_centers = unique_keys // n_vocab
    unique_contexts = unique_keys - unique_centers * n_vocab
    return (
        unique_centers.astype(np.int64),
        unique_contexts.astype(np.int64),
        multiplicity.astype(np.float32),
    )


def sgd_step_fast(
    syn0: np.ndarray,
    syn1: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    multiplicity: np.ndarray,
    sampler: NegativeSampler | None,
    negative: int,
    lr: float,
    rng: np.random.Generator,
    track_loss: bool = False,
) -> float | None:
    """One batched SGNS step over deduplicated (center, context) pairs.

    Each *raw* pair contributes one positive and ``negative`` negative
    samples of the SGNS objective; each unique pair's gradient is
    scaled by its ``multiplicity``, scores come from
    :func:`sigmoid_table`, scatter-adds go through
    :func:`scaled_scatter_add`, and groups of :data:`SHARED_NEGATIVES`
    consecutive pairs share one negative draw (grouped BLAS matmuls
    instead of per-pair ``(B, K, V)`` elementwise work, with the same
    expected gradient).

    Args:
        syn0, syn1: input/output embedding matrices, updated in place.
        centers, contexts: unique pair arrays (pre-shuffled).
        multiplicity: float32 raw-pair count per unique pair.
        sampler: negative sampler (``None`` disables negatives).
        negative: negative samples per raw pair.
        lr: learning rate for this batch.
        rng: randomness for the negative draws.
        track_loss: when true, return the multiplicity-weighted sum of
            the positive-pair losses ``-log σ(u·v)`` (else ``None``).
            Off by default — the extra ``log`` is not free.

    Returns:
        The batch's summed positive-pair loss when ``track_loss`` is
        set, otherwise ``None``.
    """
    n_pairs = len(centers)
    if n_pairs == 0:
        return 0.0 if track_loss else None
    lr32 = np.float32(lr)
    dim = syn0.shape[1]
    # Balanced groups of at most SHARED_NEGATIVES pairs share one
    # negative draw; the last is padded with zero-weight rows, which
    # add no gradient.  Gathering straight into the padded block keeps
    # the padding free of copies (``mode="clip"`` skips take's buffered
    # bounds check; the ids are vocabulary rows).
    n_groups = -(-n_pairs // SHARED_NEGATIVES)
    group = -(-n_pairs // n_groups)
    padded = n_groups * group
    grouped = np.zeros((padded, dim), dtype=np.float32)
    center_vecs = np.take(syn0, centers, axis=0, out=grouped[:n_pairs], mode="clip")
    context_vecs = syn1[contexts]

    pos_scores = sigmoid_table(np.einsum("ij,ij->i", center_vecs, context_vecs))
    loss: float | None = None
    if track_loss:
        loss = float(
            (-np.log(np.maximum(pos_scores, 1e-7)) * multiplicity).sum()
        )
    g_pos = ((1.0 - pos_scores) * lr32 * multiplicity).astype(np.float32)
    grad_centers = g_pos[:, None] * context_vecs

    if sampler is not None and negative:
        weight = np.zeros(padded, dtype=np.float32)
        weight[:n_pairs] = multiplicity
        grouped = grouped.reshape(n_groups, group, dim)
        negatives = sampler.sample(rng, (n_groups, negative))  # (G, K)
        obs.add("train.negative_draws", int(negatives.size))
        neg_vecs = syn1[negatives]  # (G, K, V)
        scores = sigmoid_table(np.matmul(grouped, neg_vecs.transpose(0, 2, 1)))
        g_neg = (-scores * (lr32 * weight).reshape(n_groups, group, 1)).astype(
            np.float32
        )
        grad_centers += np.matmul(g_neg, neg_vecs).reshape(padded, dim)[:n_pairs]
        grad_negatives = np.matmul(g_neg.transpose(0, 2, 1), grouped)
        scaled_scatter_add(
            syn1, negatives.reshape(-1), grad_negatives.reshape(-1, dim)
        )

    # Fused: the context gradient is g_pos * center_vecs, so folding
    # g_pos into the selector skips the dense outer product.
    scaled_scatter_add(syn1, contexts, center_vecs, scale=g_pos)
    scaled_scatter_add(syn0, centers, grad_centers)
    return loss
