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

Every per-batch temporary of a step lives in a :class:`SgdScratch`
buffer that its worker reuses from batch to batch.  A warm step then
allocates nothing large, so its speed does not depend on whether
glibc's malloc still returns freed blocks to the OS (which makes every
fresh temporary page-fault).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro import obs
from repro.w2v.mathutils import scatter_add
from repro.w2v.negative import NegativeSampler


@functools.cache
def sparse_kernels():
    """scipy's sparse kernels, imported on the first call of a process.

    These are the kernels behind ``csr_matrix((data, (rows, cols))) @
    dense``, called directly so that they write into reused buffers;
    None without scipy.  Importing them takes about 0.1 s, so modules
    that never train (the serving path) do not pay it, and the trainer
    resolves them at the start of each fit, in the parent, so that
    forked workers inherit them instead of importing scipy each.
    """
    try:  # scipy is a declared dependency, but degrade gracefully without it
        from scipy.sparse import _sparsetools
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return _sparsetools

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


class SgdScratch:
    """Reusable per-worker buffers for the trainer's large arrays.

    :func:`sgd_step_fast` and
    :func:`~repro.w2v.skipgram.skipgram_pairs_flat` keep their
    temporaries here.  Each named buffer grows to the largest request
    it has served (with a quarter of headroom) and is handed out as a
    view after that, so its size follows the fit's shards, batch and
    vocabulary.  Buffers are not thread-safe: every concurrent
    (Hogwild) worker needs its own.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._arange = np.empty(0, dtype=np.int32)
        self._ones = np.empty(0, dtype=np.float32)

    def get(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Uninitialised C-contiguous ``shape`` view of buffer ``name``."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size + size // 4, dtype=dtype)
        return buffer[:size].reshape(shape)

    def arange(self, n: int) -> np.ndarray:
        """``0 .. n-1`` as int32 (read-only by convention)."""
        if len(self._arange) < n:
            self._arange = np.arange(n + n // 4, dtype=np.int32)
        return self._arange[:n]

    def ones(self, n: int) -> np.ndarray:
        """``n`` float32 ones (read-only by convention)."""
        if len(self._ones) < n:
            self._ones = np.ones(n + n // 4, dtype=np.float32)
        return self._ones[:n]


def sigmoid_table(
    x: np.ndarray, out: np.ndarray | None = None, index: np.ndarray | None = None
) -> np.ndarray:
    """Table-lookup logistic function (word2vec's EXP_TABLE trick).

    Quantises the input to one of 2048 buckets on [-12, 12]; the
    resulting resolution (~0.012 in x) is far below the SGD noise floor
    and several times faster than evaluating ``exp``.  With ``out`` (a
    float32 array shaped like ``x``, ``x`` itself allowed) and an int32
    ``index`` buffer of that shape it allocates nothing.
    """
    shifted = np.add(x, np.float32(_TABLE_CLAMP), out=out)
    shifted *= _SIG_SCALE
    if index is None:
        index = shifted.astype(np.int32)
    else:
        np.copyto(index, shifted, casting="unsafe")
    return _SIG_TABLE.take(index, mode="clip", out=out)


def scaled_scatter_add(
    matrix: np.ndarray,
    rows: np.ndarray,
    updates: np.ndarray,
    scale: np.ndarray | None = None,
    scratch: SgdScratch | None = None,
) -> None:
    """``matrix[rows] += scale[:, None] * updates`` with duplicates summed.

    The scatter is a selection matrix (n_rows × batch, one ``scale``
    entry per column) times the dense update block: a dense selector
    for small problems (:data:`DENSE_SELECTOR_CELLS`), a CSR one when
    scipy is available and the batch is large relative to the matrix,
    and a sort + reduce otherwise.  Folding ``scale`` into the selector
    avoids materialising the scaled update block.  The first two sum
    into a zeroed ``scratch`` matrix that is then added to ``matrix``,
    in the order ``csr_matrix @ dense`` sums; all arrays are float32.
    """
    batch = len(rows)
    if batch == 0:
        return
    scratch = SgdScratch() if scratch is None else scratch
    n_rows, dim = matrix.shape
    data = scratch.ones(batch) if scale is None else scale
    if n_rows * batch <= DENSE_SELECTOR_CELLS:
        selector = scratch.get("selector", (n_rows, batch))
        selector.fill(0.0)
        selector[rows, scratch.arange(batch)] = data
        summed = scratch.get("summed", matrix.shape)
        matrix += np.matmul(selector, updates, out=summed)
    elif n_rows <= 8 * batch and (kernels := sparse_kernels()) is not None:
        # The kernels write through these indices unchecked.
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index exceeds matrix dimensions")
        coo_rows = scratch.get("coo_rows", (batch,), np.int32)
        coo_rows[...] = rows
        indptr = scratch.get("indptr", (n_rows + 1,), np.int32)
        indices = scratch.get("indices", (batch,), np.int32)
        values = scratch.get("values", (batch,))
        columns = scratch.arange(batch)
        kernels.coo_tocsr(
            n_rows, batch, batch, coo_rows, columns, data, indptr, indices, values
        )
        summed = scratch.get("summed", matrix.shape)
        summed.fill(0.0)
        flat_updates, flat_summed = np.ravel(updates), summed.reshape(-1)
        kernels.csr_matvecs(
            n_rows, batch, dim, indptr, indices, values, flat_updates, flat_summed
        )
        np.add(matrix, summed, out=matrix)
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
    scratch: SgdScratch | None = None,
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
        scratch: the calling worker's buffers (fresh ones when omitted).

    Returns:
        The batch's summed positive-pair loss when ``track_loss`` is
        set, otherwise ``None``.
    """
    n_pairs = len(centers)
    if n_pairs == 0:
        return 0.0 if track_loss else None
    scratch = SgdScratch() if scratch is None else scratch
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
    grouped = scratch.get("grouped", (padded, dim))
    grouped[n_pairs:] = 0.0
    center_vecs = syn0.take(centers, axis=0, out=grouped[:n_pairs], mode="clip")
    context_vecs = syn1.take(
        contexts, axis=0, out=scratch.get("context_vecs", (n_pairs, dim)), mode="clip"
    )

    pos_scores = np.einsum(
        "ij,ij->i", center_vecs, context_vecs, out=scratch.get("pos", (n_pairs,))
    )
    sigmoid_table(
        pos_scores,
        out=pos_scores,
        index=scratch.get("pos_index", (n_pairs,), np.int32),
    )
    loss: float | None = None
    if track_loss:
        loss = float(
            (-np.log(np.maximum(pos_scores, 1e-7)) * multiplicity).sum()
        )
    g_pos = np.subtract(1.0, pos_scores, out=scratch.get("g_pos", (n_pairs,)))
    g_pos *= lr32
    g_pos *= multiplicity
    # g_pos * context_vecs, in place: the context rows are not read again.
    grad_centers = np.multiply(context_vecs, g_pos[:, None], out=context_vecs)

    if sampler is not None and negative:
        lr_weight = scratch.get("lr_weight", (padded,))
        lr_weight[n_pairs:] = 0.0
        np.multiply(multiplicity, lr32, out=lr_weight[:n_pairs])
        grouped = grouped.reshape(n_groups, group, dim)
        negatives = sampler.sample(rng, (n_groups, negative))  # (G, K)
        obs.add("train.negative_draws", int(negatives.size))
        neg_vecs = syn1.take(
            negatives,
            axis=0,
            out=scratch.get("neg_vecs", (n_groups, negative, dim)),
            mode="clip",
        )  # (G, K, V)
        shape = (n_groups, group, negative)
        scores = np.matmul(
            grouped, neg_vecs.transpose(0, 2, 1), out=scratch.get("scores", shape)
        )
        g_neg = sigmoid_table(
            scores, out=scores, index=scratch.get("neg_index", shape, np.int32)
        )
        np.negative(g_neg, out=g_neg)
        g_neg *= lr_weight.reshape(n_groups, group, 1)
        grad_centers += np.matmul(
            g_neg, neg_vecs, out=scratch.get("neg_grad", (n_groups, group, dim))
        ).reshape(padded, dim)[:n_pairs]
        grad_negatives = np.matmul(
            g_neg.transpose(0, 2, 1),
            grouped,
            out=scratch.get("grad_negatives", (n_groups, negative, dim)),
        )
        scaled_scatter_add(
            syn1,
            negatives.reshape(-1),
            grad_negatives.reshape(-1, dim),
            scratch=scratch,
        )

    # Fused: the context gradient is g_pos * center_vecs, so folding
    # g_pos into the selector skips the dense outer product.
    scaled_scatter_add(syn1, contexts, center_vecs, scale=g_pos, scratch=scratch)
    scaled_scatter_add(syn0, centers, grad_centers, scratch=scratch)
    return loss
