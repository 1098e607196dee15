"""Skip-gram (center, context) pair generation.

The paper pads sentence edges with a NULL word (Section 5.3); emitting
no pair for padded slots is equivalent, since a NULL context carries no
gradient.  Like the original word2vec (and gensim), the effective
window of each center can be shrunk uniformly at random to ``1..c``,
which both speeds training up and weighs nearby context words more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.sgd import SgdScratch


def sentence_pair_counts(
    lengths: np.ndarray, context: int, dynamic: bool = True
) -> np.ndarray:
    """Expected (center, context) pairs of each sentence, by its length.

    With dynamic windows the per-center window ``b`` is uniform on
    ``1..c`` and each side contributes ``E[min(k, b)]`` pairs, where
    ``k`` is the room available on that side.  Sentences shorter than
    two tokens emit no pairs.
    """
    if context < 1:
        raise ValueError("context must be positive")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return np.zeros(0)
    # One closed-form table over every length up to the longest: the
    # per-position expectation depends only on the one-sided room k, so
    # a sentence of length n expects 2 * sum_{k<n} E[min(k, b)] pairs
    # (both sides are symmetric) and prefix sums cover every n at once.
    n_max = max(int(lengths.max()), 1)
    k = np.arange(n_max)  # room on one side, per position
    if dynamic:
        # E[min(k, b)], b ~ U{1..c}:
        #   k >= c: (c + 1) / 2
        #   k <  c: (k(k+1)/2 + (c-k)k) / c
        clipped = np.minimum(k, context)
        expected = (
            clipped * (clipped + 1) / 2 + (context - clipped) * clipped
        ) / context
        expected[k >= context] = (context + 1) / 2
    else:
        expected = np.minimum(k, context).astype(float)
    by_length = 2.0 * np.concatenate([[0.0], np.cumsum(expected)])
    return by_length[lengths]


def expected_pair_count(
    lengths: np.ndarray, context: int, dynamic: bool = True
) -> float:
    """Expected (center, context) pairs for sentences of given lengths.

    The sum of :func:`sentence_pair_counts`.  Getting this expectation
    right matters: the linear learning-rate schedule divides by the
    total pair count, and an overestimate (e.g. assuming sentences are
    longer than ``2c``) leaves the final learning rate far above
    ``min_alpha``, visibly degrading large-``c`` embeddings.
    """
    return float(sentence_pair_counts(lengths, context, dynamic).sum())


def skipgram_pairs(
    sentence: np.ndarray,
    context: int,
    rng: np.random.Generator | None = None,
    dynamic: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """All (center, context) word-id pairs of one encoded sentence.

    Args:
        sentence: word ids (OOV already removed).
        context: maximum one-sided window size ``c``.
        rng: randomness for dynamic window shrinking; required when
            ``dynamic`` is True.
        dynamic: shrink each center's window uniformly to ``1..c``.

    Returns:
        ``(centers, contexts)`` aligned int64 arrays.
    """
    if context < 1:
        raise ValueError("context must be positive")
    n = len(sentence)
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if dynamic:
        if rng is None:
            raise ValueError("dynamic windows need an rng")
        windows = rng.integers(1, context + 1, size=n)
    else:
        windows = np.full(n, context, dtype=np.int64)

    positions = np.arange(n)
    lo = np.maximum(positions - windows, 0)
    hi = np.minimum(positions + windows, n - 1)
    pair_counts = hi - lo  # context slots excluding the center itself
    total = int(pair_counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    centers = np.repeat(positions, pair_counts)
    # Offsets within each center's window, skipping the center:
    # for center i the contexts are lo[i]..hi[i] minus i.
    starts = np.concatenate([[0], np.cumsum(pair_counts)[:-1]])
    slot = np.arange(total) - np.repeat(starts, pair_counts)
    contexts_pos = np.repeat(lo, pair_counts) + slot
    contexts_pos[contexts_pos >= centers] += 1
    sentence = np.asarray(sentence, dtype=np.int64)
    return sentence[centers], sentence[contexts_pos]


def skipgram_pairs_flat(
    tokens: np.ndarray,
    starts: np.ndarray,
    context: int,
    rng: np.random.Generator | None = None,
    dynamic: bool = True,
    scratch: "SgdScratch | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram pairs for many sentences stored in one flat array.

    Equivalent to concatenating :func:`skipgram_pairs` over every
    sentence (and, with the same ``rng``, produces the identical pair
    stream when all sentences have length >= 2), but one vectorized
    pass over the whole corpus slab — this is what lets the parallel
    trainer generate a shard's pairs in a handful of numpy calls.

    Args:
        tokens: all sentences' word ids, concatenated.
        starts: sentence boundary offsets, shape ``(n_sentences + 1,)``;
            sentence ``i`` is ``tokens[starts[i]:starts[i + 1]]``.
        context: maximum one-sided window size ``c``.
        rng: randomness for dynamic window shrinking; one window is
            drawn per token position (including positions of length-1
            sentences, which emit no pairs).
        dynamic: shrink each center's window uniformly to ``1..c``.
        scratch: buffers for the pair-sized arrays, outputs included (the
            trainer passes its worker's :class:`~repro.parallel.sgd.SgdScratch`
            so a shard's pairs reuse memory instead of faulting it in);
            the next call with the same scratch overwrites the result.

    Returns:
        ``(centers, contexts)`` aligned int64 arrays.
    """
    if context < 1:
        raise ValueError("context must be positive")
    tokens = np.asarray(tokens, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    n_tokens = len(tokens)
    empty = np.empty(0, dtype=np.int64)
    if n_tokens == 0:
        return empty, empty
    lengths = np.diff(starts)
    sentence_id = np.repeat(np.arange(len(lengths)), lengths)
    sentence_start = starts[:-1][sentence_id]
    sentence_end = starts[1:][sentence_id]
    positions = np.arange(n_tokens)
    if dynamic:
        if rng is None:
            raise ValueError("dynamic windows need an rng")
        windows = rng.integers(1, context + 1, size=n_tokens)
    else:
        windows = np.full(n_tokens, context, dtype=np.int64)
    lo = np.maximum(positions - windows, sentence_start)
    hi = np.minimum(positions + windows, sentence_end - 1)
    pair_counts = hi - lo  # context slots excluding the center itself
    total = int(pair_counts.sum())
    if total == 0:
        return empty, empty
    if scratch is None:
        from repro.parallel.sgd import SgdScratch  # repro.parallel imports w2v

        scratch = SgdScratch()
    segment = np.cumsum(pair_counts) - pair_counts
    centers_pos = scratch.get("centers_pos", (total,), np.int64)
    _repeat_into(positions, pair_counts, segment, centers_pos)
    # Slot j of center i's window is context position lo[i] + j, plus
    # one past the center itself.
    contexts_pos = scratch.get("contexts_pos", (total,), np.int64)
    _repeat_into(lo - segment, pair_counts, segment, contexts_pos)
    contexts_pos += scratch.arange(total)
    past_center = scratch.get("past_center", (total,), bool)
    contexts_pos += np.greater_equal(contexts_pos, centers_pos, out=past_center)
    centers = scratch.get("centers", (total,), np.int64)
    contexts = scratch.get("contexts", (total,), np.int64)
    tokens.take(centers_pos, out=centers, mode="clip")
    tokens.take(contexts_pos, out=contexts, mode="clip")
    return centers, contexts


def _repeat_into(
    values: np.ndarray, counts: np.ndarray, firsts: np.ndarray, out: np.ndarray
) -> None:
    """``out[:] = np.repeat(values, counts)`` for integers, in place.

    ``firsts`` are the output offsets of each value's run
    (``cumsum(counts) - counts``).  Each run starts with the step from
    the previous value, and a running sum fills the rest.
    """
    kept = counts > 0
    steps = values[kept]
    steps[1:] -= steps[:-1]  # ufuncs buffer overlapping operands
    out.fill(0)
    out[firsts[kept]] = steps
    out.cumsum(out=out)
