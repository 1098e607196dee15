"""Skip-gram-with-negative-sampling training (mini-batched numpy SGD).

The objective is the one gensim optimises for ``Word2Vec(sg=1,
negative=k)``: for each (center, context) pair drawn from dynamic
windows, maximise ``log s(u_ctx . v_c) + sum_neg log s(-u_neg . v_c)``
with a linearly decaying learning rate.  The optimiser is not gensim's
per-pair SGD loop.  :class:`repro.parallel.trainer.ShardedTrainer`
runs it, and differs from that loop in these ways:

* it takes batched steps of up to ``batch_pairs`` raw pairs (fewer on
  small vocabularies, see :meth:`Word2Vec._batch_pairs`);
* it deduplicates each batch into unique pairs whose gradients are
  scaled by their multiplicity and all computed from the same stale
  vectors;
* one negative draw is shared by up to
  :data:`repro.parallel.sgd.SHARED_NEGATIVES` = 64 unique pairs;
* raw pairs are shuffled only within
  :data:`repro.parallel.trainer.SHUFFLE_BATCHES` = 2 batches;
* each epoch is cut into shards of at most
  :data:`repro.parallel.trainer.PAIR_BUDGET` = 2^18 expected pairs;
* shards train concurrently without locks (Hogwild) when
  ``workers > 1``;
* both weight matrices' row norms are capped at ``max_norm`` after
  every batch.

This module prepares the vocabulary, the initial (or warm-started)
weights and the learning-rate schedule, and keeps the sequential loop
of the CBOW ablation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.obs.progress import ProgressEvent, epoch_event
from repro.w2v.cbow import cbow_step
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.mathutils import cap_row_norms
from repro.w2v.negative import NegativeSampler
from repro.w2v.skipgram import expected_pair_count, skipgram_pairs
from repro.w2v.vocab import Vocabulary
from repro.utils.rng import make_rng


def _cap_norms(matrix: np.ndarray, max_norm: float) -> None:
    """Scale rows with L2 norm above ``max_norm`` back onto the ball."""
    cap_row_norms(matrix, max_norm)


@dataclass
class Word2Vec:
    """SGNS trainer.

    Attributes mirror the gensim parameters used in the paper:
    ``vector_size`` is the embedding dimension V, ``context`` the
    one-sided window c, ``negative`` the number of negative samples,
    ``sample`` the frequent-token subsampling threshold (0 disables).

    Skip-gram trains on one engine,
    :class:`repro.parallel.trainer.ShardedTrainer`, at every
    ``workers`` value.  ``workers`` sets its parallelism: ``1`` (the
    default) runs it on one inline thread, bit-reproducible for a fixed
    seed; ``0`` means "use all available cores"; with more than one
    thread, shards train concurrently with lock-free (Hogwild) updates,
    so vectors vary run to run while staying statistically equivalent.
    CBOW (an ablation) always trains sequentially.  ``pool_backend``
    picks the parallel executor: ``"thread"`` (shared address space),
    ``"process"`` (fork workers over shared-memory syn0/syn1), or
    ``None`` to inherit the scoped default from
    :func:`repro.parallel.pool.pool_backend`.

    ``progress`` is an optional per-epoch callback receiving a
    :class:`~repro.obs.progress.ProgressEvent` (pairs/sec, loss
    estimate, ETA).  The callback consumes no randomness, so supplying
    one leaves the trained vectors unchanged.
    """

    vector_size: int = 50
    context: int = 25
    negative: int = 5
    epochs: int = 10
    architecture: str = "skipgram"
    alpha: float = 0.025
    min_alpha: float = 1e-4
    min_count: int = 1
    sample: float = 0.0
    batch_pairs: int = 16_384
    batch_vocab_factor: int = 8
    max_norm: float | None = 10.0
    dynamic_window: bool = True
    seed: int = 1
    workers: int = 1
    pool_backend: str | None = None
    progress: Callable[[ProgressEvent], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 means all cores)")
        if self.pool_backend not in (None, "thread", "process"):
            raise ValueError(
                f"pool_backend must be 'thread', 'process', or None, "
                f"got {self.pool_backend!r}"
            )
        if self.vector_size < 1:
            raise ValueError("vector_size must be positive")
        if self.context < 1:
            raise ValueError("context must be positive")
        if self.negative < 0:
            raise ValueError("negative must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 < self.alpha:
            raise ValueError("alpha must be positive")
        if not 0 <= self.min_alpha <= self.alpha:
            raise ValueError("min_alpha must be in [0, alpha]")
        if self.architecture not in ("skipgram", "cbow"):
            raise ValueError(
                f"architecture must be 'skipgram' or 'cbow', "
                f"got {self.architecture!r}"
            )

    def fit(
        self,
        sentences: list[np.ndarray],
        *,
        init: KeyedVectors | None = None,
        vocab: Vocabulary | None = None,
    ) -> KeyedVectors:
        """Train on integer-token sentences and return the embedding.

        Args:
            sentences: integer-token sentences.  Tokens outside the
                vocabulary are dropped before windowing.
            init: optional prior embedding for **warm starts**: vectors
                of tokens present in both ``init`` and the vocabulary
                seed the input matrix; unseen tokens get the usual
                random initialisation.  ``init=None`` (the default)
                leaves training bit-identical to a cold start.
            vocab: optional pre-built vocabulary.  When given, the
                internal ``Vocabulary.build`` call is skipped and
                out-of-vocabulary tokens are filtered at encode time —
                this is how the staged pipeline injects its
                activity-filtered vocabulary artifact.
        """
        with obs.span(
            "train.fit", architecture=self.architecture, workers=self.workers
        ) as fit_span:
            return self._fit(sentences, fit_span, init=init, vocab=vocab)

    def _fit(
        self,
        sentences: list[np.ndarray],
        fit_span,
        init: KeyedVectors | None = None,
        vocab: Vocabulary | None = None,
    ) -> KeyedVectors:
        if vocab is None:
            vocab = Vocabulary.build(sentences, min_count=self.min_count)
        obs.set_gauge("train.vocab_size", len(vocab))
        if len(vocab) == 0:
            return KeyedVectors(
                tokens=np.empty(0, dtype=np.int64),
                vectors=np.empty((0, self.vector_size)),
            )
        rng = make_rng(self.seed)
        encoded = [vocab.encode_sentence(np.asarray(s)) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        syn0, syn1 = self._initial_weights(len(vocab), rng)
        if init is not None:
            self._warm_start(syn0, syn1, vocab, init)
        sampler = NegativeSampler(vocab.counts) if self.negative else None
        keep_probs = self._keep_probabilities(vocab)

        lengths = np.array([len(s) for s in encoded], dtype=np.int64)
        pairs_per_epoch = expected_pair_count(
            lengths, self.context, dynamic=self.dynamic_window
        )
        total_pairs = max(int(pairs_per_epoch * self.epochs), 1)
        obs.set_gauge("train.pairs_planned", total_pairs)
        obs.add("train.epochs", self.epochs)
        batch_pairs = self._batch_pairs(len(vocab))
        if self.architecture == "cbow":
            processed = self._fit_cbow(
                encoded, syn0, syn1, sampler, keep_probs, total_pairs, batch_pairs, rng
            )
        else:
            from repro.parallel.trainer import ShardedTrainer

            trainer = ShardedTrainer(self)
            trainer.train_corpus(
                encoded,
                lengths,
                syn0,
                syn1,
                sampler,
                keep_probs,
                total_pairs,
                batch_pairs,
                rng,
            )
            processed = trainer.processed_pairs
        fit_span.set(items=processed, items_unit="pairs")
        return KeyedVectors(
            tokens=vocab.tokens.copy(), vectors=syn0, context_vectors=syn1
        )

    def _fit_cbow(
        self,
        encoded: list[np.ndarray],
        syn0: np.ndarray,
        syn1: np.ndarray,
        sampler: NegativeSampler | None,
        keep_probs: np.ndarray | None,
        total_pairs: int,
        batch_pairs: int,
        rng: np.random.Generator,
    ) -> int:
        """The sequential CBOW loop; returns the pairs trained."""
        centers_buf: list[np.ndarray] = []
        contexts_buf: list[np.ndarray] = []
        buffered = 0
        processed = 0

        def flush() -> None:
            nonlocal buffered, processed
            if not buffered:
                return
            centers = np.concatenate(centers_buf)
            contexts = np.concatenate(contexts_buf)
            centers_buf.clear()
            contexts_buf.clear()
            buffered = 0
            for lo in range(0, len(centers), batch_pairs):
                hi = min(lo + batch_pairs, len(centers))
                lr = self._learning_rate(processed, total_pairs)
                cbow_step(
                    syn0,
                    syn1,
                    centers[lo:hi],
                    contexts[lo:hi],
                    sampler,
                    self.negative,
                    lr,
                    rng,
                )
                processed += hi - lo
                obs.add("train.pairs", hi - lo)
                obs.add("train.batches", 1)
                obs.observe("train.batch_pairs", hi - lo)
            if self.max_norm is not None:
                # DarkVec only consumes cosine similarities, so capping
                # row norms (max-norm regularisation) changes nothing
                # semantically while preventing the runaway norm growth
                # that batched negative updates can otherwise cause.
                _cap_norms(syn0, self.max_norm)
                _cap_norms(syn1, self.max_norm)

        t_start = time.perf_counter()
        for epoch in range(self.epochs):
            t_epoch = time.perf_counter()
            with obs.span("train.epoch", epoch=epoch):
                order = rng.permutation(len(encoded))
                for idx in order:
                    sentence = encoded[idx]
                    if keep_probs is not None:
                        mask = rng.random(len(sentence)) < keep_probs[sentence]
                        sentence = sentence[mask]
                        if len(sentence) < 2:
                            continue
                    centers, contexts = skipgram_pairs(
                        sentence, self.context, rng, dynamic=self.dynamic_window
                    )
                    if len(centers) == 0:
                        continue
                    centers_buf.append(centers)
                    contexts_buf.append(contexts)
                    buffered += len(centers)
                    if buffered >= batch_pairs:
                        flush()
            obs.observe("train.epoch_seconds", time.perf_counter() - t_epoch)
            # Buffered pairs carry over into the next epoch's batches
            # (flushing here would change batch boundaries and break
            # bit-reproducibility), so progress counts them as seen.
            self._emit_progress(epoch, processed + buffered, total_pairs, t_start)
        flush()
        return processed

    def fit_pairs(
        self, center_tokens: np.ndarray, context_tokens: np.ndarray
    ) -> KeyedVectors:
        """Train directly on explicit (center, context) token pairs.

        Used by the IP2VEC baseline, whose "context" is a fixed set of
        flow fields rather than a sliding window.  Window-related
        parameters (``context``, ``dynamic_window``, ``sample``) are
        ignored; everything else behaves as in :meth:`fit`.
        """
        with obs.span(
            "train.fit", architecture="pairs", workers=self.workers
        ) as fit_span:
            return self._fit_pairs(center_tokens, context_tokens, fit_span)

    def _fit_pairs(
        self,
        center_tokens: np.ndarray,
        context_tokens: np.ndarray,
        fit_span,
    ) -> KeyedVectors:
        center_tokens = np.asarray(center_tokens, dtype=np.int64)
        context_tokens = np.asarray(context_tokens, dtype=np.int64)
        if len(center_tokens) != len(context_tokens):
            raise ValueError("center and context arrays must align")
        vocab = Vocabulary.build(
            [center_tokens, context_tokens], min_count=self.min_count
        )
        obs.set_gauge("train.vocab_size", len(vocab))
        if len(vocab) == 0:
            return KeyedVectors(
                tokens=np.empty(0, dtype=np.int64),
                vectors=np.empty((0, self.vector_size)),
            )
        rng = make_rng(self.seed)
        centers = vocab.encode(center_tokens)
        contexts = vocab.encode(context_tokens)
        keep = (centers >= 0) & (contexts >= 0)
        centers, contexts = centers[keep], contexts[keep]
        syn0, syn1 = self._initial_weights(len(vocab), rng)
        sampler = NegativeSampler(vocab.counts) if self.negative else None
        total_pairs = max(len(centers) * self.epochs, 1)
        obs.set_gauge("train.pairs_planned", total_pairs)
        obs.add("train.epochs", self.epochs)

        from repro.parallel.trainer import ShardedTrainer

        trainer = ShardedTrainer(self)
        trainer.train_pair_stream(
            centers,
            contexts,
            syn0,
            syn1,
            sampler,
            total_pairs,
            self._batch_pairs(len(vocab)),
            rng,
        )
        fit_span.set(items=trainer.processed_pairs, items_unit="pairs")
        return KeyedVectors(
            tokens=vocab.tokens.copy(), vectors=syn0, context_vectors=syn1
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _initial_weights(
        self, n_vocab: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``(syn0, syn1)``: small random inputs, zero outputs."""
        syn0 = (
            (rng.random((n_vocab, self.vector_size)) - 0.5) / self.vector_size
        ).astype(np.float32)
        syn1 = np.zeros((n_vocab, self.vector_size), dtype=np.float32)
        return syn0, syn1

    def _batch_pairs(self, n_vocab: int) -> int:
        """Raw pairs per SGD batch for a vocabulary of ``n_vocab``.

        Batched SGD sums the gradients of duplicate words computed from
        the same stale vectors.  Keeping the batch small relative to the
        vocabulary bounds that duplication factor, which keeps the
        batched trainer as stable as sequential word2vec.
        """
        return min(self.batch_pairs, max(256, self.batch_vocab_factor * n_vocab))

    def _warm_start(
        self,
        syn0: np.ndarray,
        syn1: np.ndarray,
        vocab: Vocabulary,
        init: KeyedVectors,
    ) -> None:
        """Seed ``syn0`` (and ``syn1``) rows from a prior model (in place).

        Tokens present in both the vocabulary and ``init`` copy their
        prior input vector — and their prior context vector when
        ``init.context_vectors`` is set, which is what makes a short
        warm refit track a full cold retrain: resuming with a zeroed
        context matrix would perturb every seeded vector back through
        the early large-gradient regime.  The remaining rows keep the
        fresh random initialisation already drawn into ``syn0`` (so the
        RNG stream is identical with and without a warm start).
        """
        if init.vector_size != self.vector_size:
            raise ValueError(
                f"warm-start dimension mismatch: prior embedding has "
                f"vector_size={init.vector_size}, model expects "
                f"{self.vector_size}"
            )
        rows = init.rows_of(vocab.tokens)
        seen = rows >= 0
        if seen.any():
            syn0[seen] = init.vectors[rows[seen]].astype(np.float32)
            if init.context_vectors is not None:
                syn1[seen] = init.context_vectors[rows[seen]].astype(np.float32)
        obs.set_gauge("train.warm_tokens", int(seen.sum()))

    def _learning_rate(self, processed: int, total: int) -> float:
        fraction = min(processed / total, 1.0)
        return max(self.alpha * (1.0 - fraction), self.min_alpha)

    def _emit_progress(
        self,
        epoch: int,
        processed: int,
        total: int,
        t_start: float,
        loss: float | None = None,
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            epoch_event(
                epoch,
                self.epochs,
                processed,
                total,
                time.perf_counter() - t_start,
                loss=loss,
            )
        )

    def _keep_probabilities(self, vocab: Vocabulary) -> np.ndarray | None:
        """Frequent-token subsampling probabilities (word2vec style)."""
        if self.sample <= 0:
            return None
        freqs = vocab.counts / vocab.total_count
        ratio = self.sample / freqs
        keep = np.sqrt(ratio) + ratio
        return np.minimum(keep, 1.0)
