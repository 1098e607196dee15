"""DANTE baseline (Cohen et al., Appendix A.2.1).

DANTE inverts DarkVec's roles: destination *ports* are the words and
every (sender, receiver) pair is an independent language with its own
sentence and its own Word2Vec model.  A sender's embedding is the
average of the embeddings of the ports it targeted.

The per-language training is the scalability killer the paper measures
(Table 3: ~7 billion skip-grams, training did not finish in ten days).
This implementation is faithful — including the lack of a sender
activity filter — and exposes a ``skipgram_count`` estimator plus a
``max_skipgrams`` guard so benchmarks can report "does not scale"
without actually burning days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.document import _one_sided_pairs
from repro.parallel.pool import WorkerPool
from repro.knn.loo import leave_one_out_predictions
from repro.knn.report import ClassificationReport, classification_report
from repro.labels.groundtruth import GroundTruth
from repro.services.ports import port_keys
from repro.trace.packet import Trace
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.model import Word2Vec


class DanteDidNotFinish(RuntimeError):
    """Raised when the configured skip-gram budget is exceeded."""


@dataclass
class Dante:
    """DANTE trainer/evaluator.

    Attributes:
        vector_size, context, epochs, negative, seed: Word2Vec knobs.
        per_receiver: one language per (sender, receiver) pair (the
            faithful setting); ``False`` merges each sender's traffic
            into a single language.
        max_skipgrams: abort with :class:`DanteDidNotFinish` when the
            corpus exceeds this budget (``None`` disables the guard).
        workers: per-sender models are independent, so they train
            concurrently on a worker pool (0 = all cores).  Each model
            is seeded per sender, so the result is identical for every
            ``workers`` value.
    """

    vector_size: int = 50
    context: int = 25
    epochs: int = 10
    negative: int = 5
    seed: int = 1
    per_receiver: bool = True
    max_skipgrams: int | None = None
    workers: int = 1

    def _languages(self, trace: Trace) -> dict[int, list[np.ndarray]]:
        """Sender -> list of port-token sentences (one per language)."""
        tokens = port_keys(trace.ports, trace.protos)
        if self.per_receiver:
            group = trace.senders.astype(np.int64) * 256 + trace.receivers
        else:
            group = trace.senders.astype(np.int64)
        order = np.argsort(group, kind="stable")
        group_sorted = group[order]
        tokens_sorted = tokens[order]
        boundaries = np.flatnonzero(np.diff(group_sorted) != 0)
        starts = np.concatenate([[0], boundaries + 1])
        ends = np.concatenate([boundaries + 1, [len(group_sorted)]])
        by_sender: dict[int, list[np.ndarray]] = {}
        for lo, hi in zip(starts, ends):
            sender = int(group_sorted[lo] // 256) if self.per_receiver else int(
                group_sorted[lo]
            )
            by_sender.setdefault(sender, []).append(tokens_sorted[lo:hi])
        return by_sender

    def skipgram_count(self, trace: Trace) -> int:
        """Skip-grams DANTE's corpus generates (Table 3's count)."""
        languages = self._languages(trace)
        total = 0
        for sentences in languages.values():
            for sentence in sentences:
                total += 2 * _one_sided_pairs(len(sentence), self.context)
        return total

    def fit_sender_vectors(self, trace: Trace) -> KeyedVectors:
        """Train one model per language; average port vectors per sender.

        Raises:
            DanteDidNotFinish: when ``max_skipgrams`` is exceeded.
        """
        if self.max_skipgrams is not None:
            count = self.skipgram_count(trace)
            if count > self.max_skipgrams:
                raise DanteDidNotFinish(
                    f"DANTE corpus holds {count} skip-grams, over the "
                    f"budget of {self.max_skipgrams}"
                )
        languages = self._languages(trace)
        senders = np.array(sorted(languages), dtype=np.int64)
        vectors = np.zeros((len(senders), self.vector_size), dtype=np.float32)

        def train_sender(item: tuple[int, int]) -> np.ndarray | None:
            row, sender = item
            sentences = languages[int(sender)]
            # Each language corpus is tiny, so each model trains on
            # one inline thread; parallelism comes from training the
            # independent languages concurrently.
            model = Word2Vec(
                vector_size=self.vector_size,
                context=self.context,
                negative=self.negative,
                epochs=self.epochs,
                seed=self.seed + row,
                workers=1,
            )
            keyed = model.fit(sentences)
            if len(keyed):
                # The sender is represented by the mean embedding of the
                # ports it contacted, weighted by how often it did.
                flat = np.concatenate(sentences)
                rows = keyed.rows_of(flat)
                rows = rows[rows >= 0]
                if len(rows):
                    return keyed.vectors[rows].mean(axis=0)
            return None

        with WorkerPool(self.workers) as pool:
            results = pool.map(train_sender, list(enumerate(senders)))
        for row, vector in enumerate(results):
            if vector is not None:
                vectors[row] = vector
        return KeyedVectors(tokens=senders, vectors=vectors)

    def evaluate(
        self,
        trace: Trace,
        truth: GroundTruth,
        eval_senders: np.ndarray,
        k: int = 7,
    ) -> ClassificationReport:
        """LOO evaluation with the Table 3 protocol."""
        keyed = self.fit_sender_vectors(trace)
        labels = truth.labels_for(trace)[keyed.tokens]
        rows = keyed.rows_of(np.asarray(eval_senders, dtype=np.int64))
        rows = rows[rows >= 0]
        predictions = leave_one_out_predictions(keyed.vectors, labels, rows, k=k)
        return classification_report(labels[rows], predictions)
