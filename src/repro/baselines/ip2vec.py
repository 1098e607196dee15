"""IP2VEC baseline (Ring et al., Appendix A.2.2).

IP2VEC embeds *all* flow fields into one space.  For every flow it
emits five (target, context) token pairs (Figure 17):

    (src_ip, dst_ip), (src_ip, dst_port), (src_ip, proto),
    (dst_port, dst_ip), (proto, dst_ip)

and trains skip-gram with negative sampling on the raw pairs.  Senders
are then compared through their ``src_ip`` token vectors.  The paper's
scalability complaint — no activity filter, pairs proportional to the
full packet count — is inherent to this construction and reproduced
here; a ``max_pairs`` guard lets the benchmark report "did not finish".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.knn.loo import leave_one_out_predictions
from repro.knn.report import ClassificationReport, classification_report
from repro.labels.groundtruth import GroundTruth
from repro.trace.packet import Trace
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.model import Word2Vec

# Token namespaces: field tag in the high bits, value in the low bits.
_SHIFT = 33
_SRC, _DST, _PORT, _PROTO = 0, 1, 2, 3


class Ip2VecDidNotFinish(RuntimeError):
    """Raised when the configured pair budget is exceeded."""


def _tag(namespace: int, values: np.ndarray) -> np.ndarray:
    return (np.int64(namespace) << _SHIFT) | values.astype(np.int64)


@dataclass
class Ip2Vec:
    """IP2VEC trainer/evaluator.

    ``flow_timeout`` switches the input granularity from packets to
    aggregated flows (the original paper works on flows); ``None``
    treats every packet as a flow, which is what a darknet's one-sided
    SYN traffic effectively is.  ``workers`` is forwarded to
    :class:`~repro.w2v.model.Word2Vec`; the pair stream is extremely
    repetitive, so the trainer's per-batch deduplication pays off most
    here.
    """

    vector_size: int = 50
    epochs: int = 10
    negative: int = 5
    seed: int = 1
    max_pairs: int | None = None
    flow_timeout: float | None = None
    workers: int = 1

    def _records(
        self, trace: Trace
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(senders, receivers, ports, protos) per flow record."""
        if self.flow_timeout is None:
            return trace.senders, trace.receivers, trace.ports, trace.protos
        from repro.trace.flows import aggregate_flows

        flows = aggregate_flows(trace, timeout=self.flow_timeout)
        return flows.senders, flows.receivers, flows.ports, flows.protos

    def pair_count(self, trace: Trace) -> int:
        """Training pairs IP2VEC generates for ``trace`` (5 per flow)."""
        return 5 * len(self._records(trace)[0])

    def build_pairs(self, trace: Trace) -> tuple[np.ndarray, np.ndarray]:
        """The five (target, context) token pairs per flow."""
        senders, receivers, ports, protos = self._records(trace)
        src = _tag(_SRC, senders)
        dst = _tag(_DST, receivers)
        port = _tag(_PORT, ports)
        proto = _tag(_PROTO, protos)
        targets = np.concatenate([src, src, src, port, proto])
        contexts = np.concatenate([dst, port, proto, dst, dst])
        return targets, contexts

    def fit_sender_vectors(self, trace: Trace) -> KeyedVectors:
        """Train on the pair stream; return src_ip vectors by sender.

        Raises:
            Ip2VecDidNotFinish: when ``max_pairs`` is exceeded.
        """
        count = self.pair_count(trace)
        if self.max_pairs is not None and count > self.max_pairs:
            raise Ip2VecDidNotFinish(
                f"IP2VEC generates {count} pairs, over the budget of "
                f"{self.max_pairs}"
            )
        targets, contexts = self.build_pairs(trace)
        model = Word2Vec(
            vector_size=self.vector_size,
            negative=self.negative,
            epochs=self.epochs,
            seed=self.seed,
            workers=self.workers,
        )
        keyed = model.fit_pairs(targets, contexts)
        # Keep only the src_ip tokens, re-keyed by sender index.
        is_src = (keyed.tokens >> _SHIFT) == _SRC
        senders = (keyed.tokens[is_src] & ((1 << _SHIFT) - 1)).astype(np.int64)
        order = np.argsort(senders)
        return KeyedVectors(
            tokens=senders[order], vectors=keyed.vectors[is_src][order]
        )

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
