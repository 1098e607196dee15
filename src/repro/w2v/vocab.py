"""Vocabulary over integer tokens.

DarkVec tokens are trace sender indices; the baselines encode ports and
flow fields as integers too, so a single int64-keyed vocabulary serves
all three models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Vocabulary:
    """Bidirectional token <-> word-id mapping with frequencies.

    Attributes:
        tokens: sorted distinct tokens; position is the word id.
        counts: corpus frequency of each token.
    """

    tokens: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts must align")
        if len(self.tokens) > 1 and np.any(np.diff(self.tokens) <= 0):
            raise ValueError("tokens must be sorted and unique")
        if len(self.counts) and self.counts.min() < 1:
            raise ValueError("counts must be positive")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def build(
        sentences: list[np.ndarray],
        min_count: int = 1,
    ) -> "Vocabulary":
        """Count tokens over ``sentences`` and prune below ``min_count``."""
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not sentences:
            return Vocabulary(
                tokens=np.empty(0, dtype=np.int64),
                counts=np.empty(0, dtype=np.int64),
            )
        flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in sentences])
        tokens, counts = np.unique(flat, return_counts=True)
        keep = counts >= min_count
        return Vocabulary(tokens=tokens[keep], counts=counts[keep])

    def restricted_to(self, allowed: np.ndarray) -> "Vocabulary":
        """Sub-vocabulary of the tokens that appear in ``allowed``.

        Counts are preserved; tokens outside ``allowed`` are dropped.
        Used by the staged pipeline to apply the paper's activity
        filter at vocabulary level instead of re-building the corpus.
        """
        allowed = np.unique(np.asarray(allowed, dtype=np.int64))
        if len(allowed) == 0 or len(self.tokens) == 0:
            return Vocabulary(
                tokens=np.empty(0, dtype=np.int64),
                counts=np.empty(0, dtype=np.int64),
            )
        positions = np.searchsorted(allowed, self.tokens)
        positions = np.clip(positions, 0, len(allowed) - 1)
        keep = allowed[positions] == self.tokens
        return Vocabulary(tokens=self.tokens[keep], counts=self.counts[keep])

    @staticmethod
    def merge(a: "Vocabulary", b: "Vocabulary") -> "Vocabulary":
        """Union of two vocabularies with summed counts.

        :func:`~repro.core.sharding.build_vocab_streaming` folds its
        per-chunk counts together with it.  The warm update does not
        use it: one :meth:`build` over its retained and rebuilt
        sentences gives the same tokens and counts.
        """
        tokens = np.union1d(a.tokens, b.tokens)
        counts = np.zeros(len(tokens), dtype=np.int64)
        if len(a.tokens):
            counts[np.searchsorted(tokens, a.tokens)] += a.counts
        if len(b.tokens):
            counts[np.searchsorted(tokens, b.tokens)] += b.counts
        return Vocabulary(tokens=tokens, counts=counts)

    def encode(self, tokens: np.ndarray) -> np.ndarray:
        """Word ids of ``tokens``; out-of-vocabulary tokens become -1."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if len(self.tokens) == 0:
            return np.full(len(tokens), -1, dtype=np.int64)
        positions = np.searchsorted(self.tokens, tokens)
        positions = np.clip(positions, 0, len(self.tokens) - 1)
        hit = self.tokens[positions] == tokens
        ids = np.where(hit, positions, -1)
        return ids.astype(np.int64)

    def encode_sentence(self, tokens: np.ndarray) -> np.ndarray:
        """Encode and drop out-of-vocabulary tokens.

        Matches gensim: pruned words are removed from the sentence
        before windowing, so surviving words become adjacent.
        """
        ids = self.encode(tokens)
        return ids[ids >= 0]

    def decode(self, word_ids: np.ndarray) -> np.ndarray:
        """Tokens of the given word ids."""
        word_ids = np.asarray(word_ids, dtype=np.int64)
        if len(word_ids) and (word_ids.min() < 0 or word_ids.max() >= len(self)):
            raise ValueError("word id out of range")
        return self.tokens[word_ids]

    def id_of(self, token: int) -> int:
        """Word id of a single token, or -1 when unknown."""
        return int(self.encode(np.array([token]))[0])
