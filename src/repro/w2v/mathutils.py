"""Numeric kernels shared by the embedding code."""

from __future__ import annotations

import numpy as np

_SIGMOID_CLAMP = 30.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clamped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise a matrix to unit L2 norm (zero rows stay zero)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two vectors."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def cap_row_norms(matrix: np.ndarray, max_norm: float) -> None:
    """Scale rows with L2 norm above ``max_norm`` back onto the ball."""
    squared = np.einsum("ij,ij->i", matrix, matrix)
    over = squared > max_norm * max_norm
    if over.any():
        matrix[over] *= (max_norm / np.sqrt(squared[over, None])).astype(matrix.dtype)


def scatter_add(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[rows] += updates`` with correct duplicate handling.

    ``np.add.at`` is correct but slow; summing duplicate rows first via
    a sort + ``reduceat`` is an order of magnitude faster for the batch
    sizes used in training.
    """
    if len(rows) == 0:
        return
    # Summation order within a duplicate group is irrelevant for the
    # result up to float rounding, so the faster default sort is fine.
    order = np.argsort(rows)
    sorted_rows = rows[order]
    sorted_updates = updates[order]
    boundaries = np.flatnonzero(np.diff(sorted_rows) != 0)
    starts = np.concatenate([[0], boundaries + 1])
    summed = np.add.reduceat(sorted_updates, starts, axis=0)
    matrix[sorted_rows[starts]] += summed
