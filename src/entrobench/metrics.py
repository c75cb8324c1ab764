"""Confusion-matrix agreement metrics for label maps.

Kappa and overall accuracy are computed in exact integer arithmetic
before the final division, so textbook cases come out exact.  Label
alignment exists because unsupervised cluster labels are arbitrary:
it permutes predicted labels to maximize diagonal mass, scoring every
permutation of up to 8 classes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = ["confusion", "overall_accuracy", "kappa", "align_labels"]

_MAX_CLASSES = 8


def _as_labels(a) -> np.ndarray:
    lab = np.asarray(a)
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"label map must be integer, got {lab.dtype}")
    if lab.size == 0:
        raise ValueError("empty label map")
    if lab.min() < 0:
        raise ValueError("negative labels")
    return lab


def confusion(pred, truth) -> np.ndarray:
    """Counts[i, j] = pixels with true class i predicted as j."""
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"dimension mismatch {p.shape} vs {t.shape}")
    k = int(max(p.max(), t.max())) + 1
    flat = t.astype(np.int64).ravel() * k + p.astype(np.int64).ravel()
    return np.bincount(flat, minlength=k * k).reshape(k, k)


def _check_cm(cm) -> np.ndarray:
    m = np.asarray(cm)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError("confusion matrix must be square and nonempty")
    if not np.issubdtype(m.dtype, np.integer):
        raise ValueError("confusion matrix must hold integer counts")
    if (m < 0).any():
        raise ValueError("negative counts")
    if m.sum() <= 0:
        raise ValueError("empty confusion matrix")
    return m


def overall_accuracy(cm) -> float:
    """Fraction of agreeing pixels: trace / total."""
    m = _check_cm(cm)
    return int(np.trace(m)) / int(m.sum())


def kappa(cm) -> float:
    """Cohen's kappa: (p_o - p_e) / (1 - p_e).

    Evaluated as (N tr - sum_i r_i c_i) / (N^2 - sum_i r_i c_i) in
    exact integers; raises when expected agreement p_e = 1 (single
    class on both sides), where kappa is undefined.
    """
    m = _check_cm(cm)
    n = int(m.sum())
    tr = int(np.trace(m))
    rows = m.sum(axis=1)
    cols = m.sum(axis=0)
    se = int(rows.astype(object) @ cols.astype(object))
    if se == n * n:
        raise ValueError("kappa undefined: expected agreement is 1")
    return (n * tr - se) / (n * n - se)


@lru_cache(maxsize=None)
def _permutations(k: int) -> np.ndarray:
    """All k! permutations of range(k), one per row, in lexicographic
    order; built once per k and read-only, since callers share it."""
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    perms.flags.writeable = False
    return perms


def align_labels(pred, truth) -> np.ndarray:
    """Permute predicted labels to maximize agreement with truth.

    Scores all k! permutations at once, so the aligned diagonal is the
    largest any relabeling reaches; ties resolve to the lexicographically
    smallest permutation.
    """
    p = _as_labels(pred)
    t = _as_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"dimension mismatch {p.shape} vs {t.shape}")
    k = int(max(p.max(), t.max())) + 1
    if k > _MAX_CLASSES:
        raise ValueError(f"{k} classes exceed the supported {_MAX_CLASSES}")
    cm = confusion(p, t)
    # lexicographic order, so argmax's first maximum is the smallest tie
    perms = _permutations(k)
    diag = cm[perms, np.arange(k)].sum(axis=1)
    mapping = perms[int(np.argmax(diag))].astype(p.dtype)
    return mapping[p]
