"""Histograms, probability distributions, and entropy functionals.

Everything is measured in nats.  Three families share one call surface:

* Shannon: ``-sum p_i ln p_i`` with ``0 ln 0 := 0``
* Renyi(alpha): ``ln(sum p_i^alpha) / (1 - alpha)``, alpha > 0, alpha != 1
* Tsallis(q): ``(1 - sum p_i^q) / (q - 1)``, q > 0, q != 1

Zero-probability bins contribute nothing in every family.  Generalized
mutual information uses the same algebraic form H(A) + H(B) - H(A, B)
for all kinds; it can go negative for non-Shannon kinds, which is fine
for optimizers that only need relative ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import as_gray

__all__ = [
    "PARAM_GUARD",
    "SHANNON",
    "EntropyKind",
    "histogram",
    "normalize",
    "entropy",
    "joint_histogram",
    "mutual_information",
]

# orders closer to 1 than this are rejected; ask for shannon instead
PARAM_GUARD = 1e-9

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class EntropyKind:
    """Entropy family selector: the experiment's independent variable.

    ``name`` is one of "shannon", "renyi", "tsallis"; ``param`` is the
    Renyi order alpha or Tsallis index q (None for Shannon).  Orders
    within PARAM_GUARD of 1 are rejected at construction so the Shannon
    limit is always requested explicitly.
    """

    name: str
    param: float | None = None

    def __post_init__(self):
        if self.name not in ("shannon", "renyi", "tsallis"):
            raise ValueError(f"unknown entropy kind {self.name!r}")
        if self.name == "shannon":
            if self.param is not None:
                raise ValueError("shannon takes no order parameter")
            return
        p = self.param
        if p is None or not np.isfinite(p) or p <= 0:
            raise ValueError(f"{self.name} order must be a positive real, got {p!r}")
        if abs(p - 1.0) < PARAM_GUARD:
            raise ValueError(
                f"{self.name} order {p} is within {PARAM_GUARD} of 1; "
                "use shannon() for the limit"
            )
        object.__setattr__(self, "param", float(p))

    @classmethod
    def shannon(cls) -> "EntropyKind":
        return cls("shannon")

    @classmethod
    def renyi(cls, alpha: float = 2.0) -> "EntropyKind":
        return cls("renyi", alpha)

    @classmethod
    def tsallis(cls, q: float = 2.0) -> "EntropyKind":
        return cls("tsallis", q)


SHANNON = EntropyKind.shannon()


def _check_bins(bins: int) -> int:
    bins = int(bins)
    if bins < 2 or 256 % bins != 0:
        raise ValueError(f"bins must be a divisor of 256 in [2, 256], got {bins}")
    return bins


def histogram(img, bins: int = 256) -> np.ndarray:
    """Intensity histogram with 256/bins-wide bins.

    Parameters
    ----------
    img : array_like
        2-D uint8 raster.
    bins : int
        Bin count; must divide 256.  Intensity i maps to bin
        ``i * bins // 256``.

    Returns
    -------
    numpy.ndarray
        Length-``bins`` int64 counts summing to the pixel count.
    """
    a = as_gray(img)
    bins = _check_bins(bins)
    scaled = (a.astype(np.int64) * bins) >> 8
    return np.bincount(scaled.ravel(), minlength=bins).astype(np.int64)


def normalize(hist) -> np.ndarray:
    """Counts to probabilities.  Raises on an empty histogram."""
    h = np.asarray(hist, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("expected a 1-D histogram")
    if not np.isfinite(h).all():
        raise ValueError("non-finite counts")
    if (h < 0).any():
        raise ValueError("negative counts")
    total = h.sum()
    if total <= 0:
        raise ValueError("cannot normalize an empty histogram")
    return h / total


def _check_dist(p) -> np.ndarray:
    q = np.asarray(p, dtype=np.float64).ravel()
    if q.size == 0:
        raise ValueError("empty distribution")
    if not np.isfinite(q).all():
        raise ValueError("non-finite probabilities")
    if (q < 0).any():
        raise ValueError("negative probabilities")
    if abs(q.sum() - 1.0) > _PROB_TOL:
        raise ValueError(f"probabilities sum to {q.sum()!r}, not 1")
    return q


def entropy(p, kind: EntropyKind = SHANNON) -> float:
    """Entropy of a discrete distribution, in nats.

    Accepts any array shape (a joint distribution flattens to its bin
    probabilities).  The distribution must sum to 1 within 1e-9.
    """
    return _entropy(_check_dist(p), kind)


def _entropy(q: np.ndarray, kind: EntropyKind) -> float:
    """``entropy`` without the check; q is a 1-D float64 distribution."""
    if kind.name == "shannon":
        nz = q[q > 0]
        return float(-(nz * np.log(nz)).sum())
    if kind.name == "renyi":
        a = kind.param
        return float(np.log((q ** a).sum()) / (1.0 - a))
    qq = kind.param
    return float((1.0 - (q ** qq).sum()) / (qq - 1.0))


def joint_histogram(a, b, bins: int = 64, mask=None) -> np.ndarray:
    """Normalized joint intensity distribution of two co-registered rasters.

    Parameters
    ----------
    a, b : array_like
        Equal-size uint8 rasters.
    bins : int
        Per-axis bin count, a divisor of 256 (64 by default, which keeps
        joints dense enough for MI on desk-scale images).
    mask : array_like of bool, optional
        Restrict counting to mask-true pixels.

    Returns
    -------
    numpy.ndarray
        (bins, bins) float64 distribution summing to 1.
    """
    ia = as_gray(a)
    ib = as_gray(b)
    if ia.shape != ib.shape:
        raise ValueError(f"dimension mismatch: {ia.shape} vs {ib.shape}")
    bins = _check_bins(bins)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != ia.shape:
            raise ValueError(f"mask shape {m.shape} does not match {ia.shape}")
        va = ia[m]
        vb = ib[m]
    else:
        va = ia.ravel()
        vb = ib.ravel()
    if va.size == 0:
        raise ValueError("zero valid pixels")
    sa = (va.astype(np.int64) * bins) >> 8
    sb = (vb.astype(np.int64) * bins) >> 8
    counts = np.bincount(sa * bins + sb, minlength=bins * bins)
    return counts.reshape(bins, bins).astype(np.float64) / va.size


def mutual_information(joint, kind: EntropyKind = SHANNON) -> float:
    """Generalized mutual information H(A) + H(B) - H(A, B).

    For Shannon this is the standard nonnegative MI; for Renyi and
    Tsallis the same combination is used and may be negative.
    """
    j = np.asarray(joint, dtype=np.float64)
    if j.ndim != 2:
        raise ValueError("expected a 2-D joint distribution")
    _check_dist(j)
    return _mutual_information(j, kind)


def _mutual_information(j: np.ndarray, kind: EntropyKind) -> float:
    """``mutual_information`` without the checks; j is a 2-D float64 distribution."""
    return (_entropy(j.sum(axis=1), kind) + _entropy(j.sum(axis=0), kind)
            - _entropy(j.ravel(), kind))
