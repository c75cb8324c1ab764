"""Entropy-driven clustering of pixel features.

Samples are pixel intensity vectors scaled to [0, 1].  Cluster quality
is the cross-information-potential CEF of Gokcay and Principe: for the
Gaussian kernel G(u) = exp(-|u|^2 / (4 sigma^2)),

    CEF = sum_{c < c'} (1 / (n_c n_c')) sum_{x in c, y in c'} G(x - y)

which is 0 for infinitely separated clusters and grows as clusters
overlap, so lower is better.  ``cluster`` descends CEF by single-sample
reassignment from a quantile initialization along the first principal
axis; no entropy kind enters the partition or its score.

Values within _MOVE_TOL (1e-12) of each other are tied: a sample moves
to the smallest label among its tied best moves, and of restarts tied
on the CEF ``cluster`` returns the earlier one wins.  Rounding far
below that, such as another BLAS or libm gives, leaves the partition.

Everything kernel-valued is computed exactly on the u distinct feature
rows, weighted by how many samples share each row: the kernel is u x u
(u <= 256 for one 8-bit band, u <= n always), the descent state is
kernel mass per (distinct row, cluster), and the CEF is
C^T K C over the u x k count matrix C.  No n x n array over samples is
formed.  The kernel's squared distances are summed band by band in
numpy, in scipy's cdist order, so K has cdist's bits.  Inputs whose
u x u kernel would exceed _MAX_KERNEL_BYTES are refused with a
ValueError before it is allocated.

Samples sit on a lattice: every stride-th row and column of an (h, w)
raster.  ``assignment_to_labelmap`` paints every pixel with the label
of its nearest sample, ties to the smallest label.  On a full lattice
the nearest samples of a pixel are its nearest lattice rows crossed
with its nearest lattice columns, at most two of each, so painting is
two gathers of the label grid along each axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from operator import mul

import numpy as np

from .raster import _MAX_BUFFER_BYTES, as_gray

__all__ = [
    "FeatureSet",
    "ClusterAssignment",
    "extract_features",
    "silverman_sigma",
    "cef",
    "cluster",
    "assignment_to_labelmap",
]

_MAX_K = 8
_MAX_PASSES = 50
_MOVE_TOL = 1e-12
_SIGMA_FLOOR = 1e-6
_MAX_KERNEL_BYTES = _MAX_BUFFER_BYTES  # largest u x u float64 kernel built


def _check_k(k: int) -> None:
    if not 2 <= k <= _MAX_K:
        raise ValueError(f"k {k} outside [2, {_MAX_K}]")


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError("restarts must be >= 1")


def _check_stride(stride: int) -> None:
    if stride < 1:
        raise ValueError("stride must be >= 1")


def _lines(size: int, stride: int) -> int:
    """Number of lattice lines 0, stride, 2 stride, ... below size."""
    return len(range(0, size, stride))


@dataclass(frozen=True)
class FeatureSet:
    """Feature vectors of the pixels on a sampling lattice.

    Sample i is lattice point i in row-major order: rows 0, stride,
    2 stride, ... of an (h, w) raster crossed with the same columns.
    """

    features: np.ndarray  # (n, d), all components in [0, 1]
    shape: tuple[int, int]  # (h, w) of the sampled raster
    stride: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] < 2 or f.shape[1] < 1:
            raise ValueError("expected an (n, d) feature matrix with n >= 2 "
                             "and d >= 1")
        if not np.isfinite(f).all():
            raise ValueError("non-finite feature components")
        if f.min() < 0.0 or f.max() > 1.0:
            raise ValueError("feature components outside [0, 1]")
        h, w = (int(x) for x in self.shape)
        s = int(self.stride)
        _check_stride(s)
        if f.shape[0] != _lines(h, s) * _lines(w, s):
            raise ValueError(f"{f.shape[0]} samples do not fill the stride-{s} "
                             f"lattice of a {h}x{w} raster")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "shape", (h, w))
        object.__setattr__(self, "stride", s)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-sample cluster labels 0..k-1 with every cluster nonempty."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1 or lab.size == 0:
            raise ValueError("labels must be a nonempty 1-D array")
        _check_k(self.k)
        counts = np.bincount(lab, minlength=self.k)
        if lab.min() < 0 or lab.max() >= self.k:
            raise ValueError("labels outside [0, k)")
        if (counts == 0).any():
            raise ValueError(f"empty cluster {int(np.flatnonzero(counts == 0)[0])}")
        object.__setattr__(self, "labels", lab)


def extract_features(bands, stride: int = 1) -> FeatureSet:
    """Sample every stride-th row and column of co-registered bands.

    Features are intensities / 255 across bands, in row-major lattice
    order; the raster shape and stride are kept for label painting.
    """
    _check_stride(stride)
    imgs = [as_gray(b) for b in bands]
    if not imgs:
        raise ValueError("need at least one band")
    shape = imgs[0].shape
    for b in imgs[1:]:
        if b.shape != shape:
            raise ValueError(f"dimension mismatch {b.shape} vs {shape}")
    feats = np.stack([b[::stride, ::stride].ravel() for b in imgs], axis=1)
    return FeatureSet(feats.astype(np.float64) / 255.0, shape, stride)


def silverman_sigma(xs: FeatureSet) -> float:
    """Default kernel width: 1.06 std n^(-1/5), averaged over dims."""
    f = xs.features
    width = 1.06 * f.std(axis=0).mean() * f.shape[0] ** (-0.2)
    return max(float(width), _SIGMA_FLOOR)


def _check_sigma(sigma: float) -> None:
    # the kernel divides squared distances by 4 sigma^2: a NaN sigma, or
    # one so small that 4 sigma^2 underflows to 0, fills it with NaN
    if not (0.0 < sigma < np.inf and 4.0 * sigma * sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")


def _distinct_kernel(f: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel over the distinct rows of f, and each sample's row index.

    Raises before allocating when the u x u kernel would exceed
    _MAX_KERNEL_BYTES.
    """
    rows, inv = np.unique(f, axis=0, return_inverse=True)
    u = rows.shape[0]
    if u * u * 8 > _MAX_KERNEL_BYTES:
        raise ValueError(
            f"{u} distinct feature rows need a {u * u * 8 / 2**20:.0f} MiB "
            f"kernel, over the {_MAX_KERNEL_BYTES >> 20} MiB limit")
    # squared distances summed band by band, left to right, as scipy's
    # cdist "sqeuclidean" sums them; one u x u temporary besides K
    K = np.zeros((u, u))
    diff = np.empty((u, u))
    for band in rows.T:
        np.subtract.outer(band, band, out=diff)
        diff *= diff
        K += diff
    np.negative(K, out=K)
    K /= 4.0 * sigma * sigma
    np.exp(K, out=K)
    return K, inv.reshape(-1)


def _value_counts(inv: np.ndarray, labels: np.ndarray, u: int, k: int) -> np.ndarray:
    """C[v, c]: number of samples of distinct row v in cluster c."""
    flat = np.bincount(inv * k + labels, minlength=u * k)
    return flat.reshape(u, k).astype(np.float64)


def _cef(K: np.ndarray, inv: np.ndarray, labels: np.ndarray, k: int) -> float:
    """cef() on a distinct-row kernel K and sample row indices inv."""
    C = _value_counts(inv, labels, K.shape[0], k)
    return _cef_from_state(C.T @ K @ C, C.sum(axis=0))


def cef(a: ClusterAssignment, xs: FeatureSet, sigma: float) -> float:
    """CEF of an assignment: the sum of pairwise cross potentials, lower
    better."""
    _check_sigma(sigma)
    if a.labels.size != xs.n:
        raise ValueError("assignment does not cover the feature set")
    K, inv = _distinct_kernel(xs.features, sigma)
    return _cef(K, inv, a.labels, a.k)


def _principal_projection(f: np.ndarray) -> np.ndarray:
    """Projection onto the leading principal axis, sign-stabilized."""
    if f.shape[1] == 1:
        return f[:, 0].copy()
    centered = f - f.mean(axis=0)
    cov = centered.T @ centered
    vals, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    lead = int(np.argmax(np.abs(v)))
    if v[lead] < 0:
        v = -v
    return centered @ v


def _cef_from_state(W: np.ndarray, counts: np.ndarray) -> float:
    iu = np.triu_indices(counts.size, 1)
    return float((W / np.outer(counts, counts))[iu].sum())


def _descend(K: np.ndarray, inv: np.ndarray, labels: np.ndarray, k: int
             ) -> tuple[np.ndarray, list[float]]:
    """Greedy single-sample CEF descent; returns labels and pass trace.

    K is the kernel over distinct feature rows and inv[i] the row of
    sample i.  Samples are visited in index order; a move's delta
    depends only on the sample's (row, label) pair and the state, so a
    pair found not to improve is skipped until the next move.  A sample
    moves when its best delta is below -_MOVE_TOL, to the smallest label
    whose delta is within _MOVE_TOL of the best.

    S stays a u x k array; W and counts are Python lists, and 1/counts
    and W @ (1/counts) are refreshed only after a move.
    """
    C = _value_counts(inv, labels, K.shape[0], k)
    S = K @ C                    # S[v, c] = sum of K[v, inv[j]] over j in c
    W = C.T @ S                  # within/between kernel mass per pair
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    trace = [_cef_from_state(W, counts)]
    W = W.tolist()
    counts = counts.tolist()
    rows = inv.tolist()
    lab = labels.tolist()
    ks = range(k)

    def state_terms():
        invn = [1.0 / x for x in counts]
        return invn, [fsum(map(mul, Wc, invn)) for Wc in W], [W[c][c] for c in ks]

    invn, wi, diag = state_terms()
    for _ in range(_MAX_PASSES):
        moved = False
        stale = set()            # (row, label) pairs with no improving move
        for i, v in enumerate(rows):
            a = lab[i]
            if (v, a) in stale or counts[a] <= 1:
                continue
            Si = S[v].tolist()
            s = fsum(map(mul, Si, invn))
            Wa = W[a]
            ia = invn[a]
            sa = Si[a]
            na1 = counts[a] - 1.0
            # pairs (a, c) after the move, summed over c outside {a, b}
            p = wi[a] - s - (Wa[a] - sa) * ia
            # pairs (a, c) before the move
            olda = (wi[a] - Wa[a] * ia) * ia
            delta = {}
            for c in ks:
                if c == a:
                    continue
                ic = invn[c]
                nb1 = counts[c] + 1.0
                ws = Wa[c] - Si[c]
                part_a = (p - ws * ic) / na1 + (ws + sa - 1.0) / (na1 * nb1)
                # pairs (b, c) after the move, c outside {a, b}
                part_b = (wi[c] + s - (Wa[c] + sa) * ia
                          - (diag[c] + Si[c]) * ic) / nb1
                # same pairs before the move
                oldb = (wi[c] - Wa[c] * ia - diag[c] * ic) * ic
                delta[c] = part_a + part_b - olda - oldb
            best = min(delta.values())
            if best < -_MOVE_TOL:
                b = next(c for c, d in delta.items() if d <= best + _MOVE_TOL)
                # row then column, so W[a][a] and W[b][b] get their
                # updates in the same order as whole-row, whole-column ops
                Wb = W[b]
                for c in ks:
                    Wa[c] -= Si[c]
                    W[c][a] -= Si[c]
                Wa[a] += 1.0
                Si[a] -= 1.0
                for c in ks:
                    Wb[c] += Si[c]
                    W[c][b] += Si[c]
                Wb[b] += 1.0
                S[:, a] -= K[:, v]
                S[:, b] += K[:, v]
                counts[a] -= 1.0
                counts[b] += 1.0
                lab[i] = b
                moved = True
                stale.clear()
                invn, wi, diag = state_terms()
            else:
                stale.add((v, a))
        trace.append(_cef_from_state(np.array(W), np.array(counts)))
        if not moved:
            break
    return np.array(lab, dtype=np.int64), trace


def cluster(xs: FeatureSet, k: int, sigma: float | None = None,
            seed: int = 0, restarts: int = 2, trace: dict | None = None
            ) -> tuple[ClusterAssignment, float]:
    """CEF-descent clustering into k groups, with the plain CEF.

    Each restart initializes by quantile split along the first
    principal feature axis (later restarts jitter the projection) and
    descends by single-sample reassignment until a pass makes no move
    or 50 passes elapse.  Restarts are ranked by the CEF this returns,
    ties to the lower restart index: a later restart replaces an earlier
    one only when its CEF is lower by more than _MOVE_TOL.  Deterministic
    for fixed inputs and seed.

    sigma defaults to silverman_sigma(xs).  When ``trace`` is a dict it
    receives, keyed by restart index, the CEF after each descent pass.
    """
    _check_k(k)
    if xs.n < 10 * k:
        raise ValueError(f"need at least {10 * k} samples for k={k}, have {xs.n}")
    _check_restarts(restarts)
    if sigma is None:
        sigma = silverman_sigma(xs)
    _check_sigma(sigma)
    f = xs.features
    proj = _principal_projection(f)
    K, inv = _distinct_kernel(f, sigma)
    best_labels = None
    best_val = np.inf
    for r in range(restarts):
        p = proj
        if r > 0:
            rng = np.random.default_rng((seed, r))
            spread = proj.std()
            p = proj + rng.normal(0.0, 0.01 * (spread if spread > 0 else 1.0),
                                  proj.size)
        order = np.argsort(p, kind="stable")
        labels = np.empty(xs.n, dtype=np.int64)
        labels[order] = (np.arange(xs.n, dtype=np.int64) * k) // xs.n
        labels, run_trace = _descend(K, inv, labels, k)
        if trace is not None:
            trace[r] = run_trace
        val = _cef(K, inv, labels, k)
        if val < best_val - _MOVE_TOL:
            best_val, best_labels = val, labels
    return ClusterAssignment(best_labels, k), best_val


def _nearest_lines(size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The nearest lattice line of each pixel along one axis, twice: the
    two arrays differ only where a pixel lies midway between two lines."""
    q, rem = np.divmod(np.arange(size), stride)
    last = _lines(size, stride) - 1
    return (np.minimum(q + (2 * rem > stride), last),
            np.minimum(q + (2 * rem >= stride), last))


def assignment_to_labelmap(a: ClusterAssignment, xs: FeatureSet) -> np.ndarray:
    """Paint cluster labels onto the raster ``xs`` was sampled from.

    Every pixel takes the label of its nearest sample, ties to the
    smallest label.  The nearest samples are the nearest lattice rows
    crossed with the nearest lattice columns, so the smallest label
    among them is a minimum over two column gathers, then two row
    gathers, of the label grid.
    """
    lab = np.asarray(a.labels)
    if lab.size != xs.n:
        raise ValueError("assignment does not cover the feature set")
    h, w = xs.shape
    grid = lab.astype(np.uint8).reshape(_lines(h, xs.stride), -1)
    lo, hi = _nearest_lines(w, xs.stride)
    by_col = np.minimum(grid[:, lo], grid[:, hi])
    lo, hi = _nearest_lines(h, xs.stride)
    return np.minimum(by_col[lo], by_col[hi])
