"""Entropy-driven clustering of pixel features.

Samples are pixel intensity vectors scaled to [0, 1].  Cluster quality
is the cross-information-potential CEF of Gokcay and Principe: for the
Gaussian kernel G(u) = exp(-|u|^2 / (4 sigma^2)),

    CEF = sum_{c < c'} (1 / (n_c n_c')) sum_{x in c, y in c'} G(x - y)

which is 0 for infinitely separated clusters and grows as clusters
overlap, so lower is better.  ``cluster`` descends CEF by single-sample
reassignment from a quantile initialization along the first principal
axis.  The partition takes no entropy kind and ``cluster`` reports the
plain CEF; ``cef`` scores an assignment in the flavor a kind selects
(Tsallis reports the separation sum of (1 - potential) per pair).

Everything kernel-valued is computed exactly on the u distinct feature
rows, weighted by how many samples share each row: the kernel is u x u
(u <= 256 for one 8-bit band, u <= n always), the descent state is
kernel mass per (distinct row, cluster), and the CEF is
C^T K C over the u x k count matrix C.  No n x n array over samples is
formed.  Inputs whose u x u kernel would exceed _MAX_KERNEL_BYTES are
refused with a ValueError before it is allocated.

``assignment_to_labelmap`` paints every unsampled pixel with the label
of its nearest sample, ties to the smallest label, from one exact
Euclidean distance transform per label (Maurer, Qi and Raghavan 2003,
as scipy.ndimage implements it), so ties are exact for any number of
equidistant samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt
from scipy.spatial.distance import cdist

from .entropy import EntropyKind
from .raster import as_gray

__all__ = [
    "FeatureSet",
    "ClusterAssignment",
    "extract_features",
    "silverman_sigma",
    "information_potential",
    "renyi_quadratic_entropy",
    "cef",
    "cluster",
    "assignment_to_labelmap",
]

_MAX_K = 8
_MAX_PASSES = 50
_MOVE_TOL = 1e-12
_SIGMA_FLOOR = 1e-6
_MAX_KERNEL_BYTES = 1 << 30  # largest u x u float64 kernel built


@dataclass(frozen=True)
class FeatureSet:
    """Per-sample feature vectors with their source pixel coordinates."""

    features: np.ndarray  # (n, d), all components in [0, 1]
    coords: np.ndarray    # (n, 2) row, col provenance

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        c = np.asarray(self.coords, dtype=np.int64)
        if f.ndim != 2 or f.shape[0] < 2 or f.shape[1] < 1:
            raise ValueError("expected an (n, d) feature matrix with n >= 2 "
                             "and d >= 1")
        if not np.isfinite(f).all():
            raise ValueError("non-finite feature components")
        if f.min() < 0.0 or f.max() > 1.0:
            raise ValueError("feature components outside [0, 1]")
        if c.shape != (f.shape[0], 2):
            raise ValueError("coords must be (n, 2) pixel positions")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "coords", c)

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
        if not 2 <= self.k <= _MAX_K:
            raise ValueError(f"k {self.k} outside [2, {_MAX_K}]")
        counts = np.bincount(lab, minlength=self.k)
        if lab.min() < 0 or lab.max() >= self.k:
            raise ValueError("labels outside [0, k)")
        if (counts == 0).any():
            raise ValueError(f"empty cluster {int(np.flatnonzero(counts == 0)[0])}")
        object.__setattr__(self, "labels", lab)


def extract_features(bands, stride: int = 1) -> FeatureSet:
    """Sample every stride-th pixel of co-registered bands.

    Features are intensities / 255 across bands, in row-major pixel
    order; the sample's (row, col) is kept for label-map rebuilding.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    imgs = [as_gray(b) for b in bands]
    if not imgs:
        raise ValueError("need at least one band")
    shape = imgs[0].shape
    for b in imgs[1:]:
        if b.shape != shape:
            raise ValueError(f"dimension mismatch {b.shape} vs {shape}")
    rows = np.arange(0, shape[0], stride)
    cols = np.arange(0, shape[1], stride)
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    rr, cc = rr.ravel(), cc.ravel()
    feats = np.stack([b[rr, cc] for b in imgs], axis=1).astype(np.float64) / 255.0
    return FeatureSet(feats, np.stack([rr, cc], axis=1))


def silverman_sigma(xs: FeatureSet) -> float:
    """Default kernel width: 1.06 std n^(-1/5), averaged over dims."""
    f = xs.features
    width = 1.06 * f.std(axis=0).mean() * f.shape[0] ** (-0.2)
    return max(float(width), _SIGMA_FLOOR)


def _as_matrix(xs) -> np.ndarray:
    f = xs.features if isinstance(xs, FeatureSet) else np.asarray(xs, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    if f.ndim != 2 or f.shape[0] == 0:
        raise ValueError("empty subset")
    return f


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
    K = np.exp(-cdist(rows, rows, "sqeuclidean") / (4.0 * sigma * sigma))
    return K, inv.reshape(-1)


def _value_counts(inv: np.ndarray, labels: np.ndarray, u: int, k: int) -> np.ndarray:
    """C[v, c]: number of samples of distinct row v in cluster c."""
    flat = np.bincount(inv * k + labels, minlength=u * k)
    return flat.reshape(u, k).astype(np.float64)


def information_potential(xs, sigma: float) -> float:
    """V(X) = (1/n^2) sum_ij exp(-|xi-xj|^2 / (4 sigma^2)), in (0, 1]."""
    f = _as_matrix(xs)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    K, inv = _distinct_kernel(f, sigma)
    w = np.bincount(inv, minlength=K.shape[0]).astype(np.float64)
    n = f.shape[0]
    return float(w @ K @ w / (n * n))


def renyi_quadratic_entropy(xs, sigma: float) -> float:
    """Quadratic Renyi entropy of a sample set: -ln V(X)."""
    return -float(np.log(information_potential(xs, sigma)))


def _cef(K: np.ndarray, inv: np.ndarray, labels: np.ndarray, k: int,
         kind: EntropyKind | None) -> float:
    """cef() on a distinct-row kernel K and sample row indices inv."""
    C = _value_counts(inv, labels, K.shape[0], k)
    counts = C.sum(axis=0)
    V = (C.T @ K @ C) / np.outer(counts, counts)
    pairs = V[np.triu_indices(k, 1)]
    if kind is not None and kind.name == "tsallis":
        return float((1.0 - pairs).sum())
    return float(pairs.sum())


def cef(a: ClusterAssignment, xs: FeatureSet, sigma: float,
        kind: EntropyKind | None = None) -> float:
    """Cluster evaluation score for an assignment.

    The plain CEF (sum of pairwise cross potentials, lower better) for
    every kind except Tsallis, which reports the separation sum of
    (1 - potential) per cluster pair.  Ranking always uses plain CEF.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if a.labels.size != xs.n:
        raise ValueError("assignment does not cover the feature set")
    K, inv = _distinct_kernel(xs.features, sigma)
    return _cef(K, inv, a.labels, a.k, kind)


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


def _sum(terms: list[float]) -> float:
    """Sum of at most 8 floats in the order numpy's float64 ``sum`` uses:
    left to right below 8 terms, a fixed pairwise tree at 8."""
    if len(terms) < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    a, b, c, d, e, f, g, h = terms
    return ((a + b) + (c + d)) + ((e + f) + (g + h))


def _descend(K: np.ndarray, inv: np.ndarray, labels: np.ndarray, k: int
             ) -> tuple[np.ndarray, list[float]]:
    """Greedy single-sample CEF descent; returns labels and pass trace.

    K is the kernel over distinct feature rows and inv[i] the row of
    sample i.  Samples are visited in index order; a move's delta
    depends only on the sample's (row, label) pair and the state, so a
    pair found not to improve is skipped until the next move.

    S stays a u x k array; W and counts are Python lists, and 1/counts
    and W @ (1/counts) are refreshed only after a move.  S[v] @ (1/counts)
    and W @ (1/counts) go through numpy (BLAS) and the sums over
    clusters through ``_sum``, so each delta equals, to the bit, the one
    numpy array arithmetic on the same state gives; the tests keep that
    array version as their oracle.
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
        invn_v = np.array(invn)
        wi = (np.array(W) @ invn_v).tolist()
        return invn_v, invn, wi, [W[c][c] for c in ks]

    invn_v, invn, wi, diag = state_terms()
    for _ in range(_MAX_PASSES):
        moved = False
        stale = set()            # (row, label) pairs with no improving move
        for i, v in enumerate(rows):
            a = lab[i]
            if (v, a) in stale or counts[a] <= 1:
                continue
            Sv = S[v]
            Si = Sv.tolist()
            s = float(Sv @ invn_v)
            Wa = W[a]
            ia = invn[a]
            sa = Si[a]
            na1 = counts[a] - 1.0
            # pairs (a, c) after the move, summed over c outside {a, b}
            p = _sum([(Wa[c] - Si[c]) * invn[c] for c in ks]) \
                - (Wa[a] - sa) * ia
            # pairs (a, c) before the move
            olda = (_sum([Wa[c] * invn[c] for c in ks]) - Wa[a] * ia) * ia
            best = np.inf
            b = a
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
                delta = part_a + part_b - olda - oldb
                if delta < best:
                    best = delta
                    b = c
            if best < -_MOVE_TOL:
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
                invn_v, invn, wi, diag = state_terms()
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
    or 50 passes elapse.  The best restart by plain CEF wins, ties to
    the lower restart index.  Deterministic for fixed inputs and seed.
    No entropy kind enters the partition; ``cef`` gives another kind's
    flavor of the score.

    sigma defaults to silverman_sigma(xs).  When ``trace`` is a dict it
    receives the per-pass CEF list of each restart, keyed by index.
    """
    if not 2 <= k <= _MAX_K:
        raise ValueError(f"k {k} outside [2, {_MAX_K}]")
    if xs.n < 10 * k:
        raise ValueError(f"need at least {10 * k} samples for k={k}, have {xs.n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if sigma is None:
        sigma = silverman_sigma(xs)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
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
        val = run_trace[-1]
        if val < best_val:
            best_val = val
            best_labels = labels.copy()
    return ClusterAssignment(best_labels, k), _cef(K, inv, best_labels, k, None)


def assignment_to_labelmap(a: ClusterAssignment, xs: FeatureSet, dims) -> np.ndarray:
    """Paint cluster labels back onto an (h, w) raster.

    Sampled pixels take their own label (the last sample wins where
    several share a pixel); every other pixel takes the label of the
    nearest sampled pixel, ties to the smallest label.  The distance to
    each label is one exact Euclidean distance transform, so ties are
    exact however many samples are equidistant.
    """
    h, w = int(dims[0]), int(dims[1])
    lab = np.asarray(a.labels)
    if lab.size != xs.n:
        raise ValueError("assignment does not cover the feature set")
    coords = xs.coords
    if (coords.min() < 0 or coords[:, 0].max() >= h
            or coords[:, 1].max() >= w):
        raise ValueError(f"provenance outside a {h}x{w} raster")
    out = np.zeros((h, w), dtype=np.uint8)
    nearest = np.full((h, w), np.inf)
    for c in range(a.k):
        free = np.ones((h, w), dtype=bool)
        free[coords[lab == c, 0], coords[lab == c, 1]] = False
        dist = distance_transform_edt(free)
        closer = dist < nearest
        out[closer] = c
        np.minimum(nearest, dist, out=nearest)
    out[coords[:, 0], coords[:, 1]] = lab
    return out
