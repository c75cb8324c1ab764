"""Reference answers computed apart from entrobench.

Nothing here imports the package under test.  Threshold optima are
found on the occupied bins only: thresholds that fall inside a run of
empty bins give the same classes, so the best value over occupied-bin
boundaries is the best value over all tuples, and the boundary after
occupied bin b maps to threshold ``values[b]``, the smallest threshold
with those classes.  Class terms come from the closed forms in
entrobench's docstrings, summed per class start rather than from one
global prefix sum, so rounding differs from the program's and the
comparison takes criterion 2's tolerance.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

# criterion 2 of the acceptance suite: 1e-9 + 1e-11 * |v|
ABS_TOL = 1e-9
REL_TOL = 1e-11


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def occupied(img) -> tuple[np.ndarray, np.ndarray]:
    """Intensities that occur in a uint8 raster, and their counts."""
    counts = np.bincount(np.asarray(img, dtype=np.int64).ravel(), minlength=256)
    values = np.flatnonzero(counts)
    return values, counts[values].astype(np.float64)


def class_terms(values, counts, crit: tuple[str, float | None]) -> np.ndarray:
    """T[a, b]: class term of occupied bins a..b, in maximize form.

    ``crit`` is (name, param) with name shannon, renyi, tsallis or
    cross; the cross-entropy term is negated so every criterion is
    maximized.  Cells with b < a hold -inf.
    """
    name, param = crit
    u = values.size
    v = values.astype(np.float64)
    T = np.full((u, u), -np.inf)
    for a in range(u):
        c = counts[a:]
        mass = np.cumsum(c)
        if name == "shannon":
            T[a, a:] = np.log(mass) - np.cumsum(c * np.log(c)) / mass
        elif name == "renyi":
            T[a, a:] = (np.log(np.cumsum(c ** param))
                        - param * np.log(mass)) / (1.0 - param)
        elif name == "tsallis":
            T[a, a:] = (1.0 - np.cumsum(c ** param) / mass ** param) / (param - 1.0)
        elif name == "cross":
            w = v[a:] * c                       # i * h_i
            wsum = np.cumsum(w)
            lni = np.log(np.where(v[a:] > 0, v[a:], 1.0))
            # sum_i i h_i ln(i / mu) = sum i h_i ln i - W ln(W / M)
            ce = np.cumsum(w * lni) - np.where(
                wsum > 0, wsum * np.log(np.where(wsum > 0, wsum, 1.0) / mass), 0.0)
            T[a, a:] = -ce
        else:
            raise ValueError(f"unknown criterion {name!r}")
    return T


def best_additive(T: np.ndarray, k: int) -> tuple[float, tuple[int, ...]]:
    """Best sum of k + 1 class terms by dynamic programming.

    Returns the value and the class-end indices (occupied-bin indices of
    each threshold), lexicographically first among exact ties.
    """
    u = T.shape[0]
    if u < k + 1:
        raise ValueError("fewer occupied bins than classes")
    # best[m][a]: best split of bins a..u-1 into m classes
    best = [None, T[:, u - 1].copy()]
    for m in range(2, k + 2):
        cur = np.full(u, -np.inf)
        for a in range(u - m + 1):
            cur[a] = np.max(T[a, a:u - m + 1] + best[m - 1][a + 1:u - m + 2])
        best.append(cur)
    ends = []
    a = 0
    for m in range(k + 1, 1, -1):
        cand = T[a, a:u - m + 1] + best[m - 1][a + 1:u - m + 2]
        b = a + int(np.argmax(cand))
        ends.append(b)
        a = b + 1
    return float(best[k + 1][0]), tuple(ends)


def best_tsallis(T: np.ndarray, k: int, q: float) -> tuple[float, tuple[int, ...]]:
    """Best pseudo-additive Tsallis value by enumeration, k <= 3.

    The criterion is sum_m S_m + (1 - q) prod_m S_m over the k + 1
    classes; every tuple of occupied-bin boundaries is scored.
    """
    u = T.shape[0]
    omq = 1.0 - q
    if u < k + 1:
        raise ValueError("fewer occupied bins than classes")
    first = T[0, :]          # class 0..b
    last = T[:, u - 1]       # class a..u-1
    if k == 1:
        s = first[:u - 1] + last[1:]
        p = first[:u - 1] * last[1:]
        tot = s + omq * p
        b = int(np.argmax(tot))
        return float(tot[b]), (b,)
    if k == 2:
        best_val, best = -np.inf, None
        for b1 in range(u - 2):
            mid = T[b1 + 1, b1 + 1:u - 1]
            end = last[b1 + 2:]
            tot = first[b1] + mid + end + omq * first[b1] * mid * end
            j = int(np.argmax(tot))
            if tot[j] > best_val:
                best_val, best = float(tot[j]), (b1, b1 + 1 + j)
        return best_val, best
    if k != 3:
        raise ValueError("tsallis enumeration covers k <= 3")
    best_val, best = -np.inf, None
    for b1 in range(u - 3):
        a = b1 + 1
        # rows: b2 in a..u-3, columns: b3 in a+1..u-2
        second = T[a, a:u - 2][:, None]           # class a..b2
        third = T[a + 1:u - 1, a + 1:u - 1]       # class b2+1..b3, -inf if b3 <= b2
        end = last[a + 2:][None, :]               # class b3+1..u-1
        ok = np.isfinite(third)
        mid = np.where(ok, third, 0.0)
        tot = np.where(ok, first[b1] + second + mid + end
                       + omq * first[b1] * second * mid * end, -np.inf)
        flat = int(np.argmax(tot))
        i, j = divmod(flat, tot.shape[1])
        if tot[i, j] > best_val:
            best_val, best = float(tot[i, j]), (b1, a + i, a + 1 + j)
    return best_val, best


def thresholds_from_ends(values, ends) -> tuple[int, ...]:
    return tuple(int(values[b]) for b in ends)


def threshold_labels(img, thresholds) -> np.ndarray:
    """Label m for t_m < v <= t_{m+1}, with t_0 = -1 and t_{k+1} = 255."""
    a = np.asarray(img, dtype=np.int64)
    lab = np.zeros(a.shape, dtype=np.int64)
    for t in thresholds:
        lab += a > t
    return lab


def aligned_kappa_oa(pred, truth) -> tuple[float, float]:
    """Cohen's kappa and overall accuracy after the best relabelling.

    Predicted labels are permuted to maximise agreement, trying every
    permutation in lexicographic order and keeping the first best; the
    permutation changes the column sums, so ties are broken the same
    way as documented for entrobench.metrics.align_labels.  Only up to
    five classes are supported, which covers every workload here.
    """
    p = np.asarray(pred, dtype=np.int64).ravel()
    t = np.asarray(truth, dtype=np.int64).ravel()
    k = int(max(p.max(), t.max())) + 1
    if k > 5:
        raise ValueError("alignment here covers at most 5 classes")
    cm = np.bincount(t * k + p, minlength=k * k).reshape(k, k)
    cm = [[int(x) for x in row] for row in cm]
    best, best_diag = None, -1
    for perm in permutations(range(k)):
        diag = sum(cm[perm[j]][j] for j in range(k))
        if diag > best_diag:
            best, best_diag = perm, diag
    # aligned confusion: predicted label j becomes best[j]
    n = len(p)
    rows = [sum(r) for r in cm]
    cols = [0] * k
    for j in range(k):
        cols[best[j]] += sum(cm[i][j] for i in range(k))
    se = sum(r * c for r, c in zip(rows, cols))
    return (n * best_diag - se) / (n * n - se), best_diag / n


def similarity_map(params, points, center) -> np.ndarray:
    """p' = s R(theta) (p - c) + c + (dx, dy) for (n, 2) xy points."""
    dx, dy, theta, s = params
    rel = np.asarray(points, dtype=np.float64) - center
    cs, sn = s * math.cos(theta), s * math.sin(theta)
    x = cs * rel[:, 0] - sn * rel[:, 1] + center[0] + dx
    y = sn * rel[:, 0] + cs * rel[:, 1] + center[1] + dy
    return np.stack([x, y], axis=1)


def control_point_rmse(est, true, shape) -> float:
    """RMS distance of two similarity maps at the corners and centre."""
    h, w = shape
    c = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    pts = np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0],
                    [w - 1.0, h - 1.0], c])
    d = similarity_map(est, pts, c) - similarity_map(true, pts, c)
    return float(np.sqrt((d * d).sum(axis=1).mean()))
