"""Multilevel threshold selection over intensity histograms.

A threshold tuple t_1 < ... < t_k splits the gray range into k + 1
classes [t_m + 1, t_{m+1}] (with t_0 = -1 and t_{k+1} = B - 1); "level"
counts thresholds.  Two scoring rules are available:

* maximum entropy: the sum over classes of the within-class entropy for
  a chosen kind; Tsallis adds its pseudo-additive product term
  ``(1 - q) * prod_m S_q(C_m)`` (symmetric multilevel extension);
* cross entropy (Li): ``sum_m sum_{i in C_m, i >= 1} i h_i ln(i / mu_m)``
  with mu_m the class intensity mean; lower is better, so searches
  negate it internally and always maximize.

Every search reads one class table built over the occupied bins only:
its cell [a, b] scores the class running from the a-th to the b-th
occupied bin.  Empty bins add exact zeros to every prefix sum, so each
cell has the bits of the full-grid cell for any interval holding the
same occupied bins, and a threshold anywhere in a run of empty bins
splits off the same classes as the occupied bin that starts the run.

Exact search comes first: ``exhaustive_search`` is exact for k up to
``Criterion.max_exact_level``.  The additive criteria (Shannon, Renyi,
cross entropy) are solved at every level by a dynamic program over the
class table, and Tsallis up to k = 3 by enumerating tuples of occupied
bins, split at their last-but-one threshold: each value of it scores
all its tuples as one outer combination of the classes before and
after it.  Both break ties toward the lexicographically smallest tuple.
``heuristic_search`` is a seeded (mu + lambda) evolution strategy usable
up to k = 5 and run by the harness only for Tsallis at k = 4-5, where no
cheap exact method exists; it too searches occupied bins on the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import SHANNON, EntropyKind, entropy, normalize
from .raster import as_gray

__all__ = [
    "MAX_LEVELS",
    "MAX_LEVELS_EXHAUSTIVE",
    "Criterion",
    "check_thresholds",
    "class_distribution",
    "criterion_value",
    "exhaustive_search",
    "heuristic_search",
    "apply_thresholds",
]

MAX_LEVELS = 5
MAX_LEVELS_EXHAUSTIVE = 3

_POPULATION = 20
_SIGMA0 = 12.0


@dataclass(frozen=True)
class Criterion:
    """Threshold scoring rule.

    ``kind`` selects the summed per-class entropy to maximize; ``None``
    selects the cross-entropy rule, which is minimized.
    """

    kind: EntropyKind | None = SHANNON

    @classmethod
    def max_entropy(cls, kind: EntropyKind) -> "Criterion":
        if kind is None:
            raise ValueError("max_entropy needs an entropy kind")
        return cls(kind)

    @classmethod
    def cross_entropy(cls) -> "Criterion":
        return cls(None)

    @property
    def is_cross_entropy(self) -> bool:
        return self.kind is None

    @property
    def omq(self) -> float | None:
        """``1 - q`` for Tsallis, whose tuple score adds ``omq`` times the
        product of the class terms to their sum; None for the criteria
        whose tuple score is the plain sum."""
        if self.kind is None or self.kind.name != "tsallis":
            return None
        return 1.0 - self.kind.param

    @property
    def max_exact_level(self) -> int:
        """Largest threshold count ``exhaustive_search`` solves exactly."""
        return MAX_LEVELS if self.omq is None else MAX_LEVELS_EXHAUSTIVE

    @property
    def label(self) -> str:
        return "cross-entropy" if self.kind is None else self.kind.name


def check_thresholds(t, bins: int = 256) -> tuple[int, ...]:
    """Validate a threshold tuple against a bin count and return it."""
    tt = tuple(int(x) for x in np.atleast_1d(np.asarray(t)).tolist())
    if not 1 <= len(tt) <= MAX_LEVELS:
        raise ValueError(f"threshold count {len(tt)} outside [1, {MAX_LEVELS}]")
    if any(not 0 <= x <= bins - 2 for x in tt):
        raise ValueError(f"thresholds {tt} outside [0, {bins - 2}]")
    if any(b <= a for a, b in zip(tt, tt[1:])):
        raise ValueError(f"thresholds {tt} not strictly increasing")
    return tt


def _check_hist(hist) -> np.ndarray:
    """Counts of at least 2 bins as float64; ``normalize`` rejects
    non-finite, negative and all-zero counts."""
    h = np.asarray(hist, dtype=np.float64)
    if h.ndim != 1 or h.size < 2:
        raise ValueError("expected a 1-D histogram with at least 2 bins")
    normalize(h)
    return h


def class_distribution(hist, lo: int, hi: int) -> np.ndarray:
    """Renormalized histogram slice over the bin interval [lo, hi]."""
    h = _check_hist(hist)
    if not 0 <= lo <= hi < h.size:
        raise ValueError(f"bad class interval [{lo}, {hi}] for {h.size} bins")
    if h[lo:hi + 1].sum() <= 0:
        raise ValueError(f"class interval [{lo}, {hi}] has zero mass")
    return normalize(h[lo:hi + 1])


def _class_bounds(t: tuple[int, ...], bins: int) -> list[tuple[int, int]]:
    edges = (-1,) + t + (bins - 1,)
    return [(lo + 1, hi) for lo, hi in zip(edges, edges[1:])]


def criterion_value(hist, thresholds, criterion: Criterion = Criterion()) -> float:
    """Score a threshold tuple against a histogram.

    Raises ValueError when any induced class has zero mass.
    """
    h = _check_hist(hist)
    t = check_thresholds(thresholds, h.size)
    classes = _class_bounds(t, h.size)
    if criterion.is_cross_entropy:
        return _cross_entropy_value(h, classes)
    ents = [entropy(class_distribution(h, lo, hi), criterion.kind)
            for lo, hi in classes]
    total = float(sum(ents))
    if criterion.omq is not None:
        total += criterion.omq * float(np.prod(ents))
    return total


def _cross_entropy_value(h: np.ndarray, classes) -> float:
    i = np.arange(h.size, dtype=np.float64)
    total = 0.0
    for lo, hi in classes:
        seg = h[lo:hi + 1]
        if seg.sum() <= 0:
            raise ValueError(f"class interval [{lo}, {hi}] has zero mass")
        w = i[lo:hi + 1] * seg
        m = w.sum()
        if m <= 0:
            continue  # all mass at bin 0: contributes nothing
        mu = m / seg.sum()
        nz = w > 0
        total += float((w[nz] * np.log(i[lo:hi + 1][nz] / mu)).sum())
    return total


def _run_sums(x: np.ndarray) -> np.ndarray:
    """R[a, b] = x[a] + ... + x[b] for a <= b, by prefix sums.

    For nonnegative x the prefix sums never fall, so R is positive only
    on or above the diagonal, on runs that hold a positive entry."""
    c = np.zeros(x.size + 1)
    c[1:] = np.cumsum(x)
    return c[None, 1:] - c[:-1][:, None]


def _class_table(h: np.ndarray, criterion: Criterion, levels: np.ndarray):
    """Per-class score table over runs of bins, via ``_run_sums``.

    ``h`` holds the counts of consecutive bins, and ``levels`` their
    intensities, which only cross entropy reads: the occupied bins of a
    histogram, as the searches pass them, or a whole histogram with
    ``np.arange(B)``.  ``table[a, b]`` is the class term for bins a..b,
    cross entropy already negated so callers uniformly maximize; for
    Tsallis the caller adds ``criterion.omq`` times the product of the
    terms.  Cells of runs without mass hold 0; over occupied bins those
    are exactly the cells below the diagonal, which no tuple reads.
    """
    S0 = _run_sums(h)
    mass = S0 > 0
    safe0 = np.where(mass, S0, 1.0)
    if criterion.is_cross_entropy:
        i = np.asarray(levels, dtype=np.float64)
        lni = np.log(np.where(i > 0, i, 1.0))
        W1 = _run_sums(i * h)
        W2 = _run_sums(i * h * lni)
        safe1 = np.where(W1 > 0, W1, 1.0)
        table = -np.where(W1 > 0, W2 - W1 * np.log(safe1 / safe0), 0.0)
    elif criterion.kind.name == "shannon":
        S1 = _run_sums(h * np.log(np.where(h > 0, h, 1.0)))
        table = np.log(safe0) - S1 / safe0
    else:
        p = criterion.kind.param
        A = _run_sums(h ** p)
        if criterion.kind.name == "renyi":
            safeA = np.where(A > 0, A, 1.0)
            table = (np.log(safeA) - p * np.log(safe0)) / (1.0 - p)
        else:
            table = (1.0 - A / safe0 ** p) / (p - 1.0)
    return np.where(mass, table, 0.0)


def _dp_additive(table: np.ndarray, k: int) -> tuple[int, ...]:
    """Lexicographically-first optimal tuple for an additive class table.

    ``table`` is the occupied-bin table, and the tuple indexes occupied
    bins.  A class [i, j] needs j >= i, so the DP reads -inf below the
    diagonal.  Suffix values r[m][i] = best score splitting [i, B-1] into
    m classes, -inf where fewer than m bins remain; the greedy backtrack
    picks the smallest optimal threshold at each step, which yields the
    lexicographically smallest optimal tuple.
    """
    B = table.shape[0]
    neg_table = np.where(np.tri(B, k=-1, dtype=bool), -np.inf, table)
    r = [None, neg_table[:, B - 1].copy()]  # r[1]
    for m in range(2, k + 1):
        M = neg_table[:, :B - 1] + r[m - 1][1:][None, :]
        r.append(M.max(axis=1))
    thresholds = []
    i = 0
    for m in range(k, 0, -1):
        cand = neg_table[i, :B - 1] + r[m][1:]
        j = int(np.argmax(cand))
        thresholds.append(j)
        i = j + 1
    return tuple(thresholds)


def _tsallis_enumerate(table, omq, k: int) -> tuple[int, ...]:
    """Exact enumeration for the pseudo-additive Tsallis composition.

    ``table`` is the occupied-bin table and the tuple indexes occupied
    bins: every bin but the last is a candidate threshold.  For k = 2-3
    tuples split at their last-but-one threshold b: the classes before b
    give one (sum, product) vector over t1 < b (one class for k = 2),
    the two after it a row over the last threshold, and their outer
    combination scores every tuple through b, summing and multiplying
    the class terms left to right.  A tie at a later b wins only with a
    smaller tuple, so ties resolve to the lexicographically smallest
    tuple.  Every class of such a tuple holds an occupied bin, so each
    one has mass.
    """
    n = table.shape[0] - 1
    first = table[0, :n]                    # class [0, t1]
    last = table[1:, n]                     # class [t + 1, B-1] indexed by t
    mid = table[1:, :n]                     # class [a + 1, b] indexed by (a, b)
    if k == 1:
        tot = first + last + omq * first * last
        return (int(np.argmax(tot)),)
    best_val, best = -np.inf, None
    for b in range(k - 2, n - 1):
        if k == 2:
            s = p = first[b:b + 1]
        else:
            s, p = first[:b] + mid[:b, b], first[:b] * mid[:b, b]
        row, end = mid[b, b + 1:], last[b + 1:]
        tot = s[:, None] + row + end + omq * (p[:, None] * row * end)
        i, j = divmod(int(np.argmax(tot)), tot.shape[1])
        t = (i,) * (k - 2) + (b, b + 1 + j)
        if tot[i, j] > best_val or (tot[i, j] == best_val and t < best):
            best_val, best = tot[i, j], t
    return best


def _prepare(hist, k: int, top: int, criterion: Criterion):
    """Check the histogram, 1 <= k <= ``top`` and that k + 1 bins are
    occupied; return (h, occupied bins, ``_class_table`` over them).
    Every strictly increasing tuple over all but the last occupied bin
    then splits them into k + 1 classes that each hold mass."""
    h = _check_hist(hist)
    if not 1 <= k <= top:
        raise ValueError(f"k {k} outside [1, {top}]")
    occupied = np.flatnonzero(h)
    if occupied.size < k + 1:
        raise ValueError(f"no valid tuple: {occupied.size} occupied bins "
                         f"cannot fill {k + 1} classes")
    return h, occupied, _class_table(h[occupied], criterion, occupied)


def exhaustive_search(hist, k: int,
                      criterion: Criterion = Criterion()) -> tuple[tuple[int, ...], float]:
    """Globally optimal threshold tuple by exact search.

    Exact for 1 <= k <= ``criterion.max_exact_level``: additive criteria
    take the DP, Tsallis the occupied-bin enumeration.  Ties resolve to
    the lexicographically smallest tuple.  Raises for any other k and
    when the histogram occupies fewer than k + 1 bins (no valid tuple).
    """
    h, occupied, table = _prepare(hist, k, criterion.max_exact_level, criterion)
    if criterion.omq is None:
        t = _dp_additive(table, k)
    else:
        t = _tsallis_enumerate(table, criterion.omq, k)
    t = tuple(int(occupied[x]) for x in t)
    return t, criterion_value(h, t, criterion)


def _class_cells(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, off) with ``t @ M + off`` the flat m x m cells of the k + 1
    classes [0, t1], [t1 + 1, t2], ..., [tk + 1, m - 1] of a tuple t."""
    j = np.arange(k)
    M = np.zeros((k, k + 1), dtype=np.int64)
    M[j, j] = 1             # t[j] ends class j ...
    M[j, j + 1] = m         # ... and class j + 1 starts at t[j] + 1
    off = np.full(k + 1, m, dtype=np.int64)
    off[0] = 0
    off[k] += m - 1
    return M, off


def _batch_scores(table, omq, cand: np.ndarray, cells) -> np.ndarray:
    """Scores for an (n, k) array of strictly increasing candidate tuples
    on the occupied-bin table, through ``_class_cells``."""
    M, off = cells
    terms = table.take(cand @ M + off)
    if omq is None:
        return terms.sum(axis=1)
    return terms.sum(axis=1) + omq * terms.prod(axis=1)


def _repair(cand: np.ndarray, m: int) -> np.ndarray:
    """Sort and de-duplicate candidate rows into strict increase.

    Each row is pushed up to strict increase, its last entry capped at
    m - 2, and then pulled down to strict increase again; on ``t_j - j``
    the two passes are a running maximum and a reversed running minimum.
    """
    k = cand.shape[1]
    cand = np.minimum(np.maximum(cand, 0), m - 2)
    cand.sort(axis=1)
    step = np.arange(k)
    up = np.maximum.accumulate(cand - step, axis=1)
    np.minimum(up[:, -1], m - 1 - k, out=up[:, -1])
    return np.minimum.accumulate(up[:, ::-1], axis=1)[:, ::-1] + step


def _seed_tuples(counts: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Initial population over the counts of the m occupied bins: the
    tuple that splits them into k + 1 equal runs, the mass quantiles,
    and random tuples."""
    m = counts.size
    j = np.arange(1, k + 1)
    init = np.empty((_POPULATION, k), dtype=np.int64)
    init[0] = j * m // (k + 1) - 1
    init[1] = np.searchsorted(np.cumsum(counts) / counts.sum(), j / (k + 1))
    for r in range(2, _POPULATION):
        init[r] = np.sort(rng.choice(m - 1, size=k, replace=False))
    return _repair(init, m)


def _check_budget(budget: int, k: int) -> None:
    """The evolution strategy's smallest budget at k thresholds."""
    if budget < 50 * k:
        raise ValueError(f"budget {budget} below minimum {50 * k}")


def heuristic_search(hist, k: int, criterion: Criterion = Criterion(),
                     seed: int = 0, budget: int = 5000
                     ) -> tuple[tuple[int, ...], float]:
    """Seeded (mu + lambda) evolutionary threshold search (k <= 5).

    Tuples index the m occupied bins, as in the exact searches, and
    every class of such a tuple holds mass.  The budget is split over up
    to three restarts, each seeded afresh and run with Gaussian mutation
    whose sigma starts at 12 occupied bins and halves four times over
    the restart; offspring are re-sorted and de-duplicated before
    scoring.  A held-back slice of the budget then polishes the best
    tuple found by coordinate descent.  Deterministic for fixed inputs
    and seed; the result never exceeds the exhaustive optimum, and every
    threshold in it is an occupied bin.
    """
    h, occupied, table = _prepare(hist, k, MAX_LEVELS, criterion)
    omq = criterion.omq
    _check_budget(budget, k)
    m = occupied.size
    cells = _class_cells(k, m)
    rng = np.random.default_rng(seed)
    budget_es = budget - min(budget // 10, 30 * k)
    phases = max(1, min(3, budget_es // (4 * _POPULATION)))
    per_phase = budget_es // phases
    evals = 0
    best = None
    best_score = -np.inf
    for phase in range(phases):
        pop = _seed_tuples(h[occupied], k, rng)
        scores = _batch_scores(table, omq, pop, cells)
        evals += pop.shape[0]
        phase_evals = pop.shape[0]
        phase_end = min(budget_es, (phase + 1) * per_phase)
        quarter = max(1, per_phase // 4)
        order = _rank(pop, scores)
        pop, scores = pop[order], scores[order]
        while evals < phase_end:
            n_off = min(_POPULATION, phase_end - evals)
            # one draw for both parents: bounded int64 draws stream on
            # without a per-call buffer, so this equals two calls
            pa, pb = rng.integers(0, _POPULATION, (2, n_off))
            cross = rng.random((n_off, k)) < 0.5
            children = np.where(cross, pop[pa], pop[pb])
            sigma = _SIGMA0 * 0.5 ** (phase_evals // quarter)
            children = children + np.rint(
                rng.normal(0.0, sigma, (n_off, k))).astype(np.int64)
            children = _repair(children, m)
            child_scores = _batch_scores(table, omq, children, cells)
            evals += n_off
            phase_evals += n_off
            pool = np.concatenate((pop, children))
            pool_scores = np.concatenate((scores, child_scores))
            order = _rank(pool, pool_scores)[:_POPULATION]
            pop, scores = pool[order], pool_scores[order]
        if scores[0] > best_score:
            best, best_score = pop[0].copy(), scores[0]
    # coordinate descent around the incumbent with the held-back evals
    improved = True
    while improved and evals < budget:
        improved = False
        for j in range(k):
            for d in (1, -1, 2, -2, 4, -4, 8, -8, 16, -16):
                if evals >= budget:
                    break
                cand = best.copy()
                cand[j] += d
                if not 0 <= cand[j] <= m - 2:
                    continue
                if j > 0 and cand[j] <= cand[j - 1]:
                    continue
                if j < k - 1 and cand[j] >= cand[j + 1]:
                    continue
                sc = _batch_scores(table, omq, cand[None, :], cells)[0]
                evals += 1
                if sc > best_score:
                    best, best_score = cand, sc
                    improved = True
    result = tuple(int(occupied[x]) for x in best)
    return result, criterion_value(h, result, criterion)


def _rank(pop: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Sort indices by score descending, ties by ascending tuple order."""
    keys = tuple(pop[:, j] for j in range(pop.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (-scores,))


def apply_thresholds(img, thresholds) -> np.ndarray:
    """Label each pixel with its threshold interval.

    Pixel value v gets label m where t_m < v <= t_{m+1}, with t_0 = -1
    and t_{k+1} = 255; labels are monotone in intensity.  The labels of
    all 256 gray values are found once and looked up per pixel.
    """
    a = as_gray(img)
    t = check_thresholds(thresholds, 256)
    lut = np.searchsorted(np.asarray(t), np.arange(256), side="left")
    return lut.astype(np.uint8)[a]
