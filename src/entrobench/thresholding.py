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

Exact search comes first: the additive criteria (Shannon, Renyi, cross
entropy) are solved exactly at every level by a dynamic program over
the class table, and Tsallis exactly up to k = 3 by enumerating tuples
of occupied bins.  Both break ties toward the lexicographically
smallest tuple.  ``exhaustive_search`` is that exact search for k <= 3;
``heuristic_search`` is a seeded (mu + lambda) evolution strategy usable
up to k = 5, needed only for Tsallis at k = 4-5, where no cheap exact
method exists.
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
    def is_additive(self) -> bool:
        """True when the tuple score is a plain sum of class terms."""
        return self.kind is None or self.kind.name != "tsallis"

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
    h = np.asarray(hist, dtype=np.float64)
    if h.ndim != 1 or h.size < 2:
        raise ValueError("expected a 1-D histogram with at least 2 bins")
    if (h < 0).any():
        raise ValueError("negative counts")
    if h.sum() <= 0:
        raise ValueError("empty histogram")
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
    if criterion.kind.name == "tsallis":
        total += (1.0 - criterion.kind.param) * float(np.prod(ents))
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


def _class_table(h: np.ndarray, criterion: Criterion):
    """Per-class score table over all intervals, via prefix sums.

    Returns (table, valid, omq): ``table[lo, hi]`` is the class term for
    the interval [lo, hi] (cross entropy already negated so callers
    uniformly maximize), ``valid`` flags intervals with positive mass,
    and ``omq`` is ``1 - q`` for Tsallis (the caller must combine sum
    and product) or None for additive criteria.  Invalid cells hold 0.
    """
    B = h.size
    cum0 = np.zeros(B + 1)
    cum0[1:] = np.cumsum(h)
    # S0[lo, hi] = mass of [lo, hi]
    S0 = cum0[None, 1:] - cum0[:B][:, None]
    valid = np.triu(np.ones((B, B), dtype=bool)) & (S0 > 0)
    safe0 = np.where(S0 > 0, S0, 1.0)
    if criterion.is_cross_entropy:
        i = np.arange(B, dtype=np.float64)
        lni = np.zeros(B)
        lni[1:] = np.log(i[1:])
        c1 = np.zeros(B + 1)
        c1[1:] = np.cumsum(i * h)
        c2 = np.zeros(B + 1)
        c2[1:] = np.cumsum(i * h * lni)
        W1 = c1[None, 1:] - c1[:B][:, None]
        W2 = c2[None, 1:] - c2[:B][:, None]
        safe1 = np.where(W1 > 0, W1, 1.0)
        val = np.where(W1 > 0, W2 - W1 * np.log(safe1 / safe0), 0.0)
        table = np.where(valid, -val, 0.0)
        return table, valid, None
    kind = criterion.kind
    if kind.name == "shannon":
        hl = h * np.log(np.where(h > 0, h, 1.0))
        c1 = np.zeros(B + 1)
        c1[1:] = np.cumsum(hl)
        S1 = c1[None, 1:] - c1[:B][:, None]
        table = np.log(safe0) - S1 / safe0
    elif kind.name == "renyi":
        a = kind.param
        c1 = np.zeros(B + 1)
        c1[1:] = np.cumsum(h ** a)
        A = c1[None, 1:] - c1[:B][:, None]
        safeA = np.where(A > 0, A, 1.0)
        table = (np.log(safeA) - a * np.log(safe0)) / (1.0 - a)
    else:
        q = kind.param
        c1 = np.zeros(B + 1)
        c1[1:] = np.cumsum(h ** q)
        A = c1[None, 1:] - c1[:B][:, None]
        table = (1.0 - A / safe0 ** q) / (q - 1.0)
    table = np.where(valid, table, 0.0)
    omq = (1.0 - kind.param) if kind.name == "tsallis" else None
    return table, valid, omq


def _dp_additive(neg_table: np.ndarray, k: int) -> tuple[int, ...]:
    """Lexicographically-first optimal tuple for an additive class table.

    ``neg_table`` holds -inf in invalid cells.  Suffix values r[m][i] =
    best score splitting [i, B-1] into m classes; the greedy backtrack
    picks the smallest optimal threshold at each step, which yields the
    lexicographically smallest optimal tuple.
    """
    B = neg_table.shape[0]
    r = [None, neg_table[:, B - 1].copy()]  # r[1]
    for m in range(2, k + 1):
        M = neg_table[:, :B - 1] + r[m - 1][1:][None, :]
        r.append(M.max(axis=1))
    thresholds = []
    i = 0
    for m in range(k, 0, -1):
        cand = neg_table[i, :B - 1] + r[m][1:]
        j = int(np.argmax(cand))
        if not np.isfinite(cand[j]):
            raise ValueError("no valid threshold tuple")
        thresholds.append(j)
        i = j + 1
    return tuple(thresholds)


def _tsallis_enumerate(table, omq, cand: np.ndarray, k: int) -> tuple[int, ...]:
    """Exact enumeration for the pseudo-additive Tsallis composition.

    ``cand`` holds the occupied bins but the last one.  A threshold in a
    run of empty bins splits off the same classes, with bit-identical
    table cells, as the occupied bin that starts the run, which is the
    smallest threshold giving those classes; so only tuples of
    candidates are scored, in ascending order, and argmax ties still
    resolve to the lexicographically smallest tuple.  Every class of
    such a tuple holds an occupied bin, so each one is valid.
    """
    B = table.shape[0]
    n = cand.size
    first = table[0, cand]                  # class [0, t1]
    last = table[cand + 1, B - 1]           # class [t + 1, B-1] indexed by t
    mid = table[np.ix_(cand + 1, cand)]     # class [a + 1, b] indexed by (a, b)
    if k == 1:
        tot = first + last + omq * first * last
        return (int(cand[np.argmax(tot)]),)
    if k == 2:
        S = first[:, None] + mid + last[None, :]
        P = first[:, None] * mid * last[None, :]
        tot = np.where(np.triu(np.ones((n, n), dtype=bool), 1), S + omq * P, -np.inf)
        i, j = divmod(int(np.argmax(tot)), n)
        return (int(cand[i]), int(cand[j]))
    best_val = -np.inf
    best = None
    # for each t1 = cand[i], t2 = cand[j] and t3 = cand[l] with i < j < l;
    # the (j, l) block keeps row-major order, so ties stay lexicographic
    upper = np.triu(np.ones((n, n), dtype=bool))
    for i in range(n - 2):
        s1 = first[i]
        second = mid[i, i + 1:n - 1]
        m = mid[i + 1:n - 1, i + 2:]
        end = last[i + 2:]
        S = s1 + second[:, None] + m + end[None, :]
        P = s1 * second[:, None] * m * end[None, :]
        tot = np.where(upper[:n - i - 2, :n - i - 2], S + omq * P, -np.inf)
        flat = int(np.argmax(tot))
        val = tot.flat[flat]
        if val > best_val:
            j, l = divmod(flat, tot.shape[1])
            best_val = val
            best = (int(cand[i]), int(cand[i + 1 + j]), int(cand[i + 2 + l]))
    return best


def _exact_search(hist, k: int, criterion: Criterion) -> tuple[tuple[int, ...], float]:
    """Globally optimal threshold tuple by exact search.

    Additive criteria take the DP at any k <= MAX_LEVELS; Tsallis takes
    the occupied-bin enumeration at k <= MAX_LEVELS_EXHAUSTIVE.  Ties
    resolve to the lexicographically smallest tuple.  Raises when the
    histogram occupies fewer than k + 1 bins (no valid tuple).
    """
    h = _check_hist(hist)
    top = MAX_LEVELS if criterion.is_additive else MAX_LEVELS_EXHAUSTIVE
    if not 1 <= k <= top:
        raise ValueError(f"k {k} outside [1, {top}]")
    occupied = np.flatnonzero(h)
    if occupied.size < k + 1:
        raise ValueError(f"no valid tuple: {occupied.size} occupied bins "
                         f"cannot fill {k + 1} classes")
    table, valid, omq = _class_table(h, criterion)
    if omq is None:
        t = _dp_additive(np.where(valid, table, -np.inf), k)
    else:
        t = _tsallis_enumerate(table, omq, occupied[:-1], k)
    return t, criterion_value(h, t, criterion)


def exhaustive_search(hist, k: int,
                      criterion: Criterion = Criterion()) -> tuple[tuple[int, ...], float]:
    """Globally optimal threshold tuple by exact search (k <= 3).

    Ties resolve to the lexicographically smallest tuple.  Raises when
    the histogram occupies fewer than k + 1 bins (no valid tuple).
    """
    if not 1 <= k <= MAX_LEVELS_EXHAUSTIVE:
        raise ValueError(f"k {k} outside [1, {MAX_LEVELS_EXHAUSTIVE}]")
    return _exact_search(hist, k, criterion)


def _batch_scores(table, valid, omq, cand: np.ndarray) -> np.ndarray:
    """Scores for an (m, k) array of candidate tuples; invalid -> -inf."""
    m, k = cand.shape
    B = table.shape[0]
    lo = np.empty((m, k + 1), dtype=np.intp)
    hi = np.empty((m, k + 1), dtype=np.intp)
    lo[:, 0] = 0
    lo[:, 1:] = cand + 1
    hi[:, :k] = cand
    hi[:, k] = B - 1
    terms = table[lo, hi]
    ok = valid[lo, hi].all(axis=1)
    if omq is None:
        scores = terms.sum(axis=1)
    else:
        scores = terms.sum(axis=1) + omq * terms.prod(axis=1)
    scores[~ok] = -np.inf
    return scores


def _repair(cand: np.ndarray, B: int) -> np.ndarray:
    """Sort and de-duplicate candidate rows into strict increase."""
    np.clip(cand, 0, B - 2, out=cand)
    cand.sort(axis=1)
    k = cand.shape[1]
    for j in range(1, k):
        cand[:, j] = np.maximum(cand[:, j], cand[:, j - 1] + 1)
    cand[:, k - 1] = np.minimum(cand[:, k - 1], B - 2)
    for j in range(k - 2, -1, -1):
        cand[:, j] = np.minimum(cand[:, j], cand[:, j + 1] - 1)
    return cand


def _seed_tuples(h: np.ndarray, k: int, population: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Initial population: mass-balanced and quantile tuples plus random."""
    B = h.size
    nz = np.flatnonzero(h)
    m = nz.size
    init = np.empty((population, k), dtype=np.int64)
    # split the occupied bins into k+1 runs: always a valid tuple
    init[0] = [nz[(j * m) // (k + 1) - 1] for j in range(1, k + 1)]
    cdf = np.cumsum(h) / h.sum()
    init[1] = np.searchsorted(cdf, [j / (k + 1) for j in range(1, k + 1)])
    for r in range(2, population):
        init[r] = np.sort(rng.choice(B - 1, size=k, replace=False))
    return _repair(init, B)


def heuristic_search(hist, k: int, criterion: Criterion = Criterion(),
                     seed: int = 0, budget: int = 5000,
                     population: int = _POPULATION) -> tuple[tuple[int, ...], float]:
    """Seeded (mu + lambda) evolutionary threshold search (k <= 5).

    The budget is split over up to three restarts, each seeded afresh
    and run with Gaussian mutation whose sigma starts at 12 bins and
    halves four times over the restart; offspring are re-sorted and
    de-duplicated before scoring.  A held-back slice of the budget
    then polishes the best tuple found by coordinate descent.
    Deterministic for fixed inputs and seed; the result never exceeds
    the exhaustive optimum and is always a valid tuple.
    """
    h = _check_hist(hist)
    B = h.size
    if not 1 <= k <= MAX_LEVELS:
        raise ValueError(f"k {k} outside [1, {MAX_LEVELS}]")
    if population < 2:
        raise ValueError("population must be at least 2")
    if budget < 50 * k:
        raise ValueError(f"budget {budget} below minimum {50 * k}")
    if np.count_nonzero(h) < k + 1:
        raise ValueError(f"no valid tuple: {np.count_nonzero(h)} occupied bins "
                         f"cannot fill {k + 1} classes")
    table, valid, omq = _class_table(h, criterion)
    rng = np.random.default_rng(seed)
    budget_es = budget - min(budget // 10, 30 * k)
    phases = max(1, min(3, budget_es // (4 * population)))
    per_phase = budget_es // phases
    evals = 0
    best = None
    best_score = -np.inf
    for phase in range(phases):
        if evals + population > budget_es:
            break
        pop = _seed_tuples(h, k, population, rng)
        scores = _batch_scores(table, valid, omq, pop)
        evals += pop.shape[0]
        phase_evals = pop.shape[0]
        phase_end = min(budget_es, (phase + 1) * per_phase)
        quarter = max(1, per_phase // 4)
        order = _rank(pop, scores)
        pop, scores = pop[order], scores[order]
        while evals < phase_end:
            n_off = min(population, phase_end - evals)
            pa = rng.integers(0, population, n_off)
            pb = rng.integers(0, population, n_off)
            cross = rng.random((n_off, k)) < 0.5
            children = np.where(cross, pop[pa], pop[pb])
            sigma = _SIGMA0 * 0.5 ** (phase_evals // quarter)
            children = children + np.rint(
                rng.normal(0.0, sigma, (n_off, k))).astype(np.int64)
            _repair(children, B)
            child_scores = _batch_scores(table, valid, omq, children)
            evals += n_off
            phase_evals += n_off
            pool = np.vstack([pop, children])
            pool_scores = np.concatenate([scores, child_scores])
            order = _rank(pool, pool_scores)[:population]
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
                if not 0 <= cand[j] <= B - 2:
                    continue
                if j > 0 and cand[j] <= cand[j - 1]:
                    continue
                if j < k - 1 and cand[j] >= cand[j + 1]:
                    continue
                sc = _batch_scores(table, valid, omq, cand[None, :])[0]
                evals += 1
                if sc > best_score:
                    best, best_score = cand, sc
                    improved = True
    result = tuple(int(x) for x in best)
    return result, criterion_value(h, result, criterion)


def _rank(pop: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Sort indices by score descending, ties by ascending tuple order."""
    keys = tuple(pop[:, j] for j in range(pop.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (-scores,))


def apply_thresholds(img, thresholds) -> np.ndarray:
    """Label each pixel with its threshold interval.

    Pixel value v gets label m where t_m < v <= t_{m+1}, with t_0 = -1
    and t_{k+1} = 255; labels are monotone in intensity.
    """
    a = as_gray(img)
    t = check_thresholds(thresholds, 256)
    return np.searchsorted(np.asarray(t), a, side="left").astype(np.uint8)
