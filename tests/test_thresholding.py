"""Multilevel threshold selection tests with enumeration oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobench.entropy import EntropyKind
from entrobench.metrics import align_labels, confusion, kappa
from entrobench.raster import Region, SceneSpec, generate_scene
import entrobench.thresholding as thr
from entrobench.thresholding import (
    Criterion,
    _class_table,
    apply_thresholds,
    check_thresholds,
    class_distribution,
    criterion_value,
    exhaustive_search,
    heuristic_search,
)

SHANNON_C = Criterion.max_entropy(EntropyKind.shannon())
RENYI_C = Criterion.max_entropy(EntropyKind.renyi(2.0))
TSALLIS_C = Criterion.max_entropy(EntropyKind.tsallis(2.0))
CROSS_C = Criterion.cross_entropy()
ALL_CRITERIA = [SHANNON_C, RENYI_C, TSALLIS_C, CROSS_C]


def spikes(positions, mass, bins=256):
    h = np.zeros(bins, dtype=np.int64)
    for p, m in zip(positions, mass):
        h[p] = m
    return h


def mixture_hist(rng, bins=256):
    x = np.arange(bins)
    h = np.zeros(bins)
    for _ in range(rng.integers(2, 6)):
        mu = rng.uniform(10, bins - 10)
        s = rng.uniform(3, 30)
        h += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / s) ** 2)
    h = h / h.max() * rng.uniform(500, 5000)
    return np.maximum(np.rint(h), 0).astype(np.int64) + rng.integers(0, 3, bins)


def brute_force(h, k, criterion):
    """Independent optimum by evaluating criterion_value on every tuple."""
    occupied = np.flatnonzero(h)
    best, best_v = None, -np.inf
    for t in itertools.combinations(range(h.size - 1), k):
        edges = (-1,) + t + (h.size - 1,)
        if any(h[lo + 1:hi + 1].sum() == 0 for lo, hi in zip(edges, edges[1:])):
            continue
        v = criterion_value(h, t, criterion)
        if criterion.is_cross_entropy:
            v = -v
        if v > best_v:
            best, best_v = t, v
    del occupied
    return best, best_v


def full_grid_mass(h):
    """Cells [lo, hi] of a whole-histogram class table whose bin run lies
    on or above the diagonal and has positive mass."""
    cum = np.zeros(len(h) + 1)
    cum[1:] = np.cumsum(h)
    return np.triu(cum[None, 1:] - cum[:-1, None] > 0)


def test_criterion_construction():
    assert SHANNON_C.label == "shannon"
    assert CROSS_C.is_cross_entropy
    assert CROSS_C.label == "cross-entropy"
    with pytest.raises(ValueError):
        Criterion.max_entropy(None)


@pytest.mark.parametrize("criterion,omq,level", [
    (SHANNON_C, None, 5), (RENYI_C, None, 5),
    (Criterion(EntropyKind.tsallis(0.5)), 0.5, 3), (TSALLIS_C, -1.0, 3),
    (CROSS_C, None, 5)],
    ids=["shannon", "renyi2", "tsallis0.5", "tsallis2", "cross-entropy"])
def test_criterion_omq_and_max_exact_level(criterion, omq, level):
    assert criterion.omq == omq
    assert criterion.max_exact_level == level


def test_check_thresholds_validation():
    assert check_thresholds((10, 20)) == (10, 20)
    assert check_thresholds(5) == (5,)
    with pytest.raises(ValueError):
        check_thresholds(())
    with pytest.raises(ValueError):
        check_thresholds((1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        check_thresholds((255,))
    with pytest.raises(ValueError):
        check_thresholds((-1,))
    with pytest.raises(ValueError):
        check_thresholds((20, 10))
    with pytest.raises(ValueError):
        check_thresholds((10, 10))


def test_class_distribution():
    h = [2, 2, 0, 4]
    np.testing.assert_allclose(class_distribution(h, 0, 1), [0.5, 0.5])
    np.testing.assert_allclose(class_distribution(h, 0, 3),
                               [0.25, 0.25, 0.0, 0.5])
    with pytest.raises(ValueError):
        class_distribution(h, 2, 2)
    with pytest.raises(ValueError):
        class_distribution(h, 3, 0)


def test_criterion_value_delta_spikes():
    h = spikes([50, 200], [10, 10])
    assert criterion_value(h, (50,), SHANNON_C) == pytest.approx(0.0, abs=1e-12)
    assert criterion_value(h, (120,), TSALLIS_C) == pytest.approx(0.0, abs=1e-12)


def test_criterion_value_uniform_quarters():
    h = np.array([4, 4, 4, 4])
    assert criterion_value(h, (1,), SHANNON_C) == pytest.approx(
        2 * np.log(2), abs=1e-12)


def test_criterion_value_tsallis_product_term():
    # S + (1-q) * prod on two uniform pairs: S_2 = 0.5 each
    h = np.array([4, 4, 4, 4])
    v = criterion_value(h, (1,), TSALLIS_C)
    assert v == pytest.approx(0.5 + 0.5 + (1 - 2) * 0.25, abs=1e-12)


def test_criterion_value_cross_entropy_hand_case():
    h = np.zeros(8, dtype=np.int64)
    h[1] = 1
    h[2] = 1
    h[5] = 2
    # class {1,2}: mu = 1.5; class {5}: mu = 5 contributes 0
    expected = 1 * np.log(1 / 1.5) + 2 * np.log(2 / 1.5)
    assert criterion_value(h, (3,), CROSS_C) == pytest.approx(expected, abs=1e-12)


def test_criterion_value_cross_entropy_zero_bin():
    # intensity-0 pixels shift the class mean but add no sum term
    h = spikes([0, 100, 200], [50, 10, 10])
    mu0 = (0 * 50 + 100 * 10) / 60
    expected = 100 * 10 * np.log(100 / mu0)
    assert criterion_value(h, (150,), CROSS_C) == pytest.approx(
        expected, abs=1e-9)


def test_criterion_value_empty_class_raises():
    h = spikes([50, 200], [10, 10])
    with pytest.raises(ValueError):
        criterion_value(h, (20,), SHANNON_C)


def test_criterion_scale_invariance():
    rng = np.random.default_rng(0)
    h = mixture_hist(rng)
    t = (60, 130, 200)
    for c in (SHANNON_C, RENYI_C, TSALLIS_C):
        v1 = criterion_value(h, t, c)
        v7 = criterion_value(h * 7, t, c)
        assert v7 == pytest.approx(v1, abs=1e-12)


def test_exhaustive_bimodal_tie_break():
    h = spikes([50, 200], [10, 10])
    t, v = exhaustive_search(h, 1, SHANNON_C)
    assert t == (50,)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_exhaustive_uniform_four_bins():
    t, v = exhaustive_search(np.array([4, 4, 4, 4]), 1, SHANNON_C)
    assert t == (1,)
    assert v == pytest.approx(2 * np.log(2), abs=1e-12)


def test_exhaustive_two_region_scene():
    spec = SceneSpec(64, 64, (
        Region(mean=60.0, rect=(0.0, 0.0, 1.0, 0.5)),
        Region(mean=180.0, rect=(0.0, 0.5, 1.0, 1.0)),
    ))
    img, _ = generate_scene(spec, seed=0)
    h = np.bincount(img.ravel(), minlength=256).astype(np.int64)
    for c in ALL_CRITERIA:
        (t,), _ = exhaustive_search(h, 1, c)
        assert 60 <= t <= 179


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.label for c in ALL_CRITERIA])
def test_exhaustive_matches_brute_force(k, criterion):
    rng = np.random.default_rng(31 + k)
    h = mixture_hist(rng, bins=64)
    t, v = exhaustive_search(h, k, criterion)
    bt, bv = brute_force(h, k, criterion)
    assert t == bt
    signed = -v if criterion.is_cross_entropy else v
    assert signed == pytest.approx(bv, abs=1e-12)


def test_exhaustive_matches_brute_force_k3():
    rng = np.random.default_rng(77)
    h = mixture_hist(rng, bins=32)
    for criterion in (SHANNON_C, TSALLIS_C):
        t, v = exhaustive_search(h, 3, criterion)
        bt, bv = brute_force(h, 3, criterion)
        assert t == bt


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("criterion", [SHANNON_C, RENYI_C, CROSS_C],
                         ids=["shannon", "renyi", "cross-entropy"])
def test_exhaustive_additive_high_levels_match_brute_force(k, criterion):
    rng = np.random.default_rng(60 + k)
    h = rng.integers(1, 40, 16)
    h[rng.choice(16, size=4, replace=False)] = 0
    t, v = exhaustive_search(h, k, criterion)
    bt, bv = brute_force(h, k, criterion)
    assert t == bt
    signed = -v if criterion.is_cross_entropy else v
    assert signed == pytest.approx(bv, abs=1e-12)


def test_exhaustive_errors():
    h = spikes([10, 20], [1, 1])
    with pytest.raises(ValueError):
        exhaustive_search(h, 2, SHANNON_C)  # only 2 occupied bins
    h = mixture_hist(np.random.default_rng(0))
    with pytest.raises(ValueError, match="k 4 outside"):
        exhaustive_search(h, 4, TSALLIS_C)
    for c in ALL_CRITERIA:
        with pytest.raises(ValueError, match="k 6 outside"):
            exhaustive_search(h, 6, c)
        with pytest.raises(ValueError, match="k 0 outside"):
            exhaustive_search(h, 0, c)
    with pytest.raises(ValueError):
        exhaustive_search(np.zeros(256), 1, SHANNON_C)


def full_grid_tsallis(h, k, q):
    """Tsallis argmax over every tuple of [0, B-2]^k in row-major order.

    Scores come from the module's class table in the enumeration's own
    summation order, so equal tuples score bit-identically and ties are
    resolved by the grid's order: the lexicographically smallest tuple.
    """
    criterion = Criterion(EntropyKind.tsallis(q))
    table = _class_table(np.asarray(h, dtype=np.float64), criterion,
                         np.arange(len(h)))
    omq = criterion.omq
    valid = full_grid_mass(h)
    B = table.shape[0]
    t = [np.arange(B - 1).reshape((-1,) + (1,) * (k - 1 - j)) for j in range(k)]
    lo = [0] + [x + 1 for x in t]
    hi = t + [B - 1]
    terms = [table[a, b] for a, b in zip(lo, hi)]
    ok = valid[0, t[0]]
    for a, b in zip(lo[1:], hi[1:]):
        ok = ok & valid[a, b]
    S = terms[0]
    for x in terms[1:]:
        S = S + x
    if k == 1:
        tot = S + omq * terms[0] * terms[1]
    else:
        P = terms[0]
        for x in terms[1:]:
            P = P * x
        tot = S + omq * P
    tot = np.where(ok, tot, -np.inf)
    return tuple(int(x) for x in np.unravel_index(np.argmax(tot), tot.shape))


def sparse_cases():
    rng = np.random.default_rng(41)
    cases = []
    for bins in (16, 40, 64):
        # sparse: a few occupied bins anywhere
        h = np.zeros(bins, dtype=np.int64)
        h[rng.choice(bins, size=6, replace=False)] = rng.integers(1, 50, 6)
        cases.append(h)
        # spiky with tied masses, placed symmetrically
        cases.append(spikes([1, bins // 4, bins // 2, bins - 2], [7, 7, 7, 7], bins))
        cases.append(spikes([0, 3, bins - 4, bins - 1], [5, 9, 9, 5], bins))
        # edge-packed: all mass in the first and last few bins
        cases.append(spikes([0, 1, 2, bins - 3, bins - 2, bins - 1],
                            [3, 1, 4, 4, 1, 3], bins))
        # runs of empty bins between occupied runs
        h = np.zeros(bins, dtype=np.int64)
        for start in range(0, bins - 3, 9):
            h[start:start + 3] = rng.integers(1, 20, 3)
        cases.append(h)
        # a plateau: every tuple of equal class sizes ties
        h = np.zeros(bins, dtype=np.int64)
        h[2:bins - 2:2] = 10
        cases.append(h)
    return cases


@pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_tsallis_occupied_bins_match_full_grid(k, q):
    crit = Criterion(EntropyKind.tsallis(q))
    for h in sparse_cases():
        if np.count_nonzero(h) < k + 1:
            continue
        t, _ = exhaustive_search(h, k, crit)
        assert t == full_grid_tsallis(h, k, q), h.tolist()


@st.composite
def tied_histograms(draw):
    """4-32 bins of empty runs and two spike counts, half of them
    mirrored.  A one-spike class scores 0, and a class and its mirror
    image score the same bits, so distinct tuples tie exactly, also
    tuples whose last-but-one thresholds differ."""
    codes = draw(st.lists(st.sampled_from((0, 0, 1, 1, 2)),
                          min_size=4, max_size=32))
    h = np.array([0, draw(st.integers(1, 9)), draw(st.integers(1, 9))])[codes]
    if draw(st.booleans()):
        half = h[:(h.size + 1) // 2]
        h = np.concatenate((half, half[::-1][h.size % 2:]))
    return h


@settings(max_examples=150, deadline=None)
@given(h=tied_histograms(), q=st.sampled_from((0.5, 2.0, 3.0)))
def test_tsallis_enumeration_matches_full_grid_on_tied_histograms(h, q):
    crit = Criterion(EntropyKind.tsallis(q))
    for k in (1, 2, 3):
        if np.count_nonzero(h) >= k + 1:
            t, _ = exhaustive_search(h, k, crit)
            assert t == full_grid_tsallis(h, k, q)


def test_tsallis_tie_across_pivots_keeps_the_smallest_tuple():
    """(2, 3, 5) and (1, 4, 5) tie bit for bit.  The enumeration meets
    (2, 3, 5) first, at the smaller last-but-one threshold, and must
    still return (1, 4, 5)."""
    h = np.array([5, 1, 5, 1, 5, 1, 5, 1, 5])
    assert criterion_value(h, (2, 3, 5), TSALLIS_C) == \
        criterion_value(h, (1, 4, 5), TSALLIS_C)
    t, _ = exhaustive_search(h, 3, TSALLIS_C)
    assert t == (1, 4, 5) == full_grid_tsallis(h, 3, 2.0)


def test_heuristic_thresholds_lie_on_occupied_bins():
    # a threshold on an empty bin splits off the same classes as the
    # occupied bin that starts its run, which the exact searches return
    from entrobench.raster import median_filter_3x3
    from entrobench.scenes import named_scene

    tsallis = Criterion(EntropyKind.tsallis(2.0))
    cases = [(h, c, k, 600) for h in sparse_cases() for c in ALL_CRITERIA
             for k in (1, 2, 3, 4, 5) if np.count_nonzero(h) >= k + 1]
    for s in (0, 1):
        img = median_filter_3x3(named_scene("five-region", 128, 128, 8.0, s)[0])
        h = np.bincount(img.ravel(), minlength=256)
        cases += [(h, tsallis, k, 5000) for k in (4, 5)]
    for h, c, k, budget in cases:
        t, _ = heuristic_search(h, k, c, seed=k, budget=budget)
        assert all(h[x] > 0 for x in t), (h.tolist(), c.label, k, t)


def test_heuristic_deterministic():
    h = mixture_hist(np.random.default_rng(5))
    a = heuristic_search(h, 3, SHANNON_C, seed=9)
    b = heuristic_search(h, 3, SHANNON_C, seed=9)
    assert a == b


def test_heuristic_never_beats_exhaustive():
    rng = np.random.default_rng(6)
    for i in range(10):
        h = mixture_hist(rng)
        for k in (1, 2, 3):
            for c in ALL_CRITERIA:
                t, v = heuristic_search(h, k, c, seed=i, budget=1000)
                _, v_ex = exhaustive_search(h, k, c)
                check_thresholds(t)
                sign = -1.0 if c.is_cross_entropy else 1.0
                assert sign * v <= sign * v_ex + 1e-12


def test_heuristic_matches_exhaustive_at_default_budget():
    rng = np.random.default_rng(7)
    for i in range(5):
        h = mixture_hist(rng)
        for c in ALL_CRITERIA:
            _, v = heuristic_search(h, 2, c, seed=i)
            _, v_ex = exhaustive_search(h, 2, c)
            assert v == pytest.approx(v_ex, abs=1e-9)


def test_heuristic_k5_beats_random_baseline():
    """At k=5 the search must do at least as well as pure random
    sampling of the same number of tuples."""
    rng = np.random.default_rng(8)
    x = np.arange(256)
    h = np.zeros(256)
    for mu in (30, 80, 130, 180, 230):
        h += np.exp(-0.5 * ((x - mu) / 8.0) ** 2)
    h = np.rint(h * 400).astype(np.int64)
    budget = 2000
    t, v = heuristic_search(h, 5, SHANNON_C, seed=0, budget=budget)
    base_rng = np.random.default_rng(1234)
    best_random = -np.inf
    for _ in range(budget):
        cand = np.sort(base_rng.choice(255, size=5, replace=False))
        edges = (-1, *cand, 255)
        if any(h[lo + 1:hi + 1].sum() == 0
               for lo, hi in zip(edges, edges[1:])):
            continue
        best_random = max(best_random,
                          criterion_value(h, tuple(cand), SHANNON_C))
    assert v >= best_random - 1e-12


def test_heuristic_argument_errors():
    h = mixture_hist(np.random.default_rng(9))
    with pytest.raises(ValueError):
        heuristic_search(h, 0, SHANNON_C)
    with pytest.raises(ValueError):
        heuristic_search(h, 6, SHANNON_C)
    with pytest.raises(ValueError):
        heuristic_search(h, 2, SHANNON_C, budget=99)
    with pytest.raises(ValueError):
        heuristic_search(spikes([1, 2], [5, 5]), 2, SHANNON_C)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_counts_rejected(bad):
    h = np.array([5, bad, 3, 4])
    for call in (lambda: criterion_value(h, (1,), SHANNON_C),
                 lambda: exhaustive_search(h, 1, SHANNON_C),
                 lambda: heuristic_search(h, 1, SHANNON_C),
                 lambda: class_distribution(h, 0, 2)):
        with pytest.raises(ValueError, match="non-finite counts"):
            call()


def table_cases():
    """Sparse, dense, tied-spike, edge-packed and single-run histograms."""
    rng = np.random.default_rng(43)
    sparse = np.zeros(256, dtype=np.int64)
    sparse[rng.choice(256, size=12, replace=False)] = rng.integers(1, 900, 12)
    dense = rng.integers(1, 2000, 256)
    dense[rng.random(256) < 0.1] = 0
    single_run = np.zeros(256, dtype=np.int64)
    single_run[100:130] = rng.integers(1, 50, 30)
    return {
        "sparse": sparse,
        "dense": dense,
        "tied-spikes": spikes([0, 64, 128, 192, 255], [7] * 5),
        "edge-packed": spikes([0, 1, 2, 253, 254, 255], [3, 1, 4, 4, 1, 3]),
        "single-run": single_run,
    }


TABLE_CRITERIA = [Criterion(k) for k in (
    EntropyKind.shannon(), EntropyKind.renyi(0.5), EntropyKind.renyi(2.0),
    EntropyKind.tsallis(0.5), EntropyKind.tsallis(2.0),
    EntropyKind.tsallis(3.0))] + [CROSS_C]


@pytest.mark.parametrize("case", list(table_cases()))
@pytest.mark.parametrize("criterion", TABLE_CRITERIA,
                         ids=["shannon", "renyi0.5", "renyi2", "tsallis0.5",
                              "tsallis2", "tsallis3", "cross-entropy"])
def test_occupied_bin_table_matches_full_grid(case, criterion):
    """Each interval's full-grid cell has the bits of the occupied-bin
    cell of its first occupied bin >= lo and last occupied bin <= hi,
    and the interval is valid exactly when that pair is."""
    h = table_cases()[case].astype(np.float64)
    occ = np.flatnonzero(h)
    full = _class_table(h, criterion, np.arange(h.size))
    table = _class_table(h[occ], criterion, occ)
    full_ok, ok = full_grid_mass(h), full_grid_mass(h[occ])
    B = h.size
    first = np.searchsorted(occ, np.arange(B))
    last = np.searchsorted(occ, np.arange(B), side="right") - 1
    lo, hi = np.meshgrid(np.arange(B), np.arange(B), indexing="ij")
    a, b = first[lo], last[hi]
    inside = a <= b
    assert ok[np.triu_indices(occ.size)].all()
    np.testing.assert_array_equal(full_ok, inside & ok[np.minimum(a, occ.size - 1),
                                                      np.maximum(b, 0)])
    assert (full[full_ok] == table[a[full_ok], b[full_ok]]).all()
    assert (full[~full_ok] == 0).all()


def _reference_batch_scores(table, omq, cand):
    """Two-index scoring of (n, k) candidate tuples on an occupied-bin
    table, kept as the reference for ``_batch_scores``.  Every class
    must lie on or above the diagonal, where each cell has mass."""
    n, k = cand.shape
    m = table.shape[0]
    lo = np.empty((n, k + 1), dtype=np.intp)
    hi = np.empty((n, k + 1), dtype=np.intp)
    lo[:, 0] = 0
    lo[:, 1:] = cand + 1
    hi[:, :k] = cand
    hi[:, k] = m - 1
    assert (lo <= hi).all()
    terms = table[lo, hi]
    if omq is None:
        return terms.sum(axis=1)
    return terms.sum(axis=1) + omq * terms.prod(axis=1)


def _reference_repair(cand, B):
    """Per-column form of ``_repair``, kept as its reference."""
    np.clip(cand, 0, B - 2, out=cand)
    cand.sort(axis=1)
    k = cand.shape[1]
    for j in range(1, k):
        cand[:, j] = np.maximum(cand[:, j], cand[:, j - 1] + 1)
    cand[:, k - 1] = np.minimum(cand[:, k - 1], B - 2)
    for j in range(k - 2, -1, -1):
        cand[:, j] = np.minimum(cand[:, j], cand[:, j + 1] - 1)
    return cand


def test_repair_matches_column_passes():
    rng = np.random.default_rng(12)
    for B in (8, 16, 256):
        for k in range(1, 6):
            if k > B - 1:
                continue
            cand = rng.integers(-40, B + 40, (300, k))
            want = _reference_repair(cand.copy(), B)
            np.testing.assert_array_equal(thr._repair(cand.copy(), B), want)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_heuristic_search_matches_full_grid_scoring(k, monkeypatch):
    """The evolution strategy follows the same trajectory as with the
    per-column repair and two-index scoring on the occupied-bin table."""
    rng = np.random.default_rng(100 + k)
    cases = [(h, c) for h in (mixture_hist(rng), table_cases()["sparse"],
                              table_cases()["edge-packed"])
             for c in ALL_CRITERIA if np.count_nonzero(h) >= k + 1]
    new = [heuristic_search(h, k, c, seed=k, budget=1500) for h, c in cases]
    monkeypatch.setattr(thr, "_repair", _reference_repair)
    old = []
    for h, c in cases:
        occ = np.flatnonzero(h)
        table = _class_table(np.asarray(h, dtype=np.float64)[occ], c, occ)
        monkeypatch.setattr(
            thr, "_batch_scores",
            lambda _table, _omq, cand, _cells: _reference_batch_scores(
                table, c.omq, cand))
        old.append(heuristic_search(h, k, c, seed=k, budget=1500))
    assert repr(new) == repr(old)


def test_parent_draw_matches_two_calls():
    # heuristic_search draws both parents in one call; its trajectory
    # depends on that matching two calls of n each, and what follows
    for n in (1, 7, 20):
        one, two = np.random.default_rng(n), np.random.default_rng(n)
        pa, pb = one.integers(0, 20, (2, n))
        np.testing.assert_array_equal(pa, two.integers(0, 20, n))
        np.testing.assert_array_equal(pb, two.integers(0, 20, n))
        assert one.random() == two.random()


def test_apply_thresholds_matches_searchsorted_on_every_gray_value():
    img = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for t in [(0,), (254,), (127,), (0, 254), (10, 11, 12),
              (0, 1, 2, 3, 4), (30, 90, 140, 200, 254)]:
        want = np.searchsorted(np.asarray(t), img, side="left")
        np.testing.assert_array_equal(apply_thresholds(img, t), want)


def test_apply_thresholds_boundaries():
    img = np.array([[0, 127, 128, 255]], dtype=np.uint8)
    np.testing.assert_array_equal(apply_thresholds(img, (127,)),
                                  [[0, 0, 1, 1]])
    img2 = np.array([[49, 50, 149, 150]], dtype=np.uint8)
    np.testing.assert_array_equal(apply_thresholds(img2, (49, 149)),
                                  [[0, 1, 1, 2]])


def test_apply_thresholds_partition():
    rng = np.random.default_rng(10)
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    labels = apply_thresholds(img, (40, 90, 200))
    assert labels.dtype == np.uint8
    assert set(np.unique(labels)) <= {0, 1, 2, 3}
    # labels monotone in intensity
    order = np.argsort(img.ravel(), kind="stable")
    assert (np.diff(labels.ravel()[order]) >= 0).all()


def test_apply_thresholds_recovers_scene_truth():
    spec = SceneSpec(64, 64, (
        Region(mean=60.0, rect=(0.0, 0.0, 1.0, 0.5)),
        Region(mean=180.0, rect=(0.0, 0.5, 1.0, 1.0)),
    ))
    img, truth = generate_scene(spec, seed=0)
    h = np.bincount(img.ravel(), minlength=256).astype(np.int64)
    t, _ = exhaustive_search(h, 1, SHANNON_C)
    labels = apply_thresholds(img, t)
    aligned = align_labels(labels.ravel(), truth.ravel())
    np.testing.assert_array_equal(aligned, truth.ravel())


def test_rising_limb_on_zero_noise_scene():
    """Kappa against a 5-region truth climbs with the level until the
    level matches the region count."""
    from entrobench.scenes import five_region_spec

    spec = five_region_spec(width=128, height=128, noise=0.0)
    img, truth = generate_scene(spec, seed=3)
    h = np.bincount(img.ravel(), minlength=256).astype(np.int64)
    kappas = []
    for k in (1, 2, 3, 4):
        if k <= SHANNON_C.max_exact_level:
            t, _ = exhaustive_search(h, k, SHANNON_C)
        else:
            t, _ = heuristic_search(h, k, SHANNON_C, seed=0)
        pred = align_labels(apply_thresholds(img, t).ravel(), truth.ravel())
        kappas.append(kappa(confusion(pred, truth.ravel())))
    assert kappas[3] >= max(kappas[:3])


# ------------------------------------------------------ property coverage

PROPERTY_CRITERIA = [Criterion.max_entropy(kind) for kind in (
    EntropyKind.shannon(), EntropyKind.renyi(0.5), EntropyKind.renyi(2.0),
    EntropyKind.tsallis(0.5), EntropyKind.tsallis(2.0))] + [CROSS_C]

# 2-64 bins of zeros, single counts and counts up to 1e6
histograms = st.lists(st.sampled_from([0, 1]) | st.integers(0, 10**6),
                      min_size=2, max_size=64).map(
                          lambda c: np.array(c, dtype=np.int64))


def assert_scored_tuple(h, t, value, criterion):
    """A search result: finite, on occupied bins, and scored as its tuple."""
    assert math.isfinite(value)
    assert all(h[x] > 0 for x in t)
    assert value == criterion_value(h, t, criterion)


@settings(max_examples=150, deadline=None)
@given(h=histograms, criterion=st.sampled_from(PROPERTY_CRITERIA),
       t=st.lists(st.integers(-1, 64), min_size=1, max_size=5, unique=True).map(sorted))
def test_criterion_value_finite_or_value_error(h, criterion, t):
    try:
        value = criterion_value(h, t, criterion)
    except ValueError:
        return
    assert math.isfinite(value)


@settings(max_examples=150, deadline=None)
@given(h=histograms, k=st.integers(1, 5), criterion=st.sampled_from(PROPERTY_CRITERIA))
def test_exhaustive_search_finite_or_value_error(h, k, criterion):
    try:
        t, value = exhaustive_search(h, k, criterion)
    except ValueError:
        return
    assert len(t) == k
    assert_scored_tuple(h, t, value, criterion)


@settings(max_examples=100, deadline=None)
@given(h=histograms, k=st.integers(1, 5), criterion=st.sampled_from(PROPERTY_CRITERIA),
       seed=st.integers(0, 2**32 - 1))
def test_heuristic_search_finite_or_value_error(h, k, criterion, seed):
    try:
        t, value = heuristic_search(h, k, criterion, seed=seed, budget=300)
    except ValueError:
        return
    assert len(t) == k
    assert_scored_tuple(h, t, value, criterion)
