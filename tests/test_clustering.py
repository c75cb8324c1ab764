"""Entropy-clustering tests with brute-force CEF oracles."""

import numpy as np
import pytest

from entrobench import clustering
from entrobench.clustering import (
    _MAX_PASSES,
    _MOVE_TOL,
    ClusterAssignment,
    FeatureSet,
    assignment_to_labelmap,
    cef,
    cluster,
    extract_features,
    information_potential,
    renyi_quadratic_entropy,
    silverman_sigma,
    _cef_from_state,
    _value_counts,
)
from entrobench.entropy import EntropyKind
from entrobench.metrics import align_labels, confusion, kappa
from entrobench.raster import generate_scene
from entrobench.scenes import five_region_spec


def grid_coords(n):
    side = int(np.ceil(np.sqrt(n)))
    r, c = np.divmod(np.arange(n), side)
    return np.stack([r, c], axis=1)


def feature_set(values):
    f = np.asarray(values, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    return FeatureSet(f, grid_coords(f.shape[0]))


def brute_cef(labels, feats, sigma, k):
    """CEF by explicit pair loops, independent of the library path."""
    total = 0.0
    for c in range(k):
        for cc in range(c + 1, k):
            xs = feats[labels == c]
            ys = feats[labels == cc]
            acc = 0.0
            for x in xs:
                for y in ys:
                    acc += np.exp(-np.sum((x - y) ** 2) / (4 * sigma * sigma))
            total += acc / (len(xs) * len(ys))
    return total


def brute_potential(feats, sigma):
    """Information potential by an explicit loop over all sample pairs."""
    acc = 0.0
    for x in feats:
        for y in feats:
            acc += np.exp(-np.sum((x - y) ** 2) / (4 * sigma * sigma))
    return acc / (len(feats) * len(feats))


def repeated_values(n, d, levels, seed):
    """n samples in d bands drawn from a few grey levels, so rows repeat."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, (n, d)) / (levels - 1)


def reference_cluster(f, k, seed, restarts):
    """cluster() from its definition, one restart per entry.

    Same initialization as the library; each sample in turn is tried in
    every other cluster, the whole CEF recomputed from the sample kernel
    for each, and moved to the best if that lowers CEF by over 1e-12.
    Returns (labels, per-pass CEF trace) per restart.
    """
    n = f.shape[0]
    sigma = max(1.06 * f.std(axis=0).mean() * n ** (-0.2), 1e-6)
    sq = ((f[:, None, :] - f[None, :, :]) ** 2).sum(axis=2)
    K = np.exp(-sq / (4 * sigma * sigma))

    def full_cef(labels):
        return sum(K[np.ix_(labels == c, labels == cc)].mean()
                   for c in range(k) for cc in range(c + 1, k))

    if f.shape[1] == 1:
        proj = f[:, 0].copy()
    else:
        centered = f - f.mean(axis=0)
        v = np.linalg.eigh(centered.T @ centered)[1][:, -1]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        proj = centered @ v
    runs = []
    for r in range(restarts):
        p = proj
        if r > 0:
            rng = np.random.default_rng((seed, r))
            spread = proj.std()
            p = proj + rng.normal(0.0, 0.01 * (spread if spread > 0 else 1.0), n)
        labels = np.empty(n, dtype=np.int64)
        labels[np.argsort(p, kind="stable")] = (np.arange(n) * k) // n
        value = full_cef(labels)
        trace = [value]
        for _ in range(50):
            moved = False
            for i in range(n):
                a = labels[i]
                if (labels == a).sum() <= 1:
                    continue
                tried = {}
                for b in range(k):
                    if b != a:
                        labels[i] = b
                        tried[b] = full_cef(labels)
                labels[i] = a
                b = min(tried, key=lambda c: (tried[c], c))
                if tried[b] - value < -1e-12:
                    labels[i], value, moved = b, tried[b], True
            trace.append(value)
            if not moved:
                break
        runs.append((labels, trace))
    return runs


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.array([[1.5]]), np.array([[0, 0]]))
    with pytest.raises(ValueError):
        FeatureSet(np.array([[-0.1]]), np.array([[0, 0]]))
    with pytest.raises(ValueError):
        FeatureSet(np.array([[0.5], [0.5]]), np.array([[0, 0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_set_rejects_non_finite(bad):
    # NaN passes the [0, 1] range check, and cluster() used to die on it
    # with a TypeError deep in the descent
    with pytest.raises(ValueError, match="non-finite feature components"):
        FeatureSet(np.array([[0.2], [bad], [0.7]]), np.array([[0, 0], [0, 1], [0, 2]]))


def test_feature_set_rejects_zero_feature_columns():
    # the [0, 1] range check used to die inside numpy's empty reduction
    with pytest.raises(ValueError, match="d >= 1"):
        FeatureSet(np.zeros((3, 0)), np.zeros((3, 2)))


def test_cluster_assignment_validation():
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 0, 0]), 2)  # cluster 1 empty
    with pytest.raises(ValueError):
        ClusterAssignment(np.array([0, 2]), 2)
    a = ClusterAssignment(np.array([1, 0]), 2)
    assert a.k == 2


def test_extract_features_direct_scaling():
    img = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    xs = extract_features([img])
    np.testing.assert_allclose(
        xs.features[:, 0], [0.0, 1.0, 128 / 255, 64 / 255])
    np.testing.assert_array_equal(
        xs.coords, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_extract_features_stride():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    xs = extract_features([img], stride=2)
    assert xs.n == 4
    np.testing.assert_array_equal(xs.coords,
                                  [[0, 0], [0, 2], [2, 0], [2, 2]])


def test_extract_features_multiband():
    a = np.zeros((2, 2), dtype=np.uint8)
    b = np.full((2, 2), 255, dtype=np.uint8)
    xs = extract_features([a, b])
    assert xs.d == 2
    np.testing.assert_allclose(xs.features, [[0, 1]] * 4)


def test_extract_features_errors():
    a = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        extract_features([a, np.zeros((2, 3), dtype=np.uint8)])
    with pytest.raises(ValueError):
        extract_features([a], stride=0)
    with pytest.raises(ValueError):
        extract_features([])


def test_silverman_sigma_formula():
    rng = np.random.default_rng(0)
    xs = feature_set(rng.random(50))
    f = xs.features
    expected = 1.06 * f.std(axis=0).mean() * 50 ** (-0.2)
    assert silverman_sigma(xs) == pytest.approx(expected, abs=1e-15)


def test_silverman_sigma_floor():
    xs = feature_set(np.full(20, 0.5))
    assert silverman_sigma(xs) == 1e-6


def test_information_potential_basics():
    assert information_potential(np.array([[0.3]]), 0.1) == 1.0
    assert information_potential(np.array([[0.3], [0.3]]), 0.1) == pytest.approx(
        1.0, abs=1e-15)


def test_information_potential_two_points():
    sigma = 0.1
    v = information_potential(np.array([[0.0], [2 * sigma]]), sigma)
    assert v == pytest.approx((2 + 2 * np.exp(-1)) / 4, abs=1e-15)
    assert v == pytest.approx(0.6839397205857212, abs=1e-12)


def test_information_potential_range_and_translation():
    rng = np.random.default_rng(1)
    f = rng.random((40, 2))
    v = information_potential(f, 0.2)
    assert 0 < v <= 1
    assert information_potential(f + 17.0, 0.2) == pytest.approx(v, abs=1e-12)


def test_information_potential_errors():
    with pytest.raises(ValueError):
        information_potential(np.zeros((0, 1)), 0.1)
    with pytest.raises(ValueError):
        information_potential(np.array([[0.0]]), 0.0)


def test_renyi_entropy_limit_counts_points():
    """-ln V approaches ln m for m equal groups of coincident samples."""
    for m in (2, 4, 5):
        f = np.repeat(np.linspace(0.0, 1.0, m), 6)[:, None]
        h = renyi_quadratic_entropy(f, 1e-3)
        assert abs(h - np.log(m)) <= 1e-2


def test_cef_identical_samples():
    xs = feature_set(np.full(20, 0.5))
    a = ClusterAssignment(np.arange(20) % 2, 2)
    assert cef(a, xs, 0.1) == pytest.approx(1.0, abs=1e-12)


def test_cef_gap_split_nearly_zero():
    sigma = 0.01
    vals = np.array([0.1] * 10 + [0.1 + 10 * sigma] * 10)
    xs = feature_set(vals)
    a = ClusterAssignment((vals > 0.11).astype(int), 2)
    assert cef(a, xs, sigma) <= np.exp(-25) + 1e-12


def test_cef_orthogonal_split_half():
    sigma = 0.01
    vals = np.array([0.1] * 10 + [0.9] * 10)
    xs = feature_set(vals)
    # each cluster takes half of each tight group
    labels = np.array(([0] * 5 + [1] * 5) * 2)
    a = ClusterAssignment(labels, 2)
    assert cef(a, xs, sigma) == pytest.approx(0.5, abs=1e-9)


def test_cef_matches_brute_force():
    rng = np.random.default_rng(2)
    f = rng.random((30, 2))
    xs = FeatureSet(f, grid_coords(30))
    labels = rng.integers(0, 3, 30)
    labels[:3] = [0, 1, 2]  # keep every cluster nonempty
    a = ClusterAssignment(labels, 3)
    assert cef(a, xs, 0.15) == pytest.approx(
        brute_cef(labels, f, 0.15, 3), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_cef_and_potential_repeated_values(d):
    """Collapsing repeated rows to distinct ones weighted by counts is exact."""
    f = repeated_values(40, d, 5, seed=d)
    assert len(np.unique(f, axis=0)) <= 25
    xs = FeatureSet(f, grid_coords(40))
    labels = np.random.default_rng(d).integers(0, 3, 40)
    labels[:3] = [0, 1, 2]
    a = ClusterAssignment(labels, 3)
    for sigma in (0.05, 0.3):
        assert cef(a, xs, sigma) == pytest.approx(
            brute_cef(labels, f, sigma, 3), abs=1e-12)
        assert information_potential(xs, sigma) == pytest.approx(
            brute_potential(f, sigma), abs=1e-12)


def test_cef_permutation_invariance():
    rng = np.random.default_rng(3)
    f = rng.random((24, 1))
    xs = FeatureSet(f, grid_coords(24))
    labels = np.array([0, 1, 2] * 8)
    v = cef(ClusterAssignment(labels, 3), xs, 0.1)
    # relabel clusters
    swapped = np.array([2, 0, 1])[labels]
    assert cef(ClusterAssignment(swapped, 3), xs, 0.1) == pytest.approx(
        v, abs=1e-12)
    # permute samples
    perm = rng.permutation(24)
    xs2 = FeatureSet(f[perm], grid_coords(24))
    assert cef(ClusterAssignment(labels[perm], 3), xs2, 0.1) == pytest.approx(
        v, abs=1e-12)


def test_cef_tsallis_reports_separation():
    rng = np.random.default_rng(4)
    f = rng.random((24, 1))
    xs = FeatureSet(f, grid_coords(24))
    a = ClusterAssignment(np.arange(24) % 3, 3)
    plain = cef(a, xs, 0.1)
    ts = cef(a, xs, 0.1, EntropyKind.tsallis(2.0))
    assert ts == pytest.approx(3 - plain, abs=1e-12)
    # non-Tsallis kinds report the plain CEF
    assert cef(a, xs, 0.1, EntropyKind.renyi(2.0)) == pytest.approx(
        plain, abs=1e-12)


def test_cluster_two_groups():
    vals = np.array([0.2] * 12 + [0.8] * 12)
    xs = feature_set(vals)
    a, value = cluster(xs, 2, seed=0)
    group = vals > 0.5
    # one label per intensity group
    assert len(set(a.labels[group])) == 1
    assert len(set(a.labels[~group])) == 1
    assert a.labels[0] != a.labels[-1]
    canonical = cef(ClusterAssignment(group.astype(int), 2), xs,
                    silverman_sigma(xs))
    assert value == pytest.approx(canonical, abs=1e-9)


def test_cluster_deterministic():
    rng = np.random.default_rng(5)
    xs = feature_set(rng.random(60))
    a, va = cluster(xs, 3, seed=11)
    b, vb = cluster(xs, 3, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert va == vb


def test_cluster_argument_errors():
    xs = feature_set(np.linspace(0, 1, 30))
    with pytest.raises(ValueError):
        cluster(xs, 1)
    with pytest.raises(ValueError):
        cluster(xs, 9)
    with pytest.raises(ValueError):
        cluster(xs, 4)  # needs 40 samples
    with pytest.raises(ValueError):
        cluster(xs, 2, sigma=-0.1)
    with pytest.raises(ValueError):
        cluster(xs, 2, restarts=0)


def test_cluster_descent_trace_monotone():
    rng = np.random.default_rng(6)
    xs = feature_set(rng.random(80))
    trace = {}
    a, _ = cluster(xs, 3, seed=1, restarts=2, trace=trace)
    assert set(trace) == {0, 1}
    for run in trace.values():
        assert all(b <= t + 1e-9 for t, b in zip(run, run[1:]))
    # incremental bookkeeping agrees with a fresh evaluation at the end
    best = min(run[-1] for run in trace.values())
    assert cef(a, xs, silverman_sigma(xs)) == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("d,k,seed", [
    (d, k, seed) for d in (1, 2) for k in (2, 3, 4) for seed in (0, 1)])
def test_cluster_matches_reference_descent(d, k, seed):
    f = repeated_values(60, d, 7 if d == 1 else 4, seed=10 * k + seed)
    xs = FeatureSet(f, grid_coords(60))
    trace = {}
    a, _ = cluster(xs, k, seed=seed, restarts=2, trace=trace)
    runs = reference_cluster(f, k, seed, restarts=2)
    for r, (_, ref_trace) in enumerate(runs):
        assert len(trace[r]) == len(ref_trace)
        np.testing.assert_allclose(trace[r], ref_trace, rtol=0, atol=1e-9)
    best = min(range(len(runs)), key=lambda r: runs[r][1][-1])
    np.testing.assert_array_equal(a.labels, runs[best][0])
    # the reference's own CEF agrees with the explicit pair loops
    assert runs[best][1][-1] == pytest.approx(
        brute_cef(runs[best][0], f, silverman_sigma(xs), k), abs=1e-12)


# The same descent in numpy array arithmetic, kept as the oracle that
# clustering._descend must match bit for bit.
def numpy_descend(K, inv, labels, k):
    """Greedy single-sample CEF descent; returns labels and pass trace.

    K is the kernel over distinct feature rows and inv[i] the row of
    sample i.  Samples are visited in index order; a move's delta
    depends only on the sample's (row, label) pair and the state, so a
    pair found not to improve is skipped until the next move.
    """
    n = labels.size
    C = _value_counts(inv, labels, K.shape[0], k)
    S = K @ C                    # S[v, c] = sum of K[v, inv[j]] over j in c
    W = C.T @ S                  # within/between kernel mass per pair
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    rows = inv.tolist()
    trace = [_cef_from_state(W, counts)]
    for _ in range(_MAX_PASSES):
        moved = False
        stale = set()            # (row, label) pairs with no improving move
        for i in range(n):
            v = rows[i]
            a = labels[i]
            if (v, a) in stale or counts[a] <= 1:
                continue
            Si = S[v]
            invn = 1.0 / counts
            na1 = counts[a] - 1.0
            nb1 = counts + 1.0
            Wa = W[a]
            wi = W @ invn
            diag = W.diagonal()
            # pairs (a, c) after the move, summed over c outside {a, b}
            p = float(((Wa - Si) * invn).sum() - (Wa[a] - Si[a]) * invn[a])
            part_a = (p - (Wa - Si) * invn) / na1 \
                + (Wa - Si + Si[a] - 1.0) / (na1 * nb1)
            # pairs (b, c) after the move, c outside {a, b}
            q = wi + float(Si @ invn) \
                - (Wa + Si[a]) * invn[a] - (diag + Si) * invn
            part_b = q / nb1
            # same pairs before the move
            olda = float((Wa * invn).sum() - Wa[a] * invn[a]) * invn[a]
            oldb = (wi - Wa * invn[a] - diag * invn) * invn
            delta = part_a + part_b - olda - oldb
            delta[a] = np.inf
            b = int(np.argmin(delta))
            if delta[b] < -_MOVE_TOL:
                W[a, :] -= Si
                W[:, a] -= Si
                W[a, a] += 1.0
                sib = Si.copy()
                sib[a] -= 1.0
                W[b, :] += sib
                W[:, b] += sib
                W[b, b] += 1.0
                S[:, a] -= K[:, v]
                S[:, b] += K[:, v]
                counts[a] -= 1.0
                counts[b] += 1.0
                labels[i] = b
                moved = True
                stale.clear()
            else:
                stale.add((v, a))
        trace.append(_cef_from_state(W, counts))
        if not moved:
            break
    return labels, trace


def assert_same_descent(xs, k, seed, monkeypatch):
    """cluster() gives the same labels, traces and CEF, bit for bit,
    with its descent and with the array-state oracle above."""
    trace = {}
    a, value = cluster(xs, k, seed=seed, trace=trace)
    with monkeypatch.context() as m:
        m.setattr(clustering, "_descend", numpy_descend)
        ref_trace = {}
        ref, ref_value = cluster(xs, k, seed=seed, trace=ref_trace)
    assert a.labels.tolist() == ref.labels.tolist()
    assert trace == ref_trace
    assert value == ref_value


@pytest.mark.parametrize("d,k,rows", [
    (d, k, rows) for d in (1, 2, 3) for k in range(2, 9)
    for rows in ("repeated", "random")])
def test_descent_matches_array_state_oracle_exactly(d, k, rows, monkeypatch):
    seed = 100 * d + k
    if rows == "repeated":
        f = repeated_values(20 * k, d, 6 if d == 1 else 3, seed)
    else:
        f = np.random.default_rng(seed).random((20 * k, d))
    assert_same_descent(FeatureSet(f, grid_coords(f.shape[0])), k, seed,
                        monkeypatch)


def test_descent_matches_array_state_oracle_on_scene(monkeypatch):
    img, _ = generate_scene(
        five_region_spec(width=128, height=128, noise=8.0), seed=4)
    assert_same_descent(extract_features([img], stride=4), 5, 0, monkeypatch)


def test_kernel_memory_guard():
    """A distinct-row kernel over the limit is refused before allocation."""
    i = np.arange(12000)
    f = np.stack([i // 256, i % 256], axis=1) / 255.0  # 12,000 distinct rows
    xs = FeatureSet(f, grid_coords(12000))
    a = ClusterAssignment(i % 2, 2)
    for call in (lambda: cluster(xs, 2),
                 lambda: cef(a, xs, 0.1),
                 lambda: information_potential(xs, 0.1)):
        with pytest.raises(ValueError,
                           match="12000 distinct feature rows need a 1099 MiB"):
            call()


def test_cluster_on_noisy_scene():
    img, truth = generate_scene(
        five_region_spec(width=64, height=64, noise=8.0), seed=9)
    xs = extract_features([img], stride=2)
    a, _ = cluster(xs, 5, seed=0)
    labels = assignment_to_labelmap(a, xs, img.shape)
    aligned = align_labels(labels.ravel(), truth.ravel())
    assert kappa(confusion(aligned, truth.ravel())) >= 0.8


def test_labelmap_stride_one_direct():
    img = np.array([[10, 200], [210, 20]], dtype=np.uint8)
    xs = extract_features([img])
    a = ClusterAssignment(np.array([0, 1, 1, 0]), 2)
    np.testing.assert_array_equal(assignment_to_labelmap(a, xs, (2, 2)),
                                  [[0, 1], [1, 0]])


def test_labelmap_uniform_fill():
    img = np.zeros((4, 4), dtype=np.uint8)
    img[0, 0] = 255  # two distinct feature values keep FeatureSet honest
    xs = extract_features([img], stride=2)
    labels = np.array([1, 0, 0, 0])
    out = assignment_to_labelmap(ClusterAssignment(labels, 2), xs, (4, 4))
    assert out.shape == (4, 4)
    assert set(np.unique(out)) == {0, 1}


def test_labelmap_tie_takes_smallest_label():
    img = np.array([[0, 128, 255]], dtype=np.uint8)
    xs = FeatureSet(np.array([[0.0], [1.0]]), np.array([[0, 0], [0, 2]]))
    a = ClusterAssignment(np.array([1, 0]), 2)
    out = assignment_to_labelmap(a, xs, (1, 3))
    # middle pixel is equidistant from labels 1 and 0
    np.testing.assert_array_equal(out, [[1, 0, 0]])


def test_labelmap_truth_reconstruction_interior():
    """Nearest-sample painting at stride 4 preserves region interiors."""
    img, truth = generate_scene(
        five_region_spec(width=64, height=64, noise=0.0), seed=0)
    xs = extract_features([img], stride=4)
    sampled = truth[xs.coords[:, 0], xs.coords[:, 1]].astype(np.int64)
    out = assignment_to_labelmap(ClusterAssignment(sampled, 5), xs, truth.shape)
    # erode each region by the stride to isolate interiors
    interior = np.zeros_like(truth, dtype=bool)
    interior[4:-4, 4:-4] = True
    for axis in (0, 1):
        shifted = np.roll(truth, 4, axis=axis)
        interior &= truth == shifted
        shifted = np.roll(truth, -4, axis=axis)
        interior &= truth == shifted
    match = (out == truth)[interior].mean()
    assert match >= 0.95


def brute_labelmap(labels, coords, dims):
    """Nearest sample by integer squared distance over every sample,
    ties to the smallest label; sampled pixels keep the last write."""
    rr, cc = np.indices(dims)
    d2 = ((rr[..., None] - coords[:, 0]) ** 2
          + (cc[..., None] - coords[:, 1]) ** 2)
    near = d2 == d2.min(axis=2, keepdims=True)
    out = np.where(near, labels, clustering._MAX_K).min(axis=2)
    for (r, c), lab in zip(coords, labels):
        out[r, c] = lab
    return out


@pytest.mark.parametrize("zero_at", range(12))
def test_labelmap_tie_among_twelve_equidistant_samples(zero_at):
    """Twelve samples on the lattice circle of radius 5 around the centre
    of a 13x13 raster: the centre takes label 0 wherever it sits."""
    ring = [(3, 4), (3, -4), (-3, 4), (-3, -4), (4, 3), (4, -3), (-4, 3),
            (-4, -3), (0, 5), (0, -5), (5, 0), (-5, 0)]
    coords = np.array([(6 + dr, 6 + dc) for dr, dc in ring])
    labels = np.array([1 + j % 4 for j in range(12)])
    labels[zero_at] = 0
    xs = FeatureSet(np.linspace(0.0, 1.0, 12)[:, None], coords)
    out = assignment_to_labelmap(ClusterAssignment(labels, 5), xs, (13, 13))
    assert out[6, 6] == 0
    np.testing.assert_array_equal(out, brute_labelmap(labels, coords, (13, 13)))


@pytest.mark.parametrize("k", range(2, 9))
def test_labelmap_matches_brute_force(k):
    """Random sample positions (some shared) and random labels."""
    rng = np.random.default_rng(k)
    for _ in range(4):
        h, w = rng.integers(3, 30, 2)
        n = int(rng.integers(k, min(3 * k + 20, h * w) + 1))
        flat = rng.integers(0, h * w, n)
        coords = np.stack(np.divmod(flat, w), axis=1)
        labels = rng.permutation(np.arange(n) % k)
        xs = FeatureSet(rng.random((n, 1)), coords)
        out = assignment_to_labelmap(ClusterAssignment(labels, k), xs, (h, w))
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, brute_labelmap(labels, coords, (h, w)))


def test_labelmap_rejects_negative_provenance():
    xs = FeatureSet(np.array([[0.0], [1.0]]), np.array([[0, 0], [-1, 2]]))
    with pytest.raises(ValueError, match="provenance outside a 3x3 raster"):
        assignment_to_labelmap(ClusterAssignment(np.array([0, 1]), 2), xs, (3, 3))
