"""Entropy-clustering tests with brute-force CEF oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

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
    silverman_sigma,
    _cef_from_state,
    _value_counts,
)
from entrobench.metrics import align_labels, confusion, kappa
from entrobench.raster import generate_scene
from entrobench.scenes import five_region_spec


def row_lattice(f):
    """A FeatureSet of the n rows of f, sampled from a 1 x n raster."""
    return FeatureSet(f, (1, f.shape[0]), 1)


def feature_set(values):
    f = np.asarray(values, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    return row_lattice(f)


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


def repeated_values(n, d, levels, seed):
    """n samples in d bands drawn from a few grey levels, so rows repeat."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, (n, d)) / (levels - 1)


def reference_cluster(f, k, seed, restarts):
    """cluster() from its definition, one restart per entry.

    Same initialization as the library; each sample in turn is tried in
    every other cluster, the whole CEF recomputed from the sample kernel
    for each.  If the best lowers CEF by over 1e-12 the sample moves to
    the smallest cluster within 1e-12 of the best.  Returns (labels,
    per-pass CEF trace) per restart.
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
                best = min(tried.values())
                if best - value < -1e-12:
                    b = min(c for c in tried if tried[c] <= best + 1e-12)
                    labels[i], value, moved = b, tried[b], True
            trace.append(value)
            if not moved:
                break
        runs.append((labels, trace))
    return runs


def test_feature_set_validation():
    with pytest.raises(ValueError):
        FeatureSet(np.array([[1.5], [0.5]]), (1, 2), 1)
    with pytest.raises(ValueError):
        FeatureSet(np.array([[-0.1], [0.5]]), (1, 2), 1)
    with pytest.raises(ValueError):
        FeatureSet(np.array([[0.5]]), (1, 1), 1)


@pytest.mark.parametrize("shape,stride,n", [
    ((1, 3), 1, 2), ((1, 3), 2, 3), ((4, 4), 2, 5), ((5, 5), 2, 4),
    ((4, 4), 5, 2), ((2, 0), 1, 2)])
def test_feature_set_rejects_count_off_the_lattice(shape, stride, n):
    with pytest.raises(ValueError, match="do not fill the stride"):
        FeatureSet(np.linspace(0.0, 1.0, n)[:, None], shape, stride)


@pytest.mark.parametrize("stride", [0, -1, -4])
def test_feature_set_rejects_stride_below_one(stride):
    with pytest.raises(ValueError, match="stride must be >= 1"):
        FeatureSet(np.array([[0.0], [1.0]]), (1, 2), stride)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_set_rejects_non_finite(bad):
    # NaN passes the [0, 1] range check, and cluster() used to die on it
    # with a TypeError deep in the descent
    with pytest.raises(ValueError, match="non-finite feature components"):
        FeatureSet(np.array([[0.2], [bad], [0.7]]), (1, 3), 1)


def test_feature_set_rejects_zero_feature_columns():
    # the [0, 1] range check used to die inside numpy's empty reduction
    with pytest.raises(ValueError, match="d >= 1"):
        FeatureSet(np.zeros((3, 0)), (1, 3), 1)


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
    assert (xs.shape, xs.stride) == ((2, 2), 1)


def test_extract_features_stride():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    xs = extract_features([img], stride=2)
    assert xs.n == 4
    assert (xs.shape, xs.stride) == ((4, 4), 2)
    np.testing.assert_array_equal(xs.features[:, 0], np.array([0, 2, 8, 10]) / 255)


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
    xs = row_lattice(f)
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
    xs = row_lattice(f)
    labels = np.random.default_rng(d).integers(0, 3, 40)
    labels[:3] = [0, 1, 2]
    a = ClusterAssignment(labels, 3)
    for sigma in (0.05, 0.3):
        assert cef(a, xs, sigma) == pytest.approx(
            brute_cef(labels, f, sigma, 3), abs=1e-12)


def test_cef_permutation_invariance():
    rng = np.random.default_rng(3)
    f = rng.random((24, 1))
    xs = row_lattice(f)
    labels = np.array([0, 1, 2] * 8)
    v = cef(ClusterAssignment(labels, 3), xs, 0.1)
    # relabel clusters
    swapped = np.array([2, 0, 1])[labels]
    assert cef(ClusterAssignment(swapped, 3), xs, 0.1) == pytest.approx(
        v, abs=1e-12)
    # permute samples
    perm = rng.permutation(24)
    xs2 = row_lattice(f[perm])
    assert cef(ClusterAssignment(labels[perm], 3), xs2, 0.1) == pytest.approx(
        v, abs=1e-12)


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


def test_restart_ties_are_ranked_by_the_returned_cef(monkeypatch):
    """A later restart whose descent record ends 1e-9 lower, on the same
    partition with swapped labels, ties on the CEF ``cluster`` returns,
    so the first restart wins and its CEF is returned as ``cef`` gives it."""
    rng = np.random.default_rng(7)
    xs = feature_set(np.concatenate([rng.normal(0.3, 0.05, 40),
                                     rng.normal(0.7, 0.05, 40)]).clip(0, 1))
    real = clustering._descend
    first = []

    def descend(K, inv, labels, k):
        if not first:
            first.extend(real(K, inv, labels, k))
            return first[0], first[1]
        return 1 - first[0], first[1] + [first[1][-1] - 1e-9]

    monkeypatch.setattr(clustering, "_descend", descend)
    a, value = cluster(xs, 2, seed=0, restarts=2)
    np.testing.assert_array_equal(a.labels, first[0])
    assert value == cef(a, xs, silverman_sigma(xs))


@pytest.mark.parametrize("d,k,seed", [
    (d, k, seed) for d in (1, 2) for k in (2, 3, 4) for seed in (0, 1)])
def test_cluster_matches_reference_descent(d, k, seed):
    f = repeated_values(60, d, 7 if d == 1 else 4, seed=10 * k + seed)
    xs = row_lattice(f)
    trace = {}
    a, _ = cluster(xs, k, seed=seed, restarts=2, trace=trace)
    runs = reference_cluster(f, k, seed, restarts=2)
    for r, (_, ref_trace) in enumerate(runs):
        assert len(trace[r]) == len(ref_trace)
        np.testing.assert_allclose(trace[r], ref_trace, rtol=0, atol=1e-9)
    best = 0  # a later restart wins only when lower by more than 1e-12
    for r in range(1, len(runs)):
        if runs[r][1][-1] < runs[best][1][-1] - 1e-12:
            best = r
    np.testing.assert_array_equal(a.labels, runs[best][0])
    # the reference's own CEF agrees with the explicit pair loops
    assert runs[best][1][-1] == pytest.approx(
        brute_cef(runs[best][0], f, silverman_sigma(xs), k), abs=1e-12)


# The same descent in numpy array arithmetic, kept as the oracle whose
# labels and traces clustering._descend must match bit for bit.
def numpy_descend(K, inv, labels, k):
    """Greedy single-sample CEF descent; returns labels and pass trace.

    K is the kernel over distinct feature rows and inv[i] the row of
    sample i.  Samples are visited in index order; a move's delta
    depends only on the sample's (row, label) pair and the state, so a
    pair found not to improve is skipped until the next move.  A sample
    moves when its best delta is below -_MOVE_TOL, to the smallest label
    whose delta is within _MOVE_TOL of the best.
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
            best = delta.min()
            if best < -_MOVE_TOL:
                b = int(np.flatnonzero(delta <= best + _MOVE_TOL)[0])
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
    assert_same_descent(row_lattice(f), k, seed,
                        monkeypatch)


def test_descent_matches_array_state_oracle_on_scene(monkeypatch):
    img, _ = generate_scene(
        five_region_spec(width=128, height=128, noise=8.0), seed=4)
    assert_same_descent(extract_features([img], stride=4), 5, 0, monkeypatch)


@pytest.mark.parametrize("d,k", [(d, k) for d in (1, 2, 3) for k in range(2, 9)])
def test_partition_survives_one_ulp_kernel_change(d, k, monkeypatch):
    """Raising a seeded symmetric half of the kernel entries by one ulp,
    as another BLAS or libm build may round, keeps tied moves and
    restarts tied: no repeated-value partition changes."""
    kernel = clustering._distinct_kernel
    for seed in range(20):
        xs = row_lattice(repeated_values(20 * k, d, 6 if d == 1 else 3, seed))
        want = cluster(xs, k, seed=seed)[0].labels

        def nudged(f, sigma):
            K, inv = kernel(f, sigma)
            mask = np.random.default_rng(seed).random(K.shape) < 0.5
            mask |= mask.T
            return np.where(mask, np.nextafter(K, np.inf), K), inv

        with monkeypatch.context() as m:
            m.setattr(clustering, "_distinct_kernel", nudged)
            got = cluster(xs, k, seed=seed)[0].labels
        assert got.tolist() == want.tolist(), f"seed {seed}"


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 120), d=st.integers(1, 3), levels=st.integers(2, 256),
       sigma=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_distinct_kernel_equals_cdist_kernel(n, d, levels, sigma, seed):
    f = repeated_values(n, d, levels, seed)
    K, inv = clustering._distinct_kernel(f, sigma)
    rows = np.unique(f, axis=0)
    np.testing.assert_array_equal(rows[inv], f)
    want = np.exp(-cdist(rows, rows, "sqeuclidean") / (4.0 * sigma * sigma))
    assert K.tobytes() == want.tobytes()


def test_kernel_memory_guard():
    """A distinct-row kernel over the limit is refused before allocation."""
    i = np.arange(12000)
    f = np.stack([i // 256, i % 256], axis=1) / 255.0  # 12,000 distinct rows
    xs = row_lattice(f)
    a = ClusterAssignment(i % 2, 2)
    for call in (lambda: cluster(xs, 2),
                 lambda: cef(a, xs, 0.1)):
        with pytest.raises(ValueError,
                           match="12000 distinct feature rows need a 1099 MiB"):
            call()


def test_cluster_on_noisy_scene():
    img, truth = generate_scene(
        five_region_spec(width=64, height=64, noise=8.0), seed=9)
    xs = extract_features([img], stride=2)
    a, _ = cluster(xs, 5, seed=0)
    labels = assignment_to_labelmap(a, xs)
    aligned = align_labels(labels.ravel(), truth.ravel())
    assert kappa(confusion(aligned, truth.ravel())) >= 0.8


def test_labelmap_stride_one_direct():
    img = np.array([[10, 200], [210, 20]], dtype=np.uint8)
    xs = extract_features([img])
    a = ClusterAssignment(np.array([0, 1, 1, 0]), 2)
    np.testing.assert_array_equal(assignment_to_labelmap(a, xs),
                                  [[0, 1], [1, 0]])


def test_labelmap_uniform_fill():
    img = np.zeros((4, 4), dtype=np.uint8)
    img[0, 0] = 255  # two distinct feature values keep FeatureSet honest
    xs = extract_features([img], stride=2)
    labels = np.array([1, 0, 0, 0])
    out = assignment_to_labelmap(ClusterAssignment(labels, 2), xs)
    assert out.shape == (4, 4)
    assert set(np.unique(out)) == {0, 1}


def test_labelmap_tie_takes_smallest_label():
    xs = FeatureSet(np.array([[0.0], [1.0]]), (1, 3), 2)
    a = ClusterAssignment(np.array([1, 0]), 2)
    out = assignment_to_labelmap(a, xs)
    # middle pixel is equidistant from labels 1 and 0
    np.testing.assert_array_equal(out, [[1, 0, 0]])


def test_labelmap_truth_reconstruction_interior():
    """Nearest-sample painting at stride 4 preserves region interiors."""
    img, truth = generate_scene(
        five_region_spec(width=64, height=64, noise=0.0), seed=0)
    xs = extract_features([img], stride=4)
    sampled = truth[::4, ::4].ravel().astype(np.int64)
    out = assignment_to_labelmap(ClusterAssignment(sampled, 5), xs)
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
    ties to the smallest label; sampled pixels keep the last write.
    One raster row at a time, so a 256 x 256 map stays small."""
    out = np.empty(dims, dtype=np.int64)
    cc = np.arange(dims[1])[:, None]
    for r in range(dims[0]):
        d2 = (r - coords[:, 0]) ** 2 + (cc - coords[:, 1]) ** 2
        near = d2 == d2.min(axis=1, keepdims=True)
        out[r] = np.where(near, labels, clustering._MAX_K).min(axis=1)
    for (r, c), lab in zip(coords, labels):
        out[r, c] = lab
    return out


def lattice_coords(shape, stride):
    """(row, col) of each lattice sample, in FeatureSet order."""
    rr, cc = np.meshgrid(range(0, shape[0], stride), range(0, shape[1], stride),
                         indexing="ij")
    return np.stack([rr.ravel(), cc.ravel()], axis=1)


def assert_paints_like_brute_force(shape, stride, k, seed):
    coords = lattice_coords(shape, stride)
    n = coords.shape[0]
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % k)
    xs = FeatureSet(rng.random((n, 1)), shape, stride)
    out = assignment_to_labelmap(ClusterAssignment(labels, k), xs)
    assert out.dtype == np.uint8 and out.shape == shape
    np.testing.assert_array_equal(out, brute_labelmap(labels, coords, shape))


@pytest.mark.parametrize("k", range(2, 9))
def test_labelmap_matches_brute_force(k):
    """Random labels on the lattices of random rasters: odd and even
    strides, so midpoint ties, and pixels beyond the last lattice line."""
    rng = np.random.default_rng(k)
    for _ in range(6):
        stride = int(rng.integers(1, 9))
        lines = int(np.ceil(np.sqrt(k)))  # at least k samples
        h, w = rng.integers((lines - 1) * stride + 1, 40, 2)
        assert_paints_like_brute_force((int(h), int(w)), stride, k,
                                       seed=int(rng.integers(2**32)))


@pytest.mark.parametrize("shape,stride,k", [
    (shape, stride, 2) for shape in ((1, 17), (17, 1)) for stride in (1, 2, 3, 4)]
    + [((1, 2), 1, 2), ((2, 1), 1, 2), ((256, 256), 4, 5), ((256, 256), 7, 8)])
def test_labelmap_edge_lattices_match_brute_force(shape, stride, k):
    """1-row and 1-column rasters, whose lattice has one line on an axis,
    and 256 x 256 rasters."""
    assert_paints_like_brute_force(shape, stride, k, seed=stride)


def test_labelmap_rejects_uncovered_assignment():
    xs = FeatureSet(np.array([[0.0], [0.5], [1.0]]), (1, 3), 1)
    with pytest.raises(ValueError, match="does not cover"):
        assignment_to_labelmap(ClusterAssignment(np.array([0, 1]), 2), xs)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 12), d=st.integers(0, 3),
       poison=st.none() | ANY_FLOAT, seed=st.integers(0, 2**32 - 1))
def test_feature_set_valid_or_value_error(n, d, poison, seed):
    """Features in [0, 1], one of them possibly replaced by any float:
    a FeatureSet of finite components in [0, 1], or ValueError."""
    rng = np.random.default_rng(seed)
    f = rng.random((n, d))
    if poison is not None and f.size:
        f.flat[rng.integers(f.size)] = poison
    try:
        xs = row_lattice(f)
    except ValueError:
        return
    assert (xs.n, xs.d) == (n, d)
    assert np.isfinite(xs.features).all()
    assert 0.0 <= xs.features.min() <= xs.features.max() <= 1.0


# the explicit examples are a NaN sigma and one whose 4 sigma^2
# underflows to 0, either of which would fill the kernel with NaN
@settings(max_examples=150, deadline=None)
@example(per_cluster=20, d=1, levels=256, k=2, sigma=float("nan"),
         restarts=1, seed=0)
@example(per_cluster=20, d=1, levels=256, k=2, sigma=1e-300,
         restarts=1, seed=0)
@given(per_cluster=st.integers(10, 20) | st.just(9), d=st.integers(1, 3),
       levels=st.integers(2, 256),
       k=st.integers(2, 8) | st.sampled_from([0, 1, 9]),
       sigma=st.none() | st.floats(0.01, 2.0) | ANY_FLOAT,
       restarts=st.integers(1, 3) | st.just(0),
       seed=st.integers(0, 2**32 - 1))
def test_cluster_finite_or_value_error(per_cluster, d, levels, k, sigma,
                                       restarts, seed):
    """per_cluster samples per cluster (9 is too few), on a grid of
    values with repeats, and any settings: a partition into k clusters
    with a finite CEF, or ValueError."""
    n = max(2, k * per_cluster)
    rng = np.random.default_rng(seed)
    xs = row_lattice(rng.integers(0, levels, (n, d)) / (levels - 1))
    try:
        assignment, value = cluster(xs, k, sigma, seed=seed, restarts=restarts)
    except ValueError:
        return
    assert assignment.labels.shape == (n,) and assignment.k == k
    assert np.isfinite(value)
