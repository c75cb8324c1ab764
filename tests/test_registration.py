"""Similarity-transform registration tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import map_coordinates
from scipy.optimize import minimize

from entrobench import registration
from entrobench.entropy import (EntropyKind, SHANNON, entropy, histogram, joint_histogram,
                                mutual_information, normalize)
from entrobench.raster import generate_scene, median_filter_3x3
from entrobench.registration import (
    RegisterConfig,
    SimilarityTransform,
    default_control_points,
    mi_objective,
    nccc,
    register,
    rmse_control_points,
    transform_apply,
)
from entrobench.scenes import five_region_spec, scene_pair

I = SimilarityTransform.identity()
KINDS = (SHANNON, EntropyKind.renyi(0.5), EntropyKind.renyi(2.0),
         EntropyKind.tsallis(2.0), EntropyKind.tsallis(3.0))


def scene_image(size=128, noise=8.0, seed=0, height=None):
    img, _ = generate_scene(five_region_spec(width=size, height=height or size,
                                             noise=noise), seed=seed)
    return img


def reference_warp(img, T):
    """Bilinear warp by scipy's map_coordinates (order 1, mode "nearest").

    Returns (warped uint8, validity mask, source xs, source ys); the
    source coordinates and the mask follow the package's definitions.
    """
    h, w = img.shape
    inv = T.inverse()
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    cosr = inv.scale * math.cos(inv.theta)
    sinr = inv.scale * math.sin(inv.theta)
    relx = np.arange(w, dtype=np.float64)[None, :] - cx
    rely = np.arange(h, dtype=np.float64)[:, None] - cy
    xs = cosr * relx - sinr * rely + cx + inv.dx
    ys = sinr * relx + cosr * rely + cy + inv.dy
    tol = 1e-9
    valid = (xs >= -tol) & (xs <= w - 1 + tol) & (ys >= -tol) & (ys <= h - 1 + tol)
    sampled = map_coordinates(img.astype(np.float64), [ys, xs], order=1, mode="nearest")
    return np.clip(np.rint(sampled), 0, 255).astype(np.uint8), valid, xs, ys


def reference_mi(ref, moving, T, kind, bins):
    """MI over reference_warp's overlap, or None where it is under 10%."""
    warped, valid, _, _ = reference_warp(moving, T)
    if valid.sum() < 0.1 * valid.size:
        return None
    return mutual_information(joint_histogram(ref, warped, bins=bins, mask=valid), kind)


class ReferenceEvaluator:
    """Stands in for registration._MIEvaluator, built on reference_mi."""

    def __init__(self, ref, moving, kind, bins):
        self.args = ref, moving, kind, bins

    def __call__(self, T):
        ref, moving, kind, bins = self.args
        return reference_mi(ref, moving, T, kind, bins)


def result_fields(res):
    """Every RegistrationResult field except runtime."""
    return (res.transform, res.mi_final, res.nccc, res.rmse, res.evaluations)


def test_transform_validation():
    with pytest.raises(ValueError):
        SimilarityTransform(scale=0.4)
    with pytest.raises(ValueError):
        SimilarityTransform(scale=2.5)
    with pytest.raises(ValueError):
        SimilarityTransform(dx=float("nan"))
    assert I.as_vector().tolist() == [0.0, 0.0, 0.0, 1.0]


def test_transform_inverse_round_trip():
    t = SimilarityTransform(dx=3.5, dy=-2.0, theta=0.3, scale=1.2)
    pts = np.array([[0.0, 0.0], [10.0, 4.0], [-3.0, 7.5]])
    back = t.inverse().apply(t.apply(pts, center=(5, 5)), center=(5, 5))
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_transform_apply_identity_bit_exact():
    img = scene_image()
    warped, valid = transform_apply(img, I)
    np.testing.assert_array_equal(warped, img)
    assert valid.all()


def test_transform_apply_integer_shift():
    img = scene_image()
    warped, valid = transform_apply(img, SimilarityTransform(dx=3.0))
    np.testing.assert_array_equal(warped[:, 3:], img[:, :-3])
    assert not valid[:, :3].any()
    assert valid[:, 3:].all()


def test_transform_apply_quarter_turns_compose():
    img = scene_image(size=65)  # odd size keeps the center on a pixel
    quarter = SimilarityTransform(theta=math.pi / 2)
    half = SimilarityTransform(theta=math.pi)
    once, v1 = transform_apply(img, quarter)
    twice, v2 = transform_apply(once, quarter)
    direct, v3 = transform_apply(img, half)
    m = v2 & v3
    diff = twice.astype(int)[m] - direct.astype(int)[m]
    assert np.abs(diff).max() <= 1


def test_transform_apply_inverse_bounds_interior():
    # bilinear resampling reproduces linear ramps exactly, so the only
    # error left after warping there and back is uint8 rounding
    n = 128
    y, x = np.mgrid[:n, :n]
    img = np.rint((x + y) * 255 / (2 * (n - 1))).astype(np.uint8)
    t = SimilarityTransform(dx=2.3, dy=-1.1, theta=0.15, scale=1.05)
    fwd, _ = transform_apply(img, t)
    back, valid = transform_apply(fwd, t.inverse())
    interior = np.zeros_like(valid)
    interior[10:-10, 10:-10] = True
    m = valid & interior
    diff = back.astype(int)[m] - img.astype(int)[m]
    assert np.abs(diff).max() <= 1


def test_nccc_identical_and_inverted():
    img = scene_image()
    assert nccc(img, img) == pytest.approx(1.0, abs=1e-12)
    assert nccc(img, 255 - img) == pytest.approx(-1.0, abs=1e-12)


def test_nccc_constant_raises():
    img = scene_image()
    flat = np.full_like(img, 7)
    with pytest.raises(ValueError):
        nccc(img, flat)
    with pytest.raises(ValueError):
        nccc(flat, img)


def test_nccc_symmetric_and_affine_invariant():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 120, (32, 32)).astype(np.uint8)
    b = rng.integers(0, 120, (32, 32)).astype(np.uint8)
    assert nccc(a, b) == pytest.approx(nccc(b, a), abs=1e-12)
    assert nccc(a, (2 * b.astype(int) + 3)) == pytest.approx(
        nccc(a, b), abs=1e-9)


def test_nccc_mask():
    a = np.array([[0, 100], [50, 200]], dtype=np.uint8)
    b = np.array([[0, 100], [200, 50]], dtype=np.uint8)
    mask = np.array([[True, True], [False, False]])
    assert nccc(a, b, mask) == 1.0
    with pytest.raises(ValueError):
        nccc(a, b, np.array([[True, False], [False, False]]))


def test_mi_objective_self_identity():
    img = scene_image()
    h = histogram(img, bins=64)
    assert mi_objective(img, img, I) == pytest.approx(
        entropy(normalize(h)), abs=1e-12)


def test_mi_objective_independent_images():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    b = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    assert mi_objective(a, b, I) < 0.05


def test_mi_objective_peaks_at_true_shift():
    img = scene_image()
    t_gen = SimilarityTransform(dx=3.0, dy=-2.0)
    moving, _ = transform_apply(img, t_gen)
    t_back = t_gen.inverse()
    for kind in (SHANNON, EntropyKind.renyi(2.0), EntropyKind.tsallis(2.0)):
        assert (mi_objective(img, moving, t_back, kind)
                > mi_objective(img, moving, I, kind))


def test_mi_objective_insufficient_overlap():
    img = scene_image(size=64)
    with pytest.raises(ValueError):
        mi_objective(img, img, SimilarityTransform(dx=62.0))


@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (256, 256),
                                   (50, 60), (65, 64)])
@pytest.mark.parametrize("bins", [2, 16, 64, 256])
def test_mi_evaluator_equals_mi_objective(shape, bins):
    h, w = shape
    ref = scene_image(w, height=h, seed=0)
    moving = scene_image(w, height=h, seed=1)
    rng = np.random.default_rng(bins * 1000 + h * 7 + w)
    transforms = [SimilarityTransform(rng.uniform(-15, 15), rng.uniform(-15, 15),
                                      rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.4))
                  for _ in range(4 if h * w > 128 * 128 else 8)]
    # integer shifts put coordinates exactly on the last row and column,
    # half-pixel shifts put every weight at 0.5, and turns put coordinates
    # within rounding of the border, inside the overlap tolerance
    transforms += [SimilarityTransform(dx, dy) for dx, dy in
                   ((-1.0, 0.0), (0.0, -1.0), (2.0, -3.0), (-0.5, 0.5), (1.5, -2.5))]
    transforms += [SimilarityTransform(theta=t) for t in (math.pi / 2, -math.pi / 2, math.pi)]
    # shifts keeping the fewest columns that still make 10% overlap (exactly
    # 10% at 50x60), then one column fewer, then far less
    keep = math.ceil(0.1 * w)
    transforms += [SimilarityTransform(dx=float(w - keep)),
                   SimilarityTransform(dx=float(w - keep + 1)),
                   SimilarityTransform(dx=0.95 * w), SimilarityTransform(dy=-0.92 * h)]
    for kind in KINDS:
        evaluate = registration._MIEvaluator(ref, moving, kind, bins)
        for T in transforms:
            expected = reference_mi(ref, moving, T, kind, bins)
            got = evaluate(T)
            if expected is None:
                assert got is None, (kind, T)
                with pytest.raises(ValueError, match="insufficient overlap"):
                    mi_objective(ref, moving, T, kind, bins)
            else:
                assert got == expected, (kind, T)
                assert mi_objective(ref, moving, T, kind, bins) == got, (kind, T)
    assert evaluate(transforms[-1]) is None  # the None branch did run


@settings(max_examples=300, deadline=None)
@given(h=st.integers(2, 40), w=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       dx=st.floats(-20, 20), dy=st.floats(-20, 20),
       theta=st.one_of(st.floats(-math.pi, math.pi),
                       st.sampled_from([math.pi / 2, -math.pi / 2, math.pi])),
       scale=st.floats(0.5, 2.0))
def test_transform_apply_matches_map_coordinates_inside_raster(h, w, seed, dx, dy,
                                                               theta, scale):
    img = np.random.default_rng(seed).integers(0, 256, (h, w)).astype(np.uint8)
    T = SimilarityTransform(dx, dy, theta, scale)
    warped, valid = transform_apply(img, T)
    expected, expected_valid, xs, ys = reference_warp(img, T)
    np.testing.assert_array_equal(valid, expected_valid)
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    np.testing.assert_array_equal(warped[inside], expected[inside])
    # sources outside the closed raster, even within the overlap
    # tolerance, are read at their clamped coordinates
    clamped = map_coordinates(img.astype(np.float64), [np.clip(ys, 0, h - 1),
                                                       np.clip(xs, 0, w - 1)], order=1)
    np.testing.assert_array_equal(warped, np.rint(clamped))


def test_source_just_outside_raster_reads_clamped_coordinate():
    rng = np.random.default_rng(61)
    mov = rng.integers(0, 256, (20, 5)).astype(np.uint8)
    ref = rng.integers(0, 256, (20, 5)).astype(np.uint8)
    T = SimilarityTransform(theta=math.pi, scale=0.5)
    warped, valid = transform_apply(mov, T)
    expected, _, xs, ys = reference_warp(mov, T)
    # (14, 1) is in the overlap, but its source lies just off the raster,
    # where map_coordinates rounds the other way
    assert valid[14, 1] and not valid[14, 0]
    assert not (0 <= xs[14, 1] <= 4 and 0 <= ys[14, 1] <= 19)
    assert (warped[14, 1], warped[14, 0]) == (116, 116)
    assert (expected[14, 1], expected[14, 0]) == (115, 115)
    mi = 3.170148321475506
    assert mi_objective(ref, mov, T, SHANNON, 256) == mi
    assert registration._MIEvaluator(ref, mov, SHANNON, 256)(T) == mi
    assert reference_mi(ref, mov, T, SHANNON, 256) == 3.123938509438177


@pytest.mark.parametrize("case", ["shifted-128", "self-128", "crop-50x60"])
def test_register_with_evaluator_equals_mi_objective_reference(case, monkeypatch):
    ref, moving, truth = scene_pair("five-region", 128, 128, 8.0, 0, 0)
    kinds = (SHANNON, EntropyKind.tsallis(2.0))
    if case == "self-128":
        moving, truth, kinds = ref, I, (SHANNON,)
    elif case == "crop-50x60":  # under 64 px: the first stage is not decimated
        ref, moving = ref[30:80, 20:80], moving[30:80, 20:80]
    for kind in kinds:
        fast = register(ref, moving, kind, true_transform=truth)
        with monkeypatch.context() as mp:
            mp.setattr(registration, "_MIEvaluator", ReferenceEvaluator)
            slow = register(ref, moving, kind, true_transform=truth)
        assert result_fields(fast) == result_fields(slow)


def test_register_rejects_bins_before_search(monkeypatch):
    # the coarse stage caps its bins at 16, so it must not be what checks them
    def no_search(*args):
        pytest.fail("search started with a bad bins value")

    monkeypatch.setattr(registration, "_MIEvaluator", no_search)
    for size, bins in ((64, 7), (256, 7), (256, 512)):
        img = scene_image(size=size)
        with pytest.raises(ValueError, match="divisor of 256"):
            register(img, img, config=RegisterConfig(bins=bins))


# (short side, bins at config.bins = 8, 64, 256): halvings and stage bins
STAGE_TABLE = [
    (8, 0, (2, 2, 2)),
    (50, 0, (8, 8, 8)),
    (63, 0, (8, 8, 8)),
    (64, 1, (8, 8, 8)),
    (70, 1, (8, 8, 8)),
    (100, 1, (8, 8, 8)),
    (127, 1, (8, 8, 8)),
    (128, 1, (8, 16, 16)),
    (255, 1, (8, 16, 16)),
    (256, 2, (8, 16, 16)),
    (512, 3, (8, 16, 16)),
]


@pytest.mark.parametrize("short, halvings, stage_bins", STAGE_TABLE)
@pytest.mark.parametrize("long_side", [None, 300, 1000])
def test_coarse_stage_rule(short, halvings, stage_bins, long_side):
    long_side = short if long_side is None else max(short, long_side)
    for shape in ((short, long_side), (long_side, short)):
        for bins, expected in zip((8, 64, 256), stage_bins):
            assert registration._coarse_stage(shape, bins) == (halvings, expected)


@pytest.mark.parametrize("shape, stages", [
    ((256, 256), [((64, 64), 16), ((256, 256), 64)]),
    ((130, 300), [((65, 150), 16), ((130, 300), 64)]),
    ((70, 90), [((35, 45), 8), ((70, 90), 64)]),
    ((50, 60), [((50, 60), 8), ((50, 60), 64)]),
])
def test_register_runs_stages_on_rule(shape, stages, monkeypatch):
    h, w = shape
    ref = scene_image(w, height=h, seed=0)
    built = []

    class Recording(registration._MIEvaluator):
        def __init__(self, ref, moving, kind, bins):
            built.append((ref.shape, bins))
            super().__init__(ref, moving, kind, bins)

    monkeypatch.setattr(registration, "_MIEvaluator", Recording)
    register(ref, ref, config=RegisterConfig(budget=200))
    assert built == stages


@pytest.mark.parametrize("size, seed", [(128, 0), (128, 3), (256, 105)])
def test_register_recovers_tsallis_shifted_pairs(size, seed):
    # a half-resolution coarse stage with the full 64 bins missed these
    # pairs, ending at rmse 8.78, 2.64 and 11.64 px
    ref, moving, truth = scene_pair("five-region", size, size, 8.0, seed, seed)
    ref, moving = median_filter_3x3(ref), median_filter_3x3(moving)
    res = register(ref, moving, EntropyKind.tsallis(2.0), RegisterConfig(seed=seed),
                   true_transform=truth)
    assert res.rmse <= 0.5
    assert res.nccc >= 0.95


@settings(max_examples=25, deadline=None)
@given(h=st.integers(8, 40), w=st.integers(8, 40), levels=st.integers(2, 256),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
def test_register_small_rasters_finite_or_value_error(h, w, levels, seed, kind):
    rng = np.random.default_rng(seed)
    ref, moving = (rng.integers(0, levels, (h, w)).astype(np.uint8) for _ in range(2))
    for img in (ref, moving):
        img[0, 0], img[-1, -1] = 0, levels - 1
    config = RegisterConfig(budget=200, seed=seed % 1000)
    try:
        res = register(ref, moving, kind, config)
    except ValueError:
        return
    assert np.isfinite(res.transform.as_vector()).all()
    assert math.isfinite(res.mi_final) and math.isfinite(res.nccc)
    assert res.evaluations <= config.budget


def scipy_nelder_mead(f, sim, maxfev, xatol, fatol):
    """registration._nelder_mead by scipy.optimize.minimize: the final simplex."""
    res = minimize(f, sim[0], method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol,
                            "initial_simplex": sim})
    return res.final_simplex


def recorded(f):
    """f, and the list of the points it has been called at, as bytes."""
    points = []

    def g(x):
        points.append(np.asarray(x, dtype=np.float64).tobytes())
        return f(x)

    return g, points


def nm_simplex(x0):
    """x0 and one vertex per axis, stepped by 0.5, 0.25, 0.1, 0.7."""
    return np.vstack([x0, x0 + np.diag([0.5, 0.25, 0.1, 0.7][:x0.size])])


NM_OBJECTIVES = {
    "sphere": lambda x: float(np.sum((x - 3.0) ** 2)),
    "rosenbrock": lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                         + (1.0 - x[:-1]) ** 2)),
    "abs": lambda x: float(np.abs(x - 0.3).sum()),
    # plateaus: many vertices and trial points tie
    "terraces": lambda x: float(np.floor(2.0 * np.sum(x * x))),
    # every trial ties, so every step is a rejected contraction and a shrink
    "flat": lambda x: 1.0,
}


@pytest.mark.parametrize("name", sorted(NM_OBJECTIVES))
@pytest.mark.parametrize("dim", [2, 4])
def test_nelder_mead_evaluates_as_scipy(name, dim):
    """The port calls f at scipy's points in scipy's order and ends on its
    simplex.  maxfev 0-12 cuts runs inside the initial simplex (up to
    dim + 1 calls), after a reflection that an expansion or contraction
    would follow, and inside a shrink; the largest runs to convergence."""
    f = NM_OBJECTIVES[name]
    sim = nm_simplex(np.linspace(-1.2, 0.8, dim))
    for maxfev in list(range(0, 13)) + [40, 5000]:
        for xatol, fatol in ((1e-4, 1e-9), (1e-2, 1e-3)):
            port, got = recorded(f)
            ref, want = recorded(f)
            sim_a, fsim_a = registration._nelder_mead(port, sim, maxfev, xatol, fatol)
            sim_b, fsim_b = scipy_nelder_mead(ref, sim, maxfev, xatol, fatol)
            assert got == want
            assert len(got) <= maxfev
            assert sim_a.tobytes() == sim_b.tobytes()
            assert fsim_a.tobytes() == fsim_b.tobytes()


def test_nelder_mead_cuts_cover_every_step():
    """The budget cuts above stop inside an expansion and inside a shrink:
    on a 2-D simplex, the sphere's 5th call is an expansion and the flat
    objective's 6th call is the first of a shrink's two."""
    sim = nm_simplex(np.array([-1.2, 0.8]))
    sphere = NM_OBJECTIVES["sphere"]
    port, points = recorded(sphere)
    registration._nelder_mead(port, sim, 5, 1e-4, 1e-9)
    best, mid, worst = sim[np.argsort([sphere(v) for v in sim])]
    xbar = (best + mid) / 2
    xr, xe = (np.frombuffer(p) for p in points[3:5])
    np.testing.assert_allclose(xr, 2 * xbar - worst)
    np.testing.assert_allclose(xe, 3 * xbar - 2 * worst)
    port, points = recorded(NM_OBJECTIVES["flat"])
    registration._nelder_mead(port, sim, 6, 1e-4, 1e-9)
    assert len(points) == 6
    shrunk = np.frombuffer(points[5])
    assert any(np.array_equal(shrunk, sim[i] + 0.5 * (sim[j] - sim[i]))
               for i in range(3) for j in range(3) if i != j)


@pytest.mark.parametrize("config", [
    RegisterConfig(),
    RegisterConfig(budget=200, restarts=8),
    RegisterConfig(budget=300, restarts=20),
    RegisterConfig(restarts=0),
], ids=["default", "budget200-restarts8", "budget300-restarts20", "restarts0"])
def test_register_equals_scipy_nelder_mead(config, monkeypatch):
    ref, moving, truth = scene_pair("five-region", 128, 128, 8.0, 1, 2)
    ref, moving = median_filter_3x3(ref), median_filter_3x3(moving)
    budgets = []

    def reference(f, sim, maxfev, xatol, fatol):
        budgets.append(maxfev)
        return scipy_nelder_mead(f, sim, maxfev, xatol, fatol)

    fast = register(ref, moving, SHANNON, config, true_transform=truth)
    with monkeypatch.context() as mp:
        mp.setattr(registration, "_nelder_mead", reference)
        slow = register(ref, moving, SHANNON, config, true_transform=truth)
    assert result_fields(fast) == result_fields(slow)
    coarse = budgets[:-1]
    assert len(coarse) == config.restarts + 1
    if config.budget < 2000:
        # the coarse cap cut a start short
        assert min(coarse) < coarse[0]


@pytest.mark.parametrize("flat_side", ["ref", "moving"])
def test_register_constant_image_fails_before_search(flat_side, monkeypatch):
    img = scene_image(size=64)
    flat = np.full_like(img, 7)
    ref, moving = (flat, img) if flat_side == "ref" else (img, flat)

    def no_search(*args):
        pytest.fail("search started on a constant image")

    monkeypatch.setattr(registration, "_MIEvaluator", no_search)
    with pytest.raises(ValueError, match="constant image on the valid set"):
        register(ref, moving)


def test_register_self_recovers_identity():
    img = scene_image()
    res = register(img, img)
    assert abs(res.transform.dx) <= 0.1
    assert abs(res.transform.dy) <= 0.1
    assert abs(res.transform.theta) <= 0.005
    assert abs(res.transform.scale - 1.0) <= 0.005
    assert res.nccc >= 0.99
    assert res.evaluations <= RegisterConfig().budget
    assert math.isnan(res.rmse)
    assert res.runtime >= 0.0


def test_register_deterministic():
    img = scene_image()
    moving, _ = transform_apply(img, SimilarityTransform(dx=2.0, dy=1.0))
    a = register(img, moving)
    b = register(img, moving)
    assert a.transform == b.transform
    assert a.evaluations == b.evaluations
    assert a.mi_final == b.mi_final


def test_register_recovers_translation():
    img = scene_image(size=256)
    t_gen = SimilarityTransform(dx=3.0, dy=-2.0)
    moving, _ = transform_apply(img, t_gen)
    truth = t_gen.inverse()
    res = register(img, moving, true_transform=truth)
    assert abs(res.transform.dx - truth.dx) <= 0.5
    assert abs(res.transform.dy - truth.dy) <= 0.5
    assert res.nccc >= 0.95
    center = ((img.shape[1] - 1) / 2.0, (img.shape[0] - 1) / 2.0)
    assert res.rmse == pytest.approx(
        rmse_control_points(res.transform, truth,
                            default_control_points(img.shape),
                            center=center), abs=1e-12)


def test_register_recovers_rotation_scale():
    img = scene_image(size=256)
    t_gen = SimilarityTransform(theta=math.radians(3.0), scale=1.1)
    moving, _ = transform_apply(img, t_gen)
    truth = t_gen.inverse()
    res = register(img, moving)
    assert abs(res.transform.theta - truth.theta) <= math.radians(0.5)
    assert abs(res.transform.scale - truth.scale) <= 0.02
    assert res.mi_final >= mi_objective(img, moving, I)


def test_register_rejects_shape_mismatch():
    img = scene_image(size=64)
    with pytest.raises(ValueError):
        register(img, img[:32])


@pytest.mark.parametrize("call", [
    lambda img: register(img, img),
    lambda img: mi_objective(img, img, I),
    lambda img: transform_apply(img, I)],
    ids=["register", "mi_objective", "transform_apply"])
def test_oversized_raster_refused_before_allocation(call):
    """A 16384 x 16384 raster, as a read-only view of one 16 KB row
    that allocates nothing more, is refused by shape and limit before
    any warp buffer."""
    row = np.resize(np.arange(256, dtype=np.uint8), 16384)
    huge = np.broadcast_to(row, (16384, 16384))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                f"16384x16384 raster has 268435456 pixels, over the "
                f"{registration._MAX_PIXELS} pixel limit")):
            call(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_size_limit_admits_1024_rasters():
    assert registration._MAX_PIXELS == 13_094_412  # 1 GiB at 82 B per pixel
    img = scene_image(size=1024)
    assert mi_objective(img, img, I) > 0.0
    assert transform_apply(img, I)[1].all()


def test_register_rejects_small_budget():
    img = scene_image(size=64)
    with pytest.raises(ValueError):
        register(img, img, config=RegisterConfig(budget=100))


def test_rmse_zero_for_equal_transforms():
    t = SimilarityTransform(dx=1.0, dy=2.0, theta=0.1, scale=1.05)
    pts = default_control_points((64, 64))
    assert rmse_control_points(t, t, pts) == 0.0


def test_rmse_uniform_shift():
    t = SimilarityTransform(dx=4.0, dy=-1.0)
    shifted = SimilarityTransform(dx=5.0, dy=-1.0)
    pts = np.array([[0, 0], [511, 0], [13, 222]])
    assert rmse_control_points(shifted, t, pts) == pytest.approx(1.0, abs=1e-12)


def test_rmse_frozen_shift_case():
    est = SimilarityTransform(dx=3.2, dy=-1.7)
    true = SimilarityTransform(dx=3.0, dy=-2.0)
    pts = default_control_points((512, 512))
    assert rmse_control_points(est, true, pts) == pytest.approx(
        0.36055512754639896, abs=1e-12)


def test_rmse_permutation_invariant():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 100, (6, 2))
    est = SimilarityTransform(dx=1.0, theta=0.05)
    true = SimilarityTransform(dy=-2.0, scale=1.02)
    v = rmse_control_points(est, true, pts)
    assert rmse_control_points(est, true, pts[::-1]) == pytest.approx(
        v, abs=1e-12)


def test_rmse_empty_points():
    with pytest.raises(ValueError):
        rmse_control_points(I, I, np.zeros((0, 2)))


def test_default_control_points():
    pts = default_control_points((64, 128))
    assert pts.shape == (5, 2)
    assert [127.0, 63.0] in pts.tolist()
    assert [63.5, 31.5] in pts.tolist()
