"""Tests for the named synthetic scene builders."""

import numpy as np
import pytest

from entrobench import registration, scenes
from entrobench.registration import nccc, transform_apply
from entrobench.scenes import (SCENE_NAMES, five_region_spec, named_scene,
                               scene_pair, scene_spec, two_region_spec)

TWO_MEANS = (60, 190)
FIVE_MEANS = (30, 80, 130, 180, 230)


def test_scene_names():
    assert SCENE_NAMES == ("five-region", "two-region")


def test_scene_spec_unknown_name_rejected():
    with pytest.raises(ValueError):
        scene_spec("checkerboard")


def test_spec_means_ascending():
    for spec in (two_region_spec(), five_region_spec()):
        means = [r.mean for r in spec.regions]
        assert means == sorted(means)
    assert [r.mean for r in two_region_spec().regions] == list(TWO_MEANS)
    assert [r.mean for r in five_region_spec().regions] == list(FIVE_MEANS)


def test_two_region_zero_noise_exact_split():
    img, truth = named_scene("two-region", 64, 64, 0.0, 0)
    assert np.array_equal(np.unique(truth), [0, 1])
    # bright half covers x >= 32, everything else stays background
    assert np.all(img[:, :32] == 60)
    assert np.all(img[:, 32:] == 190)
    assert np.all(truth[:, :32] == 0)
    assert np.all(truth[:, 32:] == 1)


def test_five_region_truth_and_region_means():
    img, truth = named_scene("five-region", 128, 128, 8.0, 1)
    assert np.array_equal(np.unique(truth), np.arange(5))
    # background is the largest region by construction
    counts = np.bincount(truth.ravel())
    assert counts[0] == counts.max()
    for label, mean in enumerate(FIVE_MEANS):
        px = img[truth == label].astype(float)
        assert px.size > 100
        assert abs(px.mean() - mean) < 1.5


def test_named_scene_deterministic():
    a_img, a_truth = named_scene("five-region", 64, 64, 8.0, 5)
    b_img, b_truth = named_scene("five-region", 64, 64, 8.0, 5)
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_truth, b_truth)


def test_named_scene_seed_moves_noise_not_truth():
    a_img, a_truth = named_scene("two-region", 64, 64, 8.0, 0)
    b_img, b_truth = named_scene("two-region", 64, 64, 8.0, 1)
    assert not np.array_equal(a_img, b_img)
    assert np.array_equal(a_truth, b_truth)


def test_scene_pair_refuses_oversized_canvas_before_rendering(monkeypatch):
    """A 3600^2 pair is within the warp's limit, but its 3680^2 canvas
    is not, and is refused without being rendered."""
    def no_render(*args):
        raise AssertionError("the canvas was rendered")

    monkeypatch.setattr(scenes, "named_scene", no_render)
    assert 3600 * 3600 <= registration._MAX_PIXELS < 3680 * 3680
    with pytest.raises(ValueError, match=(
            f"a 3680x3680 raster has 13542400 pixels, over the "
            f"{registration._MAX_PIXELS} pixel limit")):
        scene_pair("two-region", 3600, 3600)


def test_scene_pair_shapes_and_determinism():
    ref, mov, t = scene_pair("five-region", 96, 80, 8.0, 2, 7)
    ref2, mov2, t2 = scene_pair("five-region", 96, 80, 8.0, 2, 7)
    assert ref.shape == mov.shape == (80, 96)
    assert np.array_equal(ref, ref2)
    assert np.array_equal(mov, mov2)
    assert t == t2


def test_scene_pair_reference_independent_of_pair_seed():
    ref_a, mov_a, t_a = scene_pair("two-region", 64, 64, 8.0, 0, 0)
    ref_b, mov_b, t_b = scene_pair("two-region", 64, 64, 8.0, 0, 1)
    assert np.array_equal(ref_a, ref_b)
    assert not np.array_equal(mov_a, mov_b)
    assert t_a != t_b


def test_scene_pair_generator_parameter_ranges():
    for pair_seed in range(10):
        _, _, t = scene_pair("two-region", 32, 32, 8.0, 0, pair_seed)
        gen = t.inverse()  # the draw that produced the moving image
        assert abs(gen.dx) <= 5.0
        assert abs(gen.dy) <= 5.0
        assert abs(gen.theta) <= np.deg2rad(5.0)
        assert 0.95 <= gen.scale <= 1.1


def test_scene_pair_truth_maps_moving_onto_reference():
    ref, mov, t = scene_pair("five-region", 128, 128, 8.0, 3, 11)
    back, mask = transform_apply(mov, t)
    assert mask.mean() > 0.75
    assert nccc(ref, back, mask) > 0.95
