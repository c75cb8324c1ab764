"""Raster I/O, scene generation, and pre-processing tests."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from entrobench import raster
from entrobench.entropy import entropy, histogram, normalize
from entrobench.raster import (
    PgmError,
    Region,
    SceneSpec,
    add_salt_pepper,
    as_gray,
    decode_pgm,
    encode_pgm,
    generate_scene,
    median_filter_3x3,
)
from entrobench.scenes import two_region_spec


def test_as_gray_accepts_uint8_passthrough():
    a = np.zeros((3, 4), dtype=np.uint8)
    assert as_gray(a) is a


def test_as_gray_converts_in_range_ints():
    a = np.array([[0, 255], [17, 128]], dtype=np.int64)
    g = as_gray(a)
    assert g.dtype == np.uint8
    np.testing.assert_array_equal(g, a)


@pytest.mark.parametrize("bad", [
    np.zeros(4, dtype=np.uint8),
    np.zeros((2, 2, 2), dtype=np.uint8),
    np.zeros((0, 5), dtype=np.uint8),
    np.array([[0.5]]),
    np.array([[-1]]),
    np.array([[256]]),
])
def test_as_gray_rejects(bad):
    with pytest.raises(ValueError):
        as_gray(bad)


def test_decode_p5_minimal():
    img = decode_pgm(b"P5\n2 1\n255\n" + bytes([7, 200]))
    np.testing.assert_array_equal(img, [[7, 200]])


def test_decode_p2_minimal():
    img = decode_pgm(b"P2\n1 1\n255\n128\n")
    np.testing.assert_array_equal(img, [[128]])


def test_decode_header_comments():
    img = decode_pgm(b"P5 # magic\n# width next\n2 1\n255\n" + bytes([1, 2]))
    np.testing.assert_array_equal(img, [[1, 2]])


def test_decode_p2_multiline_samples():
    img = decode_pgm(b"P2\n2 2\n255\n0 10\n20\n30\n")
    np.testing.assert_array_equal(img, [[0, 10], [20, 30]])


def test_decode_truncated_p5_reports_offset():
    data = b"P5\n2 2\n255\n" + bytes([1, 2, 3])
    with pytest.raises(PgmError) as exc:
        decode_pgm(data)
    assert "truncated" in str(exc.value)
    assert exc.value.offset == len(data)


@pytest.mark.parametrize("side", [1 << 20, 1 << 16])
def test_decode_p2_header_larger_than_data_refused_before_allocation(side):
    """A P2 header naming more samples than the data can hold, at least
    a separator and a digit each, is refused before the raster buffer
    is allocated."""
    data = b"P2\n%d %d\n255\n0" % (side, side)
    tracemalloc.start()
    try:
        with pytest.raises(PgmError, match=(
                f"truncated payload: expected {side * side} samples")) as exc:
            decode_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.offset == len(data)
    assert peak < 1 << 20


def test_decode_bad_magic_offset_zero():
    with pytest.raises(PgmError) as exc:
        decode_pgm(b"P6\n1 1\n255\n\x00")
    assert exc.value.offset == 0


def test_decode_maxval_not_255():
    data = b"P5\n1 1\n65535\n\x00"
    with pytest.raises(PgmError) as exc:
        decode_pgm(data)
    # offset points at the maxval token
    assert exc.value.offset == data.index(b"65535")


def test_decode_bad_width_token():
    data = b"P5\nxx 1\n255\n\x00"
    with pytest.raises(PgmError) as exc:
        decode_pgm(data)
    assert exc.value.offset == data.index(b"xx")


def test_decode_p2_sample_out_of_range():
    data = b"P2\n1 1\n255\n300\n"
    with pytest.raises(PgmError) as exc:
        decode_pgm(data)
    assert exc.value.offset == data.index(b"300")


def test_decode_empty():
    with pytest.raises(PgmError):
        decode_pgm(b"")


def test_encode_minimal():
    assert encode_pgm(np.zeros((1, 1), dtype=np.uint8)) == b"P5\n1 1\n255\n\x00"


def test_encode_decode_round_trip_seeded():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    np.testing.assert_array_equal(decode_pgm(encode_pgm(img)), img)


@settings(max_examples=50, deadline=None)
@given(
    w=st.integers(1, 16),
    h=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_is_bit_exact(w, h, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    np.testing.assert_array_equal(decode_pgm(encode_pgm(img)), img)


def test_region_validation():
    with pytest.raises(ValueError):
        Region(mean=10.0)  # neither rect nor polygon
    with pytest.raises(ValueError):
        Region(mean=10.0, rect=(0, 0, 1, 1), polygon=((0, 0), (1, 0), (1, 1)))
    with pytest.raises(ValueError):
        Region(mean=300.0, rect=(0, 0, 1, 1))
    with pytest.raises(ValueError):
        Region(mean=10.0, noise_std=-1.0, rect=(0, 0, 1, 1))
    with pytest.raises(ValueError):
        Region(mean=10.0, polygon=((0, 0), (1, 1)))


def test_scene_spec_validation():
    r = Region(mean=10.0, rect=(0, 0, 1, 1))
    with pytest.raises(ValueError):
        SceneSpec(0, 4, (r, Region(mean=20.0, rect=(0, 0, 1, 1))))
    with pytest.raises(ValueError):
        SceneSpec(4, 4, (r,))
    with pytest.raises(ValueError):
        SceneSpec(4, 4, (r, Region(mean=10.0, rect=(0.5, 0, 1, 1))))


def test_scene_spec_refuses_oversized_scene():
    """The bound is checked when the spec is built, before any render."""
    assert raster._MAX_SCENE_PIXELS == 23_342_213  # 1 GiB at 46 B per pixel
    regions = (Region(mean=10.0, rect=(0, 0, 1, 1)),
               Region(mean=20.0, rect=(0.5, 0, 1, 1)))
    with pytest.raises(ValueError, match=(
            f"a 100000x100000 scene has 10000000000 pixels, over the "
            f"{raster._MAX_SCENE_PIXELS} pixel limit")):
        SceneSpec(100000, 100000, regions)
    SceneSpec(4096, 4096, regions)  # a 4096^2 scene is within it


def test_generate_scene_two_region_zero_noise():
    spec = two_region_spec(width=32, height=32, noise=0.0)
    img, labels = generate_scene(spec, seed=1)
    assert sorted(np.unique(img)) == [60, 190]
    # labels match intensities exactly in the zero-noise case
    np.testing.assert_array_equal(img == 190, labels == 1)


def test_generate_scene_deterministic():
    spec = two_region_spec(width=32, height=32, noise=5.0)
    a = generate_scene(spec, seed=7)
    b = generate_scene(spec, seed=7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = generate_scene(spec, seed=8)
    assert (a[0] != c[0]).any()


def test_generate_scene_uncovered_raises():
    spec = SceneSpec(8, 8, (
        Region(mean=10.0, rect=(0.0, 0.0, 0.5, 1.0)),
        Region(mean=20.0, rect=(0.6, 0.0, 1.0, 1.0)),
    ))
    with pytest.raises(ValueError):
        generate_scene(spec, seed=0)


def test_generate_scene_five_region_histogram_modes():
    """Histogram of the noisy 5-region scene peaks at each region mean."""
    from entrobench.scenes import five_region_spec

    spec = five_region_spec(width=256, height=256, noise=8.0)
    img, _ = generate_scene(spec, seed=42)
    # light smoothing removes per-bin sampling jitter before peak-finding
    h = np.convolve(histogram(img).astype(float), [1, 2, 1], mode="same")
    for region in spec.regions:
        m = int(region.mean)
        window = h[m - 12:m + 13]
        peak = m - 12 + int(np.argmax(window))
        assert abs(peak - m) <= 1


def test_salt_pepper_density_zero_identity():
    img = np.full((16, 16), 77, dtype=np.uint8)
    np.testing.assert_array_equal(add_salt_pepper(img, 0.0, seed=3), img)


def test_salt_pepper_density_one_saturates():
    rng = np.random.default_rng(2)
    img = rng.integers(1, 255, (32, 32), dtype=np.uint8)
    out = add_salt_pepper(img, 1.0, seed=3)
    assert set(np.unique(out)) <= {0, 255}


def test_salt_pepper_rejects_bad_density():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        add_salt_pepper(img, -0.1, seed=0)
    with pytest.raises(ValueError):
        add_salt_pepper(img, 1.5, seed=0)


def test_salt_pepper_hit_count_binomial():
    # constant 128 so every hit changes the pixel
    img = np.full((256, 256), 128, dtype=np.uint8)
    out = add_salt_pepper(img, 0.05, seed=11)
    n = img.size
    hits = int((out != 128).sum())
    sigma = np.sqrt(n * 0.05 * 0.95)
    assert abs(hits - 0.05 * n) <= 3 * sigma


def test_salt_pepper_deterministic():
    img = np.full((32, 32), 100, dtype=np.uint8)
    a = add_salt_pepper(img, 0.1, seed=5)
    b = add_salt_pepper(img, 0.1, seed=5)
    np.testing.assert_array_equal(a, b)


def test_median_constant_identity():
    img = np.full((9, 9), 42, dtype=np.uint8)
    np.testing.assert_array_equal(median_filter_3x3(img), img)


def test_median_absorbs_single_outlier():
    img = np.full((9, 9), 128, dtype=np.uint8)
    img[4, 4] = 255
    assert median_filter_3x3(img)[4, 4] == 128


def test_median_output_subset_of_input_values():
    rng = np.random.default_rng(9)
    img = rng.choice([10, 80, 200], size=(32, 32)).astype(np.uint8)
    out = median_filter_3x3(img)
    assert set(np.unique(out)) <= set(np.unique(img))


def test_median_network_on_every_binary_input():
    """The network takes the majority of all 512 binary 9-tuples, so by
    the 0-1 principle it takes the median of any 9 values."""
    cols = np.array(list(itertools.product((0, 1), repeat=9)), dtype=np.uint8).T
    out = raster._median9(list(cols))
    np.testing.assert_array_equal(out, (cols.sum(axis=0) >= 5).astype(np.uint8))


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), levels=st.integers(2, 256),
       seed=st.integers(0, 2**32 - 1))
def test_median_matches_scipy_median_filter(h, w, levels, seed):
    img = np.random.default_rng(seed).integers(0, levels, (h, w)).astype(np.uint8)
    out = median_filter_3x3(img)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, median_filter(img, size=3, mode="nearest"))


def test_median_refuses_oversized_raster_before_allocation():
    """A 16384 x 16384 raster, as a read-only view of one 16 KB row
    that allocates nothing more, is refused by shape and limit before
    the padded copy."""
    row = np.resize(np.arange(256, dtype=np.uint8), 16384)
    huge = np.broadcast_to(row, (16384, 16384))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                f"16384x16384 raster has 268435456 pixels, over the "
                f"{raster._MAX_FILTER_PIXELS} pixel limit")):
            median_filter_3x3(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_median_size_limit_admits_1024_rasters():
    assert raster._MAX_FILTER_PIXELS == 89_478_485  # 1 GiB at 12 B per pixel
    img = np.random.default_rng(3).integers(0, 256, (1024, 1024), dtype=np.uint8)
    np.testing.assert_array_equal(median_filter_3x3(img),
                                  median_filter(img, size=3, mode="nearest"))


def test_median_restores_salted_scene():
    """On a zero-noise scene, 5% salt-pepper then filtering restores
    at least 99% of pixels and moves the histogram entropy by under
    0.05 nats."""
    spec = two_region_spec(width=128, height=128, noise=0.0)
    clean, _ = generate_scene(spec, seed=0)
    noisy = add_salt_pepper(clean, 0.05, seed=1)
    restored = median_filter_3x3(noisy)
    assert (restored == clean).mean() >= 0.99
    h_clean = entropy(normalize(histogram(clean)))
    h_restored = entropy(normalize(histogram(restored)))
    assert abs(h_clean - h_restored) < 0.05
