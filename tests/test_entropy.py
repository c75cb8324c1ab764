"""Entropy functional, histogram, and mutual information tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from scipy.stats import chisquare

from entrobench.entropy import (
    SHANNON,
    EntropyKind,
    entropy,
    histogram,
    joint_histogram,
    mutual_information,
    normalize,
)

RENYI2 = EntropyKind.renyi(2.0)
TSALLIS2 = EntropyKind.tsallis(2.0)


def random_dist(rng, n):
    p = rng.random(n)
    return p / p.sum()


def test_kind_rejects_bad_params():
    with pytest.raises(ValueError):
        EntropyKind("renyi")
    with pytest.raises(ValueError):
        EntropyKind("renyi", 0.0)
    with pytest.raises(ValueError):
        EntropyKind("renyi", -2.0)
    with pytest.raises(ValueError):
        EntropyKind("tsallis", 1.0 + 1e-10)  # inside the guard band
    with pytest.raises(ValueError):
        EntropyKind("shannon", 2.0)
    with pytest.raises(ValueError):
        EntropyKind("hartley", 2.0)


def test_kind_guard_band_edge():
    # just outside the band is accepted
    assert EntropyKind("renyi", 1.0 + 1e-8).param == pytest.approx(1.0 + 1e-8)


def test_histogram_constant_image():
    h = histogram(np.zeros((8, 8), dtype=np.uint8))
    assert h[0] == 64
    assert h[1:].sum() == 0


def test_histogram_two_bins():
    h = histogram(np.array([[0, 255]], dtype=np.uint8), bins=2)
    np.testing.assert_array_equal(h, [1, 1])


def test_histogram_bin_mapping():
    # intensity i lands in bin i * bins // 256
    img = np.array([[0, 63, 64, 127, 128, 255]], dtype=np.uint8)
    h = histogram(img, bins=4)
    np.testing.assert_array_equal(h, [2, 2, 1, 1])


def test_histogram_rejects_bad_bins():
    img = np.zeros((2, 2), dtype=np.uint8)
    for bins in (0, 1, 3, 100, 512):
        with pytest.raises(ValueError):
            histogram(img, bins=bins)


def test_histogram_uniform_chi_square():
    """Seeded uniform-random image passes a chi-square uniformity test."""
    rng = np.random.default_rng(123)
    img = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    h = histogram(img)
    _, p = chisquare(h)
    assert p > 0.001


def test_normalize_basic():
    np.testing.assert_allclose(normalize([1, 1]), [0.5, 0.5])
    np.testing.assert_allclose(normalize([3, 0, 1]), [0.75, 0.0, 0.25])


def test_normalize_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        normalize([0, 0, 0])
    with pytest.raises(ValueError):
        normalize([1, -1, 2])
    with pytest.raises(ValueError):
        normalize(np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite counts"):
        normalize([5, bad, 3, 4])


def test_entropy_closed_forms():
    assert entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([1.0, 0.0], RENYI2) == 0.0
    assert entropy([1.0, 0.0], TSALLIS2) == 0.0
    assert entropy([0.5, 0.5], RENYI2) == pytest.approx(np.log(2), abs=1e-12)
    # Sum p^2 = 0.625 for [0.75, 0.25]
    assert entropy([0.75, 0.25], RENYI2) == pytest.approx(
        0.4700036292457356, abs=1e-12)
    assert entropy([0.25] * 4, TSALLIS2) == pytest.approx(0.75, abs=1e-12)


def test_entropy_rejects_invalid_dist():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([1.5, -0.5])
    with pytest.raises(ValueError):
        entropy([])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_and_mi_reject_non_finite(bad):
    # NaN fails neither "p < 0" nor "sum not within 1e-9 of 1", so it
    # needs its own check
    with pytest.raises(ValueError, match="non-finite probabilities"):
        entropy([bad, 1.0])
    with pytest.raises(ValueError, match="non-finite probabilities"):
        entropy([0.5, 0.5, bad], RENYI2)
    with pytest.raises(ValueError, match="non-finite probabilities"):
        mutual_information([[0.5, bad], [0.25, 0.25]])


def test_shannon_bounded_by_uniform():
    """H(p) <= ln n for 10 000 seeded random distributions."""
    rng = np.random.default_rng(0)
    for n in (2, 3, 8, 32, 256):
        for _ in range(2000):
            p = random_dist(rng, n)
            assert entropy(p) <= np.log(n) + 1e-12


def test_limit_continuity_near_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_dist(rng, 16)
        hs = entropy(p)
        for eps in (1e-6, -1e-6):
            assert abs(entropy(p, EntropyKind.renyi(1 + eps)) - hs) <= 1e-4
            assert abs(entropy(p, EntropyKind.tsallis(1 + eps)) - hs) <= 1e-4


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(2)
    alphas = [0.3, 0.7, 1.5, 2.0, 3.0, 6.0]
    for _ in range(50):
        p = random_dist(rng, 12)
        values = [entropy(p, EntropyKind.renyi(a)) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-12


def test_additivity_on_products():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pa = random_dist(rng, 5)
        pb = random_dist(rng, 7)
        prod = np.outer(pa, pb)
        for kind in (SHANNON, RENYI2, EntropyKind.renyi(0.5)):
            assert entropy(prod, kind) == pytest.approx(
                entropy(pa, kind) + entropy(pb, kind), abs=1e-9)
        for q in (0.5, 2.0, 3.0):
            k = EntropyKind.tsallis(q)
            sa, sb = entropy(pa, k), entropy(pb, k)
            assert entropy(prod, k) == pytest.approx(
                sa + sb + (1 - q) * sa * sb, abs=1e-9)


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(4)
    p = random_dist(rng, 20)
    shuffled = rng.permutation(p)
    for kind in (SHANNON, RENYI2, TSALLIS2):
        assert entropy(shuffled, kind) == pytest.approx(
            entropy(p, kind), abs=1e-12)


def test_joint_histogram_diagonal():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    j = joint_histogram(img, img, bins=64)
    off = j - np.diag(np.diag(j))
    assert off.sum() == 0
    assert j.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_histogram_constants():
    a = np.full((4, 4), 10, dtype=np.uint8)
    b = np.full((4, 4), 200, dtype=np.uint8)
    j = joint_histogram(a, b, bins=64)
    assert j[(10 * 64) >> 8, (200 * 64) >> 8] == 1.0
    assert j.sum() == 1.0


def test_joint_histogram_mask():
    a = np.array([[0, 255]], dtype=np.uint8)
    b = np.array([[0, 0]], dtype=np.uint8)
    j = joint_histogram(a, b, bins=2, mask=np.array([[True, False]]))
    np.testing.assert_allclose(j, [[1.0, 0.0], [0.0, 0.0]])


def test_joint_histogram_errors():
    a = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        joint_histogram(a, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        joint_histogram(a, a, mask=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        joint_histogram(a, a, mask=np.zeros((3, 3), dtype=bool))


def test_independent_images_low_mi():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    b = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    assert mutual_information(joint_histogram(a, b, bins=64)) < 0.05


def test_mi_of_identical_two_symbol_image():
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    j = joint_histogram(img, img, bins=2)
    assert mutual_information(j) == pytest.approx(np.log(2), abs=1e-12)


def test_mi_product_joint():
    pa = np.array([0.5, 0.5])
    pb = np.array([0.25, 0.75])
    j = np.outer(pa, pb)
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)
    # pseudo-additivity makes the Tsallis MI of independent marginals
    # equal S_q(A) * S_q(B) at q = 2
    sa = entropy(pa, TSALLIS2)
    sb = entropy(pb, TSALLIS2)
    assert mutual_information(j, TSALLIS2) == pytest.approx(sa * sb, abs=1e-12)
    assert mutual_information(j, TSALLIS2) == pytest.approx(0.1875, abs=1e-12)


def test_mi_frozen_value():
    j = np.array([[0.4, 0.1], [0.1, 0.4]])
    assert mutual_information(j) == pytest.approx(0.192744757021758, abs=1e-12)


def test_shannon_mi_nonnegative_random_joints():
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = rng.random((8, 8))
        j /= j.sum()
        assert mutual_information(j) >= -1e-12


def test_diagonal_joint_mi_equals_marginal_entropy():
    rng = np.random.default_rng(8)
    p = random_dist(rng, 16)
    j = np.diag(p)
    assert mutual_information(j) == pytest.approx(entropy(p), abs=1e-12)


def test_mi_rejects_non_2d():
    with pytest.raises(ValueError):
        mutual_information(np.array([0.5, 0.5]))



# ------------------------------------------------------------ properties
# Any input gives a finite value or raises ValueError: no NaN, no
# infinity, no other exception type.  Inputs are mostly valid, with at
# most one entry replaced by any float or out-of-range value.

KINDS = st.one_of(
    st.just(SHANNON),
    st.builds(EntropyKind, st.sampled_from(["renyi", "tsallis"]),
              st.floats(0.1, 10.0).filter(lambda a: abs(a - 1.0) > 1e-3)))
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def skewed(rng, shape):
    """Random values in [0, 1), most of them near 0."""
    return rng.random(shape) ** 8


def poisoned(rng, values, poison):
    if poison is not None and values.size:
        values.flat[rng.integers(values.size)] = poison
    return values


def as_distribution(values, rescale):
    """The values divided by their sum when rescale is set."""
    if not rescale:
        return values
    with np.errstate(all="ignore"):
        return values / values.sum()


@settings(max_examples=150, deadline=None)
@given(shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
       poison=st.none() | ANY_FLOAT, rescale=st.booleans(), kind=KINDS,
       seed=st.integers(0, 2**32 - 1))
def test_entropy_finite_or_value_error(shape, poison, rescale, kind, seed):
    rng = np.random.default_rng(seed)
    values = poisoned(rng, skewed(rng, shape), poison)
    try:
        h = entropy(as_distribution(values, rescale), kind)
    except ValueError:
        return
    assert np.isfinite(h)


@settings(max_examples=150, deadline=None)
@given(shape=array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
       poison=st.none() | ANY_FLOAT, rescale=st.booleans(), kind=KINDS,
       seed=st.integers(0, 2**32 - 1))
def test_mutual_information_finite_or_value_error(shape, poison, rescale,
                                                  kind, seed):
    rng = np.random.default_rng(seed)
    joint = poisoned(rng, skewed(rng, shape), poison)
    try:
        mi = mutual_information(as_distribution(joint, rescale), kind)
    except ValueError:
        return
    assert np.isfinite(mi)


@settings(max_examples=150, deadline=None)
@given(shape=array_shapes(min_dims=2, max_dims=2, max_side=6),
       other=st.none() | array_shapes(min_dims=1, max_dims=3, min_side=0,
                                      max_side=6),
       poison=st.none() | st.integers(-2, 258),
       bins=st.sampled_from([0, 1, 2, 3, 16, 64, 100, 256]),
       masked=st.booleans(), kind=KINDS, seed=st.integers(0, 2**32 - 1))
def test_joint_histogram_is_a_distribution_or_value_error(
        shape, other, poison, bins, masked, kind, seed):
    """Two rasters, the second of shape ``other`` if given, and a random
    mask: a (bins, bins) distribution with a finite MI, or ValueError."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, shape)
    b = poisoned(rng, rng.integers(0, 256, other or shape), poison)
    mask = rng.random(shape) < 0.7 if masked else None
    try:
        j = joint_histogram(a, b, bins, mask)
    except ValueError:
        return
    assert j.shape == (bins, bins)
    assert np.isfinite(j).all() and (j >= 0).all()
    assert j.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(mutual_information(j, kind))
