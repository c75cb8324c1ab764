"""Confusion-matrix metric tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobench.metrics import align_labels, confusion, kappa, overall_accuracy


def test_confusion_diagonal_for_equal_inputs():
    t = np.array([0, 1, 2, 1, 0])
    cm = confusion(t, t)
    np.testing.assert_array_equal(cm, np.diag([2, 2, 1]))


def test_confusion_all_zero_prediction():
    truth = np.array([0] * 50 + [1] * 50)
    pred = np.zeros(100, dtype=int)
    np.testing.assert_array_equal(confusion(pred, truth), [[50, 0], [50, 0]])


def test_confusion_row_sums_are_class_sizes():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, 500)
    pred = rng.integers(0, 2, 500)
    cm = confusion(pred, truth)
    np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(truth))
    np.testing.assert_array_equal(cm.sum(axis=0), np.bincount(pred))


def test_confusion_shape_mismatch():
    with pytest.raises(ValueError):
        confusion(np.array([0, 1]), np.array([0, 1, 0]))


def test_overall_accuracy():
    assert overall_accuracy(np.diag([3, 4])) == 1.0
    assert overall_accuracy([[45, 5], [10, 40]]) == pytest.approx(0.85)
    assert overall_accuracy([[0, 5], [10, 0]]) == 0.0


def test_kappa_diagonal_is_one():
    assert kappa(np.diag([10, 20, 5])) == 1.0


def test_kappa_hand_case():
    # p_o = 0.85, p_e = (55*50 + 45*50) / 10000 = 0.5
    assert kappa([[45, 5], [10, 40]]) == pytest.approx(0.7, abs=1e-15)


def test_kappa_chance_agreement_is_zero():
    # rows proportional to column margins
    cm = np.array([[30, 30], [20, 20]])
    assert kappa(cm) == pytest.approx(0.0, abs=1e-12)


def test_kappa_degenerate_raises():
    with pytest.raises(ValueError):
        kappa([[7, 0], [0, 0]])
    with pytest.raises(ValueError):
        kappa([[0, 0], [0, 12]])


def test_kappa_bounded_by_accuracy():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        cm = rng.integers(0, 50, (3, 3))
        if cm.sum() == 0:
            continue
        rows = cm.sum(axis=1)
        cols = cm.sum(axis=0)
        pe = float(rows @ cols) / cm.sum() ** 2
        if pe >= 1.0:
            continue
        k = kappa(cm)
        if pe > 0 and k >= 0:
            assert k <= overall_accuracy(cm) + 1e-12
        checked += 1


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(2)
    cm = rng.integers(1, 40, (4, 4))
    perm = rng.permutation(4)
    pm = cm[np.ix_(perm, perm)]
    assert kappa(pm) == pytest.approx(kappa(cm), abs=1e-12)
    assert overall_accuracy(pm) == pytest.approx(overall_accuracy(cm),
                                                 abs=1e-12)


def test_metrics_scale_invariant():
    cm = np.array([[45, 5], [10, 40]])
    assert kappa(cm * 9) == pytest.approx(kappa(cm), abs=1e-12)
    assert overall_accuracy(cm * 9) == pytest.approx(overall_accuracy(cm),
                                                     abs=1e-12)


def test_kappa_exact_rationals():
    # integer evaluation keeps exactly representable results exact
    assert kappa([[45, 5], [10, 40]]) == 0.7
    assert kappa([[2, 1], [1, 2]]) == pytest.approx(1 / 3, abs=1e-16)


def test_align_swapped_labels():
    truth = np.array([0, 0, 1, 1, 2])
    pred = np.array([1, 1, 0, 0, 2])
    np.testing.assert_array_equal(align_labels(pred, truth), truth)


def test_align_identity():
    truth = np.array([0, 1, 0, 2, 1])
    np.testing.assert_array_equal(align_labels(truth, truth), truth)


def test_align_matches_enumerated_best():
    # small random maps: at 6-8 classes a greedy matching misses the best
    # permutation on some of these
    rng = np.random.default_rng(3)
    for k in (3, 3, 6, 6, 7, 7, 8, 8):
        truth = rng.integers(0, k, 60)
        pred = rng.integers(0, k, 60)
        aligned = align_labels(pred, truth)
        best = -1
        for perm in itertools.permutations(range(k)):
            mapped = np.array(perm)[pred]
            best = max(best, int((mapped == truth).sum()))
        assert int((aligned == truth).sum()) == best, k


def test_align_never_decreases_diagonal():
    rng = np.random.default_rng(4)
    for k in (2, 5, 7):
        truth = rng.integers(0, k, 400)
        pred = rng.integers(0, k, 400)
        aligned = align_labels(pred, truth)
        before = int((pred == truth).sum())
        after = int((aligned == truth).sum())
        assert after >= before


def test_align_shape_mismatch():
    with pytest.raises(ValueError):
        align_labels(np.array([0, 1]), np.array([0, 1, 1]))


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), classes=st.integers(1, 10),
       seed=st.integers(0, 2**32 - 1))
def test_metrics_on_random_label_maps(h, w, classes, seed):
    """kappa lands in [-1, 1] or raises ValueError; accuracy is the
    agreeing fraction; alignment relabels and never loses agreement."""
    rng = np.random.default_rng(seed)
    pred, truth = rng.integers(0, classes, (2, h, w))
    cm = confusion(pred, truth)
    assert cm.sum() == h * w
    assert overall_accuracy(cm) == (pred == truth).mean()
    try:
        assert -1.0 <= kappa(cm) <= 1.0
    except ValueError:
        assert len(np.unique(pred)) == len(np.unique(truth)) == 1
    try:
        aligned = align_labels(pred, truth)
    except ValueError:
        assert max(pred.max(), truth.max()) + 1 > 8
        return
    assert aligned.shape == pred.shape
    assert (aligned == truth).sum() >= (pred == truth).sum()
    # a relabeling: equal predictions stay equal and distinct ones distinct
    pairs = set(zip(pred.ravel().tolist(), aligned.ravel().tolist()))
    assert len(pairs) == len({p for p, _ in pairs}) == len({a for _, a in pairs})
