"""Multilevel thresholding of a synthetic five-region scene.

Sweeps the threshold count for each entropy criterion through the
harness's threshold cell, scoring the resulting segmentations against
the known region truth with kappa.  The search is exact for the
additive criteria (Shannon, Renyi, cross entropy) at every level and
exact for Tsallis up to 3 thresholds; the seeded evolution strategy
runs only for Tsallis at levels 4-5.
"""

import numpy as np

from entrobench import (
    EntropyKind,
    SHANNON,
    align_labels,
    apply_thresholds,
    confusion,
    histogram,
    kappa,
    median_filter_3x3,
)
from entrobench.harness import ThresholdParams, run_threshold_cell
from entrobench.scenes import named_scene
from entrobench.thresholding import Criterion, exhaustive_search, heuristic_search


def label(kd):
    return kd.name if kd.param is None else f"{kd.name}:{kd.param:g}"


def main():
    img, truth = named_scene("five-region", 128, 128, noise=8.0, seed=0)
    img = median_filter_3x3(img)
    hist = histogram(img)

    kinds = [SHANNON, EntropyKind.renyi(2.0), EntropyKind.tsallis(2.0)]
    print("kappa against the 5-region truth, by criterion and level count")
    print(f"{'criterion':<16}" + "".join(f"{'k=' + str(k):>8}" for k in (1, 2, 3, 4, 5)))
    for kd in kinds:
        cells = []
        for k in (1, 2, 3, 4, 5):
            rows = run_threshold_cell(img, truth, kd, ThresholdParams(), k, 0, "five")
            cells.append(f"{rows[0].value:.3f}")
        print(f"{label(kd):<16}" + "".join(f"{c:>8}" for c in cells))

    print()
    print("cross-entropy criterion (minimized; searches still return the tuple)")
    crit = Criterion.cross_entropy()
    for k in (1, 2, 3):
        thr, val = exhaustive_search(hist, k, crit)
        pred = align_labels(apply_thresholds(img, thr), truth)
        print(f"k={k}  thresholds={thr}  value={val:.6g}  kappa={kappa(confusion(pred, truth)):.3f}")

    print()
    print("heuristic vs exhaustive at k=3 (same optimum expected)")
    crit = Criterion.max_entropy(EntropyKind.renyi(2.0))
    t_ex, v_ex = exhaustive_search(hist, 3, crit)
    t_h, v_h = heuristic_search(hist, 3, crit, seed=0, budget=5000)
    print(f"exhaustive {t_ex} value={v_ex:.9f}")
    print(f"heuristic  {t_h} value={v_h:.9f}  gap={abs(v_ex - v_h):.2e}")


if __name__ == "__main__":
    main()
