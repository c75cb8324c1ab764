"""Kernel entropy clustering of a five-region scene.

Subsamples the raster, runs CEF-descent clustering, paints labels back
onto the full raster, and scores agreement with the region truth.  The
per-pass CEF trace is printed to show monotone descent.
"""

import numpy as np

from entrobench import (
    align_labels,
    assignment_to_labelmap,
    cluster,
    confusion,
    extract_features,
    kappa,
    median_filter_3x3,
    overall_accuracy,
    silverman_sigma,
)
from entrobench.scenes import named_scene


def main():
    img, truth = named_scene("five-region", 128, 128, noise=8.0, seed=0)
    img = median_filter_3x3(img)
    xs = extract_features([img], stride=4)
    sigma = silverman_sigma(xs)
    print(f"samples: {xs.features.shape[0]}  sigma (Silverman): {sigma:.5f}")

    trace = {}
    a, score = cluster(xs, k=5, sigma=sigma, seed=0, restarts=2, trace=trace)
    print(f"best CEF: {score:.6f}")
    for r, path in sorted(trace.items()):
        head = ", ".join(f"{v:.4f}" for v in path[:3])
        print(f"restart {r}: {len(path)} passes  CEF {head} ... {path[-1]:.4f}"
              f"  monotone={all(b <= a_ + 1e-12 for a_, b in zip(path, path[1:]))}")

    labelmap = assignment_to_labelmap(a, xs)
    pred = align_labels(labelmap, truth)
    print()
    cm = confusion(pred, truth)
    print(f"kappa={kappa(cm):.4f}  overall accuracy={overall_accuracy(cm):.4f}")
    sizes = np.bincount(pred.ravel(), minlength=5)
    want = np.bincount(truth.ravel(), minlength=5)
    print(f"{'class':<8}{'predicted':>10}{'truth':>10}")
    for c in range(5):
        print(f"{c:<8}{sizes[c]:>10}{want[c]:>10}")


if __name__ == "__main__":
    main()
