"""Named synthetic scene builders for benchmarks and demos.

Scenes are region layouts with well-separated mean intensities, so
dense ground-truth labels come for free from the generator.  Region
order is ascending in mean intensity, which makes the label maps
directly comparable with intensity-ordered thresholding output.
"""

from __future__ import annotations

import numpy as np

from .raster import Region, SceneSpec, generate_scene
from .registration import SimilarityTransform, _check_size, transform_apply

__all__ = [
    "SCENE_NAMES",
    "two_region_spec",
    "five_region_spec",
    "scene_spec",
    "named_scene",
    "scene_pair",
]

_PAIR_MARGIN = 40  # canvas border so warped content never samples padding


def two_region_spec(width: int = 256, height: int = 256,
                    noise: float = 8.0) -> SceneSpec:
    """Full dark frame with a bright right half."""
    return SceneSpec(width, height, (
        Region(mean=60, noise_std=noise, rect=(0.0, 0.0, 1.0, 1.0)),
        Region(mean=190, noise_std=noise, rect=(0.5, 0.0, 1.0, 1.0)),
    ))


def five_region_spec(width: int = 256, height: int = 256,
                     noise: float = 8.0) -> SceneSpec:
    """Dark frame with four figures, means 50 gray levels apart."""
    return SceneSpec(width, height, (
        Region(mean=30, noise_std=noise, rect=(0.0, 0.0, 1.0, 1.0)),
        Region(mean=80, noise_std=noise,
               polygon=((0.08, 0.06), (0.46, 0.10), (0.22, 0.44))),
        Region(mean=130, noise_std=noise, rect=(0.55, 0.08, 0.93, 0.42)),
        Region(mean=180, noise_std=noise, rect=(0.07, 0.56, 0.44, 0.93)),
        Region(mean=230, noise_std=noise,
               polygon=((0.54, 0.54), (0.92, 0.60), (0.86, 0.93), (0.58, 0.87))),
    ))


_BUILDERS = {
    "two-region": two_region_spec,
    "five-region": five_region_spec,
}

SCENE_NAMES = tuple(sorted(_BUILDERS))


def scene_spec(name: str, width: int = 256, height: int = 256,
               noise: float = 8.0) -> SceneSpec:
    if name not in _BUILDERS:
        raise ValueError(f"unknown scene {name!r}; choose from {SCENE_NAMES}")
    return _BUILDERS[name](width, height, noise)


def _warp_shape(width: int, height: int, paired: bool) -> tuple[int, int]:
    """The (h, w) raster a scene's registration warps, refused if over the
    warp's pixel limit: the scene, or, paired, ``scene_pair``'s canvas."""
    m = 2 * _PAIR_MARGIN if paired else 0
    _check_size((height + m, width + m))
    return height + m, width + m


def named_scene(name: str, width: int = 256, height: int = 256,
                noise: float = 8.0, seed: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Render a named scene; returns (image, dense truth labels)."""
    return generate_scene(scene_spec(name, width, height, noise), seed)


def scene_pair(name: str, width: int = 256, height: int = 256,
               noise: float = 8.0, seed: int = 0, pair_seed: int = 0
               ) -> tuple[np.ndarray, np.ndarray, SimilarityTransform]:
    """Registration pair with a known ground-truth transform.

    A larger canvas is rendered once, warped by a seeded transform
    (|dx|,|dy| <= 5 px, |theta| <= 5 deg, s in [0.95, 1.1]), and both
    versions are center-cropped; the margin keeps every moving-image
    pixel sourced from real canvas content.  Equal margins preserve the
    transform parameters in crop coordinates, so the returned truth is
    exactly the transform registration should recover: the one mapping
    the moving image back onto the reference.  A canvas over the warp's
    pixel limit is refused before it is rendered.
    """
    h, w = _warp_shape(width, height, paired=True)
    canvas, _ = named_scene(name, w, h, noise, seed)
    rng = np.random.default_rng((pair_seed, 1))
    t_gen = SimilarityTransform(
        dx=rng.uniform(-5.0, 5.0),
        dy=rng.uniform(-5.0, 5.0),
        theta=rng.uniform(-np.deg2rad(5.0), np.deg2rad(5.0)),
        scale=rng.uniform(0.95, 1.1),
    )
    warped, _ = transform_apply(canvas, t_gen)
    m = _PAIR_MARGIN
    ref = canvas[m:m + height, m:m + width].copy()
    mov = warped[m:m + height, m:m + width].copy()
    return ref, mov, t_gen.inverse()
