"""Similarity-transform image registration by mutual information.

Transforms act about the image center: p' = s R(theta) (p - c) + c + t
with c = ((W-1)/2, (H-1)/2).  Registration runs a multi-start
Nelder-Mead descent on the negated generalized mutual information,
with a coarse first stage sized to the image (decimated to a short side
of about 64 px, with bins sized to that side), and reports NCCC and
control-point RMSE diagnostics alongside the recovered transform.  The
descent, ``_nelder_mead``, is an in-package port of scipy.optimize's
Nelder-Mead (Nelder and Mead 1965) that calls the objective at the same
points in the same order, so the search does not depend on the
installed scipy.

One bilinear warp, ``_Warp``, does all the resampling: ``transform_apply``,
``mi_objective`` and the MI evaluator that ``register`` prepares once per
image pair and pyramid level all run on it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# joint_histogram and mutual_information stay bound here for bench/run.py's tracer
from .entropy import (SHANNON, EntropyKind, _check_bins, _mutual_information,  # noqa: F401
                      joint_histogram, mutual_information)
from .raster import _MAX_BUFFER_BYTES, as_gray

__all__ = [
    "SimilarityTransform",
    "RegisterConfig",
    "RegistrationResult",
    "transform_apply",
    "nccc",
    "mi_objective",
    "register",
    "rmse_control_points",
    "default_control_points",
]

_SCALE_LO = 0.5
_SCALE_HI = 2.0
_MIN_OVERLAP = 0.10
_EDGE_TOL = 1e-9  # source coordinates this far outside the raster still count
_FAIL = 1e9  # objective value for starts without usable overlap
# register peaks at 82 B per pixel, measured: _Warp's float64 padded image,
# xs, ys, x0, y0, wx0 and wy0 (56 B), its intp index (8 B) and its two bool
# masks (2 B), and the evaluator's float64 reference offsets with their
# intp temporary (16 B).
_MAX_PIXELS = _MAX_BUFFER_BYTES // 82


def _check_size(shape) -> None:
    """Refuse, before any buffer is allocated, a raster over _MAX_PIXELS."""
    h, w = shape
    if h * w > _MAX_PIXELS:
        raise ValueError(f"a {h}x{w} raster has {h * w} pixels, over the "
                         f"{_MAX_PIXELS} pixel limit of the warp buffers")


@dataclass(frozen=True)
class SimilarityTransform:
    """Rigid motion plus isotropic scale: dx, dy pixels, theta radians."""

    dx: float = 0.0
    dy: float = 0.0
    theta: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        vals = (self.dx, self.dy, self.theta, self.scale)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite transform parameters {vals}")
        if not _SCALE_LO <= self.scale <= _SCALE_HI:
            raise ValueError(f"scale {self.scale} outside [{_SCALE_LO}, {_SCALE_HI}]")
        for name, v in zip(("dx", "dy", "theta", "scale"), vals):
            object.__setattr__(self, name, float(v))

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls()

    def as_vector(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.theta, self.scale])

    def apply(self, points, center=(0.0, 0.0)) -> np.ndarray:
        """Map (n, 2) xy points forward through the transform."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("expected points with shape (n, 2)")
        c = np.asarray(center, dtype=np.float64)
        cosr = self.scale * math.cos(self.theta)
        sinr = self.scale * math.sin(self.theta)
        rel = p - c
        out = np.empty_like(rel)
        out[:, 0] = cosr * rel[:, 0] - sinr * rel[:, 1]
        out[:, 1] = sinr * rel[:, 0] + cosr * rel[:, 1]
        return out + c + np.array([self.dx, self.dy])

    def inverse(self) -> "SimilarityTransform":
        """Exact inverse about the same center."""
        inv_s = 1.0 / self.scale
        cosr = inv_s * math.cos(self.theta)
        sinr = inv_s * math.sin(self.theta)
        return SimilarityTransform(
            dx=-(cosr * self.dx + sinr * self.dy),
            dy=-(-sinr * self.dx + cosr * self.dy),
            theta=-self.theta,
            scale=inv_s,
        )


@dataclass(frozen=True)
class RegisterConfig:
    """``register``'s settings, checked when built.

    ``bins`` is the full-resolution refinement's joint-histogram bin
    count, a divisor of 256; ``budget`` caps the objective evaluations
    of the whole search, at least 200; ``restarts`` counts the seeded
    starts besides the identity one, at least 0.
    """

    bins: int = 64
    budget: int = 2000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_bins(self.bins)
        if self.budget < 200:
            raise ValueError(f"budget {self.budget} below minimum 200")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass(frozen=True)
class RegistrationResult:
    transform: SimilarityTransform
    mi_final: float
    nccc: float
    rmse: float  # nan unless a true transform was supplied
    evaluations: int
    runtime: float


class _Warp:
    """Inverse-mapped bilinear resampling of one image, prepared once.

    ``locate(T)`` maps each output pixel back into the image and marks it
    outside where its source lies more than ``_EDGE_TOL`` beyond the
    raster; ``sample()`` then reads every source at its coordinates
    clamped to the raster and returns the rounded samples.  The image is
    edge-padded by one row and column, so a sample on the last row or
    column reads the edge pixel as its second corner.  Both write into
    buffers reused across calls.  The input is a uint8 raster.
    """

    def __init__(self, img: np.ndarray):
        _check_size(img.shape)
        h, w = img.shape
        self.shape = (h, w)
        self.cx, self.cy = (w - 1) / 2.0, (h - 1) / 2.0
        self.relx = np.arange(w, dtype=np.float64)[None, :] - self.cx
        self.rely = np.arange(h, dtype=np.float64)[:, None] - self.cy
        padded = np.pad(img.astype(np.float64), ((0, 1), (0, 1)), mode="edge")
        flat = padded.ravel()
        # the four corners of a sample whose top-left corner has flat index i
        self.corners = (flat, flat[1:], flat[w + 1:], flat[w + 2:])
        self.xs, self.ys, self.x0, self.y0, self.wx0, self.wy0 = (
            np.empty((h, w)) for _ in range(6))
        self.index = np.empty((h, w), dtype=np.intp)
        self.outside, self.flag = (np.empty((h, w), dtype=bool) for _ in range(2))

    def locate(self, T: SimilarityTransform) -> int:
        """Fill the source coordinates and outside mask; return the inside count."""
        h, w = self.shape
        xs, ys, outside, flag = self.xs, self.ys, self.outside, self.flag
        inv = T.inverse()
        cosr = inv.scale * math.cos(inv.theta)
        sinr = inv.scale * math.sin(inv.theta)
        np.subtract(cosr * self.relx, sinr * self.rely, out=xs)
        xs += self.cx
        xs += inv.dx
        np.add(sinr * self.relx, cosr * self.rely, out=ys)
        ys += self.cy
        ys += inv.dy
        tol = _EDGE_TOL
        np.less(xs, -tol, out=outside)
        np.greater(xs, w - 1 + tol, out=flag)
        outside |= flag
        np.less(ys, -tol, out=flag)
        outside |= flag
        np.greater(ys, h - 1 + tol, out=flag)
        outside |= flag
        return outside.size - np.count_nonzero(outside)

    def sample(self) -> np.ndarray:
        """Rounded samples at the located sources, in a reused float64 buffer."""
        h, w = self.shape
        xs, ys = self.xs, self.ys
        # clamp, then split each coordinate c into its corner c0 and the
        # weights w0 = 1 - (c - c0) and w1 = 1 - w0, which overwrite c
        np.clip(xs, 0.0, w - 1.0, out=xs)
        np.clip(ys, 0.0, h - 1.0, out=ys)
        for c, c0, w0 in ((xs, self.x0, self.wx0), (ys, self.y0, self.wy0)):
            np.floor(c, out=c0)
            np.subtract(c, c0, out=c)
            np.subtract(1.0, c, out=w0)
            np.subtract(1.0, w0, out=c)
        wx0, wx1, wy0, wy1 = self.wx0, xs, self.wy0, ys
        # flat index of each sample's top-left corner in the padded image
        index = self.index
        y0 = self.y0
        y0 *= w + 1
        y0 += self.x0
        index[...] = y0
        v00, v01, v10, v11 = self.corners
        acc, term = self.x0, self.y0
        # indices are in range by construction; mode="clip" skips the check
        np.take(v00, index, out=acc, mode="clip")
        acc *= wy0
        acc *= wx0
        for v, wy, wx in ((v01, wy0, wx1), (v10, wy1, wx0), (v11, wy1, wx1)):
            np.take(v, index, out=term, mode="clip")
            term *= wy
            term *= wx
            acc += term
        # a sample is a convex combination of uint8 values: rint lands in [0, 255]
        np.rint(acc, out=acc)
        return acc


def transform_apply(img, T: SimilarityTransform) -> tuple[np.ndarray, np.ndarray]:
    """Warp an image by inverse-mapped bilinear resampling.

    Returns (warped uint8, validity mask); a pixel is invalid when its
    source location falls outside the input raster, and its value is
    read at the nearest point of the raster.
    """
    warp = _Warp(as_gray(img))
    warp.locate(T)
    return warp.sample().astype(np.uint8), ~warp.outside


def nccc(a, b, mask=None) -> float:
    """Pearson correlation of intensities over the valid pixels.

    Clamped to [-1, 1]; raises when either image is constant on the
    valid set (correlation undefined).
    """
    aa = as_gray(a).astype(np.float64)
    bb = as_gray(b).astype(np.float64)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch {aa.shape} vs {bb.shape}")
    if mask is None:
        va, vb = aa.ravel(), bb.ravel()
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != aa.shape:
            raise ValueError("mask shape mismatch")
        va, vb = aa[m], bb[m]
    if va.size < 2:
        raise ValueError("need at least 2 valid pixels")
    va = va - va.mean()
    vb = vb - vb.mean()
    na = math.sqrt(float(va @ va))
    nb = math.sqrt(float(vb @ vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("constant image on the valid set")
    return float(np.clip((va @ vb) / (na * nb), -1.0, 1.0))


def mi_objective(ref, moving, T: SimilarityTransform,
                 kind: EntropyKind = SHANNON, bins: int = 64) -> float:
    """Generalized MI between ref and the warped moving image.

    Computed over the overlap mask; raises when the overlap covers less
    than 10% of the raster.
    """
    r = as_gray(ref)
    m = as_gray(moving)
    if r.shape != m.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {m.shape}")
    mi = _MIEvaluator(r, m, kind, bins)(T)
    if mi is None:
        raise ValueError("insufficient overlap after transform")
    return mi


class _MIEvaluator:
    """``mi_objective`` for one fixed (ref, moving) pair, prepared once.

    Calls return the MI of T, or None where the overlap covers less than
    10% of the raster.  Set-up checks ``bins``, bins the reference and
    prepares the moving image's ``_Warp``.  A call warps, adds each
    sample's bin to its reference pixel's row offset and counts the
    joint histogram in a single ``bincount``, with the pixels outside the
    overlap in one extra trash bin.  Inputs are uint8 rasters of equal
    shape.
    """

    def __init__(self, ref: np.ndarray, moving: np.ndarray,
                 kind: EntropyKind, bins: int):
        self.bins = _check_bins(bins)
        self.kind = kind
        self.warp = _Warp(moving)
        # each reference pixel's row offset in the flattened joint histogram
        self.ref_offset = (((ref.astype(np.intp) * self.bins) >> 8)
                           * self.bins).astype(np.float64)

    def __call__(self, T: SimilarityTransform) -> float | None:
        warp = self.warp
        n_valid = warp.locate(T)
        if n_valid < _MIN_OVERLAP * warp.outside.size:
            return None
        acc = warp.sample()
        # The bin i * bins // 256 of the integer sample i is its scaled
        # value floored, exactly, since bins is a power of two; the joint
        # index is floored by the truncating cast, as every term is
        # nonnegative.
        acc *= self.bins / 256.0
        acc += self.ref_offset
        nb = self.bins * self.bins
        np.copyto(acc, nb, where=warp.outside)
        index = warp.index  # free once sample() has returned
        index[...] = acc
        counts = np.bincount(index.ravel(), minlength=nb + 1)
        joint = counts[:nb].reshape(self.bins, self.bins).astype(np.float64) / n_valid
        return _mutual_information(joint, self.kind)


def _decimate(a: np.ndarray) -> np.ndarray:
    """2x block-mean reduction, rounded back to uint8."""
    h2, w2 = a.shape[0] // 2, a.shape[1] // 2
    blk = a[:h2 * 2, :w2 * 2].astype(np.float64)
    blk = blk.reshape(h2, 2, w2, 2).mean(axis=(1, 3))
    return np.clip(np.rint(blk), 0, 255).astype(np.uint8)


def _coarse_stage(shape, bins: int) -> tuple[int, int]:
    """(halvings, bins) of ``register``'s first stage for an input shape.

    The stage halves the images as often as keeps its short side at
    least 64 px, and at least once from 64 px up; its bin count is the
    largest power of two at most a quarter of that side, in [2, bins].
    """
    short = min(shape)
    halvings = 0 if short < 64 else 1
    while short >> (halvings + 1) >= 64:
        halvings += 1
    quarter = (short >> halvings) // 4
    return halvings, min(bins, 1 << max(quarter.bit_length() - 1, 1))


def _simplex(x0: np.ndarray, steps) -> np.ndarray:
    sim = np.tile(x0, (5, 1))
    for i, s in enumerate(steps):
        sim[i + 1, i] += s
    return sim


def _nelder_mead(f, sim: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """Nelder-Mead from an (N+1, N) initial simplex; the final (sim, fsim).

    A port of scipy.optimize's ``_minimize_neldermead`` as ``register``
    uses it: an initial simplex, ``maxfev``, not adaptive and no bounds.
    It keeps scipy's coefficients, steps, convergence test and
    argsort/take sorts, so it calls f at the same points in the same
    order and ends on the same simplex.  It stops after ``maxfev`` calls
    of f, or once every vertex lies within ``xatol`` of the best in each
    coordinate and within ``fatol`` of its value.  f takes a vertex,
    which it must not modify, and returns a float.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.array(sim, dtype=np.float64)
    N = sim.shape[1]
    calls = 0

    def evaluate(x):
        nonlocal calls
        calls += 1
        return f(x)

    fsim = np.full((N + 1,), np.inf)
    for k in range(min(N + 1, maxfev)):
        fsim[k] = evaluate(sim[k])
    # scipy sorts twice here; the default argsort is not stable on every
    # CPU, so the second sort may reorder tied values
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while calls < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = evaluate(xr)
        if not fxr < fsim[0] and fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif calls < maxfev:  # scipy drops a step whose next call is over budget
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    # shrink toward the best vertex; scipy moves a vertex
                    # before the call that the budget may refuse
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        if calls == maxfev:
                            break
                        fsim[j] = evaluate(sim[j])
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim, fsim


def register(ref, moving, kind: EntropyKind = SHANNON,
             config: RegisterConfig = RegisterConfig(),
             true_transform: SimilarityTransform | None = None
             ) -> RegistrationResult:
    """Recover the similarity transform aligning moving onto ref.

    Multi-start Nelder-Mead on -MI: an identity start plus seeded
    restarts from dx,dy in [-10,10], theta in [-0.2,0.2], s in
    [0.8,1.25].  A coarse first stage (60% of budget) runs before the
    full-resolution refinement with ``config.bins`` bins.  Images at
    least 64 px on a side are halved for it as often as keeps its short
    side at least 64 px, and at least once; the stage's bin count is the
    largest power of two at most a quarter of its short side, in
    [2, ``config.bins``].  So 128- and 256-px inputs both get a 64-px,
    16-bin stage.
    Deterministic for fixed inputs and config; total objective
    evaluations never exceed the budget.  Each evaluation returns
    exactly ``-mi_objective(...)``, or a fixed penalty where the overlap
    is under 10% of the raster.

    Raises ValueError before the search for a constant ref or moving
    image, whose NCCC is undefined, and for rasters over _MAX_PIXELS
    (about 13 M) pixels; a bad ``bins``, budget or restart count is
    refused earlier, when its ``RegisterConfig`` is built.
    rmse in the result is nan unless true_transform is given; it is
    taken over ``default_control_points``, the four corners plus the
    center.
    """
    t_start = time.perf_counter()
    r = as_gray(ref)
    m = as_gray(moving)
    if r.shape != m.shape:
        raise ValueError(f"shape mismatch {r.shape} vs {m.shape}")
    _check_size(r.shape)
    if r.min() == r.max() or m.min() == m.max():
        # nccc of the result would raise this after the whole search
        raise ValueError("constant image on the valid set")

    rng = np.random.default_rng(config.seed)
    starts = [np.array([0.0, 0.0, 0.0, 1.0])]
    for _ in range(config.restarts):
        starts.append(np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                                rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.25)]))

    state = {"n": 0}

    def run_stage(ra, ma, stage_bins, cap, x0s, maxfev, steps, xatol, fatol):
        """Nelder-Mead from each start on one evaluator; the best usable point."""
        evaluate = _MIEvaluator(ra, ma, kind, stage_bins)
        best = {"val": np.inf, "vec": None}

        def objective(vec):
            state["n"] += 1
            s = min(max(float(vec[3]), _SCALE_LO), _SCALE_HI)
            T = SimilarityTransform(float(vec[0]), float(vec[1]), float(vec[2]), s)
            mi = evaluate(T)
            val = _FAIL if mi is None else -mi
            if val < best["val"] and val < _FAIL:
                best["val"] = val
                best["vec"] = np.array([vec[0], vec[1], vec[2], s])
            return val

        # once the cap is spent, later starts get no evaluations
        for x0 in x0s:
            _nelder_mead(objective, _simplex(x0, steps),
                         min(maxfev, cap - state["n"]), xatol, fatol)
        if best["vec"] is None:
            raise ValueError("insufficient overlap at every restart")
        return best

    # a decimated first stage sees shifts scaled by the zoom, which are
    # scaled back for the refinement; both scalings by powers of two are exact
    halvings, stage_bins = _coarse_stage(r.shape, config.bins)
    ra, ma = r, m
    for _ in range(halvings):
        ra, ma = _decimate(ra), _decimate(ma)
    zoom = 0.5 ** halvings
    steps = (2.0 * zoom, 2.0 * zoom) + ((0.04, 0.04) if halvings else (0.05, 0.05))
    coarse_cap = (config.budget * 3) // 5
    scaled = [x0 * np.array([zoom, zoom, 1.0, 1.0]) for x0 in starts]
    best_stage = run_stage(ra, ma, stage_bins, coarse_cap, scaled,
                           max(20, coarse_cap // len(starts)), steps, 1e-3, 1e-7)
    # refinement starts from the stage's best point, so it re-evaluates
    # that point first and best_full starts from the stage's value
    x1 = best_stage["vec"] * np.array([1.0 / zoom, 1.0 / zoom, 1.0, 1.0])
    best_full = run_stage(r, m, config.bins, config.budget, [x1],
                          max(1, config.budget - state["n"]), (0.5, 0.5, 0.01, 0.01),
                          1e-4, 1e-9)

    vec = best_full["vec"]
    T = SimilarityTransform(float(vec[0]), float(vec[1]), float(vec[2]), float(vec[3]))
    warped, valid = transform_apply(m, T)
    cc = nccc(r, warped, valid)
    rmse = float("nan")
    if true_transform is not None:
        h, w = r.shape
        rmse = rmse_control_points(T, true_transform,
                                   default_control_points(r.shape),
                                   center=((w - 1) / 2.0, (h - 1) / 2.0))
    return RegistrationResult(transform=T, mi_final=-float(best_full["val"]),
                              nccc=cc, rmse=rmse, evaluations=state["n"],
                              runtime=time.perf_counter() - t_start)


def default_control_points(shape) -> np.ndarray:
    """Four corners plus the center of an (h, w) raster, as xy."""
    h, w = int(shape[0]), int(shape[1])
    return np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0],
                     [w - 1.0, h - 1.0], [(w - 1) / 2.0, (h - 1) / 2.0]])


def rmse_control_points(T_est: SimilarityTransform, T_true: SimilarityTransform,
                        points, center=(0.0, 0.0)) -> float:
    """RMS distance between the two forward maps over the points."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if p.size == 0:
        raise ValueError("empty point list")
    d = T_est.apply(p, center) - T_true.apply(p, center)
    return float(np.sqrt((d * d).sum(axis=1).mean()))
