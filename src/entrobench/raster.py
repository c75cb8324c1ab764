"""Raster I/O, synthetic scene generation, and pre-processing.

All rasters are single-band 8-bit grayscale, held as 2-D uint8 numpy
arrays in row-major order.  Multiband data is passed around as a list of
co-registered rasters.  Scene generation, noise injection, and filtering
are pure functions of their inputs and seed.  The 3x3 median is a
compare-exchange network on uint8 (Paeth 1990), the same values as
scipy.ndimage.median_filter with mode "nearest".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PgmError",
    "Region",
    "SceneSpec",
    "as_gray",
    "decode_pgm",
    "encode_pgm",
    "generate_scene",
    "add_salt_pepper",
    "median_filter_3x3",
]

_WS = frozenset(b" \t\n\r\x0b\x0c")
# the most that one raster operation's working buffers may take;
# registration and clustering size their limits from it as well
_MAX_BUFFER_BYTES = 1 << 30
# median_filter_3x3 peaks at 12 B per pixel, measured: the padded copy
# and the network's live uint8 temporaries
_MAX_FILTER_PIXELS = _MAX_BUFFER_BYTES // 12
# generate_scene peaks at 46 B per pixel, measured on the five-region
# layout: int32 labels, a polygon test's float64 grids, and the float64
# noise and values
_MAX_SCENE_PIXELS = _MAX_BUFFER_BYTES // 46


class PgmError(ValueError):
    """Malformed PGM data.  The byte offset of the offending data is kept
    in ``offset`` and appended to the message."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def as_gray(img) -> np.ndarray:
    """Validate an object as a 2-D uint8 raster and return it as such.

    Integer arrays with values inside [0, 255] are converted; anything
    else raises ValueError.
    """
    a = np.asarray(img)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a non-empty 2-D raster, got shape {a.shape}")
    if a.dtype == np.uint8:
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"expected integer intensities, got dtype {a.dtype}")
    if a.min() < 0 or a.max() > 255:
        raise ValueError("intensities outside [0, 255]")
    return a.astype(np.uint8)


def _next_token(data: bytes, pos: int):
    """Scan the next whitespace-delimited token from ``pos``.

    Comments run from '#' to end of line.  Returns (token, start, end)
    or None when the data is exhausted.
    """
    n = len(data)
    i = pos
    while i < n:
        b = data[i]
        if b in _WS:
            i += 1
        elif b == 0x23:  # '#' comment, runs to end of line
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
        else:
            start = i
            while i < n and data[i] not in _WS and data[i] != 0x23:
                i += 1
            return data[start:i], start, i
    return None


def _header_int(data: bytes, pos: int, what: str, lo: int, hi: int):
    tok = _next_token(data, pos)
    if tok is None:
        raise PgmError(f"missing {what}", len(data))
    text, start, end = tok
    try:
        value = int(text)
    except ValueError:
        raise PgmError(f"invalid {what} {text!r}", start) from None
    if not lo <= value <= hi:
        raise PgmError(f"{what} {value} out of range [{lo}, {hi}]", start)
    return value, start, end


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode PGM bytes (binary "P5" or ASCII "P2") into a uint8 raster.

    Only maxval 255 is accepted.  '#' comments may appear between header
    tokens.  Every failure raises PgmError carrying the byte offset where
    parsing stopped.

    Parameters
    ----------
    data : bytes
        Complete PGM file contents.

    Returns
    -------
    numpy.ndarray
        Decoded (height, width) uint8 image.
    """
    data = bytes(data)
    tok = _next_token(data, 0)
    if tok is None:
        raise PgmError("empty PGM data", 0)
    magic, start, pos = tok
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"bad magic {magic!r}, expected P5 or P2", start)
    width, _, pos = _header_int(data, pos, "width", 1, 1 << 20)
    height, _, pos = _header_int(data, pos, "height", 1, 1 << 20)
    maxval, mstart, pos = _header_int(data, pos, "maxval", 0, 1 << 20)
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 255", mstart)
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or data[pos] not in _WS:
            raise PgmError("missing whitespace after maxval", min(pos, len(data)))
        pos += 1
        if len(data) - pos < count:
            raise PgmError(
                f"truncated payload: expected {count} bytes, got {len(data) - pos}",
                len(data),
            )
        img = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        # every sample takes a separator and a digit: refuse a header
        # that the data cannot fill before allocating for it
        if len(data) - pos < 2 * count:
            raise PgmError(
                f"truncated payload: expected {count} samples, room for at most "
                f"{(len(data) - pos) // 2}",
                len(data),
            )
        img = np.empty(count, dtype=np.uint8)
        for k in range(count):
            tok = _next_token(data, pos)
            if tok is None:
                raise PgmError(
                    f"truncated payload: expected {count} samples, got {k}",
                    len(data),
                )
            text, start, pos = tok
            try:
                value = int(text)
            except ValueError:
                raise PgmError(f"invalid sample {text!r}", start) from None
            if not 0 <= value <= 255:
                raise PgmError(f"sample {value} out of range [0, 255]", start)
            img[k] = value
    return img.reshape(height, width).copy()


def encode_pgm(img) -> bytes:
    """Encode a raster as binary PGM ("P5", maxval 255).

    decode_pgm inverts this bit-exactly.
    """
    a = as_gray(img)
    h, w = a.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + a.tobytes()


@dataclass(frozen=True)
class Region:
    """One scene region: axis-aligned rectangle or simple polygon.

    Geometry is given in fractional raster coordinates so a spec renders
    at any size.  Exactly one of ``rect`` (x0, y0, x1, y1) or ``polygon``
    (vertex list) must be set.  Regions paint in list order, later ones
    over earlier ones.
    """

    mean: float
    noise_std: float = 0.0
    rect: tuple[float, float, float, float] | None = None
    polygon: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if (self.rect is None) == (self.polygon is None):
            raise ValueError("set exactly one of rect or polygon")
        if not 0.0 <= self.mean <= 255.0:
            raise ValueError(f"region mean {self.mean} outside [0, 255]")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise std must be nonnegative and finite, "
                             f"got {self.noise_std!r}")
        if self.polygon is not None and len(self.polygon) < 3:
            raise ValueError("polygon needs at least 3 vertices")


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene layout: a raster covered by labeled regions."""

    width: int
    height: int
    regions: tuple[Region, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.width * self.height > _MAX_SCENE_PIXELS:
            raise ValueError(f"a {self.height}x{self.width} scene has "
                             f"{self.width * self.height} pixels, over the "
                             f"{_MAX_SCENE_PIXELS} pixel limit of the scene buffers")
        if len(self.regions) < 2:
            raise ValueError("a scene needs at least 2 regions")
        means = [r.mean for r in self.regions]
        if len(set(means)) != len(means):
            raise ValueError("region means must be pairwise distinct")


def _region_mask(region: Region, width: int, height: int) -> np.ndarray:
    if region.rect is not None:
        x0, y0, x1, y1 = region.rect
        cols = np.arange(width)
        rows = np.arange(height)
        inx = (cols >= x0 * width) & (cols < x1 * width)
        iny = (rows >= y0 * height) & (rows < y1 * height)
        return iny[:, None] & inx[None, :]
    verts = np.asarray(region.polygon, dtype=np.float64) * [width, height]
    px, py = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))
    inside = np.zeros((height, width), dtype=bool)
    n = len(verts)
    # even-odd crossing test against pixel centers
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        crosses = (py < y0) != (py < y1)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (px < xint)
    return inside


def generate_scene(spec: SceneSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Render a SceneSpec to an image and its true label map.

    Pixel intensity = region mean + seeded Gaussian noise, rounded to the
    nearest integer and clamped to [0, 255].

    Returns
    -------
    (image, labels)
        uint8 image and uint8 per-pixel region labels.

    Raises
    ------
    ValueError
        If the regions leave any pixel uncovered.
    """
    labels = np.full((spec.height, spec.width), -1, dtype=np.int32)
    for idx, region in enumerate(spec.regions):
        labels[_region_mask(region, spec.width, spec.height)] = idx
    if (labels < 0).any():
        raise ValueError("regions do not cover the raster")
    means = np.array([r.mean for r in spec.regions], dtype=np.float64)
    stds = np.array([r.noise_std for r in spec.regions], dtype=np.float64)
    rng = np.random.default_rng(seed)
    values = means[labels] + rng.standard_normal(labels.shape) * stds[labels]
    img = np.clip(np.rint(values), 0, 255).astype(np.uint8)
    return img, labels.astype(np.uint8)


def add_salt_pepper(img, density: float, seed: int) -> np.ndarray:
    """Replace each pixel by 0 or 255 (equal odds) with probability density."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    a = as_gray(img).copy()
    rng = np.random.default_rng(seed)
    hit = rng.random(a.shape) < density
    salt = rng.random(a.shape) < 0.5
    a[hit & salt] = 255
    a[hit & ~salt] = 0
    return a


# Paeth's 19-exchange network: after these compare-exchanges, in order,
# slot 4 holds the median of the 9 slots (Graphics Gems, 1990)
_MEDIAN9_NETWORK = ((1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7),
                    (1, 2), (4, 5), (7, 8), (0, 3), (5, 8), (4, 7),
                    (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
                    (4, 2))


def _median9(p: list) -> np.ndarray:
    """Elementwise median of 9 equal-shape arrays, by the network."""
    p = list(p)
    for i, j in _MEDIAN9_NETWORK:
        p[i], p[j] = np.minimum(p[i], p[j]), np.maximum(p[i], p[j])
    return p[4]


def median_filter_3x3(img) -> np.ndarray:
    """3x3 median filter with edge replication at the borders.

    Refuses, before any buffer is allocated, a raster over
    _MAX_FILTER_PIXELS (about 89 M) pixels.
    """
    a = as_gray(img)
    h, w = a.shape
    if h * w > _MAX_FILTER_PIXELS:
        raise ValueError(f"a {h}x{w} raster has {h * w} pixels, over the "
                         f"{_MAX_FILTER_PIXELS} pixel limit of the filter buffers")
    pad = np.pad(a, 1, mode="edge")
    return _median9([pad[i:i + h, j:j + w] for i in range(3) for j in range(3)])
