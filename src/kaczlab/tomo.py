"""Parallel-beam tomography: projection matrix generator and phantom.

Rays are traced through an N x N grid of unit pixels centered at the origin.
Each matrix row holds the intersection lengths of one ray with the pixels it
crosses; rows are grouped by angle, rays within an angle ordered by detector
offset.  Pixel columns are numbered column-major: pixel (gx, gy) maps to
column gx * N + gy, matching ``image.flatten(order="F")`` for an image array
indexed ``image[gy, gx]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry
from .matrix import build_matrix

__all__ = ["TomoSpec", "gen_paralleltomo", "phantom_image"]

_EPS_DIR = 1e-12
_EPS_LEN = 1e-12


@dataclass(frozen=True)
class TomoSpec:
    """Geometry of a 2-D parallel-beam scan.

    size: image side length in pixels (N); the matrix has size**2 columns.
    angles: projection angles in degrees.
    rays: parallel rays per angle (p); the matrix has rays * len(angles) rows.
    """

    size: int
    angles: tuple[float, ...]
    rays: int

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    @property
    def n_rows(self) -> int:
        return self.rays * len(self.angles)

    @property
    def n_cols(self) -> int:
        return self.size * self.size


def _ray_offsets(size: int, rays: int) -> np.ndarray:
    # span size - 1 keeps every ray strictly inside the grid at every angle
    if rays == 1:
        return np.zeros(1)
    half = (size - 1) / 2.0
    return np.linspace(-half, half, rays)


def phantom_image(size: int) -> np.ndarray:
    """Deterministic piecewise-constant phantom: three concentric disks."""
    half = size / 2.0
    coords = np.arange(size) + 0.5 - half  # pixel centers
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    rr = np.sqrt(gx * gx + gy * gy)
    img = np.zeros((size, size))
    for frac, value in ((0.85, 0.35), (0.55, 0.70), (0.25, 1.00)):
        img[rr <= frac * half] = value
    return img


def gen_paralleltomo(spec: TomoSpec):
    """Build the projection matrix and the flattened phantom.

    Returns ``(mat, x_true)`` with ``x_true`` the phantom flattened
    column-major.  No row is zero: the ray offsets span [-(N-1)/2, (N-1)/2],
    so every ray passes within (N-1)/2 of the centre, inside the grid's
    inscribed circle of radius N/2, on a chord through that circle at least
    sqrt(2N - 1) long.  A pixel no ray touches (a sparse geometry) is a
    zero column and fails matrix construction with ``ZeroRowOrColumn``.  A
    size below 2, no rays, no angles or a non-finite angle raises
    ``DegenerateGeometry``.
    """
    n = spec.size
    if (n < 2 or spec.rays < 1 or len(spec.angles) < 1
            or not np.all(np.isfinite(spec.angles))):
        raise DegenerateGeometry(
            f"need size >= 2, rays >= 1 and at least one angle, all finite, got {spec}"
        )
    half = n / 2.0
    offsets = _ray_offsets(n, spec.rays)
    grid = np.arange(n + 1) - half  # pixel boundary lines on both axes

    rows_acc = []
    cols_acc = []
    vals_acc = []
    for a_idx, angle in enumerate(spec.angles):
        theta = np.deg2rad(angle)
        dx, dy = np.cos(theta), np.sin(theta)
        # ray k passes through offset * (normal) with direction (dx, dy)
        cx = offsets * -np.sin(theta)
        cy = offsets * np.cos(theta)

        # entry/exit parameters of each ray against the bounding square; a
        # ray parallel to an axis lies inside that axis's slab (|c| <= (N-1)/2)
        # and so is bounded by the other axis alone
        t_lo = np.full(spec.rays, -np.inf)
        t_hi = np.full(spec.rays, np.inf)
        crossings = []
        for d, c in ((dx, cx), (dy, cy)):
            if abs(d) > _EPS_DIR:
                t_a = (-half - c) / d
                t_b = (half - c) / d
                t_lo = np.maximum(t_lo, np.minimum(t_a, t_b))
                t_hi = np.minimum(t_hi, np.maximum(t_a, t_b))
                crossings.append((grid[None, :] - c[:, None]) / d)

        parts = [t_lo[:, None], t_hi[:, None]]
        for cr in crossings:
            parts.append(np.clip(cr, t_lo[:, None], t_hi[:, None]))
        ts = np.sort(np.concatenate(parts, axis=1), axis=1)
        seg = np.diff(ts, axis=1)
        mid = ts[:, :-1] + 0.5 * seg
        px = np.clip(np.floor(cx[:, None] + mid * dx + half), 0, n - 1).astype(np.int64)
        py = np.clip(np.floor(cy[:, None] + mid * dy + half), 0, n - 1).astype(np.int64)
        keep = seg > _EPS_LEN
        ray_ids, _ = np.nonzero(keep)
        rows_acc.append(a_idx * spec.rays + ray_ids)
        cols_acc.append(px[keep] * n + py[keep])
        vals_acc.append(seg[keep])

    rows = np.concatenate(rows_acc)
    cols = np.concatenate(cols_acc)
    vals = np.concatenate(vals_acc)

    mat = build_matrix((rows, cols, vals), shape=(spec.n_rows, spec.n_cols))
    x_true = phantom_image(spec.size).flatten(order="F")
    return mat, x_true


def _as_image(x: np.ndarray, size: int) -> np.ndarray:
    """Inverse of the column-major flattening used by the generator."""
    return np.asarray(x).reshape((size, size), order="F")


def reconstruction_image(x: np.ndarray, size: int) -> np.ndarray:
    """Pixel vector to a displayable image (y axis pointing up)."""
    return _as_image(x, size)[::-1, :]
