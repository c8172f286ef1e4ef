"""Encode poses as 16-channel Gaussian heatmaps and decode peaks back.

Arrays are (C, D, H, W) with axes (channel, z, y, x); coordinates are
(x, y, z) in mm with voxel centers at integer-index * spacing. A landmark at
continuous voxel position p produces exp(-|v - p|^2 / (2 sigma^2)) at voxel
v (distances in voxels); values below 1e-4 are truncated to zero, so each
channel is a compact blob. Decoding takes the global argmax (ties: lowest
linear index) and refines it with an intensity-weighted centroid over a
window, which recovers sub-voxel positions of symmetric blobs. The centroid
weights are the window values with the window floor subtracted, cubed: a
plain centroid is dragged toward the window center by the truncated Gaussian
tails (worst case over half a voxel at sigma 2), while the sharpened
weighting stays within a tenth of a voxel and remains scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from volpose.anatomy import NUM_LANDMARKS

TRUNCATION = 1e-4
WINDOW = 5                  # centroid window, voxels per side
CONFIDENCE_FLOOR = 0.1      # a peak below it leaves its landmark invalid


class HeatmapError(ValueError):
    pass


@dataclass
class DecodedPose:
    """Landmark coordinates in mm with per-landmark peak confidences."""

    xyz_mm: np.ndarray                 # (16, 3)
    confidence: np.ndarray             # (16,)
    present: np.ndarray                # (16,) bool, peak >= confidence floor
    voxels: np.ndarray = field(default=None, repr=False)  # (16, 3) float voxel coords


def _as_spacing(spacing) -> np.ndarray:
    s = np.asarray(spacing, dtype=np.float64)
    if s.ndim == 0:
        s = np.repeat(s, 3)
    if s.shape != (3,) or np.any(s <= 0):
        raise HeatmapError(f"spacing must be a positive scalar or 3-vector, got {spacing}")
    return s


def encode_channel(
    point_vox: np.ndarray,
    shape: tuple[int, int, int],
    sigma_vox: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Truncated Gaussian blob around a continuous voxel position (x, y, z).

    Out-of-bounds positions contribute whatever part of the blob intersects
    the grid (possibly nothing).
    """
    nz, ny, nx = shape
    if out is None:
        out = np.zeros(shape, dtype=np.float32)
    px, py, pz = float(point_vox[0]), float(point_vox[1]), float(point_vox[2])
    # radius beyond which the Gaussian falls under the truncation threshold
    radius = sigma_vox * np.sqrt(-2.0 * np.log(TRUNCATION))
    zlo, zhi = max(0, int(np.ceil(pz - radius))), min(nz - 1, int(np.floor(pz + radius)))
    ylo, yhi = max(0, int(np.ceil(py - radius))), min(ny - 1, int(np.floor(py + radius)))
    xlo, xhi = max(0, int(np.ceil(px - radius))), min(nx - 1, int(np.floor(px + radius)))
    if zlo > zhi or ylo > yhi or xlo > xhi:
        return out
    zz = (np.arange(zlo, zhi + 1, dtype=np.float64) - pz) ** 2
    yy = (np.arange(ylo, yhi + 1, dtype=np.float64) - py) ** 2
    xx = (np.arange(xlo, xhi + 1, dtype=np.float64) - px) ** 2
    d2 = zz[:, None, None] + yy[None, :, None] + xx[None, None, :]
    blob = np.exp(-d2 / (2.0 * sigma_vox**2))
    blob[blob < TRUNCATION] = 0.0
    region = out[zlo : zhi + 1, ylo : yhi + 1, xlo : xhi + 1]
    np.maximum(region, blob.astype(out.dtype), out=region)
    return out


def check_in_grid(vox: np.ndarray, shape: tuple[int, int, int], present=None) -> None:
    """Raise for the first landmark, in index order, whose voxel position
    (x, y, z) is not finite or lies outside the grid ``shape`` (z, y, x). A
    landmark masked out by ``present`` is not checked."""
    nz, ny, nx = shape
    bounds = np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
    for j in range(NUM_LANDMARKS):
        if present is not None and not present[j]:
            continue
        if not np.all((vox[j] >= 0) & (vox[j] <= bounds)):
            raise HeatmapError(
                f"landmark {j + 1} at voxel {vox[j].round(2)} is outside grid {(nx, ny, nz)}"
            )


def encode(
    xyz_mm: np.ndarray,
    shape: tuple[int, int, int],
    spacing,
    sigma_vox: float,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """16-channel Gaussian stack for a pose given in mm.

    A landmark masked out by ``present`` gets an all-zero channel and is not
    checked. Raises, through ``check_in_grid``, if any other landmark falls
    outside the grid; proxy construction, which tolerates out-of-bounds
    landmarks, goes through ``encode_channel``.
    """
    if sigma_vox <= 0:
        raise HeatmapError(f"sigma_vox must be positive, got {sigma_vox}")
    xyz_mm = np.asarray(xyz_mm, dtype=np.float64)
    if xyz_mm.shape != (NUM_LANDMARKS, 3):
        raise HeatmapError(f"pose must be ({NUM_LANDMARKS}, 3), got {xyz_mm.shape}")
    vox = xyz_mm / _as_spacing(spacing)
    check_in_grid(vox, shape, present)
    stack = np.zeros((NUM_LANDMARKS, *shape), dtype=np.float32)
    for j in range(NUM_LANDMARKS):
        if present is None or present[j]:
            encode_channel(vox[j], shape, sigma_vox, out=stack[j])
    return stack


def check_decode(window: int, confidence_floor: float) -> None:
    """The centroid window must be an odd number of voxels, at least 1, and
    the confidence floor a finite number."""
    if window < 1 or window % 2 == 0:
        raise HeatmapError(f"window must be an odd integer >= 1, got {window}")
    if not np.isfinite(confidence_floor):
        raise HeatmapError(f"confidence floor must be finite, got {confidence_floor}")


def decode_voxels(
    stack: np.ndarray,
    window: int = WINDOW,
    confidence_floor: float = CONFIDENCE_FLOOR,
) -> DecodedPose:
    """Peak extraction in voxel coordinates (x, y, z), spacing-agnostic."""
    check_decode(window, confidence_floor)
    c, nz, ny, nx = stack.shape
    half = window // 2
    coords = np.zeros((c, 3), dtype=np.float64)
    conf = np.zeros(c, dtype=np.float64)
    present = np.zeros(c, dtype=bool)
    for j in range(c):
        chan = stack[j]
        flat_idx = int(np.argmax(chan))  # ties -> lowest linear index
        iz, iy, ix = np.unravel_index(flat_idx, chan.shape)
        peak = float(chan[iz, iy, ix])
        conf[j] = peak
        present[j] = peak >= confidence_floor
        zlo, zhi = max(0, iz - half), min(nz - 1, iz + half)
        ylo, yhi = max(0, iy - half), min(ny - 1, iy + half)
        xlo, xhi = max(0, ix - half), min(nx - 1, ix + half)
        region = np.asarray(chan[zlo : zhi + 1, ylo : yhi + 1, xlo : xhi + 1], dtype=np.float64)
        # floor-subtract then cube: de-biases the truncated-tail pedestal and
        # clamps any negative raw network output
        weights = np.maximum(region - region.min(), 0.0) ** 3
        total = weights.sum()
        if total <= 0.0:
            coords[j] = (ix, iy, iz)
            continue
        zs, ys, xs = np.meshgrid(
            np.arange(zlo, zhi + 1), np.arange(ylo, yhi + 1), np.arange(xlo, xhi + 1),
            indexing="ij",
        )
        coords[j] = (
            float((weights * xs).sum() / total),
            float((weights * ys).sum() / total),
            float((weights * zs).sum() / total),
        )
    return DecodedPose(coords, conf, present, voxels=coords.copy())


def decode(
    stack: np.ndarray,
    spacing,
    window: int = WINDOW,
    confidence_floor: float = CONFIDENCE_FLOOR,
) -> DecodedPose:
    """Decode to mm: voxel peak coordinates scaled by the voxel spacing."""
    s = _as_spacing(spacing)
    dec = decode_voxels(stack, window=window, confidence_floor=confidence_floor)
    dec.xyz_mm = dec.voxels * s[None, :]
    return dec
