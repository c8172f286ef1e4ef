"""Articulated soft-tube phantoms with exact 16-landmark ground truth.

A phantom is a jittered instance of a curled base figure: a head sphere, a
spine chain, and four limb chains rendered as Gaussian-profile tubes with
bright joint bumps, then degraded with multiplicative and additive noise and
optional zero-intensity shadow cones. The base figure is bilaterally
symmetric in appearance but chiral in geometry (limbs curl toward the
front), so left/right labels are determined by construction while local
appearance alone cannot tell the sides apart when the left-intensity offset
is zero. Raising ``left_intensity_offset`` brightens left-side limbs and
makes the symmetric landmarks progressively easier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from volpose import fileio
from volpose.anatomy import FLIP_PERMUTATION, LANDMARKS, NUM_LANDMARKS, SEGMENTS
from volpose.registration import Pose


class PhantomError(RuntimeError):
    pass


# Base figure in body frame, mm: +z toward the head, +y toward the front
# (limbs curl that way), +x the anatomical left. 1-based landmark indexing.
_BASE_POSITIONS = {
    1: (0.0, 3.0, 21.0),     # head_top
    2: (0.0, 0.0, 13.0),     # neck
    3: (0.0, -2.0, 3.0),     # spine_mid
    4: (0.0, 1.0, -7.0),     # sacrum
    5: (6.5, 1.0, 11.0),     # l_shoulder
    6: (9.0, 7.0, 5.5),      # l_elbow
    7: (5.5, 12.0, 0.5),     # l_wrist
    8: (-6.5, 1.0, 11.0),    # r_shoulder
    9: (-9.0, 7.0, 5.5),     # r_elbow
    10: (-5.5, 12.0, 0.5),   # r_wrist
    11: (4.5, 2.0, -8.5),    # l_hip
    12: (7.0, 9.5, -4.5),    # l_knee
    13: (5.0, 14.0, -11.5),  # l_ankle
    14: (-4.5, 2.0, -8.5),   # r_hip
    15: (-7.0, 9.5, -4.5),   # r_knee
    16: (-5.0, 14.0, -11.5), # r_ankle
}

# segment class -> tube intensity, and tube radius in mm
_CLASS_AMPS = {
    "torso": 0.95,
    "arm": 0.80,
    "leg": 0.85,
}
_CLASS_RADII_MM = {
    "torso": 3.0,
    "arm": 2.2,
    "leg": 2.6,
}
_HEAD_RADIUS_MM = 5.5
_JOINT_BUMP_SCALE = 1.35             # bump radius vs tube radius
_JOINT_BUMP_AMP = 1.06               # uniform bump intensity

# per-case jitter of the base figure and its placement
_SCALE_RANGE = (0.92, 1.12)
_SPINE_JITTER_DEG = 7.0
_LIMB_JITTER_DEG = 11.0
_LENGTH_JITTER = 0.1                 # relative
_CENTER_JITTER_MM = 3.0
_BOUNDS_MARGIN_MM = 2.0              # beyond the widest tube radius
_MIN_JOINT_SEPARATION_MM = 4.0
_MAX_REJECTIONS = 100
_SHADOW_HALF_ANGLE_DEG = (10.0, 18.0)


def _segment_class(a: int, b: int) -> str:
    sides = {LANDMARKS[a - 1].side, LANDMARKS[b - 1].side}
    if sides == {"midline"}:
        return "torso"
    limb = LANDMARKS[b - 1] if LANDMARKS[b - 1].side != "midline" else LANDMARKS[a - 1]
    return "arm" if limb.index in (5, 6, 7, 8, 9, 10) else "leg"


@dataclass
class PhantomSpec:
    shape: tuple[int, int, int] = (64, 64, 64)      # (nz, ny, nx)
    spacing_mm: float = 1.0
    left_intensity_offset: float = 0.0               # 0 = hardest symmetry
    noise_multiplicative: float = 0.08
    noise_additive: float = 0.02
    shadow_probability: float = 0.08

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "shape"}
        if not np.all(np.isfinite(list(values.values()))):
            raise PhantomError(f"phantom spec values must be finite, got {values}")
        if min(self.shape) < 1 or self.spacing_mm <= 0:
            raise PhantomError(
                f"shape and spacing must be positive, got {tuple(self.shape)} and {self.spacing_mm}"
            )
        if not 0.0 <= self.shadow_probability <= 1.0:
            raise PhantomError(
                f"shadow probability must be in [0, 1], got {self.shadow_probability}"
            )
        if min(self.noise_multiplicative, self.noise_additive) < 0:
            raise PhantomError(
                f"noise levels must be >= 0, got {self.noise_multiplicative} "
                f"and {self.noise_additive}"
            )


@dataclass
class PhantomCase:
    volume: np.ndarray           # (z, y, x) float32
    pose: Pose                   # ground truth, mm
    spacing_mm: float
    provenance: dict = field(default_factory=dict)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, by the same float64 expressions in the
    same order, at a fraction of its call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _rotate_toward(rng: np.random.Generator, direction: np.ndarray, max_deg: float) -> np.ndarray:
    """Tilt a unit vector by a random angle up to max_deg about a random
    perpendicular axis."""
    angle = np.deg2rad(rng.uniform(0.0, max_deg))
    probe = rng.normal(size=3)
    axis = _cross(direction, probe)
    norm = np.linalg.norm(axis)
    if norm < 1e-9:
        return direction
    axis /= norm
    c, s = np.cos(angle), np.sin(angle)
    return c * direction + s * _cross(axis, direction)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _sample_skeleton(rng: np.random.Generator) -> np.ndarray:
    """Jittered joint positions (16, 3) in the body frame, centered."""
    pos = {1: np.zeros(3)}
    for a, b in SEGMENTS:
        base_vec = np.asarray(_BASE_POSITIONS[b]) - np.asarray(_BASE_POSITIONS[a])
        length = np.linalg.norm(base_vec)
        cls = _segment_class(a, b)
        cone = _SPINE_JITTER_DEG if cls == "torso" else _LIMB_JITTER_DEG
        direction = _rotate_toward(rng, base_vec / length, cone)
        length *= rng.uniform(1.0 - _LENGTH_JITTER, 1.0 + _LENGTH_JITTER)
        pos[b] = pos[a] + direction * length
    pts = np.stack([pos[j] for j in range(1, NUM_LANDMARKS + 1)])
    return pts - pts.mean(axis=0)


def render_tube(
    volume: np.ndarray,
    p0_mm: np.ndarray,
    p1_mm: np.ndarray,
    radius_mm: float,
    amplitude: float,
    spacing_mm: float,
) -> None:
    """Max-compose a Gaussian-profile capsule into (z, y, x) volume, in place.

    Intensity is amplitude * exp(-d^2 / (2 r^2)) with d the distance to the
    segment; contributions beyond 3 r are dropped.

    The box around the capsule is a separable grid: its voxel offsets from
    ``p0_mm`` are three 1-D vectors, ``rx`` along x, ``ry`` along y and
    ``rz`` along z, broadcast against each other, so no per-voxel stack of
    coordinates is built. With ``s`` the segment, every float64 operation
    runs in one fixed order::

        t  = clip(((rx*sx + ry*sy) + rz*sz) / (s . s), 0, 1)
        d2 = ((rx - t*sx)**2 + (ry - t*sy)**2) + (rz - t*sz)**2

    and ``d2 = (rx**2 + ry**2) + rz**2`` for a point. The ``exp`` runs over
    the whole C-contiguous box, so every element takes one SIMD path, and
    the ``d2 > (3 r)**2`` mask is applied after it.

    The bytes are those of the stacked form (``meshgrid``, an (N, 3) offset
    stack, ``tensordot`` and ``sum``), which the tests keep as a reference.
    Each term of ``d2`` is the same float64 operation on the same operands,
    added in the order a sum over the stack's x, y, z columns adds them.
    Only the dot product in ``t`` differs: the BLAS behind ``tensordot`` may
    fuse multiply-adds (OpenBLAS does), so its ``t`` and then ``d2`` can
    differ from these in the last float64 bit, in about one element in ten.
    That moves a voxel only where it straddles a float32 rounding step or
    the mask's edge, which no box element of 320 compared cases did. The
    order here does not depend on the BLAS build.
    """
    nz, ny, nx = volume.shape
    reach = 3.0 * radius_mm
    lo_mm = np.minimum(p0_mm, p1_mm) - reach
    hi_mm = np.maximum(p0_mm, p1_mm) + reach
    xlo, ylo, zlo = (max(0, int(np.floor(v / spacing_mm))) for v in lo_mm)
    xhi = min(nx - 1, int(np.ceil(hi_mm[0] / spacing_mm)))
    yhi = min(ny - 1, int(np.ceil(hi_mm[1] / spacing_mm)))
    zhi = min(nz - 1, int(np.ceil(hi_mm[2] / spacing_mm)))
    if xlo > xhi or ylo > yhi or zlo > zhi:
        return
    rx, ry, rz = _axis_offsets((xlo, ylo, zlo), (xhi, yhi, zhi), spacing_mm, p0_mm)
    seg = p1_mm - p0_mm
    seg_len2 = float(seg @ seg)
    sx, sy, sz = seg
    if seg_len2 < 1e-12:
        d2 = (rx**2 + ry**2) + rz**2
    else:
        t = np.clip(((rx * sx + ry * sy) + rz * sz) / seg_len2, 0.0, 1.0)
        d2 = ((rx - t * sx) ** 2 + (ry - t * sy) ** 2) + (rz - t * sz) ** 2
    blob = amplitude * np.exp(-d2 / (2.0 * radius_mm**2))
    blob[d2 > reach**2] = 0.0
    region = volume[zlo : zhi + 1, ylo : yhi + 1, xlo : xhi + 1]
    np.maximum(region, blob.astype(volume.dtype), out=region)


def _axis_offsets(lo: tuple, hi: tuple, spacing_mm: float, origin_mm: np.ndarray) -> tuple:
    """The voxel-centre offsets in mm from ``origin_mm`` along x, y and z of
    the box from voxel ``lo`` to voxel ``hi`` (x, y, z indices, inclusive),
    shaped to broadcast over the (z, y, x) box."""
    (xlo, ylo, zlo), (xhi, yhi, zhi) = lo, hi
    rx = np.arange(xlo, xhi + 1) * spacing_mm - origin_mm[0]
    ry = np.arange(ylo, yhi + 1) * spacing_mm - origin_mm[1]
    rz = np.arange(zlo, zhi + 1) * spacing_mm - origin_mm[2]
    return rx[None, None, :], ry[None, :, None], rz[:, None, None]


def _render_clean(spec: PhantomSpec, pose_mm: np.ndarray) -> np.ndarray:
    nz, ny, nx = spec.shape
    vol = np.zeros((nz, ny, nx), dtype=np.float32)
    left = {ld.index for ld in LANDMARKS if ld.side == "left"}

    def amp_for(indices: set[int], base_amp: float) -> float:
        if indices & left:
            return min(base_amp + spec.left_intensity_offset, 1.3)
        return base_amp

    for a, b in SEGMENTS:
        cls = _segment_class(a, b)
        amp = amp_for({a, b}, _CLASS_AMPS[cls])
        render_tube(
            vol, pose_mm[a - 1], pose_mm[b - 1], _CLASS_RADII_MM[cls], amp, spec.spacing_mm
        )
    # joint bumps: spheres of one uniform intensity above every tube keep an
    # intensity ridge maximum exactly at each ground-truth landmark even
    # where bumps of different body parts sit close together
    for ld in LANDMARKS:
        if ld.index == 1:
            radius = _HEAD_RADIUS_MM
        else:
            parent_edges = [(a, b) for a, b in SEGMENTS if b == ld.index or a == ld.index]
            radius = _CLASS_RADII_MM[_segment_class(*parent_edges[0])] * _JOINT_BUMP_SCALE
        amp = min(amp_for({ld.index}, _JOINT_BUMP_AMP), 1.3)
        p = pose_mm[ld.index - 1]
        render_tube(vol, p, p, radius, amp, spec.spacing_mm)
    return vol


def _apply_shadow(spec: PhantomSpec, vol: np.ndarray, rng: np.random.Generator) -> dict | None:
    """With probability ``spec.shadow_probability``, zero a cone of ``vol``
    and return its record (apex, axis, half-angle), else return None. The
    apex lies on a random face, and the axis is tilted up to 25 degrees
    from that face's inward normal.

    The cone test runs on the volume's separable axis grid, as
    ``render_tube``'s distance does: with ``rx``, ``ry``, ``rz`` the offsets
    from the apex and ``a`` the axis,
    ``dist = sqrt((rx*rx + ry*ry) + rz*rz)``, the order of ``linalg.norm``
    over an x, y, z stack, and
    ``cos = ((rx*ax + ry*ay) + rz*az) / max(dist, 1e-9)``. It holds two
    volume-sized float64 arrays, not a stack of offsets and its products.
    A cosine can differ from the stacked ``tensordot`` form's in its last
    bit, which moves a voxel only if it sits that close to the cone's edge.
    """
    if rng.uniform() >= spec.shadow_probability:
        return None
    nz, ny, nx = vol.shape
    s = spec.spacing_mm
    face = int(rng.integers(6))
    apex = rng.uniform([0, 0, 0], [(nx - 1) * s, (ny - 1) * s, (nz - 1) * s])
    normal = np.zeros(3)
    apex[face // 2] = 0.0 if face % 2 == 0 else [nx - 1, ny - 1, nz - 1][face // 2] * s
    normal[face // 2] = 1.0 if face % 2 == 0 else -1.0
    axis = _rotate_toward(rng, normal, 25.0)
    half_angle = np.deg2rad(rng.uniform(*_SHADOW_HALF_ANGLE_DEG))
    rx, ry, rz = _axis_offsets((0, 0, 0), (nx - 1, ny - 1, nz - 1), s, apex)
    dist = (rx * rx + ry * ry) + rz * rz
    np.sqrt(dist, out=dist)
    np.maximum(dist, 1e-9, out=dist)
    cosang = (rx * axis[0] + ry * axis[1]) + rz * axis[2]
    cosang /= dist
    del dist
    vol[cosang > np.cos(half_angle)] = 0.0
    return {
        "apex_mm": apex.tolist(),
        "axis": axis.tolist(),
        "half_angle_deg": float(np.rad2deg(half_angle)),
    }


def _add_noise(spec: PhantomSpec, vol: np.ndarray, rng: np.random.Generator) -> None:
    """Multiplicative, then additive half-normal noise, in place.

    Each draw fills one reused float64 buffer, which takes the generator's
    stream in the order a fresh ``standard_normal(vol.shape)`` array would,
    and is cast once into one float32 buffer, where it is scaled in place.
    """
    if spec.noise_multiplicative == 0 and spec.noise_additive == 0:
        return
    draw = np.empty(vol.shape)
    noise = np.empty(vol.shape, dtype=np.float32)
    if spec.noise_multiplicative > 0:
        rng.standard_normal(out=draw)
        noise[...] = draw
        noise *= spec.noise_multiplicative
        noise += 1.0
        vol *= noise
    if spec.noise_additive > 0:
        rng.standard_normal(out=draw)
        np.abs(draw, out=draw)
        noise[...] = draw
        noise *= spec.noise_additive
        vol += noise


def sample_case(spec: PhantomSpec, seed: int) -> PhantomCase:
    """Deterministically generate one phantom volume with ground-truth pose."""
    rng = np.random.default_rng(seed)
    nz, ny, nx = spec.shape
    s = spec.spacing_mm
    extent_mm = np.array([(nx - 1) * s, (ny - 1) * s, (nz - 1) * s])
    margin = _BOUNDS_MARGIN_MM + max(_CLASS_RADII_MM.values())

    pose_mm = None
    for attempt in range(_MAX_REJECTIONS):
        pts = _sample_skeleton(rng)
        scale = rng.uniform(*_SCALE_RANGE)
        rot = _random_rotation(rng)
        center = extent_mm / 2 + rng.uniform(-_CENTER_JITTER_MM, _CENTER_JITTER_MM, size=3)
        candidate = (pts * scale) @ rot.T + center
        diff = candidate[:, None, :] - candidate[None, :, :]
        pairwise = np.linalg.norm(diff, axis=-1) + np.eye(NUM_LANDMARKS) * 1e9
        if (
            np.all(candidate >= margin)
            and np.all(candidate <= extent_mm - margin)
            and pairwise.min() >= _MIN_JOINT_SEPARATION_MM
        ):
            pose_mm = candidate
            provenance = {
                "seed": int(seed),
                "scale": float(scale),
                "attempt": attempt,
                "center_mm": center.tolist(),
            }
            break
    if pose_mm is None:
        raise PhantomError(
            f"could not place the skeleton inside {spec.shape} within "
            f"{_MAX_REJECTIONS} rejection samples"
        )

    vol = _render_clean(spec, pose_mm)
    shadow = _apply_shadow(spec, vol, rng)
    if shadow is not None:
        provenance["shadow"] = shadow
    _add_noise(spec, vol, rng)
    np.clip(vol, 0.0, 2.0, out=vol)
    return PhantomCase(vol, Pose(pose_mm), s, provenance)


# ---------------------------------------------------------------------------
# augmentation: flips (with left/right label swap) and quarter rotations
# ---------------------------------------------------------------------------

# op -> the volume axis (z, y, x order) it mirrors
_FLIP_AXES = {"flip_x": 2, "flip_y": 1, "flip_z": 0}
# op -> the volume axes of the quarter turn, in np.rot90's order
_ROT90_AXES = {"rot90_x": (0, 1), "rot90_y": (2, 0), "rot90_z": (1, 2)}
AUGMENT_OPS = (*_FLIP_AXES, *_ROT90_AXES)
# augmentation policy -> the op chains, each of which adds one transformed
# copy of every case
AUGMENT_POLICIES = {
    "none": (),
    "flips": (("flip_x",),),
    # mirrors the reference protocol's flip/rotation expansion (x8)
    "flips-rotations": (
        ("flip_x",), ("flip_y",), ("flip_z",),
        ("rot90_x",), ("rot90_y",), ("rot90_z",),
        ("rot90_z", "rot90_z"),
    ),
}


def augment(case: PhantomCase, op: str) -> PhantomCase:
    """Transform volume and pose identically; flips also swap the left/right
    landmark labels so they stay anatomically consistent.

    Volume axis ``a`` (z, y, x order) holds coordinate column ``2 - a``
    (x, y, z order). A quarter turn over axes (a0, a1) moves coordinate
    ``2 - a0`` onto ``2 - a1`` and mirrors the old ``2 - a1`` into ``2 - a0``.
    """
    xyz = case.pose.xyz_mm.copy()
    present = case.pose.present.copy()
    s = case.spacing_mm
    if op in _FLIP_AXES:
        axis = _FLIP_AXES[op]
        vol2 = np.flip(case.volume, axis).copy()
        c = 2 - axis
        xyz[:, c] = (case.volume.shape[axis] - 1) * s - xyz[:, c]
        xyz, present = xyz[list(FLIP_PERMUTATION)], present[list(FLIP_PERMUTATION)]
    elif op in _ROT90_AXES:
        a0, a1 = _ROT90_AXES[op]
        vol2 = np.rot90(case.volume, k=1, axes=(a0, a1)).copy()
        c0, c1 = 2 - a0, 2 - a1
        mirrored = (case.volume.shape[a1] - 1) * s - xyz[:, c1]
        xyz[:, c1] = xyz[:, c0]
        xyz[:, c0] = mirrored
    else:
        raise PhantomError(f"unknown augmentation op '{op}' (choose from {AUGMENT_OPS})")
    return PhantomCase(vol2, Pose(xyz, present), s, dict(case.provenance))


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

def make_dataset(
    spec: PhantomSpec,
    n_train: int,
    n_test: int,
    out_dir: str | Path,
    seed: int = 0,
    stamp: dict | None = None,
) -> dict:
    """Write train/test phantom cases and a manifest describing them.

    Case seeds are ``seed + i`` for train and ``seed + n_train + j`` for
    test: disjoint by construction and sufficient to regenerate every volume
    bit for bit. ``stamp`` (e.g. a run-config hash) is embedded in every
    written file, the manifest included. A new ``out_dir`` is written
    through ``fileio.writing``, so a case that cannot be made leaves no
    dataset behind.
    """
    if n_train < 1 or n_test < 1:
        raise PhantomError("need at least one train and one test case")
    entries = []
    with fileio.writing(out_dir) as out:
        cases_dir = out / "cases"
        cases_dir.mkdir(exist_ok=True)
        for split, count, offset in (("train", n_train, 0), ("test", n_test, n_train)):
            for i in range(count):
                case_seed = seed + offset + i
                case_id = f"{split}_{i:04d}"
                case = sample_case(spec, case_seed)
                vol_path = cases_dir / case_id
                pose_path = cases_dir / f"{case_id}_pose.json"
                fileio.save_volume(vol_path, case.volume, case.spacing_mm, stamp=stamp)
                fileio.save_pose(pose_path, case.pose, spacing=case.spacing_mm, stamp=stamp)
                entries.append(
                    {
                        "id": case_id,
                        "split": split,
                        "seed": case_seed,
                        "volume": str(vol_path.relative_to(out)),
                        "pose": str(pose_path.relative_to(out)),
                        "provenance": case.provenance,
                    }
                )
        manifest = {
            "version": fileio.MANIFEST_FORMAT_VERSION,
            "phantom_spec": asdict(spec),
            "base_seed": seed,
            "n_train": n_train,
            "n_test": n_test,
            "cases": entries,
        }
        fileio.write_json(out / "manifest.json", manifest, stamp)
    return manifest
