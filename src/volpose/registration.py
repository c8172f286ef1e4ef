"""Pose data model, rigid point-set registration, and pose-library retrieval.

Alignment of a library pose to a prediction uses the closed-form
least-squares rotation (centroid subtraction, cross-covariance SVD,
reflection correction so det(R) = +1), broadcast over a stack of poses.
Retrieval aligns the whole library in one such fit, ranks every pose by its
summed per-landmark residual over the registration subset and returns the
top-K as a ``SupportSet`` of arrays: atlas ids, errors, the full aligned
poses in mm and their presence masks. The label proxy is the mean of the
aligned poses' Gaussian heatmaps, built from voxel positions on the target
grid, so the caller chooses the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from volpose import heatmap
from volpose.anatomy import NUM_LANDMARKS, REGISTRATION_SUBSET


class RegistrationError(ValueError):
    pass


class RetrievalDeclined(RuntimeError):
    """Too few valid subset landmarks; the caller should keep its raw pose."""


@dataclass
class Pose:
    """16 labeled landmark coordinates in mm, with a presence mask."""

    xyz_mm: np.ndarray                      # (16, 3) float64
    present: np.ndarray = field(default=None)  # (16,) bool

    def __post_init__(self):
        self.xyz_mm = np.asarray(self.xyz_mm, dtype=np.float64)
        if self.xyz_mm.shape != (NUM_LANDMARKS, 3):
            raise RegistrationError(f"pose must be ({NUM_LANDMARKS}, 3), got {self.xyz_mm.shape}")
        if self.present is None:
            self.present = np.ones(NUM_LANDMARKS, dtype=bool)
        else:
            self.present = np.asarray(self.present, dtype=bool)
        if not np.all(np.isfinite(self.xyz_mm[self.present])):
            raise RegistrationError("pose has non-finite coordinates")

    def copy(self) -> "Pose":
        return Pose(self.xyz_mm.copy(), self.present.copy())


@dataclass
class RigidTransform:
    """Proper rotations (det = +1) plus translations, acting on mm points."""

    rotation: np.ndarray      # (..., 3, 3)
    translation: np.ndarray   # (..., 3)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        r = self.rotation
        if not np.allclose(r.mT @ r, np.eye(3), atol=1e-9):
            raise RegistrationError("rotation is not orthonormal within 1e-9")
        if not np.allclose(np.linalg.det(r), 1.0, atol=1e-9):
            raise RegistrationError("rotation determinant is not +1 within 1e-9")

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.mT + self.translation[..., None, :]


def fit_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[RigidTransform, float | np.ndarray]:
    """Least-squares rigid transform taking src points onto dst points.

    ``dst`` is (n, 3). ``src`` is (n, 3), or a stack (..., n, 3) whose every
    member is fitted onto the one ``dst``. Returns the transform (a stack for
    a stacked ``src``) and the RMS residual of each fit, computed as
    sqrt(mean squared residual) over all 3n coordinates. Requires >= 3
    non-collinear point pairs in every member; a reflection-optimal
    configuration is corrected to the best proper rotation.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if dst.ndim != 2 or dst.shape[1] != 3 or src.shape[-2:] != dst.shape:
        raise RegistrationError(f"point shapes {src.shape}, {dst.shape} are not (..., n, 3), (n, 3)")
    n = dst.shape[0]
    if n < 3:
        raise RegistrationError(f"need at least 3 point pairs, got {n}")
    cs = src.mean(axis=-2, keepdims=True)
    cd = dst.mean(axis=0)
    a = src - cs
    b = dst - cd
    # collinear points leave the rotation about their axis unconstrained
    sv_a = np.linalg.svd(a, compute_uv=False)
    collinear = sv_a[..., 1] < 1e-9 * np.maximum(sv_a[..., 0], 1.0)
    if collinear.any():
        raise RegistrationError(
            f"source points are collinear (singular values {sv_a[collinear][0].round(12)}); "
            "rotation is not determined"
        )
    u, _, vt = np.linalg.svd(a.mT @ b)
    vt[..., 2, :] *= np.sign(np.linalg.det(vt.mT @ u.mT))[..., None]
    rot = vt.mT @ u.mT
    t = cd - (cs @ rot.mT)[..., 0, :]
    transform = RigidTransform(rot, t)
    residual = transform.apply(src) - dst
    rms = np.sqrt(np.mean(residual**2, axis=(-2, -1)))
    return transform, rms


@dataclass
class PoseLibrary:
    """Immutable set of reference poses with string ids and source tags."""

    ids: list[str]
    poses: list[Pose]
    sources: list[str]

    def __post_init__(self):
        if not (len(self.ids) == len(self.poses) == len(self.sources)):
            raise RegistrationError("library fields must have equal length")
        subset = np.array(REGISTRATION_SUBSET) - 1
        for pid, pose in zip(self.ids, self.poses):
            if not pose.present[subset].all():
                raise RegistrationError(
                    f"library pose '{pid}' is missing registration-subset landmarks"
                )

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SupportSet:
    """The top-K aligned library poses, ordered by ascending error."""

    atlas_ids: list[str]
    errors_mm: np.ndarray     # (K,) summed subset residual norms
    aligned_mm: np.ndarray    # (K, 16, 3) full poses after alignment
    present: np.ndarray       # (K, 16) bool

    def __post_init__(self):
        if np.any(np.diff(self.errors_mm) < 0):
            raise RegistrationError("support entries must be sorted by ascending error")

    def __len__(self) -> int:
        return len(self.atlas_ids)

    def ids(self) -> list[str]:
        return list(self.atlas_ids)


MIN_VALID_SUBSET = 4


def retrieve_support(
    query_xyz_mm: np.ndarray,
    query_valid: np.ndarray,
    library: PoseLibrary,
    k: int = 10,
) -> SupportSet:
    """Align every library pose to the query and keep the top-K by error.

    One stacked fit aligns the library on the registration subset intersected
    with the query's valid mask (at least 4 landmarks, else the retrieval is
    declined). Errors are the summed Euclidean residuals of the subset
    landmarks; ties in the ranking break on atlas id.
    """
    if k < 1:
        raise RegistrationError(f"k must be >= 1, got {k}")
    if k > len(library):
        raise RegistrationError(f"k={k} exceeds library size {len(library)}")
    query_xyz_mm = np.asarray(query_xyz_mm, dtype=np.float64)
    query_valid = np.asarray(query_valid, dtype=bool)
    subset0 = np.array(REGISTRATION_SUBSET) - 1
    usable = subset0[query_valid[subset0]]
    if usable.size < MIN_VALID_SUBSET:
        raise RetrievalDeclined(
            f"only {usable.size} valid registration-subset landmarks "
            f"(need >= {MIN_VALID_SUBSET})"
        )
    dst = query_xyz_mm[usable]
    xyz = np.stack([pose.xyz_mm for pose in library.poses])
    transform, _ = fit_rigid(xyz[:, usable], dst)
    errors = np.linalg.norm(transform.apply(xyz[:, usable]) - dst, axis=-1).sum(axis=-1)
    top = np.lexsort((library.ids, errors))[:k]
    return SupportSet(
        [library.ids[i] for i in top],
        errors[top],
        transform.apply(xyz)[top],
        np.stack([library.poses[i].present for i in top]),
    )


def build_label_proxy(
    points_vox: np.ndarray,
    present: np.ndarray,
    shape: tuple[int, int, int],
    sigma_vox: float,
) -> np.ndarray:
    """Mean of K aligned poses' Gaussian stacks: the pseudo ground truth.

    ``points_vox`` is (K, 16, 3) continuous voxel positions (x, y, z) on the
    grid ``shape``, ``present`` the (K, 16) landmark mask. A landmark outside
    the grid contributes a zero (or edge-clipped) map for its channel.

    The proxy is built one channel at a time: a float64 accumulator of one
    channel's size sums the channel's present maps in ascending k, is
    divided by K and is cast into the float32 proxy. So the bits are those
    of a whole (16, D, H, W) float64 stack summed in the same order, at
    1/16 of its memory.
    """
    if len(points_vox) == 0:
        raise RegistrationError("support set is empty")
    proxy = np.empty((NUM_LANDMARKS, *shape), dtype=np.float32)
    acc = np.empty(shape, dtype=np.float64)
    chan = np.empty(shape, dtype=np.float32)
    for j in range(NUM_LANDMARKS):
        acc[:] = 0.0
        for k in np.flatnonzero(present[:, j]):
            chan[:] = 0.0
            heatmap.encode_channel(points_vox[k, j], shape, sigma_vox, out=chan)
            acc += chan
        acc /= len(points_vox)
        proxy[j] = acc
    return proxy
