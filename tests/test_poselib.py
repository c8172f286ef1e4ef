"""Rigid registration and pose-library retrieval against independent oracles.

The registration oracle is Horn's quaternion method, implemented here from
scratch: a genuinely distinct algorithm that reaches the same least-squares
optimum, so the two must agree to numerical precision. Retrieval is checked
against a brute-force ranking built on the oracle fit.
"""

import json

import numpy as np
import pytest

from volpose import heatmap
from volpose.anatomy import NUM_LANDMARKS, REGISTRATION_SUBSET
from volpose.fileio import load_library, save_library
from volpose.registration import (
    Pose,
    PoseLibrary,
    RegistrationError,
    RetrievalDeclined,
    SupportSet,
    build_label_proxy,
    fit_rigid,
    retrieve_support,
)


def random_rotation(rng):
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


def horn_quaternion_fit(src, dst):
    """Independent oracle: optimal rotation via the 4x4 quaternion eigenproblem."""
    a = src - src.mean(axis=0)
    b = dst - dst.mean(axis=0)
    m = a.T @ b
    sxx, sxy, sxz = m[0]
    syx, syy, syz = m[1]
    szx, szy, szz = m[2]
    n = np.array(
        [
            [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
            [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
            [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
            [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
        ]
    )
    vals, vecs = np.linalg.eigh(n)
    w, x, y, z = vecs[:, np.argmax(vals)]
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    t = dst.mean(axis=0) - rot @ src.mean(axis=0)
    return rot, t


def random_pose_points(rng, n=16, scale=20.0):
    return rng.normal(scale=scale, size=(n, 3))


def test_identity_fit():
    rng = np.random.default_rng(0)
    pts = random_pose_points(rng, 8)
    tr, rms = fit_rigid(pts, pts)
    np.testing.assert_allclose(tr.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(tr.translation, 0.0, atol=1e-12)
    assert rms < 1e-12  # zero up to SVD roundoff


@pytest.mark.parametrize("seed", range(10))
def test_synthetic_transform_recovery(seed):
    rng = np.random.default_rng(seed)
    src = random_pose_points(rng, 10)
    rot = random_rotation(rng)
    t = rng.normal(scale=30.0, size=3)
    dst = src @ rot.T + t
    tr, rms = fit_rigid(src, dst)
    assert np.linalg.norm(tr.rotation - rot) < 1e-9
    assert np.linalg.norm(tr.translation - t) < 1e-9
    assert rms < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_fit_matches_horn_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    src = random_pose_points(rng, 10)
    dst = src @ random_rotation(rng).T + rng.normal(size=3) + rng.normal(scale=0.5, size=src.shape)
    tr, _ = fit_rigid(src, dst)
    rot_h, t_h = horn_quaternion_fit(src, dst)
    np.testing.assert_allclose(tr.rotation, rot_h, atol=1e-9)
    np.testing.assert_allclose(tr.translation, t_h, atol=1e-8)


def test_reflection_corrected_to_proper_rotation():
    rng = np.random.default_rng(11)
    src = random_pose_points(rng, 10)
    dst = src.copy()
    dst[:, 0] *= -1.0  # a pure reflection
    tr, rms = fit_rigid(src, dst)
    assert np.isclose(np.linalg.det(tr.rotation), 1.0, atol=1e-9)
    assert rms > 0.0


def test_too_few_points_rejected():
    with pytest.raises(RegistrationError, match="at least 3"):
        fit_rigid(np.zeros((2, 3)), np.zeros((2, 3)))


def test_collinear_points_rejected():
    line = np.outer(np.arange(5, dtype=float), [1.0, 2.0, 0.5])
    with pytest.raises(RegistrationError, match="collinear"):
        fit_rigid(line, line + 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_monte_carlo_optimality_on_4_point_sets(seed):
    # fit rms must beat 1000 random rigid candidates
    rng = np.random.default_rng(200 + seed)
    src = random_pose_points(rng, 4, scale=10.0)
    dst = random_pose_points(rng, 4, scale=10.0)
    tr, rms = fit_rigid(src, dst)
    n = src.shape[0]
    for _ in range(1000):
        rot = random_rotation(rng)
        t = rng.normal(scale=10.0, size=3)
        cand = np.sqrt(np.mean((src @ rot.T + t - dst) ** 2))
        assert rms <= cand + 1e-12


def test_stacked_fit_equals_fit_of_each_slice_bitwise():
    rng = np.random.default_rng(13)
    dst = random_pose_points(rng, 10)
    src = np.stack([
        dst @ random_rotation(rng).T + rng.normal(scale=5.0, size=3)
        + rng.normal(scale=0.5, size=dst.shape)
        for _ in range(6)
    ])
    src[2] = dst * [-1.0, 1.0, 1.0]  # reflection-optimal member
    stacked, rms = fit_rigid(src, dst)
    assert stacked.rotation.shape == (6, 3, 3) and rms.shape == (6,)
    for i in range(len(src)):
        tr, rms_i = fit_rigid(src[i], dst)
        np.testing.assert_array_equal(stacked.rotation[i], tr.rotation)
        np.testing.assert_array_equal(stacked.translation[i], tr.translation)
        assert rms[i] == rms_i
        np.testing.assert_array_equal(stacked.apply(src)[i], tr.apply(src[i]))


def test_stacked_fit_rejects_one_collinear_member():
    rng = np.random.default_rng(19)
    dst = random_pose_points(rng, 5)
    src = np.stack([random_pose_points(rng, 5) for _ in range(4)])
    src[3] = np.outer(np.arange(5, dtype=float), [1.0, 2.0, 0.5])
    with pytest.raises(RegistrationError, match="collinear"):
        fit_rigid(src, dst)


def test_stacked_fit_rejects_point_count_mismatch():
    rng = np.random.default_rng(21)
    with pytest.raises(RegistrationError, match="are not"):
        fit_rigid(rng.normal(size=(4, 6, 3)), rng.normal(size=(5, 3)))


# --- retrieval ---------------------------------------------------------------


def make_library(rng, n=50):
    ids, poses = [], []
    for i in range(n):
        ids.append(f"atlas_{i:03d}")
        poses.append(Pose(random_pose_points(rng, NUM_LANDMARKS)))
    return PoseLibrary(ids, poses, ["train"] * n)


def brute_force_ranking(query_xyz, library):
    subset = np.array(REGISTRATION_SUBSET) - 1
    scored = []
    for pid, pose in zip(library.ids, library.poses):
        rot, t = horn_quaternion_fit(pose.xyz_mm[subset], query_xyz[subset])
        res = pose.xyz_mm[subset] @ rot.T + t - query_xyz[subset]
        scored.append((float(np.linalg.norm(res, axis=1).sum()), pid))
    scored.sort()
    return [pid for _, pid in scored]


def test_library_containing_query_ranks_it_first():
    rng = np.random.default_rng(5)
    lib = make_library(rng, 20)
    query = lib.poses[7].xyz_mm.copy()
    support = retrieve_support(query, np.ones(16, dtype=bool), lib, k=3)
    assert support.ids()[0] == "atlas_007"
    assert support.errors_mm[0] < 1e-9
    # aligned onto itself: the full aligned pose is the query
    np.testing.assert_allclose(support.aligned_mm[0], query, atol=1e-9)


@pytest.mark.parametrize("k", [1, 5, 10])
def test_retrieval_matches_brute_force(k):
    rng = np.random.default_rng(31)
    for _ in range(5):
        lib = make_library(rng, 50)
        query = random_pose_points(rng, NUM_LANDMARKS)
        support = retrieve_support(query, np.ones(16, dtype=bool), lib, k=k)
        assert support.ids() == brute_force_ranking(query, lib)[:k]


def test_retrieval_rigid_invariance_of_ranking():
    rng = np.random.default_rng(17)
    lib = make_library(rng, 30)
    query = random_pose_points(rng, NUM_LANDMARKS)
    base = retrieve_support(query, np.ones(16, dtype=bool), lib, k=30).ids()
    rot = random_rotation(rng)
    t = rng.normal(scale=50.0, size=3)
    moved = retrieve_support(query @ rot.T + t, np.ones(16, dtype=bool), lib, k=30).ids()
    assert base == moved


def test_retrieval_mirror_equivariance():
    # reflecting the query and every library pose through one plane, with no
    # left/right label swap, is an isometry of the whole problem: the same
    # atlases win with the same errors, and their aligned poses come out
    # reflected
    rng = np.random.default_rng(67)
    lib = make_library(rng, 40)
    query = random_pose_points(rng, NUM_LANDMARKS)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    offset = 7.5

    def mirror(points):
        return points - 2.0 * (points @ normal - offset)[..., None] * normal

    mirrored_lib = PoseLibrary(lib.ids, [Pose(mirror(p.xyz_mm)) for p in lib.poses], lib.sources)
    valid = np.ones(16, dtype=bool)
    base = retrieve_support(query, valid, lib, k=10)
    flipped = retrieve_support(mirror(query), valid, mirrored_lib, k=10)
    assert flipped.ids() == base.ids()
    np.testing.assert_allclose(flipped.errors_mm, base.errors_mm, rtol=0, atol=1e-9)
    np.testing.assert_allclose(flipped.aligned_mm, mirror(base.aligned_mm), rtol=0, atol=1e-9)


def test_retrieval_declined_below_four_valid_subset_landmarks():
    rng = np.random.default_rng(23)
    lib = make_library(rng, 10)
    query = random_pose_points(rng, NUM_LANDMARKS)
    valid = np.zeros(16, dtype=bool)
    valid[[0, 1, 2]] = True  # only 3 subset landmarks valid
    with pytest.raises(RetrievalDeclined):
        retrieve_support(query, valid, lib, k=5)
    valid[3] = True  # 4 is enough
    assert len(retrieve_support(query, valid, lib, k=5)) == 5


def test_retrieval_k_bounds():
    rng = np.random.default_rng(29)
    lib = make_library(rng, 5)
    query = random_pose_points(rng, NUM_LANDMARKS)
    with pytest.raises(RegistrationError):
        retrieve_support(query, np.ones(16, dtype=bool), lib, k=6)
    with pytest.raises(RegistrationError):
        retrieve_support(query, np.ones(16, dtype=bool), lib, k=0)


def test_support_errors_sorted_and_recomputable():
    rng = np.random.default_rng(37)
    lib = make_library(rng, 25)
    query = random_pose_points(rng, NUM_LANDMARKS)
    support = retrieve_support(query, np.ones(16, dtype=bool), lib, k=10)
    subset = np.array(REGISTRATION_SUBSET) - 1
    errs = list(support.errors_mm)
    assert errs == sorted(errs)
    assert support.aligned_mm.shape == (10, NUM_LANDMARKS, 3)
    for atlas_id, error, aligned, present in zip(
        support.atlas_ids, support.errors_mm, support.aligned_mm, support.present
    ):
        pose = lib.poses[lib.ids.index(atlas_id)]
        np.testing.assert_array_equal(present, pose.present)
        res = aligned[subset] - query[subset]
        recomputed = float(np.linalg.norm(res, axis=1).sum())
        assert abs(recomputed - error) < 1e-9
        # the aligned pose is a rigid image of the library pose
        tr, rms = fit_rigid(pose.xyz_mm, aligned)
        assert rms < 1e-9


def test_support_set_rejects_unsorted_errors():
    poses = np.zeros((2, NUM_LANDMARKS, 3))
    present = np.ones((2, NUM_LANDMARKS), dtype=bool)
    with pytest.raises(RegistrationError, match="sorted"):
        SupportSet(["a", "b"], np.array([2.0, 1.0]), poses, present)


# --- label proxy -------------------------------------------------------------


def in_bounds_pose(rng, shape, spacing=1.0, margin=7.0):
    nz, ny, nx = shape
    lo = margin * spacing
    hi = (np.array([nx, ny, nz]) - 1 - margin) * spacing
    return Pose(rng.uniform(lo, hi, size=(NUM_LANDMARKS, 3)))


def support_of(poses):
    return SupportSet(
        [f"a{i}" for i in range(len(poses))],
        np.arange(len(poses), dtype=np.float64),
        np.stack([p.xyz_mm for p in poses]),
        np.stack([p.present for p in poses]),
    )


def proxy_of(poses, shape, sigma_vox):
    """The label proxy of poses given on a unit-spacing grid (mm = voxels)."""
    support = support_of(poses)
    return build_label_proxy(support.aligned_mm, support.present, shape, sigma_vox)


def test_proxy_of_single_atlas_equals_encode():
    rng = np.random.default_rng(41)
    shape = (24, 24, 24)
    pose = in_bounds_pose(rng, shape)
    proxy = proxy_of([pose], shape, 2.0)
    expected = heatmap.encode(pose.xyz_mm, shape, 1.0, 2.0)
    np.testing.assert_allclose(proxy, expected, atol=1e-7)


def test_proxy_mean_of_identical_poses_is_idempotent():
    rng = np.random.default_rng(43)
    shape = (24, 24, 24)
    pose = in_bounds_pose(rng, shape)
    proxy = proxy_of([pose, pose.copy()], shape, 2.0)
    expected = heatmap.encode(pose.xyz_mm, shape, 1.0, 2.0)
    np.testing.assert_allclose(proxy, expected, atol=1e-7)


def test_proxy_bimodal_for_4_sigma_offset():
    rng = np.random.default_rng(47)
    shape = (32, 32, 32)
    sigma = 2.0
    pose_a = in_bounds_pose(rng, shape, margin=12.0)
    pose_b = pose_a.copy()
    pose_b.xyz_mm[0, 0] += 4 * sigma  # one landmark moved 4 sigma along x
    proxy = proxy_of([pose_a, pose_b], shape, sigma)
    chan = proxy[0]
    va = chan[tuple(np.round(pose_a.xyz_mm[0][::-1]).astype(int))]
    vb = chan[tuple(np.round(pose_b.xyz_mm[0][::-1]).astype(int))]
    # each peak is (1 + exp(-8))/2 of the on-center value, about one half
    assert 0.4 < va < 0.56 and 0.4 < vb < 0.56
    # all other channels average two coincident blobs: unchanged peak of ~1
    assert proxy[1].max() > 0.9


def test_proxy_out_of_bounds_landmark_contributes_zero_channel():
    rng = np.random.default_rng(53)
    shape = (16, 16, 16)
    pose = in_bounds_pose(rng, shape, margin=6.0)
    pose.xyz_mm[3] = [500.0, 500.0, 500.0]
    proxy = proxy_of([pose], shape, 2.0)
    assert proxy[3].max() == 0.0
    assert proxy[0].max() > 0.9


def test_proxy_values_in_unit_interval():
    rng = np.random.default_rng(59)
    shape = (24, 24, 24)
    poses = [in_bounds_pose(rng, shape) for _ in range(5)]
    proxy = proxy_of(poses, shape, 2.0)
    assert proxy.min() >= 0.0
    assert proxy.max() <= 1.0


def test_library_round_trip(tmp_path):
    rng = np.random.default_rng(61)
    base = make_library(rng, 7)
    # landmark 6 lies outside the registration subset, so it may be absent
    base.poses[2].present[5] = False
    lib = PoseLibrary(base.ids, base.poses, [f"split_{i % 3}" for i in range(7)])
    path = tmp_path / "library.json"
    save_library(path, lib, stamp={"config_hash": "abc"})
    loaded = load_library(path)
    assert loaded.ids == lib.ids
    assert loaded.sources == lib.sources
    for a, b in zip(loaded.poses, lib.poses):
        np.testing.assert_array_equal(a.xyz_mm, b.xyz_mm)
        np.testing.assert_array_equal(a.present, b.present)
    doc = json.loads(path.read_text())
    assert doc["config_hash"] == "abc"
    assert doc["poses"][2]["landmarks"][5]["present"] is False


def test_library_requires_subset_landmarks():
    pose = Pose(np.zeros((16, 3)), present=np.zeros(16, dtype=bool))
    with pytest.raises(RegistrationError, match="registration-subset"):
        PoseLibrary(["a"], [pose], ["x"])
