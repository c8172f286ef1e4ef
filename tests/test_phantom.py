"""Phantom generator: determinism, rendering fidelity, augmentation algebra."""

import tracemalloc

import numpy as np
import pytest

from volpose import heatmap, phantom
from volpose.anatomy import FLIP_PERMUTATION, LANDMARKS, SEGMENTS
from volpose.metrics import segment_lengths
from volpose.phantom import (
    PhantomCase,
    PhantomError,
    PhantomSpec,
    _cross,
    augment,
    make_dataset,
    render_tube,
    sample_case,
)
from volpose.fileio import load_volume
from volpose.registration import Pose


SPEC = PhantomSpec(shape=(48, 48, 48), noise_multiplicative=0.0, noise_additive=0.0,
                   shadow_probability=0.0)


def test_same_seed_reproduces_exactly():
    spec = PhantomSpec(shape=(48, 48, 48))
    a = sample_case(spec, seed=5)
    b = sample_case(spec, seed=5)
    np.testing.assert_array_equal(a.volume, b.volume)
    np.testing.assert_array_equal(a.pose.xyz_mm, b.pose.xyz_mm)
    assert a.provenance == b.provenance


def test_different_seeds_differ():
    spec = PhantomSpec(shape=(48, 48, 48))
    a = sample_case(spec, seed=1)
    b = sample_case(spec, seed=2)
    assert not np.array_equal(a.volume, b.volume)


def test_single_horizontal_segment_max_on_axis():
    vol = np.zeros((16, 16, 16), dtype=np.float32)
    p0 = np.array([3.0, 8.0, 8.0])
    p1 = np.array([12.0, 8.0, 8.0])
    render_tube(vol, p0, p1, radius_mm=2.0, amplitude=1.0, spacing_mm=1.0)
    # noise-free tube: max intensity sits on the segment axis
    assert vol.max() == vol[8, 8, 5]
    np.testing.assert_allclose(vol[8, 8, 4:12], 1.0, atol=1e-6)
    # off-axis falls off with the Gaussian profile
    np.testing.assert_allclose(vol[10, 8, 8], np.exp(-4 / 8), rtol=1e-5)


def test_landmarks_inside_bounds():
    spec = PhantomSpec(shape=(48, 48, 48))
    for seed in range(20):
        case = sample_case(spec, seed=seed)
        extent = (np.array([48, 48, 48]) - 1) * spec.spacing_mm
        assert np.all(case.pose.xyz_mm >= 0)
        assert np.all(case.pose.xyz_mm <= extent)


def test_impossible_spec_rejected():
    spec = PhantomSpec(shape=(16, 16, 16))  # figure cannot fit
    with pytest.raises(PhantomError, match="rejection"):
        sample_case(spec, seed=0)


def test_noise_free_ridge_through_each_landmark():
    # intensity at the ground-truth joint matches the local neighborhood max:
    # the joint bump puts a ridge maximum there
    for seed in range(5):
        case = sample_case(SPEC, seed=seed)
        vol = case.volume
        for j in range(16):
            vox = np.round(case.pose.xyz_mm[j] / SPEC.spacing_mm).astype(int)
            x, y, z = vox
            neigh = vol[max(0, z - 3) : z + 4, max(0, y - 3) : y + 4, max(0, x - 3) : x + 4]
            assert vol[z, y, x] >= 0.95 * neigh.max(), f"seed {seed} landmark {j + 1}"


def test_noise_free_joint_recovered_within_one_voxel():
    # tube-axis oracle: the intensity-weighted peak near the joint lands
    # within one voxel of the ground truth
    for seed in range(5):
        case = sample_case(SPEC, seed=seed)
        for j in range(16):
            vox = case.pose.xyz_mm[j] / SPEC.spacing_mm
            ivox = np.round(vox).astype(int)
            x, y, z = ivox
            region = case.volume[z - 2 : z + 3, y - 2 : y + 3, x - 2 : x + 3]
            dz, dy, dx = np.unravel_index(np.argmax(region), region.shape)
            peak = np.array([x + dx - 2, y + dy - 2, z + dz - 2], dtype=float)
            assert np.linalg.norm(peak - vox) <= 1.0 + 1e-9, f"seed {seed} landmark {j + 1}"


def test_left_right_labels_consistent_across_poses():
    # chirality by construction: left landmarks always sit on the +cross side
    # of the spine/front frame, so no sampled pose has swapped limb labels
    spec = PhantomSpec(shape=(48, 48, 48))
    for seed in range(200):
        case = sample_case(spec, seed=seed)
        p = case.pose.xyz_mm
        up = p[0] - p[3]                      # sacrum -> head_top
        front = (p[11] + p[14]) / 2 - p[3]    # toward the knees (front curl)
        left_axis = np.cross(front, up)
        norm = np.linalg.norm(left_axis)
        assert norm > 1.0
        left_axis /= norm
        for li, ri in ((4, 7), (10, 13)):     # shoulders, hips (0-based)
            mid = (p[li] + p[ri]) / 2
            assert (p[li] - mid) @ left_axis > 0, f"seed {seed}: {LANDMARKS[li].name}"
            assert (p[ri] - mid) @ left_axis < 0, f"seed {seed}: {LANDMARKS[ri].name}"


def test_flip_twice_is_identity():
    case = sample_case(PhantomSpec(shape=(48, 48, 48)), seed=3)
    for op in ("flip_x", "flip_y", "flip_z"):
        twice = augment(augment(case, op), op)
        np.testing.assert_array_equal(twice.volume, case.volume)
        np.testing.assert_allclose(twice.pose.xyz_mm, case.pose.xyz_mm, atol=1e-12)


def test_rot90_four_times_is_identity():
    case = sample_case(PhantomSpec(shape=(48, 48, 48)), seed=4)
    for op in ("rot90_x", "rot90_y", "rot90_z"):
        rolled = case
        for _ in range(4):
            rolled = augment(rolled, op)
        np.testing.assert_array_equal(rolled.volume, case.volume)
        np.testing.assert_allclose(rolled.pose.xyz_mm, case.pose.xyz_mm, atol=1e-9)


def test_flip_swaps_left_right_labels():
    case = sample_case(PhantomSpec(shape=(48, 48, 48)), seed=6)
    flipped = augment(case, "flip_x")
    # l_shoulder (index 5) must land where r_shoulder went, mirrored
    nx = case.volume.shape[2]
    mirrored_r = case.pose.xyz_mm[7].copy()
    mirrored_r[0] = (nx - 1) * case.spacing_mm - mirrored_r[0]
    np.testing.assert_allclose(flipped.pose.xyz_mm[4], mirrored_r, atol=1e-12)


def test_flip_preserves_segment_lengths():
    # a flip mirrors geometry and swaps left/right labels, so each edge's
    # length reappears at its mirror edge
    case = sample_case(PhantomSpec(shape=(48, 48, 48)), seed=7)
    flipped = augment(case, "flip_y")
    swap = {i + 1: FLIP_PERMUTATION[i] + 1 for i in range(16)}
    edge_index = {tuple(sorted(e)): i for i, e in enumerate(SEGMENTS)}
    orig = segment_lengths(case.pose)
    new = segment_lengths(flipped.pose)
    for i, (a, b) in enumerate(SEGMENTS):
        mirror = edge_index[tuple(sorted((swap[a], swap[b])))]
        np.testing.assert_allclose(new[i], orig[mirror], atol=1e-9)
    np.testing.assert_allclose(np.sort(new), np.sort(orig), atol=1e-9)


def test_encode_equivariance_under_flip():
    # encode(augment(pose)) == channel-permuted spatial-flip of encode(pose)
    spec = PhantomSpec(shape=(48, 48, 48))
    case = sample_case(spec, seed=8)
    sigma = 2.0
    shape = case.volume.shape
    enc = heatmap.encode(case.pose.xyz_mm, shape, spec.spacing_mm, sigma)
    flipped = augment(case, "flip_x")
    enc_flipped = heatmap.encode(flipped.pose.xyz_mm, shape, spec.spacing_mm, sigma)
    manual = enc[list(FLIP_PERMUTATION)][:, :, :, ::-1]
    np.testing.assert_allclose(enc_flipped, manual, atol=1e-6)


def test_unknown_augment_op_rejected():
    case = sample_case(PhantomSpec(shape=(48, 48, 48)), seed=9)
    with pytest.raises(PhantomError, match="unknown augmentation"):
        augment(case, "transpose")


def test_make_dataset_seeds_disjoint_and_counts(tmp_path):
    spec = PhantomSpec(shape=(48, 48, 48))
    manifest = make_dataset(spec, n_train=5, n_test=3, out_dir=tmp_path, seed=100)
    seeds = [c["seed"] for c in manifest["cases"]]
    assert len(seeds) == len(set(seeds)) == 8
    assert sum(c["split"] == "train" for c in manifest["cases"]) == 5
    assert sum(c["split"] == "test" for c in manifest["cases"]) == 3


def test_cross_is_byte_equal_to_numpy_cross():
    rng = np.random.default_rng(31)
    for scale in (1e-6, 1.0, 1e6):
        for _ in range(200):
            a, b = rng.normal(scale=scale, size=(2, 3))
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_failed_make_dataset_leaves_nothing_behind(tmp_path):
    # at 38 voxels seeds 4 and 5 are written before seed 6 cannot be placed
    out = tmp_path / "data" / "phantoms"
    with pytest.raises(PhantomError):
        make_dataset(PhantomSpec(shape=(38, 38, 38)), 2, 1, out, seed=4)
    assert list(tmp_path.iterdir()) == []


def test_dataset_regenerates_bit_identical(tmp_path):
    spec = PhantomSpec(shape=(48, 48, 48))
    manifest = make_dataset(spec, 2, 1, tmp_path / "a", seed=7)
    for entry in manifest["cases"]:
        vol, spacing = load_volume(tmp_path / "a" / entry["volume"])
        d = manifest["phantom_spec"]
        regen = sample_case(PhantomSpec(**{**d, "shape": tuple(d["shape"])}), entry["seed"])
        np.testing.assert_array_equal(vol, regen.volume)


@pytest.mark.parametrize("field, value", [
    ("shape", (0, 48, 48)), ("spacing_mm", 0.0), ("spacing_mm", -1.0),
    ("shadow_probability", -0.1), ("shadow_probability", 1.5),
    ("noise_multiplicative", -0.01), ("noise_additive", -0.01),
    ("spacing_mm", float("nan")), ("left_intensity_offset", float("inf")),
])
def test_spec_rejects_out_of_range_values(field, value):
    with pytest.raises(PhantomError, match=field.split("_")[0] + "|finite"):
        PhantomSpec(**{field: value})


# ---------------------------------------------------------------------------
# the stacked arithmetic of the generator before its separable axis grids,
# kept as a byte-equality reference: a (N, 3) offset stack from meshgrid,
# tensordot for the projection and a sum over the stack's last axis
# ---------------------------------------------------------------------------

def reference_render_tube(volume, p0_mm, p1_mm, radius_mm, amplitude, spacing_mm):
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
    zs, ys, xs = np.meshgrid(
        np.arange(zlo, zhi + 1) * spacing_mm,
        np.arange(ylo, yhi + 1) * spacing_mm,
        np.arange(xlo, xhi + 1) * spacing_mm,
        indexing="ij",
    )
    pts = np.stack([xs, ys, zs], axis=-1)
    seg = p1_mm - p0_mm
    seg_len2 = float(seg @ seg)
    rel = pts - p0_mm
    if seg_len2 < 1e-12:
        d2 = np.sum(rel**2, axis=-1)
    else:
        t = np.clip(np.tensordot(rel, seg, axes=([-1], [0])) / seg_len2, 0.0, 1.0)
        d2 = np.sum((rel - t[..., None] * seg) ** 2, axis=-1)
    blob = amplitude * np.exp(-d2 / (2.0 * radius_mm**2))
    blob[d2 > reach**2] = 0.0
    region = volume[zlo : zhi + 1, ylo : yhi + 1, xlo : xhi + 1]
    np.maximum(region, blob.astype(volume.dtype), out=region)


def reference_apply_shadow(spec, vol, rng):
    if rng.uniform() >= spec.shadow_probability:
        return None
    nz, ny, nx = vol.shape
    s = spec.spacing_mm
    face = int(rng.integers(6))
    apex = rng.uniform([0, 0, 0], [(nx - 1) * s, (ny - 1) * s, (nz - 1) * s])
    normal = np.zeros(3)
    apex[face // 2] = 0.0 if face % 2 == 0 else [nx - 1, ny - 1, nz - 1][face // 2] * s
    normal[face // 2] = 1.0 if face % 2 == 0 else -1.0
    axis = phantom._rotate_toward(rng, normal, 25.0)
    half_angle = np.deg2rad(rng.uniform(*phantom._SHADOW_HALF_ANGLE_DEG))
    zs, ys, xs = np.meshgrid(
        np.arange(nz) * s, np.arange(ny) * s, np.arange(nx) * s, indexing="ij"
    )
    rel = np.stack([xs, ys, zs], axis=-1) - apex
    dist = np.linalg.norm(rel, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.tensordot(rel, axis, axes=([-1], [0])) / np.maximum(dist, 1e-9)
    vol[cosang > np.cos(half_angle)] = 0.0
    return {
        "apex_mm": apex.tolist(),
        "axis": axis.tolist(),
        "half_angle_deg": float(np.rad2deg(half_angle)),
    }


def reference_add_noise(spec, vol, rng):
    if spec.noise_multiplicative > 0:
        vol *= 1.0 + spec.noise_multiplicative * rng.standard_normal(vol.shape).astype(np.float32)
    if spec.noise_additive > 0:
        vol += spec.noise_additive * np.abs(rng.standard_normal(vol.shape)).astype(np.float32)


REFERENCE_SPECS = {
    "64": PhantomSpec(shape=(64, 64, 64)),
    "48": PhantomSpec(shape=(48, 48, 48)),
    "96": PhantomSpec(shape=(96, 96, 96)),
    "32-at-2mm": PhantomSpec(shape=(32, 32, 32), spacing_mm=2.0),
    "40x56x64-at-1.3mm": PhantomSpec(shape=(40, 56, 64), spacing_mm=1.3),
    "shadowed-left-0.2": PhantomSpec(shape=(64, 64, 64), shadow_probability=1.0,
                                     left_intensity_offset=0.2),
    "no-multiplicative-noise": PhantomSpec(shape=(64, 64, 64), noise_multiplicative=0.0),
    "no-additive-noise": PhantomSpec(shape=(64, 64, 64), noise_additive=0.0),
}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
def test_sample_case_is_byte_equal_to_the_stacked_reference(name, monkeypatch):
    spec = REFERENCE_SPECS[name]
    seeds = range(4)
    cases = [sample_case(spec, seed) for seed in seeds]
    monkeypatch.setattr(phantom, "render_tube", reference_render_tube)
    monkeypatch.setattr(phantom, "_apply_shadow", reference_apply_shadow)
    monkeypatch.setattr(phantom, "_add_noise", reference_add_noise)
    for seed, case in zip(seeds, cases):
        ref = sample_case(spec, seed)
        assert case.volume.dtype == ref.volume.dtype and case.volume.shape == ref.volume.shape
        assert case.volume.tobytes() == ref.volume.tobytes(), f"seed {seed}"
        assert case.pose.xyz_mm.tobytes() == ref.pose.xyz_mm.tobytes(), f"seed {seed}"
        assert case.provenance == ref.provenance, f"seed {seed}"
        if spec.shadow_probability == 1.0:
            assert "shadow" in case.provenance


@pytest.mark.parametrize("p0, p1, radius", [
    ((8.3, 9.1, 7.7), (8.3, 9.1, 7.7), 3.2),        # a point: the degenerate segment
    ((3.1, 4.2, 5.3), (12.7, 10.9, 6.4), 2.2),      # inside the volume
    ((1.2, 14.6, 3.0), (-2.5, 18.3, 9.4), 2.6),     # its box clipped at the edges
    ((40.0, 45.0, 50.0), (44.0, 41.0, 52.0), 2.2),  # its box wholly outside
], ids=["point", "inside", "clipped", "outside"])
@pytest.mark.parametrize("spacing", [1.0, 1.3])
def test_render_tube_is_byte_equal_to_the_stacked_reference(p0, p1, radius, spacing):
    # max-composed over a noisy volume, so both the blob and the compose count
    base = np.random.default_rng(0).uniform(0.0, 0.5, size=(17, 19, 21)).astype(np.float32)
    vol, ref = base.copy(), base.copy()
    p0, p1 = np.array(p0), np.array(p1)
    render_tube(vol, p0, p1, radius, 0.85, spacing)
    reference_render_tube(ref, p0, p1, radius, 0.85, spacing)
    assert vol.tobytes() == ref.tobytes()
    assert np.array_equal(vol, base) == (p0[0] == 40.0)


def test_sample_case_memory_stays_within_eight_volumes():
    # a shadowed 64^3 case: the cone test holds two volume-sized float64
    # arrays and the noise one float64 and one float32 buffer; the stacked
    # form held about 23 volumes
    spec = PhantomSpec(shape=(64, 64, 64), shadow_probability=1.0)
    sample_case(spec, 1)
    tracemalloc.start()
    try:
        case = sample_case(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "shadow" in case.provenance
    assert peak <= 8 * case.volume.nbytes, f"peak {peak / case.volume.nbytes:.2f} volumes"
