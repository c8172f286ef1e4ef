"""Heatmap codec: hand values, round-trip and equivariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volpose import heatmap
from volpose.anatomy import NUM_LANDMARKS
from volpose.heatmap import HeatmapError


def random_pose_mm(rng, shape, spacing, margin_vox=6.0):
    nz, ny, nx = shape
    lo = margin_vox * spacing
    hi = (np.array([nx, ny, nz]) - 1 - margin_vox) * spacing
    return rng.uniform(lo, hi, size=(NUM_LANDMARKS, 3))


def test_encode_center_voxel_is_one():
    shape = (16, 16, 16)
    pose = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))  # exactly on a voxel center
    stack = heatmap.encode(pose, shape, spacing=1.0, sigma_vox=2.0)
    assert stack.shape == (16, 16, 16, 16)
    assert stack[0, 8, 8, 8] == 1.0
    assert stack[0].max() == 1.0


def test_encode_value_at_sigma_distance():
    shape = (16, 16, 16)
    pose = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))
    stack = heatmap.encode(pose, shape, spacing=1.0, sigma_vox=2.0)
    # two voxels along x is one sigma away
    np.testing.assert_allclose(stack[0, 8, 8, 10], np.exp(-0.5), rtol=1e-6)


def test_encode_truncates_small_values():
    shape = (32, 32, 32)
    pose = np.tile([16.0, 16.0, 16.0], (NUM_LANDMARKS, 1))
    stack = heatmap.encode(pose, shape, spacing=1.0, sigma_vox=1.5)
    nonzero = stack[0][stack[0] > 0]
    assert nonzero.min() >= heatmap.TRUNCATION
    assert stack[0, 0, 0, 0] == 0.0


def test_encode_peak_at_nearest_voxel():
    shape = (16, 16, 16)
    pose = np.tile([7.3, 8.2, 8.9], (NUM_LANDMARKS, 1))
    stack = heatmap.encode(pose, shape, spacing=1.0, sigma_vox=2.0)
    iz, iy, ix = np.unravel_index(np.argmax(stack[0]), shape)
    assert (ix, iy, iz) == (7, 8, 9)
    assert stack[0].max() <= 1.0


def test_encode_rejects_out_of_bounds_with_index():
    pose = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))
    pose[4] = [-1.0, 8.0, 8.0]
    with pytest.raises(HeatmapError, match="landmark 5"):
        heatmap.encode(pose, (16, 16, 16), 1.0, 2.0)


def test_grid_check_names_the_first_non_finite_or_outside_landmark():
    vox = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))
    vox[4] = [8.0, np.nan, 8.0]
    vox[9] = [-1.0, 8.0, 8.0]
    with pytest.raises(HeatmapError, match="landmark 5 "):
        heatmap.check_in_grid(vox, (16, 16, 16))
    with pytest.raises(HeatmapError, match="landmark 5 "):
        heatmap.encode(vox, (16, 16, 16), 1.0, 2.0)
    present = np.ones(NUM_LANDMARKS, dtype=bool)
    present[4] = False
    with pytest.raises(HeatmapError, match="landmark 10 "):
        heatmap.check_in_grid(vox, (16, 16, 16), present)


def test_encode_present_mask_zeroes_and_skips_masked_landmarks():
    pose = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))
    pose[4] = [-30.0, 8.0, 8.0]      # outside the grid, but masked out
    pose[6] = np.nan                 # an absent landmark need not be finite
    present = np.ones(NUM_LANDMARKS, dtype=bool)
    present[[4, 6]] = False
    stack = heatmap.encode(pose, (16, 16, 16), 1.0, 2.0, present)
    assert not stack[4].any() and not stack[6].any()
    full = heatmap.encode(np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1)), (16, 16, 16), 1.0, 2.0)
    np.testing.assert_array_equal(stack[present], full[present])
    # unmasked, the same pose is rejected
    with pytest.raises(HeatmapError, match="landmark 5"):
        heatmap.encode(np.nan_to_num(pose), (16, 16, 16), 1.0, 2.0)


def test_encode_rejects_bad_sigma():
    pose = np.tile([8.0, 8.0, 8.0], (NUM_LANDMARKS, 1))
    with pytest.raises(HeatmapError, match="sigma"):
        heatmap.encode(pose, (16, 16, 16), 1.0, 0.0)


def test_decode_single_voxel_impulse():
    stack = np.zeros((1, 8, 8, 8), dtype=np.float32)
    stack[0, 5, 4, 3] = 1.0  # (z, y, x) = (5, 4, 3)
    dec = heatmap.decode_voxels(stack, window=1)
    np.testing.assert_array_equal(dec.voxels[0], [3.0, 4.0, 5.0])
    assert dec.present[0]


def test_decode_subvoxel_gaussian_centroid():
    # symmetric Gaussian centered between voxels: centroid lands within
    # a quarter voxel of the true center
    shape = (17, 17, 17)
    center = np.array([8.5, 8.25, 7.75])
    chan = heatmap.encode_channel(center, shape, sigma_vox=2.0)
    dec = heatmap.decode_voxels(chan[None], window=5)
    assert np.linalg.norm(dec.voxels[0] - center) < 0.25


def test_decode_spacing_converts_to_mm():
    stack = np.zeros((1, 12, 12, 12), dtype=np.float32)
    stack[0, 10, 10, 10] = 1.0
    dec = heatmap.decode(stack, spacing=0.5, window=1)
    np.testing.assert_allclose(dec.xyz_mm[0], [5.0, 5.0, 5.0])


def test_decode_all_zero_channel_flagged():
    stack = np.zeros((2, 8, 8, 8), dtype=np.float32)
    stack[1, 2, 2, 2] = 1.0
    dec = heatmap.decode_voxels(stack, window=3)
    assert not dec.present[0]
    np.testing.assert_array_equal(dec.voxels[0], [0.0, 0.0, 0.0])
    assert dec.present[1]


def test_decode_window_must_be_odd():
    stack = np.zeros((1, 8, 8, 8), dtype=np.float32)
    with pytest.raises(HeatmapError, match="odd"):
        heatmap.decode_voxels(stack, window=4)


def test_round_trip_error_below_half_voxel():
    rng = np.random.default_rng(42)
    shape = (24, 28, 32)
    spacing = 1.0
    for _ in range(25):
        pose = random_pose_mm(rng, shape, spacing)
        stack = heatmap.encode(pose, shape, spacing, sigma_vox=2.0)
        dec = heatmap.decode(stack, spacing, window=5)
        err = np.linalg.norm(dec.xyz_mm - pose, axis=1)
        assert err.max() <= 0.5


def test_integer_translation_equivariance():
    # margin covers the full truncation radius (~8.6 voxels at sigma 2) plus
    # the shift, so rolling cannot wrap any nonzero value
    rng = np.random.default_rng(3)
    shape = (32, 32, 32)
    pose = random_pose_mm(rng, shape, 1.0, margin_vox=13.0)
    shift = np.array([2.0, -1.0, 3.0])
    a = heatmap.encode(pose, shape, 1.0, 2.0)
    b = heatmap.encode(pose + shift, shape, 1.0, 2.0)
    rolled = np.roll(a, shift=(3, -1, 2), axis=(1, 2, 3))  # axes are (z, y, x)
    np.testing.assert_allclose(b, rolled, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.05, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_confidence_scaling_leaves_coordinates_unchanged(alpha, seed):
    rng = np.random.default_rng(seed)
    center = rng.uniform(6, 10, size=3)
    chan = heatmap.encode_channel(center, (16, 16, 16), sigma_vox=2.0)
    a = heatmap.decode_voxels(chan[None], window=5, confidence_floor=0.0)
    b = heatmap.decode_voxels((alpha * chan)[None], window=5, confidence_floor=0.0)
    np.testing.assert_allclose(a.voxels, b.voxels, atol=1e-9)
    np.testing.assert_allclose(b.confidence, alpha * a.confidence, rtol=1e-6)
