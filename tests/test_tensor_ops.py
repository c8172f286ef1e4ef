"""Primitive forward behavior: hand values, references and shape rules."""

import tracemalloc

import numpy as np
import pytest

from volpose import ops
from volpose.ops import ShapeMismatch


def test_relu_hand_values():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 3)
    out = ops.relu_forward(x)
    np.testing.assert_array_equal(out.ravel(), [0.0, 0.0, 2.0])


def test_l2_loss_identity_is_zero():
    h = np.random.default_rng(0).normal(size=(4, 3, 3, 3)).astype(np.float32)
    assert ops.l2_loss_forward(h, h) == 0.0


def test_conv3d_all_ones_center_voxel():
    # all-ones 3x3x3 volume, all-ones 3x3x3 kernel, same padding:
    # the center voxel sees the full kernel support, so it sums to 27.
    x = np.ones((1, 3, 3, 3), dtype=np.float64)
    w = np.ones((1, 1, 3, 3, 3), dtype=np.float64)
    b = np.zeros(1, dtype=np.float64)
    out = ops.conv3d_forward(x, w, b)
    assert out.shape == (1, 3, 3, 3)
    assert out[0, 1, 1, 1] == 27.0
    # a corner voxel only sees the 2x2x2 overlap
    assert out[0, 0, 0, 0] == 8.0


def test_conv3d_same_padding_preserves_shape():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5, 6, 7))
    w = rng.normal(size=(4, 3, 3, 3, 3))
    out = ops.conv3d_forward(x, w, np.zeros(4))
    assert out.shape == (4, 5, 6, 7)


def conv3d_direct(x, w, b):
    """float64 sum over kernel taps of the zero-padded input, one tap at a time."""
    k = w.shape[2]
    p = k // 2
    _, d, h, ww = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p), (p, p)))
    out = np.zeros((w.shape[0], d, h, ww)) + b[:, None, None, None]
    for a in range(k):
        for bb in range(k):
            for c in range(k):
                window = xp[:, a : a + d, bb : bb + h, c : c + ww]
                out += np.einsum("oi,izyx->ozyx", w[:, :, a, bb, c].astype(np.float64), window)
    return out


@pytest.mark.parametrize("extents", [(5, 6, 7), (2, 3, 4), (1, 2, 1)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv3d_forward_matches_direct_sum(extents, k, cin):
    # non-cubic extents put every tap's row wrap at a different place;
    # extents below k leave taps that read padding only
    rng = np.random.default_rng(k * 10 + cin)
    x = rng.normal(size=(cin, *extents)).astype(np.float32)
    w = rng.normal(size=(2, cin, k, k, k)).astype(np.float32)
    b = rng.normal(size=2).astype(np.float32)
    out = ops.conv3d_forward(x, w, b)
    assert out.shape == (2, *extents) and out.dtype == np.float32
    # float32 rounding of at most cin * k^3 terms of order 1
    np.testing.assert_allclose(out, conv3d_direct(x, w, b), rtol=0, atol=1e-4)


@pytest.mark.parametrize("extents", [(5, 6, 7), (2, 3, 4), (1, 2, 1)])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cin", [1, 3])
def test_conv3d_backward_is_the_adjoint_of_forward(extents, k, cin):
    # <conv(x, w), u> is bilinear in x and w, so the backward must satisfy
    # <conv(x, w), u> == <x, gx> == <w, gw> exactly up to float64 rounding,
    # also where wrap columns and padding-only taps occur
    rng = np.random.default_rng(k * 100 + cin)
    x = rng.normal(size=(cin, *extents))
    w = rng.normal(size=(2, cin, k, k, k))
    u = rng.normal(size=(2, *extents))
    lhs = np.sum(ops.conv3d_forward(x, w, np.zeros(2)) * u)
    gx, gw, gb = ops.conv3d_backward(x, w, u)
    assert gx.shape == x.shape and gw.shape == w.shape
    np.testing.assert_allclose(np.sum(x * gx), lhs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(np.sum(w * gw), lhs, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(gb, u.sum(axis=(1, 2, 3)))
    # skipping the input gradient leaves the others bit for bit
    none, gw2, gb2 = ops.conv3d_backward(x, w, u, input_grad=False)
    assert none is None
    np.testing.assert_array_equal(gw2, gw)
    np.testing.assert_array_equal(gb2, gb)


def test_conv3d_workspace_stays_near_operand_size():
    # 16 -> 8 channels at 32^3 float32: an im2col of x alone would be 27x
    # x.nbytes, so these bounds fail as soon as such a buffer comes back
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 32, 32, 32)).astype(np.float32)
    w = rng.normal(size=(8, 16, 3, 3, 3)).astype(np.float32)
    b = np.zeros(8, dtype=np.float32)
    g = rng.normal(size=(8, 32, 32, 32)).astype(np.float32)
    operands = x.nbytes + g.nbytes
    tracemalloc.start()
    try:
        ops.conv3d_forward(x, w, b)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ops.conv3d_backward(x, w, g)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak <= 4 * operands, forward_peak / operands
    assert backward_peak <= 6 * operands, backward_peak / operands


def test_conv3d_channel_mismatch_rejected():
    x = np.zeros((2, 4, 4, 4))
    w = np.zeros((4, 3, 3, 3, 3))
    with pytest.raises(ShapeMismatch, match="expected 3 input channels, got 2"):
        ops.conv3d_forward(x, w, np.zeros(4))


@pytest.mark.parametrize("go_shape", [(4, 5, 6, 6), (3, 5, 6, 7), (4, 5, 6)])
def test_conv3d_backward_rejects_mismatched_grad_out(go_shape):
    x = np.zeros((2, 5, 6, 7))
    w = np.zeros((4, 2, 3, 3, 3))
    with pytest.raises(ShapeMismatch, match="conv3d: grad_out must be"):
        ops.conv3d_backward(x, w, np.zeros(go_shape))


@pytest.mark.parametrize("go_shape", [(2, 6, 8, 9), (3, 6, 8, 10), (2, 3, 4, 5)])
def test_deconv3d_backward_rejects_mismatched_grad_out(go_shape):
    x = np.zeros((4, 3, 4, 5))
    w = np.zeros((4, 2, 2, 2, 2))
    with pytest.raises(ShapeMismatch, match="deconv3d: grad_out must be"):
        ops.deconv3d_backward(x, w, np.zeros(go_shape))


def test_deconv3d_doubles_extents():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3, 4, 5))
    w = rng.normal(size=(4, 2, 2, 2, 2))
    out = ops.deconv3d_forward(x, w, np.zeros(2))
    assert out.shape == (2, 6, 8, 10)


def test_deconv3d_scatter_positions():
    # single input voxel scatters its value through the 2x2x2 kernel taps
    x = np.zeros((1, 2, 2, 2))
    x[0, 1, 0, 1] = 3.0
    w = np.arange(8, dtype=np.float64).reshape(1, 1, 2, 2, 2)
    out = ops.deconv3d_forward(x, w, np.zeros(1))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert out[0, 2 + a, 0 + b, 2 + c] == 3.0 * w[0, 0, a, b, c]
    assert out.sum() == 3.0 * w.sum()


def test_max_pool_halves_and_floors_odd():
    x = np.arange(2 * 5 * 4 * 3, dtype=np.float32).reshape(2, 5, 4, 3)
    out = ops.max_pool3d_forward(x)
    assert out.shape == (2, 2, 2, 1)


def test_max_pool_values():
    x = np.zeros((1, 2, 2, 2), dtype=np.float32)
    x[0, 1, 1, 0] = 5.0
    out = ops.max_pool3d_forward(x)
    assert out[0, 0, 0, 0] == 5.0


def test_max_pool_tie_goes_to_lowest_linear_index():
    x = np.full((1, 2, 2, 2), 7.0, dtype=np.float32)
    g = np.ones((1, 1, 1, 1), dtype=np.float32)
    gx = ops.max_pool3d_backward(x, g)
    # all eight window entries tie at 7; the gradient must land on (0,0,0)
    assert gx[0, 0, 0, 0] == 1.0
    assert gx.sum() == 1.0


def test_batch_norm_normalizes_per_channel():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(2, 4, 4, 4))
    out = ops.batch_norm_forward(x, np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=(1, 2, 3)), 1.0, atol=1e-4)


def test_concat_requires_equal_spatial_extents():
    a = np.zeros((2, 4, 4, 4))
    b = np.zeros((3, 4, 4, 5))
    with pytest.raises(ShapeMismatch, match="spatial extents differ"):
        ops.concat_forward([a, b])
    c = np.zeros((3, 4, 4, 4))
    assert ops.concat_forward([a, c]).shape == (5, 4, 4, 4)


def test_add_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        ops.add_forward(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 3)))


def test_primitives_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6, 6, 6)).astype(np.float32)
    w = rng.normal(size=(5, 3, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=5).astype(np.float32)
    a1 = ops.conv3d_forward(x, w, b)
    a2 = ops.conv3d_forward(x, w, b)
    np.testing.assert_array_equal(a1, a2)
    # the checkpointed backward pass matches the plain one only if every
    # backward kernel reproduces its bits on the same inputs
    w1 = rng.normal(size=(5, 3, 1, 1, 1)).astype(np.float32)
    wd = rng.normal(size=(3, 5, 2, 2, 2)).astype(np.float32)
    g = rng.normal(size=(5, 6, 6, 6)).astype(np.float32)
    gd = rng.normal(size=(5, 12, 12, 12)).astype(np.float32)
    for kernel, args in (
        (ops.conv3d_backward, (x, w, g)),
        (ops.conv3d_backward, (x, w1, g)),
        (ops.deconv3d_backward, (x, wd, gd)),
    ):
        for r1, r2 in zip(kernel(*args), kernel(*args)):
            np.testing.assert_array_equal(r1, r2)
