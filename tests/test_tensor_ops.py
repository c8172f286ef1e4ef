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


def conv3d_weight_grad_direct(x, g, k):
    """float64 weight gradient of conv3d, one tap at a time: the output
    gradient dotted with the padded input window the tap reads."""
    p = k // 2
    _, d, h, ww = x.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (p, p), (p, p), (p, p)))
    gw = np.empty((g.shape[0], x.shape[0], k, k, k))
    for a, bb, c in np.ndindex(k, k, k):
        window = xp[:, a : a + d, bb : bb + h, c : c + ww]
        gw[:, :, a, bb, c] = np.tensordot(g.astype(np.float64), window, axes=([1, 2, 3], [1, 2, 3]))
    return gw


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


# The padded-copy conv3d that the blocked kernel replaced: it pads each
# operand once into a whole flat copy and accumulates the whole layer before
# copying out its voxels. Its column blocks, GEMM shapes, operand values and
# (a, b) sum order are the kernel's own, so both must give the same bytes.

def padded_reference(x, k):
    p = k // 2
    return np.pad(x, ((0, 0), (p, p), (p, p), (p, p))).reshape(x.shape[0], -1)


def stack_reference(f, k, start, out):
    c, length = f.shape
    w = out.shape[1]
    if k == 1 and start + w <= length:
        return f[:, start : start + w]
    for r in range(k):
        v = max(0, min(w, length - start - r))
        out[r * c : r * c + c, :v] = f[:, start + r : start + r + v]
        out[r * c : r * c + c, v:] = 0
    return out


def tap_conv_reference(f, wk, shape):
    cin, d, h, w = shape
    k = wk.shape[2] // cin
    hp, wp, n, offsets = ops._grid(shape, k)
    step = ops.CONV_BLOCK if n > 2 * ops.CONV_BLOCK else n
    halo = offsets[-1]
    stack = np.empty((k * cin, step + halo), dtype=f.dtype)
    acc = np.empty((wk.shape[1], d * hp * wp), dtype=f.dtype)
    tmp = np.empty((wk.shape[1], step), dtype=f.dtype)
    for j in range(0, n, step):
        e = min(j + step, n)
        s = stack_reference(f, k, j, stack[:, : e - j + halo])
        np.matmul(wk[0], s[:, : e - j], out=acc[:, j:e])
        for wt, off in zip(wk[1:], offsets[1:]):
            np.matmul(wt, s[:, off : off + e - j], out=tmp[:, : e - j])
            acc[:, j:e] += tmp[:, : e - j]
    return acc.reshape(-1, d, hp, wp)[:, :, :h, :w]


def conv3d_forward_reference(x, weight, bias):
    out = tap_conv_reference(padded_reference(x, weight.shape[2]), ops._tap_weights(weight), x.shape)
    return out + bias[:, None, None, None]


def conv3d_backward_reference(x, weight, grad_out):
    cout, cin, k = weight.shape[:3]
    gb = grad_out.sum(axis=(1, 2, 3))
    gf = padded_reference(grad_out, k)
    hp, wp, n, offsets = ops._grid(x.shape, k)
    p = k // 2
    lo, m = p * (hp * wp + wp + 1) - 2 * p, n + 2 * p
    step = ops.CONV_BLOCK if m > 2 * ops.CONV_BLOCK else m
    xf = padded_reference(x, k)
    stack = np.empty((k * cout, step), dtype=grad_out.dtype)
    gw = np.empty((k * k, k * cout, cin), dtype=x.dtype)
    for j in range(0, m, step):
        e = min(j + step, m)
        # a block's whole multiple of GW_PAD columns, then its rest zero-padded
        q = (e - j) // ops.GW_PAD * ops.GW_PAD
        s = stack_reference(gf, k, lo + j, stack[:, : e - j])
        for t, off in enumerate(offsets):
            xt = xf[:, off + j : off + e]
            block = s[:, :q] @ xt[:, :q].T if q else None
            if q < e - j:
                pad = ((0, 0), (0, ops.GW_PAD - (e - j - q)))
                rest = np.pad(s[:, q:], pad) @ np.pad(xt[:, q:], pad).T
                block = rest if block is None else block + rest
            gw[t] = block if j == 0 else gw[t] + block
    gw = gw.reshape(k, k, k, cout, cin)[:, :, ::-1].transpose(3, 4, 0, 1, 2)
    flipped = weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    gx = tap_conv_reference(gf, ops._tap_weights(flipped), grad_out.shape)
    return np.ascontiguousarray(gx), np.ascontiguousarray(gw), gb


@pytest.mark.parametrize(
    "cin, cout, extents, k, dtype",
    [
        (1, 8, (32, 32, 32), 3, np.float32),  # the detector's first layer
        (8, 8, (32, 32, 32), 3, np.float32),
        (16, 8, (32, 32, 32), 3, np.float32),
        (8, 16, (32, 32, 32), 3, np.float32),
        (8, 8, (36, 36, 36), 3, np.float32),  # 12 blocks and a ragged tail
        (16, 8, (16, 16, 16), 3, np.float32),  # one block
        (8, 16, (32, 32, 32), 1, np.float32),  # the 1x1x1 head
        (3, 4, (5, 7, 9), 3, np.float32),  # non-cubic, odd extents
        (3, 4, (5, 7, 9), 5, np.float32),
        (4, 4, (24, 24, 24), 3, np.float64),  # four blocks in float64
    ],
)
def test_conv3d_is_byte_equal_to_the_padded_copy_kernel(cin, cout, extents, k, dtype):
    rng = np.random.default_rng(cin * 100 + cout + k)
    x = rng.normal(size=(cin, *extents)).astype(dtype)
    w = rng.normal(size=(cout, cin, k, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    g = rng.normal(size=(cout, *extents)).astype(dtype)
    out = ops.conv3d_forward(x, w, b)
    ref = conv3d_forward_reference(x, w, b)
    assert out.dtype == ref.dtype and out.flags.c_contiguous
    assert out.tobytes() == ref.tobytes()
    got = ops.conv3d_backward(x, w, g)
    for name, a, r in zip(("gx", "gw", "gb"), got, conv3d_backward_reference(x, w, g)):
        assert a.shape == r.shape and a.dtype == r.dtype and a.flags.c_contiguous, name
        assert a.tobytes() == r.tobytes(), name


def conv_workspace(cin, cout, extents, k):
    """Bytes of float32 workspace one conv3d call may hold beside its
    operands and results: one block's padded planes, stack and accumulator
    (and its weight gradient's two sets of planes), from the shapes alone."""
    hp, wp, n, offsets = ops._grid((cin, *extents), k)
    plane, halo, step = hp * wp, offsets[-1], ops.CONV_BLOCK

    def planes(c, width):
        return c * min(extents[0] + k - 1, (width + plane - 2) // plane + 1) * plane

    def conv(c_in, c_out):  # a forward, or gx with the channels swapped
        return planes(c_in, step + halo + k - 1) + k * c_in * (step + halo) + 2 * c_out * step

    weight_grad = planes(cout, step + k - 1) + planes(cin, step + halo) + k * cout * step
    return 4 * max(conv(cin, cout), conv(cout, cin), weight_grad)


def conv_workspace_peaks(extent):
    """tracemalloc peaks of a 16 -> 8 conv3d forward and backward at
    ``extent``^3, less the arrays each returns, and the shapes' bound."""
    shape, cout, k = (16, extent, extent, extent), 8, 3
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(cout, 16, k, k, k)).astype(np.float32)
    b = np.zeros(cout, dtype=np.float32)
    g = rng.normal(size=(cout, *shape[1:])).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ops.conv3d_forward(x, w, b)
        forward = tracemalloc.get_traced_memory()[1] - base - out.nbytes
        del out
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gx, gw, gb = ops.conv3d_backward(x, w, g)
        backward = tracemalloc.get_traced_memory()[1] - base - gx.nbytes - gw.nbytes - gb.nbytes
    finally:
        tracemalloc.stop()
    return forward, backward, conv_workspace(16, cout, shape[1:], k)


def test_conv3d_workspace_stays_near_operand_size():
    # 16 -> 8 channels, the detector's widest 32^3 layer: beside its operands
    # and what it returns, a call holds one column block's planes, stack and
    # accumulator, plus 64 KiB for Python objects and weight copies. A padded
    # copy of x (2.5 MB at 32^3) or a layer-sized accumulator (1.2 MB)
    # breaks the bound. The same bound holds at 48^3, where it grows with
    # the planes only: 1.4x, while x grows 3.4x
    bounds = []
    for extent in (32, 48):
        forward, backward, bound = conv_workspace_peaks(extent)
        assert forward <= bound + 64 * 1024, (extent, forward, bound)
        assert backward <= bound + 64 * 1024, (extent, backward, bound)
        bounds.append(bound)
    assert bounds[0] < 4 * 16 * 34**3 and bounds[1] < 1.5 * bounds[0], bounds


def whole_stack(f, k, width):
    """The k-shift stack of the flat padded operand f over ``width``
    columns: row block r is f shifted left by r columns, zero past its end."""
    c, length = f.shape
    s = np.zeros((k, c, width), dtype=f.dtype)
    for r in range(k):
        v = min(width, length - r)
        s[r, :, :v] = f[:, r : r + v]
    return s.reshape(k * c, width)


def test_conv3d_block_stacks_equal_the_whole_stack():
    # 8 -> 8 at 36^3: every block of the forward's walk (n columns plus the
    # halo its taps reach) and of the weight gradient's (m = n + 2 columns
    # from lo), each at the width the conv uses and at the buffer's full
    # width, which at the tail runs past the padded input into zero columns.
    # Each block's stack is built from the padded planes the reader copies
    # from x, never from a whole padded copy
    k, shape = 3, (8, 36, 36, 36)
    x = np.random.default_rng(21).normal(size=shape).astype(np.float32)
    f = padded_reference(x, k)
    hp, wp, n, offsets = ops._grid(shape, k)
    step, halo = ops.CONV_BLOCK, offsets[-1]
    lo, m = hp * wp + wp + 1 - 2, n + 2
    assert n > 3 * step and n % step
    whole = whole_stack(f, k, f.shape[1] + step + halo)
    planes = ops._planes(x, k, step + halo + k - 1)
    buf = np.empty((k * shape[0], step + halo), dtype=f.dtype)
    blocks = [(j, min(step, n - j) + halo) for j in range(0, n, step)]
    blocks += [(lo + j, min(step, m - j)) for j in range(0, m, step)]
    assert max(j for j, _ in blocks) + step + halo > f.shape[1]
    for j, used in blocks:
        for w in (used, step + halo):
            buf.fill(np.nan)  # a column the block leaves unwritten shows
            part, base = planes(j)
            assert part.shape[1] < f.shape[1] and base % (hp * wp) == 0
            assert part.tobytes() == f[:, base : base + part.shape[1]].tobytes()
            got = ops._stack_block(part, k, j - base, w, buf)
            assert got.shape == (k * shape[0], w)
            assert got.tobytes() == whole[:, j : j + w].tobytes(), (j, w)


@pytest.mark.parametrize("cin, cout, extent", [(8, 8, 36), (16, 8, 32)])
def test_blocked_conv3d_is_byte_equal_to_one_block(monkeypatch, cin, cout, extent):
    # 8 -> 8 at 36^3 runs 12 blocks and a ragged tail; 16 -> 8 at 32^3 is
    # the detector's widest 32^3 layer, with a 58-column tail. float32 is
    # the detector's dtype: in float64, OpenBLAS rounds the last columns of
    # a large GEMM apart from a small one's, so there the final voxels'
    # bits follow the BLAS's kernel choice
    shape = (cin, extent, extent, extent)
    n = ops._grid(shape, 3)[2]
    assert n > 3 * ops.CONV_BLOCK and n % ops.CONV_BLOCK
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(cout, cin, 3, 3, 3)).astype(np.float32)
    b = rng.normal(size=cout).astype(np.float32)
    g = rng.normal(size=(cout, *shape[1:])).astype(np.float32)

    def run():
        return ops.conv3d_forward(x, w, b), *ops.conv3d_backward(x, w, g)

    blocked = run()
    monkeypatch.setattr(ops, "CONV_BLOCK", n)  # one block, also of gw's n + 2 columns
    one = run()
    for i in (0, 1, 3):  # the forward, gx and gb
        assert one[i].tobytes() == blocked[i].tobytes()
    # gw adds its blocks' GEMMs one after another, so its bits follow
    # CONV_BLOCK; equal bytes here would mean the patch did not reach it
    assert one[2].tobytes() != blocked[2].tobytes()
    # both stay within float32 rounding of a float64 reference. The bound
    # is fixed at 20x eps*sqrt(m/6), the spread of a sequential float32 sum
    # of m terms, about 5e-6 here; a block lost or added would be off by
    # sqrt(CONV_BLOCK/m), above 0.25
    reference = conv3d_weight_grad_direct(x, g, 3)
    for gw in (blocked[2], one[2]):
        assert np.linalg.norm(gw - reference) <= 1e-4 * np.linalg.norm(reference)
    # in float64 the blocked gw is the adjoint of the forward: <w, gw> ==
    # <conv(x, w), u> up to float64 rounding, as at the small shapes
    monkeypatch.undo()
    x, w, u = (a.astype(np.float64) for a in (x, w, g))
    lhs = np.sum(ops.conv3d_forward(x, w, np.zeros(cout)) * u)
    gw = ops.conv3d_backward(x, w, u, input_grad=False)[1]
    np.testing.assert_allclose(np.sum(w * gw), lhs, rtol=1e-12)


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


BACKWARD_ON_X = {
    "batch_norm": lambda x, g: ops.batch_norm_backward(x, np.ones(2), g),
    "relu": ops.relu_backward,
    "max_pool3d": ops.max_pool3d_backward,
    "l2_loss": lambda x, g: ops.l2_loss_backward(x, g, np.asarray(1.0)),  # g is the target
}


@pytest.mark.parametrize(
    "name, go_shape",
    [
        ("batch_norm", (2, 1, 1, 1)),
        ("batch_norm", (1, 4, 6, 8)),
        ("relu", (2, 1, 1, 1)),
        ("relu", (1, 4, 6, 8)),
        ("max_pool3d", (2, 1, 1, 1)),
        ("max_pool3d", (1, 2, 3, 4)),
        ("max_pool3d", (2, 4, 6, 8)),
        ("l2_loss", (2, 1, 1, 1)),
        ("l2_loss", (1, 4, 6, 8)),
    ],
)
def test_backward_rejects_broadcastable_grad_out(name, go_shape):
    # each shape broadcasts against x (2, 4, 6, 8) or the pooled (2, 2, 3, 4),
    # so without the check the kernel would return a gradient of wrong values
    x = np.random.default_rng(4).normal(size=(2, 4, 6, 8))
    with pytest.raises(ShapeMismatch, match=rf"{name}: \w+ must be \("):
        BACKWARD_ON_X[name](x, np.ones(go_shape))


def test_l2_loss_backward_rejects_non_scalar_grad_out():
    x = np.zeros((2, 4, 6, 8))
    with pytest.raises(ShapeMismatch, match=r"l2_loss: grad_out must be \(\)"):
        ops.l2_loss_backward(x, x, np.ones(x.shape))


def test_l2_loss_backward_bytes_and_one_temporary():
    rng = np.random.default_rng(8)
    pred = rng.normal(size=(16, 32, 32, 32)).astype(np.float32)
    target = rng.uniform(size=pred.shape).astype(np.float32)
    for value in (1.0, 0.37):
        grad_out = np.asarray(value, dtype=np.float32)
        want = (2.0 / pred.size) * grad_out * (pred - target)
        gp, gt = ops.l2_loss_backward(pred, target, grad_out)
        assert gp.dtype == np.float32 and gp.tobytes() == want.tobytes()
        assert gt.tobytes() == (-want).tobytes()
    del want, gp, gt
    tracemalloc.start()
    try:
        ops.l2_loss_backward(pred, target, np.asarray(1.0, dtype=np.float32), target_grad=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the returned gradient is the one temporary; a scaled copy of
    # pred - target would make it two
    assert peak <= 1.25 * pred.nbytes, peak / pred.nbytes


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


# Oracles: the window-copy max-pool and np.where ReLU gradient that the
# strided and bit-mask kernels replaced. The kernels must match them byte
# for byte, signed zeros included.

def pool_windows_oracle(x):
    c, d, h, w = x.shape
    d2, h2, w2 = d // 2, h // 2, w // 2
    xc = x[:, : 2 * d2, : 2 * h2, : 2 * w2]
    return (
        xc.reshape(c, d2, 2, h2, 2, w2, 2)
        .transpose(0, 1, 3, 5, 2, 4, 6)
        .reshape(c, d2, h2, w2, 8)
    )


def max_pool_forward_oracle(x):
    return pool_windows_oracle(x).max(axis=-1)


def max_pool_backward_oracle(x, grad_out):
    c, d, h, w = x.shape
    d2, h2, w2 = d // 2, h // 2, w // 2
    win = pool_windows_oracle(x)
    idx = win.argmax(axis=-1)  # first max = lowest window-linear index
    gwin = np.zeros_like(win)
    np.put_along_axis(gwin, idx[..., None], grad_out[..., None], axis=-1)
    gx = np.zeros_like(x)
    gx[:, : 2 * d2, : 2 * h2, : 2 * w2] = (
        gwin.reshape(c, d2, h2, w2, 2, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3, 6)
        .reshape(c, 2 * d2, 2 * h2, 2 * w2)
    )
    return gx


def relu_backward_oracle(x, grad_out):
    return np.where(x > 0, grad_out, np.asarray(0, dtype=grad_out.dtype))


def signed_zeros(rng, a, share=0.3):
    """a with about ``share`` of its entries set to -0.0 or +0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < share
    a[hit] = np.where(rng.random(int(hit.sum())) < 0.5, -0.0, 0.0)
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 7, 6, 9), (2, 4, 5, 4), (1, 2, 3, 2), (4, 16, 16, 16)])
def test_max_pool_matches_window_oracle_bytes(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    # small integers tie often; signed zeros mix -0.0 and +0.0 in windows
    x = signed_zeros(rng, rng.integers(-2, 3, size=shape).astype(dtype))
    c, d, h, w = shape
    d2, h2, w2 = d // 2, h // 2, w // 2
    # planted partial ties at non-zero window positions: (0, 1, 1) and
    # (1, 0, 1) share the max of the first window, (1, 1, 0) and (1, 1, 1)
    # that of the last window
    x[:, 0:2, 0:2, 0:2] = -1
    x[:, 0, 1, 1] = x[:, 1, 0, 1] = 3
    ld, lh, lw = 2 * d2 - 2, 2 * h2 - 2, 2 * w2 - 2
    if (d2, h2, w2) != (1, 1, 1):
        x[:, ld : ld + 2, lh : lh + 2, lw : lw + 2] = -1
        x[:, ld + 1, lh + 1, lw] = x[:, ld + 1, lh + 1, lw + 1] = 4
    # odd trailing rows hold the largest values, which no window contains
    x[:, 2 * d2 :] = x[:, :, 2 * h2 :] = x[:, :, :, 2 * w2 :] = 9
    g = signed_zeros(rng, rng.normal(size=(c, d2, h2, w2)).astype(dtype))
    out = ops.max_pool3d_forward(x)
    assert out.dtype == dtype
    assert out.tobytes() == max_pool_forward_oracle(x).tobytes()
    gx = ops.max_pool3d_backward(x, g)
    assert gx.dtype == dtype
    assert gx.tobytes() == max_pool_backward_oracle(x, g).tobytes()
    assert gx[:, 0, 1, 1].tobytes() == g[:, 0, 0, 0].tobytes()
    assert not gx[:, 1, 0, 1].any()
    if (d2, h2, w2) != (1, 1, 1):
        assert gx[:, ld + 1, lh + 1, lw].tobytes() == g[:, -1, -1, -1].tobytes()
        assert not gx[:, ld + 1, lh + 1, lw + 1].any()
    for dropped in (gx[:, 2 * d2 :], gx[:, :, 2 * h2 :], gx[:, :, :, 2 * w2 :]):
        assert not np.signbit(dropped).any() and not dropped.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_windows_of_signed_zeros_match_oracle_bytes(dtype):
    rng = np.random.default_rng(11)
    x = np.where(rng.random((2, 6, 6, 6)) < 0.5, -0.0, 0.0).astype(dtype)
    x[0, 0, 0, 0], x[0, 0, 0, 1] = -0.0, 0.0
    x[1, 0, 0, 0], x[1, 0, 0, 1] = 0.0, -0.0
    g = rng.normal(size=(2, 3, 3, 3)).astype(dtype)
    assert ops.max_pool3d_forward(x).tobytes() == max_pool_forward_oracle(x).tobytes()
    assert ops.max_pool3d_backward(x, g).tobytes() == max_pool_backward_oracle(x, g).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_matches_where_oracle_bytes(dtype):
    rng = np.random.default_rng(12)
    x = signed_zeros(rng, rng.normal(size=(3, 7, 6, 5)).astype(dtype))
    # negative and -0.0 gradients everywhere, also where x <= 0
    g = signed_zeros(rng, -np.abs(rng.normal(size=x.shape)).astype(dtype))
    gx = ops.relu_backward(x, g)
    assert gx.dtype == dtype and gx.shape == x.shape
    assert gx.tobytes() == relu_backward_oracle(x, g).tobytes()
    blocked = gx[x <= 0]
    assert blocked.size and not blocked.any() and not np.signbit(blocked).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_from_output_matches_from_input_bytes(dtype):
    # the graph's relu backward reads the op's output, not its input: the
    # mask relu(x) > 0 must be x > 0 bit for bit, at signed zeros and
    # subnormals too
    rng = np.random.default_rng(13)
    tiny = np.finfo(dtype).smallest_subnormal
    edges = [0.0, -0.0, 1e-45, -1e-45, 1.0, -1.0, tiny, -tiny]
    x = np.concatenate([np.array(edges, dtype=dtype), rng.normal(size=56).astype(dtype)])
    x = x.reshape(1, 4, 4, 4)
    assert x.dtype == dtype and np.signbit(x[0, 0, 0, 1]) and x[0, 0, 0, 2] > 0
    g = signed_zeros(rng, rng.normal(size=x.shape).astype(dtype))
    from_output = ops.relu_backward(ops.relu_forward(x), g)
    assert from_output.tobytes() == ops.relu_backward(x, g).tobytes()


def test_batch_norm_normalizes_per_channel():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=5.0, scale=3.0, size=(2, 4, 4, 4))
    out = ops.batch_norm_forward(x, np.ones(2), np.zeros(2))
    np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=(1, 2, 3)), 1.0, atol=1e-4)


# allowed error of batch-norm in float32, in ulps of the channel's scale:
# the float32 sums here (pairwise means, the einsum's lane-wise dot
# products) err by single-digit ulps at these sizes. A one-pass
# E[x^2] - E[x]^2 variance loses hundreds on a channel whose mean is 1e3 std
BN_TOL_ULPS = 16


def batch_norm_float64(x, gamma, beta, g, eps=ops.BN_EPS):
    """Forward, gx, ggamma, gbeta in float64 by the textbook formulas, and
    the scale that each output's error is measured against."""
    x, gamma, beta, g = (a.astype(np.float64) for a in (x, gamma, beta, g))
    axes, n = (1, 2, 3), x[0].size
    mean = x.mean(axis=axes, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=axes, keepdims=True) + eps)
    xhat = (x - mean) / std
    gm = gamma[:, None, None, None]
    gsum, ghx = g.sum(axis=axes), (g * xhat).sum(axis=axes)
    gx = gm / std * (g - gsum[:, None, None, None] / n - xhat * ghx[:, None, None, None] / n)
    y = gm * xhat + beta[:, None, None, None]
    # centring a channel costs its rounding at |mean| relative to std
    cond = 1 + np.abs(mean.ravel()) / std.ravel()
    scales = (
        np.abs(y).max(axis=axes) * cond,
        np.abs(gx).max(axis=axes) * cond,
        np.abs(g * xhat).sum(axis=axes) * cond,
        np.abs(g).sum(axis=axes),
    )
    return (y, gx, ghx, gsum), scales


@pytest.mark.parametrize("shape", [(4, 16, 16, 16), (8, 32, 32, 32)])
def test_batch_norm_matches_float64_reference(shape):
    rng = np.random.default_rng(13)
    c = shape[0]
    loc, scale = rng.normal(size=c), np.exp(rng.normal(size=c))
    loc[1] = 1e3 * scale[1]
    x = (loc[:, None, None, None] + scale[:, None, None, None] * rng.normal(size=shape))
    x = x.astype(np.float32)
    gamma, beta = rng.normal(size=(2, c)).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    got = (ops.batch_norm_forward(x, gamma, beta), *ops.batch_norm_backward(x, gamma, g))
    want, scales = batch_norm_float64(x, gamma, beta, g)
    eps = np.finfo(np.float32).eps
    for name, a, b, sc in zip(("y", "gx", "ggamma", "gbeta"), got, want, scales):
        assert a.dtype == np.float32 and a.shape == b.shape, name
        err = np.abs(a - b).reshape(c, -1).max(axis=1) / (sc * eps)
        assert err.max() <= BN_TOL_ULPS, (name, err)


def test_batch_norm_bytes_hold_across_views_and_workspace_stays_one_temporary():
    rng = np.random.default_rng(14)
    shape = (8, 32, 32, 32)
    x = (3 + 2 * rng.normal(size=shape)).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    gamma, beta = rng.normal(size=(2, 8)).astype(np.float32)

    def run(x, gamma, beta, g):
        return [ops.batch_norm_forward(x, gamma, beta), *ops.batch_norm_backward(x, gamma, g)]

    def offset(a):  # a copy that starts one element past the allocation
        buf = np.empty(a.size + 1, dtype=a.dtype)
        view = buf[1:].reshape(a.shape)
        view[...] = a
        return view

    want = run(x, gamma, beta, g)
    for got, w in zip(run(offset(x), gamma, beta, offset(g)), want):
        assert got.tobytes() == w.tobytes()
    for got, w in zip(run(x[2:5], gamma[2:5], beta[2:5], g[2:5]), want):
        assert got.tobytes() == w[2:5].tobytes()

    tracemalloc.start()
    try:
        ops.batch_norm_forward(x, gamma, beta)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ops.batch_norm_backward(x, gamma, g)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak <= 2 * x.nbytes, forward_peak / x.nbytes
    assert backward_peak <= 3 * x.nbytes, backward_peak / x.nbytes


def test_concat_requires_equal_spatial_extents():
    a = np.zeros((2, 4, 4, 4))
    b = np.zeros((3, 4, 4, 5))
    with pytest.raises(ShapeMismatch, match="spatial extents differ"):
        ops.concat_forward([a, b])
    c = np.zeros((3, 4, 4, 4))
    assert ops.concat_forward([a, c]).shape == (5, 4, 4, 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("counts, extents", [
    ([3, 5], (20, 22, 24)),  # more than two column blocks
    ([2, 1, 4], (6, 7, 5)),
])
def test_conv3d_on_channel_blocks_is_byte_equal_to_the_joined_operand(counts, extents, k, dtype):
    # a concat's value is its inputs' arrays; conv3d copies them block by
    # block into its padded planes, so its forward, gw and gx read the same
    # bytes as from the joined array, and gx comes back one array per block
    rng = np.random.default_rng(sum(counts) + k)
    parts = [rng.normal(size=(c, *extents)).astype(dtype) for c in counts]
    x = ops.concat_forward(parts)
    joined = np.concatenate(parts)
    assert x.shape == joined.shape and x.dtype == joined.dtype and x.size == joined.size
    assert x.nbytes == joined.nbytes and x[0].tobytes() == joined[0].tobytes()
    assert np.asarray(x).tobytes() == joined.tobytes()
    cout = 4
    w = rng.normal(size=(cout, sum(counts), k, k, k)).astype(dtype)
    b = rng.normal(size=cout).astype(dtype)
    g = rng.normal(size=(cout, *extents)).astype(dtype)
    assert ops.conv3d_forward(x, w, b).tobytes() == ops.conv3d_forward(joined, w, b).tobytes()
    gx, gw, gb = ops.conv3d_backward(x, w, g)
    want = ops.conv3d_backward(joined, w, g)
    assert gw.tobytes() == want[1].tobytes() and gb.tobytes() == want[2].tobytes()
    blocks = ops.concat_backward(counts, gx)
    assert [a.shape for a in blocks] == [a.shape for a in parts]
    assert np.concatenate(blocks).tobytes() == want[0].tobytes()
    # neither the blocks nor the slices of a joined gradient share memory
    for grads in (blocks, ops.concat_backward(counts, want[0])):
        assert all(a.flags.c_contiguous for a in grads)
        assert not any(np.shares_memory(a, c) for i, a in enumerate(grads) for c in grads[i + 1:])
        assert not any(np.shares_memory(a, want[0]) for a in grads)


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
