"""Dense tensor primitives for the detector graph.

Every kernel operates on channel-first arrays of shape (C, D, H, W), is a
pure function of its arguments, and keeps a fixed reduction order so that
re-evaluating it on the same inputs reproduces the same bits. That property
is what lets the checkpointed backward pass recompute discarded values and
still match the plain backward pass exactly.

conv3d lowers the conv over the columns of its input's zero-padded grid,
one block of ``CONV_BLOCK`` output columns at a time, and never builds the
padded operand whole. For each block it copies the padded planes the block
reads, straight from the unpadded input, into one reused buffer; writes the
k copies of the block and of the (k-1)*(Hp*Wp + Wp) columns its taps reach
past it, copy c shifted by c columns, into a second; and runs k^2 GEMMs
with inner dimension k*Cin over contiguous column slices of it (between
im2col and MEC, Cho & Brand 2017; Vasudevan et al., arXiv:1704.04428). The
products accumulate in a block-sized buffer, whose voxel columns are
written straight into the compact (Cout, D, H, W) result. A call's
workspace is these three block buffers, which grow with a plane of the
volume but not with its depth, instead of an im2col buffer k^3 times the
input. For k = 1 the input is read in place and the one GEMM writes the
result's own columns. Each output element is the sum of its k^2 GEMM
products taken in one fixed (a, b) order. The backward stacks ``grad_out``
the same way: the input gradient is the forward conv of ``grad_out`` with
the flipped, channel-swapped kernel, so the forward and ``gx`` share one
tap kernel, and the weight gradient is k^2 GEMMs of each block of the
stack against the input's padded planes, one GEMM entry per weight, summed
over the blocks in order. These fixed orders are what keep conv3d and its
backward deterministic. A column of the forward or ``gx`` keeps its (a, b)
order whatever the block width, so their bits do not depend on
``CONV_BLOCK``; ``gw`` splits its inner dimension at the block edges, so
its bits do, wherever a layer has more than two blocks of columns.

conv3d's operand may be a :class:`Blocks`, channel blocks read as one
operand: ``concat_forward`` returns its inputs so, holding no buffer of its
own. The padded planes are copied from it block by block (for k = 1 too,
which then reads whole planes through the same reader instead of x in
place), so the forward, ``gw`` and ``gx`` read the same bytes, and give
the same bits, as from the joined array. ``gx`` for such an operand is one
array per block: the tap GEMMs fill the same block-sized accumulator, whose
rows go to each block's array, and ``concat_backward`` returns those
arrays as they are. A gradient that is one array it splits into copies, so
no input's gradient shares memory with another's or keeps the whole alive.
``np.asarray`` joins a ``Blocks`` for any other reader.

max_pool3d works on the 8 strided views of x, one per window position: the
forward is a running maximum over them in window-linear order, and the
backward hands each window's gradient to the first view that holds its max.
ReLU's and max-pool's backward keep or zero gradient entries through one
helper that ANDs the gradient's bits with an all-ones or all-zeros mask,
which writes exactly +0.0 and costs no branch per element.

batch_norm takes its per-channel statistics in two passes: the mean, then
the centred copy x - mean, whose row dot products give the variance. The
forward scales and shifts that copy in place and returns it. The backward
recomputes it, takes two per-channel sums of the gradient, and writes the
closed-form input gradient into it (Ioffe & Szegedy, arXiv:1502.03167), so
each direction holds one temporary of the input's size. Its sums run in
another order than a normalize-then-reduce form's, about 1e-6 relative
apart in float32, so trained bits depend on this order; plain and
recomputed values run the same kernel and stay bitwise equal.

Conventions baked in here:
  * ReLU gradient at exactly 0 is 0.
  * Max-pool ties resolve to the lowest linear index inside the 2x2x2 window.
  * batch_norm normalizes each channel over its spatial extent (batch size
    is always 1), biased variance from the centred input (never
    E[x^2] - E[x]^2), epsilon ``BN_EPS``.
  * l2_loss is the mean squared error over all elements.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """An input violates a primitive's shape rule."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


class Blocks:
    """Channel blocks read as one (C, D, H, W) operand, holding no buffer of
    its own: a ``channel_concat`` value, and conv3d's ``gx`` for one.

    conv3d reads it block by block; ``np.asarray`` joins it for any other
    reader. ``x[i]`` is channel i.
    """

    def __init__(self, parts: list[np.ndarray]):
        self.parts = list(parts)
        self.shape = (sum(p.shape[0] for p in self.parts), *self.parts[0].shape[1:])
        self.dtype = np.result_type(*self.parts)
        self.ndim = len(self.shape)
        self.size = int(np.prod(self.shape))
        self.nbytes = sum(p.nbytes for p in self.parts)

    def __getitem__(self, i: int) -> np.ndarray:
        for c0, p in _parts(self):
            if c0 <= i < c0 + p.shape[0]:
                return p[i - c0]
        raise IndexError(f"channel {i} of {self.shape[0]}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.concatenate(self.parts, axis=0, dtype=dtype)


def _parts(x: np.ndarray | Blocks) -> list[tuple[int, np.ndarray]]:
    """(first channel, array) of each block of x; an array is one block."""
    parts = x.parts if isinstance(x, Blocks) else [x]
    offsets = np.cumsum([0] + [p.shape[0] for p in parts[:-1]])
    return list(zip(offsets.tolist(), parts))


# ---------------------------------------------------------------------------
# conv3d: cubic odd kernel, stride 1, "same" zero padding
# ---------------------------------------------------------------------------

# output columns per block of the three conv loops. A block's stack spans
# CONV_BLOCK + (k-1)*(Hp*Wp + Wp) columns of k*Cin rows, 1.2 MB for 16
# float32 channels at 32^3, so the tap GEMMs read it from a 1-2 MB per-core
# L2. The stack, the padded planes it is built from (7 at 32^3, 0.5 MB for
# 16 channels) and a CONV_BLOCK-column accumulator are a call's workspace
CONV_BLOCK = 4096

def conv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    _require(x.ndim == 4, f"conv3d: input must be (C,D,H,W), got {x.shape}")
    _require(weight.ndim == 5, f"conv3d: weight must be (Cout,Cin,k,k,k), got {weight.shape}")
    cout, cin_w, kd, kh, kw = weight.shape
    _require(kd == kh == kw and kd % 2 == 1, f"conv3d: kernel must be cubic odd, got {weight.shape[2:]}")
    cin = x.shape[0]
    _require(cin == cin_w, f"conv3d: expected {cin_w} input channels, got {cin}")
    _require(bias.shape == (cout,), f"conv3d: bias must be ({cout},), got {bias.shape}")
    out = np.empty((cout, *x.shape[1:]), dtype=np.result_type(x.dtype, bias.dtype))
    _tap_conv(x, _tap_weights(weight), out, bias)
    return out


def conv3d_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(gx, gw, gb) of conv3d; gx is None when ``input_grad`` is False.

    ``gw`` is k*k GEMMs of each column block of the k-shift stack of the
    padded ``grad_out`` against the padded input, summed over the blocks.
    ``gx`` is the forward conv of ``grad_out`` with the kernel flipped in
    every axis and its channel axes swapped, run by the forward's tap
    kernel. The weight gradient's workspace is freed before ``gx`` exists.
    """
    cout, cin, k = weight.shape[:3]
    _require(
        grad_out.shape == (cout, *x.shape[1:]),
        f"conv3d: grad_out must be {(cout, *x.shape[1:])}, got {grad_out.shape}",
    )
    gb = grad_out.sum(axis=(1, 2, 3))
    gw = _weight_grad(x, grad_out, k)
    gx = None
    if input_grad:
        flipped = weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        if isinstance(x, Blocks):
            gx = Blocks([np.empty(p.shape, dtype=grad_out.dtype) for p in x.parts])
        else:
            gx = np.empty(x.shape, dtype=grad_out.dtype)
        _tap_conv(grad_out, _tap_weights(flipped), gx)
    return gx, gw, gb


def _weight_grad(x: np.ndarray, grad_out: np.ndarray, k: int) -> np.ndarray:
    """(Cout, Cin, k, k, k) weight gradient: per column block, the stack of
    ``grad_out`` against the k*k tap slices of x's padded planes."""
    cout, cin = grad_out.shape[0], x.shape[0]
    hp, wp, n, offsets = _grid(x.shape, k)
    # Read from column lo, row block r of the stack is grad_out on the
    # stride grid delayed by k-1-r columns, i.e. tap c = k-1-r of the weight
    # gradient. The stride grid is zero in its wrap columns, and m = n + 2p
    # columns cover every delay of its n columns. Tap (a, b) reads x's
    # padded columns from a*Hp*Wp + b*Wp, so a block reads step + halo.
    p = k // 2
    lo, m = p * (hp * wp + wp + 1) - 2 * p, n + 2 * p
    step = CONV_BLOCK if m > 2 * CONV_BLOCK else m
    gplanes = _planes(grad_out, k, step + k - 1)
    xplanes = _planes(x, k, step + offsets[-1])
    stack = np.empty((k * cout, step), dtype=grad_out.dtype) if k > 1 else None
    gw = np.empty((k * k, k * cout, cin), dtype=x.dtype)
    tmp = np.empty_like(gw[0])
    for j in range(0, m, step):
        e = min(j + step, m)
        f, base = gplanes(lo + j)
        s = _stack_block(f, k, lo + j - base, e - j, stack)
        xf, base = xplanes(j)
        for t, off in enumerate(offsets):
            np.matmul(s, xf[:, off + j - base : off + e - base].T, out=gw[t] if j == 0 else tmp)
            if j:
                gw[t] += tmp
    gw = gw.reshape(k, k, k, cout, cin)[:, :, ::-1].transpose(3, 4, 0, 1, 2)
    return np.ascontiguousarray(gw)


def _grid(shape: tuple, k: int) -> tuple[int, int, int, list[int]]:
    """Padded row and plane extents Hp and Wp, the n columns a conv computes,
    and the flat offset a*Hp*Wp + b*Wp of each tap pair, in (a, b) order."""
    _, d, h, w = shape
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    n = (d - 1) * hp * wp + (h - 1) * wp + w
    return hp, wp, n, [a * hp * wp + b * wp for a in range(k) for b in range(k)]


def _tap_weights(weight: np.ndarray) -> np.ndarray:
    """(k*k, Cout, k*Cin) blocks: block a*k + b, column c*Cin + i is tap (a, b, c)."""
    cout, cin, k = weight.shape[:3]
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 4, 1).reshape(k * k, cout, k * cin))


def _planes(x: np.ndarray, k: int, width: int):
    """A reader of x zero-padded by k//2 in each spatial axis, as flat
    (C, Dp*Hp*Wp) columns, ``width`` columns at a time.

    ``read(start)`` returns ``(f, base)``: a flat (C, L) array whose column
    i is padded column base + i, and which holds columns ``start`` to
    ``start + width - 1``, or every column up to the grid's end. For k > 1,
    f is the padded planes that hold those columns, copied from x into one
    buffer that every read reuses; its border rows and columns are zeroed
    once, and a plane outside x is zeroed in full. For k = 1 it is a
    reshape of x.
    """
    c, d, h, w = x.shape
    p = k // 2
    if p == 0 and not isinstance(x, Blocks):
        flat = x.reshape(c, -1)
        return lambda start: (flat, 0)
    hp, wp = h + 2 * p, w + 2 * p
    plane = hp * wp
    buf = np.zeros((c, min(d + 2 * p, (width + plane - 2) // plane + 1), hp, wp), dtype=x.dtype)
    inner = buf[:, :, p : p + h, p : p + w]

    def read(start: int) -> tuple[np.ndarray, int]:
        z0 = start // plane
        nz = min(d + 2 * p, (start + width - 1) // plane + 1) - z0
        a, b = (min(max(z - z0, 0), nz) for z in (p, p + d))  # buffer planes of x
        inner[:, :a] = 0
        for c0, part in _parts(x):
            inner[c0 : c0 + part.shape[0], a:b] = part[:, z0 + a - p : z0 + b - p]
        inner[:, b:nz] = 0
        return buf[:, :nz].reshape(c, -1), z0 * plane

    return read


def _stack_block(f: np.ndarray, k: int, start: int, width: int, buf: np.ndarray | None) -> np.ndarray:
    """Columns ``start`` to ``start + width`` of the k-shift stack of the
    flat padded operand ``f``, written into ``buf[:, :width]`` of k*C rows;
    for k = 1 a view of f.

    Give output voxel (i, j, l) the flat index i*Hp*Wp + j*Wp + l of the
    padded (Dp, Hp, Wp) grid. Its kernel tap (a, b, c) reads the flat padded
    input at that index plus a*Hp*Wp + b*Wp + c. Row block c of the stack
    (rows c*C to c*C + C) is the flat padded input shifted left by c
    columns, zero past its end, so the k taps (a, b, 0..k-1) over all output
    voxels are one (k*C)-row slice of contiguous columns starting at
    a*Hp*Wp + b*Wp, and a whole conv is k*k GEMMs with inner dimension k*C.
    Columns whose j >= H or l >= W mix the end of one row with the start of
    the next; they are computed and never read back. In a stacked
    ``grad_out`` they hold zero padding, so the backward reads the stack as
    ``grad_out`` on the stride grid without masking them.
    """
    if k == 1:
        return f[:, start : start + width]
    c, length = f.shape
    out = buf[:, :width]
    for r in range(k):
        v = max(0, min(width, length - start - r))
        out[r * c : r * c + c, :v] = f[:, start + r : start + r + v]
        out[r * c : r * c + c, v:] = 0
    return out


def _tap_conv(x: np.ndarray, wk: np.ndarray, out: np.ndarray, bias: np.ndarray | None = None) -> None:
    """Same-padded conv of the (C, D, H, W) input x, written into ``out``
    (Cout, D, H, W), plus ``bias`` when given.

    Walks blocks of ``CONV_BLOCK`` output columns of the padded grid (one
    block up to twice that). Each block's stack, with the (k-1)*(Hp*Wp + Wp)
    columns its taps reach past it, goes into one buffer, built from the
    padded planes it reads; one GEMM per (a, b) tap pair, with the k column
    taps c inside its inner dimension, reads it, and the k*k products
    accumulate in (a, b) order into a block-sized accumulator, whose voxel
    columns go to ``out``. For k = 1 every column is a voxel and the one
    GEMM writes ``out`` itself. Each column keeps that order, so the bits
    equal one block's wherever the BLAS computes a column the same way at
    every GEMM width; OpenBLAS does so for the detector's float32 layers,
    but its small-GEMM kernel and its float64 kernels round a few columns
    of some shapes differently.
    """
    cin, cout = x.shape[0], out.shape[0]
    k = wk.shape[2] // cin
    hp, wp, n, offsets = _grid(x.shape, k)
    step = CONV_BLOCK if n > 2 * CONV_BLOCK else n
    halo = offsets[-1]
    planes = _planes(x, k, step + halo + k - 1)
    stack = np.empty((k * cin, step + halo), dtype=x.dtype) if k > 1 else None
    direct = out.reshape(cout, -1) if k == 1 and not isinstance(out, Blocks) else None
    # flat, so that a short block's (Cout, w) views are contiguous too: numpy
    # buffers an in-place add of strided views
    acc = np.empty(cout * step, dtype=x.dtype) if direct is None else None
    tmp = np.empty(cout * step, dtype=x.dtype) if k > 1 else None
    for j in range(0, n, step):
        e = min(j + step, n)
        f, base = planes(j)
        s = _stack_block(f, k, j - base, e - j + halo, stack)
        if direct is not None:
            a = direct[:, j:e]
        else:
            a = acc[: cout * (e - j)].reshape(cout, -1)
        np.matmul(wk[0], s[:, : e - j], out=a)  # tap pair (0, 0) is at offset 0
        for wt, off in zip(wk[1:], offsets[1:]):
            t = tmp[: a.size].reshape(a.shape)
            np.matmul(wt, s[:, off : off + e - j], out=t)
            a += t
        if direct is None:
            _put(a, j, out, hp, wp)
    if bias is not None:
        # one in-place pass: a broadcast add into each run's strided view
        # makes numpy's iterator allocate buffers of up to 3*8192 elements
        out += bias[:, None, None, None]


def _put(acc: np.ndarray, j: int, out: np.ndarray | Blocks, hp: int, wp: int) -> None:
    """Write the columns of ``acc``, flat columns j onward of the padded
    (Hp, Wp) grid, that are voxels into ``out`` (C, D, H, W), each block's
    rows into that block. Runs of part of a row, of whole rows up to a
    plane's end and of whole planes each take one copy per block."""
    _, d, h, w = out.shape
    plane = hp * wp
    e = j + acc.shape[1]
    g = j
    while g < e:
        r, x0 = divmod(g, wp)
        z, y = divmod(r, hp)
        if x0 or e - g < wp:
            run = (1, 1, min(wp - x0, e - g))
        elif y or e - g < plane:
            run = (1, min(hp - y, (e - g) // wp), wp)
        else:
            run = ((e - g) // plane, hp, wp)
        size = run[0] * run[1] * run[2]
        src = acc[:, g - j : g - j + size].reshape(-1, *run)
        src = src[:, : d - z, : max(h - y, 0), : max(w - x0, 0)]
        for c0, part in _parts(out):
            part[:, z : z + src.shape[1], y : y + src.shape[2], x0 : x0 + src.shape[3]] = (
                src[c0 : c0 + part.shape[0]])
        g += size


# ---------------------------------------------------------------------------
# deconv3d: transposed convolution, kernel 2, stride 2 (doubles each extent)
# ---------------------------------------------------------------------------

def deconv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    _require(x.ndim == 4, f"deconv3d: input must be (C,D,H,W), got {x.shape}")
    _require(
        weight.ndim == 5 and weight.shape[2:] == (2, 2, 2),
        f"deconv3d: weight must be (Cin,Cout,2,2,2), got {weight.shape}",
    )
    cin_w, cout = weight.shape[:2]
    cin, d, h, w = x.shape
    _require(cin == cin_w, f"deconv3d: expected {cin_w} input channels, got {cin}")
    tmp = weight.reshape(cin, cout * 8).T @ x.reshape(cin, -1)  # (cout*8, dhw)
    out = (
        tmp.reshape(cout, 2, 2, 2, d, h, w)
        .transpose(0, 4, 1, 5, 2, 6, 3)
        .reshape(cout, 2 * d, 2 * h, 2 * w)
    )
    out += bias[:, None, None, None]
    return out


def deconv3d_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cin, d, h, w = x.shape
    cout = weight.shape[1]
    _require(
        grad_out.shape == (cout, 2 * d, 2 * h, 2 * w),
        f"deconv3d: grad_out must be {(cout, 2 * d, 2 * h, 2 * w)}, got {grad_out.shape}",
    )
    go = (
        grad_out.reshape(cout, d, 2, h, 2, w, 2)
        .transpose(0, 2, 4, 6, 1, 3, 5)
        .reshape(cout * 8, d * h * w)
    )
    gx = (weight.reshape(cin, cout * 8) @ go).reshape(x.shape)
    gw = (go @ x.reshape(cin, -1).T).T.reshape(weight.shape)
    gb = grad_out.sum(axis=(1, 2, 3))
    return gx, gw, gb


# ---------------------------------------------------------------------------
# max_pool3d: 2x2x2, stride 2; odd trailing extents are dropped
# ---------------------------------------------------------------------------

def _pool_views(x: np.ndarray) -> list[np.ndarray]:
    """The 8 strided views of x, one per 2x2x2 window position, in
    window-linear order: view a*4 + b*2 + c holds element (a, b, c) of every
    window."""
    c, d, h, w = x.shape
    _require(d >= 2 and h >= 2 and w >= 2, f"max_pool3d: extents must be >= 2, got {x.shape}")
    d2, h2, w2 = d // 2, h // 2, w // 2
    return [
        x[:, a : 2 * d2 : 2, b : 2 * h2 : 2, e : 2 * w2 : 2]
        for a in (0, 1) for b in (0, 1) for e in (0, 1)
    ]


def _pool_max(views: list[np.ndarray]) -> np.ndarray:
    m = np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(m, v, out=m)
    return m


def max_pool3d_forward(x: np.ndarray) -> np.ndarray:
    return _pool_max(_pool_views(x))


def max_pool3d_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Each window's gradient goes to the first view, in window-linear
    order, that holds the window's max; dropped trailing rows get 0. x is
    finite: the graph rejects a non-finite value before its backward."""
    views = _pool_views(x)
    _require(grad_out.shape == views[0].shape,
             f"max_pool3d: grad_out must be {views[0].shape}, got {grad_out.shape}")
    m = _pool_max(views)
    gx = np.zeros_like(x)
    free = np.ones(m.shape, dtype=bool)  # windows no earlier view has taken
    hit = np.empty(m.shape, dtype=bool)
    for v, gv in zip(views, _pool_views(gx)):
        np.equal(v, m, out=hit)
        hit &= free
        _keep(grad_out, hit, out=gv)
        free ^= hit
    return gx


def _keep(g: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``g`` where ``mask``, else +0.0, written to ``out`` or a new array.

    ANDs the bits of ``g`` with all-ones or all-zeros, so the result is
    byte-equal to ``np.where(mask, g, 0)`` without a branch per element.
    """
    u = np.dtype(f"u{g.itemsize}")
    bits = mask.astype(u)
    np.negative(bits, out=bits)  # True -> all ones
    if out is None:
        return np.bitwise_and(bits, g.view(u), out=bits).view(g.dtype)
    np.bitwise_and(bits, g.view(u), out=out.view(u))
    return out


# ---------------------------------------------------------------------------
# batch_norm: per-channel spatial statistics (batch size 1)
# ---------------------------------------------------------------------------

BN_EPS = 1e-5

def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centred input ``x - mean`` as a new (C, N) array, and 1/std.

    Two passes for the statistics: the per-channel mean, then the centred
    copy, whose sum of squares is a dot product of each row with itself and
    needs no further temporary. Biased variance, never E[x^2] - E[x]^2.
    """
    x2 = x.reshape(x.shape[0], -1)
    xc = np.subtract(x2, x2.mean(axis=1)[:, None])
    var = np.einsum("ij,ij->i", xc, xc) / xc.shape[1]
    return xc, 1.0 / np.sqrt(var + np.asarray(BN_EPS, dtype=xc.dtype))


def batch_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize each channel with the input's own spatial statistics."""
    c = x.shape[0]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"batch_norm: affine params must be ({c},), got {gamma.shape}/{beta.shape}")
    out, istd = _centred(x)
    out *= (gamma * istd)[:, None]
    out += beta[:, None]
    return out.reshape(x.shape)


def batch_norm_backward(
    x: np.ndarray, gamma: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gx, ggamma, gbeta) in closed form (Ioffe & Szegedy, arXiv:1502.03167).

    With xc the centred input, g the output gradient and N voxels per
    channel, gbeta = sum(g) and ggamma = istd * sum(g * xc), and
    gx = gamma * istd * (g - istd^2 * sum(g * xc) / N * xc - sum(g) / N),
    written into the centred copy in place.
    """
    c = x.shape[0]
    _require(gamma.shape == (c,), f"batch_norm: gamma must be ({c},), got {gamma.shape}")
    _require(grad_out.shape == x.shape,
             f"batch_norm: grad_out must be {x.shape}, got {grad_out.shape}")
    gx, istd = _centred(x)
    g = grad_out.reshape(gx.shape)
    gbeta = g.sum(axis=1)
    gdot = np.einsum("ij,ij->i", g, gx)
    n = gx.shape[1]
    gx *= (-istd * istd * gdot / n)[:, None]
    gx += g
    gx -= (gbeta / n)[:, None]
    gx *= (gamma * istd)[:, None]
    return gx.reshape(x.shape), gdot * istd, gbeta


# ---------------------------------------------------------------------------
# relu / channel_concat / add / l2_loss
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.asarray(0, dtype=x.dtype))


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    _require(grad_out.shape == x.shape, f"relu: grad_out must be {x.shape}, got {grad_out.shape}")
    return _keep(grad_out, x > 0)


def concat_forward(values: list[np.ndarray]) -> np.ndarray:
    _require(len(values) >= 2, "channel_concat: needs at least two inputs")
    spatial = values[0].shape[1:]
    for v in values[1:]:
        _require(
            v.shape[1:] == spatial,
            f"channel_concat: spatial extents differ, {v.shape[1:]} vs {spatial}",
        )
    return Blocks(values)


def concat_backward(channel_counts: list[int], grad_out: np.ndarray | Blocks) -> list[np.ndarray]:
    """One gradient per input, none sharing memory with another: the blocks
    of a ``Blocks`` gradient as they are, or copies of an array's slices."""
    if isinstance(grad_out, Blocks):
        _require([p.shape[0] for p in grad_out.parts] == list(channel_counts),
                 f"channel_concat: gradient blocks do not match {channel_counts}")
        return list(grad_out.parts)
    splits = np.cumsum(channel_counts[:-1])
    return [g.copy() for g in np.split(grad_out, splits, axis=0)]


def add_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require(a.shape == b.shape, f"add: shapes differ, {a.shape} vs {b.shape}")
    return a + b


def l2_loss_forward(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    _require(pred.shape == target.shape, f"l2_loss: shapes differ, {pred.shape} vs {target.shape}")
    diff = (pred - target).ravel()
    return np.asarray(np.dot(diff, diff) / diff.size, dtype=pred.dtype)


def l2_loss_backward(
    pred: np.ndarray, target: np.ndarray, grad_out: np.ndarray, target_grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """(gpred, gtarget); gtarget is None when ``target_grad`` is False.

    gpred = 2/N * grad_out * (pred - target), scaled in place in the dtype
    of ``pred - target``, so it holds one temporary of the input's size.
    """
    _require(pred.shape == target.shape, f"l2_loss: target must be {pred.shape}, got {target.shape}")
    _require(np.shape(grad_out) == (), f"l2_loss: grad_out must be (), got {np.shape(grad_out)}")
    g = np.subtract(pred, target)
    g *= (2.0 / pred.size) * grad_out
    return g, (-g if target_grad else None)
