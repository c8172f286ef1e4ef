"""Dense tensor primitives for the detector graph.

Every kernel operates on channel-first arrays of shape (C, D, H, W), is a
pure function of its arguments, and keeps a fixed reduction order so that
re-evaluating it on the same inputs reproduces the same bits. That property
is what lets the checkpointed backward pass recompute discarded values and
still match the plain backward pass exactly.

conv3d runs as k^3 GEMMs over shifted column slices of the flattened,
zero-padded input ("flat shifted GEMM", after MEC, Cho & Brand 2017), so
its workspace is about the size of its operands instead of an im2col
buffer k^3 times the input. Each output element is the sum of its k^3 tap
products taken in one fixed (a, b, c) tap order, and each gradient slice
is accumulated in that same order; this fixed order is what keeps conv3d
and its backward deterministic.

Conventions baked in here:
  * ReLU gradient at exactly 0 is 0.
  * Max-pool ties resolve to the lowest linear index inside the 2x2x2 window.
  * batch_norm normalizes each channel over its spatial extent (batch size
    is always 1), biased variance, configurable epsilon.
  * l2_loss is the mean squared error over all elements.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    """An input violates a primitive's shape rule."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


# ---------------------------------------------------------------------------
# conv3d: cubic odd kernel, stride 1, "same" zero padding
# ---------------------------------------------------------------------------

def conv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    _require(x.ndim == 4, f"conv3d: input must be (C,D,H,W), got {x.shape}")
    _require(weight.ndim == 5, f"conv3d: weight must be (Cout,Cin,k,k,k), got {weight.shape}")
    cout, cin_w, kd, kh, kw = weight.shape
    _require(kd == kh == kw and kd % 2 == 1, f"conv3d: kernel must be cubic odd, got {weight.shape[2:]}")
    cin, d, h, w = x.shape
    _require(cin == cin_w, f"conv3d: expected {cin_w} input channels, got {cin}")
    _require(bias.shape == (cout,), f"conv3d: bias must be ({cout},), got {bias.shape}")
    k = kd
    xp, offsets, n = _shifted_layout(x, k)
    xf = xp.reshape(cin, -1)
    hp, wp = xp.shape[2:]
    wk = np.ascontiguousarray(weight.reshape(cout, cin, k**3).transpose(2, 0, 1))
    acc = np.zeros((cout, d * hp * wp), dtype=x.dtype)
    tmp = np.empty((cout, n), dtype=x.dtype)
    # With one input channel each offset's product is an outer product, which
    # a broadcast multiply computes with the same single rounding as a K=1
    # GEMM, several times faster.
    product = np.multiply if cin == 1 else np.matmul
    for s, off in enumerate(offsets):
        product(wk[s], xf[:, off : off + n], out=tmp)
        acc[:, :n] += tmp
    return acc.reshape(cout, d, hp, wp)[:, :, :h, :w] + bias[:, None, None, None]


def conv3d_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cout = weight.shape[0]
    k = weight.shape[2]
    cin, d, h, w = x.shape
    gb = grad_out.sum(axis=(1, 2, 3))
    xp, offsets, n = _shifted_layout(x, k)
    xf = xp.reshape(cin, -1)
    hp, wp = xp.shape[2:]
    # grad_out on the padded stride grid, zero where the forward's flat
    # accumulator held wrapped-around rows, cut to the n columns it used
    gog = np.zeros((cout, d, hp, wp), dtype=grad_out.dtype)
    gog[:, :, :h, :w] = grad_out
    gof = gog.reshape(cout, -1)[:, :n]
    wkt = np.ascontiguousarray(weight.reshape(cout, cin, k**3).transpose(2, 1, 0))
    gw = np.empty((cout, cin, k**3), dtype=x.dtype)
    gxp = np.zeros_like(xf)
    tmp = np.empty((cin, n), dtype=x.dtype)
    for s, off in enumerate(offsets):
        gw[:, :, s] = (xf[:, off : off + n] @ gof.T).T
        np.matmul(wkt[s], gof, out=tmp)
        gxp[:, off : off + n] += tmp
    p = k // 2
    gx = np.ascontiguousarray(gxp.reshape(xp.shape)[:, p : p + d, p : p + h, p : p + w])
    return gx, gw.reshape(weight.shape), gb


def _shifted_layout(x: np.ndarray, k: int) -> tuple[np.ndarray, list[int], int]:
    """Zero-pad x by k//2 and list each kernel tap's flat offset.

    Give output voxel (i, j, l) the flat index i*Hp*Wp + j*Wp + l of the
    padded (Dp, Hp, Wp) grid. Its kernel tap (a, b, c) reads the padded input
    at that index plus ``off = a*Hp*Wp + b*Wp + c``, so one tap over all
    output voxels is the contiguous column slice ``[off, off + n)``. Columns
    whose j >= H or l >= W mix the end of one row with the start of the
    next; they are computed and never read back. Offsets are listed in the
    weight's (a, b, c) order.
    """
    _, d, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (p, p)))
    hp, wp = h + 2 * p, w + 2 * p
    offsets = [a * hp * wp + b * wp + c for a in range(k) for b in range(k) for c in range(k)]
    n = (d - 1) * hp * wp + (h - 1) * wp + w
    return xp, offsets, n


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

def _pool_windows(x: np.ndarray) -> np.ndarray:
    c, d, h, w = x.shape
    _require(d >= 2 and h >= 2 and w >= 2, f"max_pool3d: extents must be >= 2, got {x.shape}")
    d2, h2, w2 = d // 2, h // 2, w // 2
    xc = x[:, : 2 * d2, : 2 * h2, : 2 * w2]
    return (
        xc.reshape(c, d2, 2, h2, 2, w2, 2)
        .transpose(0, 1, 3, 5, 2, 4, 6)
        .reshape(c, d2, h2, w2, 8)
    )


def max_pool3d_forward(x: np.ndarray) -> np.ndarray:
    return _pool_windows(x).max(axis=-1)


def max_pool3d_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    c, d, h, w = x.shape
    d2, h2, w2 = d // 2, h // 2, w // 2
    win = _pool_windows(x)
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


# ---------------------------------------------------------------------------
# batch_norm: per-channel spatial statistics (batch size 1)
# ---------------------------------------------------------------------------

def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel normalized input and inverse std over the spatial axes."""
    mean, var = x.mean(axis=(1, 2, 3)), x.var(axis=(1, 2, 3))
    istd = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    return (x - mean[:, None, None, None]) * istd[:, None, None, None], istd


def batch_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Normalize each channel with the input's own spatial statistics."""
    c = x.shape[0]
    _require(gamma.shape == (c,) and beta.shape == (c,),
             f"batch_norm: affine params must be ({c},), got {gamma.shape}/{beta.shape}")
    xhat, _ = _normalize(x, eps)
    return gamma[:, None, None, None] * xhat + beta[:, None, None, None]


def batch_norm_backward(
    x: np.ndarray, gamma: np.ndarray, grad_out: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, istd = _normalize(x, eps)
    ggamma = (grad_out * xhat).sum(axis=(1, 2, 3))
    gbeta = grad_out.sum(axis=(1, 2, 3))
    gscaled = grad_out * gamma[:, None, None, None]
    m1 = gscaled.mean(axis=(1, 2, 3), keepdims=True)
    m2 = (gscaled * xhat).mean(axis=(1, 2, 3), keepdims=True)
    gx = istd[:, None, None, None] * (gscaled - m1 - xhat * m2)
    return gx, ggamma, gbeta


# ---------------------------------------------------------------------------
# relu / channel_concat / add / l2_loss
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.asarray(0, dtype=x.dtype))


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0, grad_out, np.asarray(0, dtype=grad_out.dtype))


def concat_forward(values: list[np.ndarray]) -> np.ndarray:
    _require(len(values) >= 2, "channel_concat: needs at least two inputs")
    spatial = values[0].shape[1:]
    for v in values[1:]:
        _require(
            v.shape[1:] == spatial,
            f"channel_concat: spatial extents differ, {v.shape[1:]} vs {spatial}",
        )
    return np.concatenate(values, axis=0)


def concat_backward(channel_counts: list[int], grad_out: np.ndarray) -> list[np.ndarray]:
    splits = np.cumsum(channel_counts[:-1])
    return [np.ascontiguousarray(g) for g in np.split(grad_out, splits, axis=0)]


def add_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require(a.shape == b.shape, f"add: shapes differ, {a.shape} vs {b.shape}")
    return a + b


def l2_loss_forward(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    _require(pred.shape == target.shape, f"l2_loss: shapes differ, {pred.shape} vs {target.shape}")
    diff = (pred - target).ravel()
    return np.asarray(np.dot(diff, diff) / diff.size, dtype=pred.dtype)


def l2_loss_backward(
    pred: np.ndarray, target: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    g = (2.0 / pred.size) * grad_out * (pred - target)
    return g, -g
