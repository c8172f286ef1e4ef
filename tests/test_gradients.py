"""Analytic gradients of every primitive against central finite differences.

The oracle: for a primitive y = f(x, params), pick a fixed random cotangent
u and differentiate the scalar J = sum(u * y). The analytic gradient is the
primitive's backward pass applied to u; the numeric one perturbs each input
element by +-h. Everything runs in float64 with h = 1e-4; sampled points
stay clear of ReLU/max-pool tie discontinuities.
"""

import numpy as np
import pytest

from volpose import ops

H = 1e-4
TOL = 1e-4


def central_diff(fn, x, h=H):
    """Numeric gradient of the scalar function fn at x, one element at a time."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(analytic, numeric):
    scale = max(np.max(np.abs(numeric)), 1e-6)
    return np.max(np.abs(analytic - numeric)) / scale


def check_grads(pairs):
    """pairs: list of (analytic_grad, argument_array, J_function)."""
    for analytic, arg, fn in pairs:
        numeric = central_diff(fn, arg)
        assert rel_err(analytic, numeric) < TOL


@pytest.mark.parametrize("trial", range(20))
def test_conv3d_gradients(trial):
    rng = np.random.default_rng(100 + trial)
    cin, cout = rng.integers(1, 4), rng.integers(1, 4)
    d, h, w = rng.integers(3, 7, size=3)
    x = rng.normal(size=(cin, d, h, w))
    wt = rng.normal(size=(cout, cin, 3, 3, 3))
    b = rng.normal(size=cout)
    u = rng.normal(size=(cout, d, h, w))
    J = lambda: np.sum(u * ops.conv3d_forward(x, wt, b))
    gx, gw, gb = ops.conv3d_backward(x, wt, u)
    check_grads([(gx, x, J), (gw, wt, J), (gb, b, J)])


@pytest.mark.parametrize("trial", range(20))
def test_conv3d_1x1_gradients(trial):
    rng = np.random.default_rng(200 + trial)
    x = rng.normal(size=(3, 4, 4, 4))
    wt = rng.normal(size=(2, 3, 1, 1, 1))
    b = rng.normal(size=2)
    u = rng.normal(size=(2, 4, 4, 4))
    J = lambda: np.sum(u * ops.conv3d_forward(x, wt, b))
    gx, gw, gb = ops.conv3d_backward(x, wt, u)
    check_grads([(gx, x, J), (gw, wt, J), (gb, b, J)])


@pytest.mark.parametrize("trial", range(20))
def test_deconv3d_gradients(trial):
    rng = np.random.default_rng(300 + trial)
    cin, cout = rng.integers(1, 4), rng.integers(1, 4)
    d, h, w = rng.integers(2, 4, size=3)
    x = rng.normal(size=(cin, d, h, w))
    wt = rng.normal(size=(cin, cout, 2, 2, 2))
    b = rng.normal(size=cout)
    u = rng.normal(size=(cout, 2 * d, 2 * h, 2 * w))
    J = lambda: np.sum(u * ops.deconv3d_forward(x, wt, b))
    gx, gw, gb = ops.deconv3d_backward(x, wt, u)
    check_grads([(gx, x, J), (gw, wt, J), (gb, b, J)])


@pytest.mark.parametrize("trial", range(20))
def test_max_pool_gradients(trial):
    rng = np.random.default_rng(400 + trial)
    d, h, w = 2 * rng.integers(1, 4, size=3)
    # spread values far enough apart that +-h cannot flip the argmax
    x = rng.permutation(np.arange(2 * d * h * w, dtype=np.float64) * 0.1).reshape(2, d, h, w)
    u = rng.normal(size=(2, d // 2, h // 2, w // 2))
    J = lambda: np.sum(u * ops.max_pool3d_forward(x))
    gx = ops.max_pool3d_backward(x, u)
    check_grads([(gx, x, J)])


@pytest.mark.parametrize("trial", range(20))
def test_batch_norm_gradients(trial):
    rng = np.random.default_rng(500 + trial)
    c = rng.integers(1, 4)
    d, h, w = rng.integers(3, 7, size=3)
    x = rng.normal(size=(c, d, h, w))
    gamma = rng.normal(size=c)
    beta = rng.normal(size=c)
    u = rng.normal(size=(c, d, h, w))
    J = lambda: np.sum(u * ops.batch_norm_forward(x, gamma, beta))
    gx, gg, gb = ops.batch_norm_backward(x, gamma, u)
    check_grads([(gx, x, J), (gg, gamma, J), (gb, beta, J)])


@pytest.mark.parametrize("trial", range(20))
def test_relu_gradients(trial):
    rng = np.random.default_rng(700 + trial)
    x = rng.normal(size=(2, 4, 4, 4))
    x[np.abs(x) < 1e-3] = 0.5  # step over the kink
    u = rng.normal(size=x.shape)
    J = lambda: np.sum(u * ops.relu_forward(x))
    gx = ops.relu_backward(x, u)
    check_grads([(gx, x, J)])


def test_relu_subgradient_zero_at_zero():
    x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 2)
    g = ops.relu_backward(x, np.ones_like(x))
    np.testing.assert_array_equal(g.ravel(), [0.0, 1.0])
    # the convention at exactly zero
    x0 = np.zeros((1, 1, 1, 1))
    assert ops.relu_backward(x0, np.ones_like(x0))[0, 0, 0, 0] == 0.0


@pytest.mark.parametrize("trial", range(20))
def test_concat_gradients(trial):
    rng = np.random.default_rng(800 + trial)
    a = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=(3, 3, 3, 3))
    u = rng.normal(size=(5, 3, 3, 3))
    J = lambda: np.sum(u * ops.concat_forward([a, b]))
    ga, gb = ops.concat_backward([2, 3], u)
    check_grads([(ga, a, J), (gb, b, J)])


@pytest.mark.parametrize("trial", range(20))
def test_add_gradients(trial):
    rng = np.random.default_rng(900 + trial)
    a = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=(2, 3, 3, 3))
    u = rng.normal(size=(2, 3, 3, 3))
    J = lambda: np.sum(u * ops.add_forward(a, b))
    check_grads([(u, a, J), (u, b, J)])


@pytest.mark.parametrize("trial", range(20))
def test_l2_loss_gradients(trial):
    rng = np.random.default_rng(1000 + trial)
    pred = rng.normal(size=(2, 3, 3, 3))
    target = rng.normal(size=(2, 3, 3, 3))
    J = lambda: float(ops.l2_loss_forward(pred, target))
    gp, gt = ops.l2_loss_backward(pred, target, np.asarray(1.0))
    check_grads([(gp, pred, J), (gt, target, J)])


def test_l2_loss_zero_gradient_at_minimum():
    h = np.random.default_rng(5).normal(size=(2, 2, 2, 2))
    gp, gt = ops.l2_loss_backward(h, h, np.asarray(1.0))
    np.testing.assert_array_equal(gp, np.zeros_like(h))
    np.testing.assert_array_equal(gt, np.zeros_like(h))
