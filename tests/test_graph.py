"""Graph execution: forward determinism, discard semantics, memory metering."""

import numpy as np
import pytest

from volpose.graph import (
    Graph,
    GraphError,
    MemoryCapExceeded,
    MissingValue,
    NonFiniteValue,
    select_checkpoints,
)
from volpose import ops
from volpose.ops import ShapeMismatch


def relu_chain(n_relu, size=8, dtype=np.float64, learnable=False):
    """x -> relu x n -> l2(pred, target), with a learnable 1x1x1 conv ahead of
    the ReLUs when ``learnable``. All node values share one size."""
    g = Graph(dtype)
    x = g.add_input("x")
    t = g.add_input("target")
    prev = x
    if learnable:
        prev = g.add("conv3d", [x], params={"weight": np.ones((1, 1, 1, 1, 1), dtype),
                                            "bias": np.zeros(1, dtype)})
    for _ in range(n_relu):
        prev = g.add("relu", [prev])
    loss = g.add("l2_loss", [prev, t])
    g.set_loss(loss)
    feeds = {
        "x": np.linspace(-1.0, 1.0, size**3).reshape(1, size, size, size),
        "target": np.zeros((1, size, size, size)),
    }
    return g, feeds


def tiny_conv_graph(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    g = Graph(dtype)
    x = g.add_input("x")
    t = g.add_input("target")
    c1 = g.add(
        "conv3d",
        [x],
        params={"weight": rng.normal(size=(3, 1, 3, 3, 3)), "bias": rng.normal(size=3)},
    )
    b1 = g.add(
        "batch_norm",
        [c1],
        params={"gamma": np.ones(3), "beta": np.zeros(3)},
    )
    r1 = g.add("relu", [b1])
    c2 = g.add(
        "conv3d",
        [r1],
        params={"weight": rng.normal(size=(2, 3, 3, 3, 3)), "bias": rng.normal(size=2)},
    )
    loss = g.add("l2_loss", [c2, t])
    g.set_loss(loss)
    feeds = {
        "x": rng.normal(size=(1, 6, 6, 6)),
        "target": rng.normal(size=(2, 6, 6, 6)),
    }
    return g, feeds


def test_forward_discard_matches_plain_loss():
    g, feeds = tiny_conv_graph()
    plain = g.forward(feeds)
    g.set_checkpoints({2})  # first conv output
    discarded = g.forward(feeds, discard=True)
    assert plain == discarded


def test_forward_requires_checkpoints_for_discard():
    g, feeds = tiny_conv_graph()
    with pytest.raises(GraphError, match="non-empty checkpoint_set"):
        g.forward(feeds, discard=True)


def test_discard_frees_non_checkpoint_values():
    g, feeds = tiny_conv_graph()
    g.set_checkpoints({2})
    g.forward(feeds, discard=True)
    # conv1 output (2) retained; bn (3) and relu (4) freed; conv2 (5) retained
    # because its consumer is the loss... it is freed once l2 consumed it.
    assert g.nodes[2].value is not None
    assert g.nodes[3].value is None
    assert g.nodes[4].value is None


def test_checkpoint_all_matches_plain_peak():
    g, feeds = tiny_conv_graph()
    g.forward(feeds)
    plain_peak = g.meter.peak
    g.set_checkpoints(set(range(len(g.nodes))))
    g.forward(feeds, discard=True)
    assert g.meter.peak == plain_peak


def test_non_finite_value_reports_first_node():
    g, feeds = tiny_conv_graph()
    feeds = dict(feeds)
    feeds["x"] = feeds["x"].copy()
    feeds["x"][0, 0, 0, 0] = np.inf
    with pytest.raises(NonFiniteValue) as exc:
        g.forward(feeds)
    assert exc.value.node_id == 0  # the input itself is the first offender


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_interior_value_names_its_node(monkeypatch, bad):
    g, feeds = tiny_conv_graph()
    relu = ops.relu_forward

    def planted(x):
        out = relu(x)
        out[0, 2, 3, 1] = bad  # one voxel of an otherwise finite value
        return out

    monkeypatch.setattr(ops, "relu_forward", planted)
    with pytest.raises(NonFiniteValue) as exc:
        g.forward(feeds)
    assert (exc.value.node_id, exc.value.op) == (4, "relu")


def test_empty_value_passes_the_finite_check():
    # an empty input holds no non-finite entry; the empty mean squared
    # error downstream is the first non-finite value
    g, _ = relu_chain(2)
    empty = np.zeros((1, 0, 8, 8))
    with pytest.raises(NonFiniteValue) as exc, np.errstate(invalid="ignore"):
        g.forward({"x": empty, "target": empty})
    assert (exc.value.node_id, exc.value.op) == (4, "l2_loss")


def test_shape_error_names_node():
    g, feeds = tiny_conv_graph()
    feeds = dict(feeds)
    feeds["x"] = np.zeros((2, 6, 6, 6))  # conv expects 1 channel
    with pytest.raises(ShapeMismatch, match="node 2"):
        g.forward(feeds)


def test_backward_requires_forward():
    g, feeds = tiny_conv_graph()
    with pytest.raises(MissingValue):
        g.backward_plain()


def test_backward_rejects_grad_out_of_another_shape():
    g, feeds = tiny_conv_graph()
    g.forward(feeds, to_node=5)
    with pytest.raises(ShapeMismatch, match="grad_out shape"):
        g.backward_plain(np.ones((2, 6, 6, 5)))


def test_backward_plain_after_discard_recomputes_bitwise():
    # both names are the one schedule walk: after a discarding forward it
    # recomputes what was freed and yields the plain step's exact gradients
    g, feeds = tiny_conv_graph()
    g.forward(feeds)
    plain = g.backward_plain()
    g.set_checkpoints({2})
    g.forward(feeds, discard=True)
    after_discard = g.backward_plain()
    assert plain.keys() == after_discard.keys()
    for key in plain:
        np.testing.assert_array_equal(plain[key], after_discard[key])


@pytest.mark.parametrize(
    "backward, discard", [("backward_plain", False), ("backward_checkpointed", True)]
)
def test_backward_frees_every_value(backward, discard):
    g, feeds = tiny_conv_graph()
    g.set_checkpoints({2})
    g.forward(feeds, discard=discard)
    getattr(g, backward)()
    assert all(n.value is None for n in g.nodes)
    with pytest.raises(MissingValue):
        getattr(g, backward)()


@pytest.mark.parametrize("discard", [False, True])
def test_backward_skips_gradients_nothing_reads(monkeypatch, discard):
    # the inputs' gradients (the first conv's input, the loss target) are
    # never computed; every kernel still runs once per node
    from volpose import ops

    calls = []
    for name, flag in (("conv3d_backward", "input_grad"), ("l2_loss_backward", "target_grad")):
        kernel = getattr(ops, name)

        def spy(*args, _kernel=kernel, _name=name, _flag=flag, **kwargs):
            result = _kernel(*args, **kwargs)
            calls.append((_name, kwargs[_flag], result[0 if _flag == "input_grad" else 1]))
            return result

        monkeypatch.setattr(ops, name, spy)
    g, feeds = tiny_conv_graph()
    g.set_checkpoints({2})
    g.forward(feeds, discard=discard)
    assert g.schedule.requires_grad == {2, 3, 4, 5, 6}
    g.backward_plain()
    assert [(n, f) for n, f, _ in calls] == [
        ("l2_loss_backward", False),
        ("conv3d_backward", True),
        ("conv3d_backward", False),
    ]
    assert calls[0][2] is None and calls[2][2] is None and calls[1][2] is not None


def test_single_relu_graph_gradient():
    # loss = l2(relu(x), 0) on x=[-1, 2]: d loss/dx = [0, 2*2/2] = [0, 2]
    g = Graph(np.float64)
    x = g.add_input("x")
    t = g.add_input("target")
    r = g.add("relu", [x])
    loss = g.add("l2_loss", [r, t])
    g.set_loss(loss)
    feeds = {
        "x": np.array([-1.0, 2.0]).reshape(1, 1, 1, 2),
        "target": np.zeros((1, 1, 1, 2)),
    }
    g.forward(feeds)
    # no learnable params here; check via the checkpointed path identity instead
    grads = g.backward_plain()
    assert grads == {}


def test_graph_gradients_match_finite_differences():
    g, feeds = tiny_conv_graph()
    g.forward(feeds)
    grads = g.backward_plain()
    # numeric check on a few parameter entries through the whole graph
    h = 1e-5
    rng = np.random.default_rng(7)
    for key in ["2.weight", "2.bias", "3.gamma", "5.weight"]:
        arr = g.parameters()[key]
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = g.forward(feeds)
            flat[idx] = orig - h
            fm = g.forward(feeds)
            flat[idx] = orig
            numeric = (fp - fm) / (2 * h)
            assert abs(grads[key].reshape(-1)[idx] - numeric) < 1e-6 * max(1.0, abs(numeric))


def test_memory_cap_enforced():
    g, feeds = tiny_conv_graph()
    g.meter.cap = 100  # bytes; any real value blows through this
    with pytest.raises(MemoryCapExceeded):
        g.forward(feeds)
    g.meter.cap = None


def spy_on(monkeypatch, *names):
    """Record the name of every call to the given ``ops`` kernels."""
    calls = []
    for name in names:
        def spy(*args, _kernel=getattr(ops, name), _name=name, **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(ops, name, spy)
    return calls


def test_capped_forward_raises_before_any_kernel(monkeypatch):
    # a cap one byte under the walk's peak: the inputs would fit, the walk not
    g, feeds = tiny_conv_graph()
    g.forward(feeds)
    calls = spy_on(monkeypatch, "conv3d_forward")
    g.meter.cap = g.meter.peak - 1
    with pytest.raises(MemoryCapExceeded):
        g.forward(feeds)
    assert calls == []
    assert all(n.value is None for n in g.nodes)


def test_capped_step_raises_before_any_recompute(monkeypatch):
    # the discarding forward fits under the cap and the step does not: the
    # backward refuses before it recomputes or backpropagates anything
    g, feeds = tiny_conv_graph()
    g.set_checkpoints({2})
    g.forward(feeds, discard=True)
    forward_peak = g.meter.peak
    g.backward_checkpointed()
    step_peak = g.meter.peak
    assert step_peak > forward_peak
    g.meter.cap = forward_peak
    calls = spy_on(monkeypatch, "conv3d_forward", "batch_norm_forward", "relu_forward",
                   "conv3d_backward")
    g.forward(feeds, discard=True)
    forward_calls = ["conv3d_forward", "batch_norm_forward", "relu_forward", "conv3d_forward"]
    assert calls == forward_calls
    with pytest.raises(MemoryCapExceeded):
        g.backward_checkpointed()
    assert calls == forward_calls
    g.meter.cap = step_peak
    g.backward_checkpointed()
    assert calls == forward_calls + forward_calls[1:] + ["conv3d_backward"] * 2


@pytest.mark.parametrize("discard", [False, True])
def test_value_of_unplanned_size_raises(monkeypatch, discard):
    # a kernel that returns float64 in a float32 graph: the forward value
    # (plain) or the recomputed value (discarding) does not match the plan
    g, feeds = relu_chain(3, dtype=np.float32)
    g.set_checkpoints({0})
    g.forward(feeds, discard=discard)
    relu = ops.relu_forward
    monkeypatch.setattr(ops, "relu_forward", lambda x: relu(x).astype(np.float64))
    with pytest.raises(ShapeMismatch, match=r"node 2 \(relu\): value float64.* planned 2048"):
        if discard:
            g.backward_checkpointed()
        else:
            g.forward(feeds)


def test_clone_isolates_parameters():
    g, feeds = tiny_conv_graph()
    g2 = g.clone()
    g2.parameters()["2.weight"][:] = 0.0
    assert not np.array_equal(g.parameters()["2.weight"], g2.parameters()["2.weight"])


def test_select_checkpoints_every_k_chain():
    # x -> a -> b -> loss with k=2 keeps {x, b, loss}
    g = Graph(np.float64)
    x = g.add_input("x")        # id 0
    a = g.add("relu", [x])      # id 1
    b = g.add("relu", [a])      # id 2
    t = g.add_input("target")
    loss = g.add("l2_loss", [b, t])
    g.set_loss(loss)
    picked = select_checkpoints(g, "every_k", k=2)
    assert x in picked and b in picked and loss in picked
    assert a not in picked


def test_set_checkpoints_validates_ids():
    g, _ = tiny_conv_graph()
    with pytest.raises(GraphError, match="checkpoint id 999 not in graph"):
        g.set_checkpoints({999})
    assert g.checkpoint_set == set()
    g.set_checkpoints({2})
    assert g.checkpoint_set == {2}


def test_sqrt_n_checkpoints_bound_peak_liveness():
    # the conv's parameter makes every ReLU's backward run, and each reads
    # its own output, so the plain forward keeps all n of them
    n = 100
    g, feeds = relu_chain(n, size=8, learnable=True)
    unit = feeds["x"].nbytes
    g.forward(feeds)
    g.backward_plain()
    plain_peak = g.meter.peak
    assert plain_peak >= (n + 2) * unit  # every ReLU output, the input and the target

    k = int(np.sqrt(n))
    g.set_checkpoints(select_checkpoints(g, "every_k", k=k))
    g.forward(feeds, discard=True)
    g.backward_checkpointed()
    ckpt_peak = g.meter.peak
    # O(sqrt n) live tensors: checkpoints plus one recomputed run between
    # two of them, plus transients
    assert ckpt_peak <= 3.2 * np.sqrt(n) * unit
    assert ckpt_peak < 0.35 * plain_peak


def test_repeated_forward_reuses_its_schedule():
    g, feeds = tiny_conv_graph()
    g.forward(feeds)
    first = g.schedule
    g.backward_plain()
    g.forward(feeds)
    assert g.schedule is first
    # other values of the same shapes
    g.forward({name: 2 * value for name, value in feeds.items()})
    assert g.schedule is first


def _cached_step(g, feeds, discard, to_node):
    """One forward and backward; what they give and the meter's two peaks."""
    out = g.forward(feeds, discard=discard, to_node=to_node)
    schedule, forward_peak = g.schedule, g.meter.peak
    seed = None if to_node is None else np.ones_like(g.value(to_node))
    out = np.asarray(out).copy()
    grads = g.backward_checkpointed(seed)
    return schedule, out, grads, (forward_peak, g.meter.peak)


@pytest.mark.parametrize("change", ["target", "discard", "checkpoint-set", "feed-shapes",
                                    "node-count"])
def test_a_changed_forward_rebuilds_its_schedule(change):
    # each key of the cached schedule, changed alone, rebuilds it; the
    # rebuilt step gives the bits and peaks of a graph that never cached one
    def changed(g, feeds):
        discard, to_node = True, None
        if change == "target":
            to_node = 5  # the second conv, the loss's prediction input
        elif change == "discard":
            discard = False
        elif change == "checkpoint-set":
            g.set_checkpoints({2, 4})
        elif change == "feed-shapes":
            rng = np.random.default_rng(1)
            feeds = {"x": rng.normal(size=(1, 8, 8, 8)), "target": rng.normal(size=(2, 8, 8, 8))}
        else:
            g.add("relu", [4])  # a node no step reads
        return feeds, discard, to_node

    g, feeds = tiny_conv_graph()
    g.set_checkpoints({2})
    before, *_ = _cached_step(g, feeds, True, None)
    assert _cached_step(g, feeds, True, None)[0] is before
    schedule, out, grads, peaks = _cached_step(g, *changed(g, feeds))
    assert schedule is not before

    fresh, feeds = tiny_conv_graph()
    fresh.set_checkpoints({2})
    want_schedule, want_out, want_grads, want_peaks = _cached_step(fresh, *changed(fresh, feeds))
    assert schedule.program == want_schedule.program
    assert out.tobytes() == want_out.tobytes()
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert grads[key].tobytes() == want_grads[key].tobytes(), key
    assert peaks == want_peaks
