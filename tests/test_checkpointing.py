"""Checkpointed backward: bitwise equivalence with the plain pass under
policy and random checkpoint sets, recomputation on demand on graphs with
skip connections, and memory monotonicity."""

import numpy as np
import pytest

from volpose.graph import Graph, Schedule, select_checkpoints
from volpose.memplan import plan_memory
from volpose.model import DetectorConfig, build_detector


def skip_graph(dtype=np.float64, seed=0, size=8):
    """conv/pool encoder, deconv decoder, one concat skip: a one-level U.
    Parameters are drawn in float64 and stored in ``dtype``."""
    rng = np.random.default_rng(seed)
    g = Graph(dtype)
    x = g.add_input("x")
    t = g.add_input("target")

    def conv(prev, cin, cout, tag):
        c = g.add(
            "conv3d",
            [prev],
            params={
                "weight": (rng.normal(size=(cout, cin, 3, 3, 3)) * 0.4).astype(dtype),
                "bias": np.zeros(cout, dtype),
            },
            attrs={"tag": tag},
        )
        b = g.add(
            "batch_norm",
            [c],
            params={"gamma": np.ones(cout, dtype), "beta": np.zeros(cout, dtype)},
        )
        return g.add("relu", [b])

    e1 = conv(x, 1, 3, "enc0.conv0")
    skip = conv(e1, 3, 3, "enc0.conv1")  # feeds the concat
    pool = g.add("max_pool3d", [skip], attrs={"block_output": True})
    mid = conv(pool, 3, 6, "mid.conv0")
    up = g.add(
        "deconv3d",
        [mid],
        params={
            "weight": (rng.normal(size=(6, 3, 2, 2, 2)) * 0.4).astype(dtype),
            "bias": np.zeros(3, dtype),
        },
    )
    cat = g.add("channel_concat", [up, skip])
    d1 = conv(cat, 6, 3, "dec0.conv0")
    out = g.add(
        "conv3d",
        [d1],
        params={
            "weight": (rng.normal(size=(2, 3, 1, 1, 1)) * 0.4).astype(dtype),
            "bias": np.zeros(2, dtype),
        },
        attrs={"block_output": True},
    )
    loss = g.add("l2_loss", [out, t])
    g.set_loss(loss)
    feeds = {
        "x": rng.normal(size=(1, size, size, size)),
        "target": rng.normal(size=(2, size, size, size)),
    }
    return g, feeds


def grads_equal_bitwise(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=f"gradient {key} differs")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checkpointed_equals_plain_bitwise_on_skip_graph(seed):
    g, feeds = skip_graph(seed=seed)
    g.forward(feeds)
    plain = g.backward_plain()

    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    loss_d = g.forward(feeds, discard=True)
    ckpt = g.backward_checkpointed()
    grads_equal_bitwise(plain, ckpt)
    assert loss_d == g.forward(feeds)  # loss unchanged by discarding


@pytest.mark.parametrize("k", [2, 3, 5])
def test_every_k_policy_bitwise_on_skip_graph(k):
    g, feeds = skip_graph(seed=3)
    g.forward(feeds)
    plain = g.backward_plain()
    g.set_checkpoints(select_checkpoints(g, "every_k", k=k))
    g.forward(feeds, discard=True)
    grads_equal_bitwise(plain, g.backward_checkpointed())


def test_checkpoint_all_degenerates_to_plain():
    g, feeds = skip_graph(seed=4)
    g.forward(feeds)
    plain = g.backward_plain()
    plain_peak = g.meter.peak
    g.set_checkpoints(set(range(len(g.nodes))))
    g.forward(feeds, discard=True)
    ckpt = g.backward_checkpointed()
    grads_equal_bitwise(plain, ckpt)
    assert g.meter.peak == plain_peak


def test_float32_bitwise_equivalence():
    g, feeds = skip_graph(dtype=np.float32, seed=5)
    g.forward(feeds)
    plain = g.backward_plain()
    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    g.forward(feeds, discard=True)
    grads_equal_bitwise(plain, g.backward_checkpointed())


def test_block_boundary_reduces_peak_memory():
    g, feeds = skip_graph(seed=6, size=16)
    g.forward(feeds)
    g.backward_plain()
    plain_peak = g.meter.peak
    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    g.forward(feeds, discard=True)
    g.backward_checkpointed()
    assert g.meter.peak < plain_peak


def test_block_boundary_never_checkpoints_concat_inputs():
    g, _ = skip_graph(seed=7)
    picked = select_checkpoints(g, "block_boundary")
    concat_inputs = set()
    for node in g.nodes:
        if node.op == "channel_concat":
            concat_inputs.update(node.inputs)
    assert not (picked & concat_inputs)


def reference_detector():
    graph = build_detector(DetectorConfig(depth=3, base_channels=8, input_scale=1.0), seed=0)
    return graph, {"volume": (1, 32, 32, 32), "target": (16, 32, 32, 32)}


def skip_graph_shapes():
    graph, feeds = skip_graph(seed=7)
    return graph, {name: value.shape for name, value in feeds.items()}


@pytest.mark.parametrize("make", [reference_detector, skip_graph_shapes])
@pytest.mark.parametrize("policy, k", [
    ("block_boundary", None), ("every_k", 1), ("every_k", 6), ("every_k", 1000),
])
def test_schedule_alone_keeps_inputs_loss_and_concat_inputs(make, policy, k):
    # the schedule keeps the inputs, the loss and the concat inputs itself:
    # a policy's picks give the same schedule with the inputs and the loss
    # added, and with the concat inputs taken out
    g, shapes = make()
    picks = select_checkpoints(g, policy, k=k)
    implicit = set(g.inputs.values()) | {g.loss_id}
    concat_inputs = {i for n in g.nodes if n.op == "channel_concat" for i in n.inputs}

    def schedule(checkpoints):
        g.set_checkpoints(checkpoints)
        return Schedule.build(g, g.loss_id, True, shapes)

    kept = schedule(picks | implicit)
    assert schedule(picks) == kept
    assert schedule((picks - concat_inputs) | implicit) == kept


def test_adding_checkpoints_never_increases_recompute_count():
    g, feeds = skip_graph(seed=8)

    def recompute_count(ckpts):
        g.set_checkpoints(ckpts)
        g.forward(feeds, discard=True)
        schedule = g.schedule
        # each value the forward does not retain is freed there exactly once
        return sum(action == "free" for action, _ in schedule.program[:schedule.split])

    base = select_checkpoints(g, "block_boundary")
    count = recompute_count(base)
    for extra in range(len(g.nodes)):
        if extra in base:
            continue
        assert recompute_count(base | {extra}) <= count


def test_discarded_value_read_across_a_checkpoint_is_recomputed():
    # a -> b -> c with an extra edge a -> add(c): with only b kept, a is
    # discarded and read on both sides of b. The loss step reads its own
    # residual; the pool's step, which reads the add, recomputes it and all
    # it reads, a included, in forward order.
    g = Graph(np.float64)
    x = g.add_input("x")
    t = g.add_input("target")
    rng = np.random.default_rng(0)
    a = g.add("conv3d", [x], params={"weight": rng.normal(size=(1, 1, 3, 3, 3)),
                                     "bias": np.zeros(1)})
    b = g.add("relu", [a])
    c = g.add("relu", [b])
    s = g.add("add", [c, a])
    p = g.add("max_pool3d", [s])
    loss = g.add("l2_loss", [p, t])
    g.set_loss(loss)
    feeds = {
        "x": np.linspace(-1, 1, 8).reshape(1, 2, 2, 2),
        "target": np.zeros((1, 1, 1, 1)),
    }
    g.forward(feeds)
    plain = g.backward_plain()
    assert set(plain) == {f"{a}.weight", f"{a}.bias"}
    g.set_checkpoints({b})
    g.forward(feeds, discard=True)
    schedule = g.schedule
    backward = [act for act in schedule.program[schedule.split:] if act[0] != "free"]
    # the first two backward steps, up to the pool's grad
    assert backward[:5] == [("grad", loss), ("run", a), ("run", c), ("run", s), ("grad", p)]
    grads_equal_bitwise(plain, g.backward_checkpointed())


@pytest.mark.parametrize("make", [reference_detector, skip_graph_shapes])
def test_backward_runs_exactly_the_programs_recomputes(monkeypatch, make):
    # under block_boundary, the forward kernels the backward calls are the
    # run actions of program[split:], in order, and each gives the bits the
    # forward gave for that node
    from volpose import ops

    g, shapes = make()
    rng = np.random.default_rng(2)
    feeds = {name: rng.normal(size=shape).astype(g.dtype) for name, shape in shapes.items()}
    calls = []
    for name in [n for n in dir(ops) if n.endswith("_forward")]:
        def spy(*args, _kernel=getattr(ops, name), _name=name, **kwargs):
            calls.append((_name, _kernel(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(ops, name, spy)
    kernel = {op: f"{op}_forward" for op in ("conv3d", "deconv3d", "max_pool3d", "batch_norm",
                                             "relu", "add", "l2_loss")}
    kernel["channel_concat"] = "concat_forward"
    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    g.forward(feeds, discard=True)
    schedule = g.schedule
    forward_runs = [nid for action, nid in schedule.program[:schedule.split]
                    if action == "run" and g.nodes[nid].op != "input"]
    assert [name for name, _ in calls] == [kernel[g.nodes[nid].op] for nid in forward_runs]
    forward_values = {nid: value for nid, (_, value) in zip(forward_runs, calls)}
    calls.clear()
    g.backward_checkpointed()
    runs = [nid for action, nid in schedule.program[schedule.split:] if action == "run"]
    assert runs
    assert [name for name, _ in calls] == [kernel[g.nodes[nid].op] for nid in runs]
    for nid, (_, value) in zip(runs, calls):
        np.testing.assert_array_equal(value, forward_values[nid], err_msg=f"node {nid}")


@pytest.mark.parametrize("discard", [False, True])
def test_a_free_releases_the_value(monkeypatch, discard):
    # once the program frees a value, nothing holds it: at each grad, every
    # value a kernel gave so far is either a node's value or collected (the
    # caller holds the feeds)
    import weakref

    g, feeds = skip_graph(seed=3)
    g.set_checkpoints(select_checkpoints(g, "block_boundary"))
    stored, store, step = [], g._store, g._backward_step

    def record(node, value, nbytes):
        if node.op != "input":
            stored.append((node, weakref.ref(value)))
        store(node, value, nbytes)

    def check(node, *args):
        held = [n.nid for n, ref in stored if ref() is not None and n.value is not ref()
                and n.nid not in reused]
        assert not held, f"freed values still held: {held}"
        step(node, *args)

    monkeypatch.setattr(g, "_store", record)
    monkeypatch.setattr(g, "_backward_step", check)
    g.forward(feeds, discard=discard)
    # a value whose buffer a kernel's result took lives on as that result:
    # the head, as the loss's residual and then as its own gradient
    reused = set(g.schedule.reuse.values())
    assert reused == {g.loss_id, g.nodes[g.loss_id].inputs[0]}
    g.backward_checkpointed()
    # every node but the two inputs ran in the forward; the discarding
    # backward ran recomputes too
    forward_runs = len(g.nodes) - 2
    assert len(stored) > forward_runs if discard else len(stored) == forward_runs


def detector_graph():
    graph = build_detector(DetectorConfig(depth=2, base_channels=8, input_scale=1.0), seed=0)
    rng = np.random.default_rng(1)
    feeds = {
        "volume": rng.normal(size=(1, 16, 16, 16)).astype(np.float32),
        "target": rng.normal(size=(16, 16, 16, 16)).astype(np.float32),
    }
    return graph, feeds


@pytest.fixture(scope="module", params=[skip_graph, detector_graph])
def plain_step(request):
    g, feeds = request.param()
    g.forward(feeds)
    return g, feeds, g.backward_plain(), g.meter.peak


@pytest.mark.parametrize("seed", range(20))
def test_any_checkpoint_set_is_bitwise_and_metered_as_planned(plain_step, seed):
    # any set runs: the checkpointed gradients are the plain ones, the meter
    # reads the planner's peaks, and the step never peaks above the plain one
    g, feeds, plain, plain_peak = plain_step
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.02, 0.7)
    picks = {nid for nid in range(len(g.nodes)) if rng.random() < density}
    g.set_checkpoints(picks or {g.loss_id})
    plan = plan_memory(g, {name: value.shape for name, value in feeds.items()})
    g.forward(feeds, discard=True)
    assert g.meter.peak == plan.forward_discard_peak
    grads_equal_bitwise(plain, g.backward_checkpointed())
    assert g.meter.peak == plan.checkpointed_step_peak
    assert plan.checkpointed_step_peak <= plan.plain_step_peak == plain_peak


def test_two_runs_same_seed_identical():
    g1, f1 = skip_graph(seed=9)
    g2, f2 = skip_graph(seed=9)
    l1 = g1.forward(f1)
    l2 = g2.forward(f2)
    assert l1 == l2
    grads_equal_bitwise(g1.backward_plain(), g2.backward_plain())
    assert g1.meter.peak == g2.meter.peak
