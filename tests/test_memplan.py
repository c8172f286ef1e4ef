"""The symbolic memory planner must agree with the live meter, then scale."""

import tracemalloc

import numpy as np
import pytest

from volpose import ops
from volpose.graph import Schedule, select_checkpoints, value_shapes
from volpose.memplan import plan_memory
from volpose.model import DetectorConfig, build_detector

POLICIES = [
    pytest.param(lambda g: select_checkpoints(g, "block_boundary"), id="block_boundary"),
    *[
        pytest.param(lambda g, k=k: select_checkpoints(g, "every_k", k=k), id=f"every_{k}")
        for k in (1, 2, 3, 5)
    ],
    # inputs and loss only: the smallest set a discarding forward accepts
    pytest.param(lambda g: set(g.inputs.values()) | {g.loss_id}, id="manual_empty"),
]


def measured_peaks(graph, shape, checkpoints):
    rng = np.random.default_rng(0)
    feeds = {
        "volume": rng.normal(size=(1, *shape)).astype(np.float32),
        "target": rng.normal(size=(16, *shape)).astype(np.float32),
    }
    graph.forward(feeds)
    graph.backward_plain()
    plain = graph.meter.peak
    graph.set_checkpoints(checkpoints)
    graph.forward(feeds, discard=True)
    fwd = graph.meter.peak
    graph.backward_checkpointed()
    step = graph.meter.peak
    return plain, fwd, step


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("choose", POLICIES)
def test_plan_matches_live_meter(depth, choose):
    cfg = DetectorConfig(depth=depth, base_channels=4, input_scale=1.0)
    graph = build_detector(cfg, seed=depth - 1)
    shape = (16, 16, 16)
    checkpoints = choose(graph)
    plain, fwd, step = measured_peaks(graph, shape, checkpoints)
    plan = plan_memory(graph, {"volume": (1, *shape), "target": (16, *shape)})
    assert (plan.plain_step_peak, plan.forward_discard_peak, plan.checkpointed_step_peak) == (
        plain, fwd, step
    )


def test_plan_matches_live_meter_on_reference_detector():
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    shape = (32, 32, 32)
    plain, fwd, step = measured_peaks(
        graph, shape, select_checkpoints(graph, "block_boundary")
    )
    plan = plan_memory(graph, {"volume": (1, *shape), "target": (16, *shape)})
    assert plan.plain_step_peak == plain
    assert plan.forward_discard_peak == fwd
    assert plan.checkpointed_step_peak == step


def test_node_shapes_match_forward_values_on_reference_detector(monkeypatch):
    # a plain forward frees the values no backward step reads, so each
    # value's shape is recorded as the forward stores it
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    shape = (32, 32, 32)
    rng = np.random.default_rng(1)
    stored = {}
    store = graph._store

    def record(node, value, nbytes):
        stored[node.nid] = value.shape
        store(node, value, nbytes)

    monkeypatch.setattr(graph, "_store", record)
    graph.forward({
        "volume": rng.normal(size=(1, *shape)).astype(np.float32),
        "target": rng.normal(size=(16, *shape)).astype(np.float32),
    })
    shapes = {"volume": (1, *shape), "target": (16, *shape)}
    planned = list(value_shapes(graph, range(len(graph.nodes)), shapes).values())
    assert planned == [stored[n.nid] for n in graph.nodes]


def test_plain_forward_keeps_only_what_the_backward_reads():
    # no backward step reads a batch-norm output (ReLU masks from its own
    # output) or the head (the loss reads its residual): the plain forward
    # frees exactly those, and keeps every other value. A deconv output
    # stays as its concat's first block
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    rng = np.random.default_rng(2)
    graph.forward({
        "volume": rng.normal(size=(1, 32, 32, 32)).astype(np.float32),
        "target": rng.normal(size=(16, 32, 32, 32)).astype(np.float32),
    })
    empty = {n.nid for n in graph.nodes if n.value is None}
    head = graph.nodes[graph.loss_id].inputs[0]
    assert empty == {n.nid for n in graph.nodes if n.op == "batch_norm"} | {head}
    assert len(empty) == 15


def test_reference_step_peaks_are_pinned():
    # the planned step peaks of the reference detector at 32^3, values and
    # held gradients: a change to either is a change to the schedule
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
    plan = plan_memory(graph, {"volume": (1, 32, 32, 32), "target": (16, 32, 32, 32)})
    assert plan.plain_step_peak == 16_949_252
    assert plan.checkpointed_step_peak == 8_315_520


def conv_call_workspace(cin, cout, extents, k, itemsize=4):
    """Bytes one conv3d call on these shapes may hold beside its operands
    and results: one column block's padded planes, stack and accumulator
    (``ops.CONV_BLOCK`` columns, or the whole grid up to twice that), and
    its weight gradient's two sets of planes and stack."""
    hp, wp, n, offsets = ops._grid((cin, *extents), k)
    plane, halo = hp * wp, offsets[-1]

    def block(m):
        return ops.CONV_BLOCK if m > 2 * ops.CONV_BLOCK else m

    def planes(c, width):
        return c * min(extents[0] + k - 1, (width + plane - 2) // plane + 1) * plane

    def conv(c_in, c_out):  # a forward, or gx with the channels swapped
        step = block(n)
        return planes(c_in, step + halo + k - 1) + k * c_in * (step + halo) + 2 * c_out * step

    step = block(n + k - 1)
    weight_grad = planes(cout, step + k - 1) + planes(cin, step + halo) + k * cout * step
    return itemsize * max(conv(cin, cout), conv(cout, cin), weight_grad)


@pytest.mark.parametrize("discard", [False, True], ids=["plain", "block_boundary"])
def test_traced_step_peak_is_the_plan(discard):
    # the plan holds what the step holds. tracemalloc does not see the
    # feeds, allocated before it starts, and the plan leaves out a kernel's
    # workspace: so the traced peak lies between the planned step peak less
    # the feeds and that plus the largest conv3d call's workspace, give or
    # take 64 KiB of Python objects and weight copies. A concat that copied
    # its inputs, or a skip gradient that kept the whole concat gradient
    # alive, would hold bytes the plan does not count
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    if discard:
        graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
    shapes = {"volume": (1, 32, 32, 32), "target": (16, 32, 32, 32)}
    rng = np.random.default_rng(3)
    feeds = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
    graph.forward(feeds, discard=discard)  # warm: the schedule is built
    graph.backward_checkpointed()
    tracemalloc.start()
    try:
        graph.forward(feeds, discard=discard)
        graph.backward_checkpointed()
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = value_shapes(graph, range(len(graph.nodes)), shapes)
    workspace = max(
        conv_call_workspace(n.params["weight"].shape[1], n.params["weight"].shape[0],
                            sizes[n.inputs[0]][1:], n.params["weight"].shape[2])
        for n in graph.nodes if n.op == "conv3d"
    )
    planned = graph.meter.peak - sum(f.nbytes for f in feeds.values())
    slack = 64 * 1024
    assert planned - slack <= traced <= planned + workspace + slack, (traced, planned, workspace)


def test_depth4_full_scale_report():
    # the paper-scale configuration: depth 4 on a 160^3 input, reported
    # symbolically (allocating it would need gigabytes)
    cfg = DetectorConfig(depth=4, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=2)
    graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
    shape = (160, 160, 160)
    shapes = {"volume": (1, *shape), "target": (16, *shape)}
    plan = plan_memory(graph, shapes)
    assert plan.parameter_count > 0
    nbytes = Schedule.build(graph, graph.loss_id, False, shapes).nbytes
    assert all(b >= 0 for b in nbytes.values())
    assert plan.checkpointed_step_peak < plan.plain_step_peak
    reduction = 1 - plan.checkpointed_step_peak / plan.plain_step_peak
    assert reduction > 0.25
    print(
        f"\ndepth-4 @160^3: {plan.parameter_count:,} params, "
        f"plain {plan.plain_step_peak/1e9:.2f} GB -> "
        f"checkpointed {plan.checkpointed_step_peak/1e9:.2f} GB "
        f"({reduction*100:.0f}% less)"
    )
