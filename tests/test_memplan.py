"""The symbolic memory planner must agree with the live meter, then scale."""

import numpy as np
import pytest

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
    # output) or a deconv output (concat reads no value): the plain forward
    # frees exactly those, and keeps every other value
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    rng = np.random.default_rng(2)
    graph.forward({
        "volume": rng.normal(size=(1, 32, 32, 32)).astype(np.float32),
        "target": rng.normal(size=(16, 32, 32, 32)).astype(np.float32),
    })
    empty = {n.nid for n in graph.nodes if n.value is None}
    assert empty == {n.nid for n in graph.nodes if n.op in ("batch_norm", "deconv3d")}
    assert len(empty) == 14 + 3


def test_reference_step_peaks_are_pinned():
    # the planned step peaks of the reference detector at 32^3, values and
    # held gradients: a change to either is a change to the schedule
    cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
    graph = build_detector(cfg, seed=0)
    graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
    plan = plan_memory(graph, {"volume": (1, 32, 32, 32), "target": (16, 32, 32, 32)})
    assert plan.plain_step_peak == 20_422_664
    assert plan.checkpointed_step_peak == 9_364_096


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
