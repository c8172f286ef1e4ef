"""Symbolic memory planning: per-node value sizes and peak liveness without
allocating anything.

Shapes come from each op's shape rule in ``graph.OP_TABLE``. Liveness comes
from the :class:`~volpose.graph.Schedule` the executor walks: the planner
only sums byte sizes along it, so its peaks equal the live meter's by
construction. This makes memory questions about configurations far beyond
desk RAM answerable instantly; the test suite checks planner == meter at
small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from volpose.graph import OP_TABLE, Graph, Schedule


def node_shapes(graph: Graph, input_shapes: dict[str, tuple]) -> list[tuple]:
    """Value shape of every node for the given named input shapes."""
    shapes: list[tuple] = []
    for node in graph.nodes:
        if node.op == "input":
            shapes.append(tuple(input_shapes[node.attrs["name"]]))
        else:
            shapes.append(OP_TABLE[node.op].shape(node, [shapes[i] for i in node.inputs]))
    return shapes


@dataclass
class MemoryPlan:
    parameter_count: int
    node_bytes: list[int]
    plain_step_peak: int       # the forward's: it keeps everything, backward only frees
    forward_discard_peak: int
    checkpointed_step_peak: int


def _bytes_of(shape: tuple, itemsize: int) -> int:
    return int(np.prod(shape, dtype=np.int64)) * itemsize if shape else itemsize


def _peaks(schedule: Schedule, nbytes: list[int]) -> tuple[int, int]:
    """Meter peaks at the end of the forward walk and of the whole step."""
    live = peak = 0
    for nid, frees in zip(schedule.need, schedule.forward_frees):
        live += nbytes[nid]
        peak = max(peak, live)
        live -= sum(nbytes[i] for i in frees)
    forward_peak = peak
    for _, recompute, frees in schedule.backward:
        live += sum(nbytes[m] for m in recompute)
        peak = max(peak, live)
        live -= sum(nbytes[i] for i in frees)
    return forward_peak, peak


def plan_memory(graph: Graph, input_shapes: dict[str, tuple]) -> MemoryPlan:
    """Walk the plain and the discarding schedules on byte sizes only."""
    itemsize = graph.dtype.itemsize
    nbytes = [_bytes_of(s, itemsize) for s in node_shapes(graph, input_shapes)]
    plain_peak, _ = _peaks(Schedule.build(graph, graph.loss_id, discard=False), nbytes)
    checkpointed = Schedule.build(graph, graph.loss_id, discard=True)
    checkpointed.check()
    forward_peak, step_peak = _peaks(checkpointed, nbytes)
    return MemoryPlan(
        parameter_count=int(sum(v.size for v in graph.parameters().values())),
        node_bytes=nbytes,
        plain_step_peak=plain_peak,
        forward_discard_peak=forward_peak,
        checkpointed_step_peak=step_peak,
    )
