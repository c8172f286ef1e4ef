"""Symbolic memory planning: peak liveness without allocating anything.

The plan is the executor's own account: the :class:`~volpose.graph.Schedule`
built from input shapes alone, which sizes each value by its op's shape rule
in ``graph.OP_TABLE`` and sums live bytes along the program of run, free and
grad actions that the executor walks: the values some backward step still
reads, and the gradients the backward holds. The executor reads its peaks
from the same schedule, so planned and metered peaks are one number. This
makes memory questions about configurations far beyond desk RAM answerable
instantly.
"""

from __future__ import annotations

from dataclasses import dataclass

from volpose.graph import Graph, Schedule


@dataclass
class MemoryPlan:
    parameter_count: int
    plain_step_peak: int       # keeps what the backward reads, plus held gradients
    forward_discard_peak: int
    checkpointed_step_peak: int


def plan_memory(graph: Graph, input_shapes: dict[str, tuple]) -> MemoryPlan:
    """The plain and the discarding schedules of a step, on shapes only."""
    plain = Schedule.build(graph, graph.loss_id, False, input_shapes)
    checkpointed = Schedule.build(graph, graph.loss_id, True, input_shapes)
    return MemoryPlan(
        parameter_count=int(sum(v.size for v in graph.parameters().values())),
        plain_step_peak=plain.step_peak,
        forward_discard_peak=checkpointed.forward_peak,
        checkpointed_step_peak=checkpointed.step_peak,
    )
