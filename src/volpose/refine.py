"""Test-time self-supervised refinement against a pose library.

Per case, on a private copy of the trained detector: infer heatmaps, decode
an intermediate pose, align every library pose to it and keep the best K,
map the K aligned poses from mm into the network's voxel frame, average
their Gaussian maps there into a label proxy, and take one Adam step toward
the proxy. Support set and proxy are rebuilt every iteration, so the
supervision evolves with the prediction. The base model is never mutated.
Batch norm always normalizes with the volume's own statistics. Nothing here
reads or writes files: results and traces go back to the caller.

What an iteration holds: the network input, the values the last forward
retained for the backward (the head among them), and the support set. It
builds the proxy one channel at a time (``build_label_proxy``), drops its
own reference to the head before the backward and the head's gradient
after it, and drops the proxy once the loss after the step is read. So
nothing of one iteration outlives it but the new forward's values and the
decoded pose. The forward after the last step, or the only one when no
step runs, is followed by no backward: it retains only the head
(``model.predict``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from volpose import ops
from volpose.graph import Graph, GraphError, NonFiniteValue
from volpose.heatmap import CONFIDENCE_FLOOR, WINDOW, DecodedPose, check_decode
from volpose.model import (
    DetectorConfig,
    decode_prediction,
    output_node,
    predict,
    prepare_volume,
)
from volpose.optim import Adam
from volpose.registration import (
    PoseLibrary,
    RetrievalDeclined,
    build_label_proxy,
    retrieve_support,
)


@dataclass
class RefineConfig:
    iterations: int = 6
    lr: float = 5e-4
    k_support: int = 10
    window: int = WINDOW
    confidence_floor: float = CONFIDENCE_FLOOR

    def __post_init__(self):
        if self.iterations < 0:
            raise GraphError(f"iterations must be >= 0, got {self.iterations}")
        if not 0 < self.lr < np.inf:
            raise GraphError(f"lr must be positive and finite, got {self.lr}")
        if self.k_support < 1:
            raise GraphError(f"k_support must be >= 1, got {self.k_support}")
        check_decode(self.window, self.confidence_floor)


@dataclass
class IterationRecord:
    iteration: int
    loss_pre: float               # L2 vs this iteration's proxy, before the step
    loss_post: float              # same proxy, after the step
    pose: DecodedPose             # the decode after the step
    support_ids: list[str]
    mean_support_error: float


@dataclass
class RefineResult:
    pose: DecodedPose             # decode after the final update
    trace: list[IterationRecord]
    declined: bool = False
    aborted: bool = False
    note: str = ""

    def trace_dict(self) -> dict:
        return {
            "declined": self.declined,
            "aborted": self.aborted,
            "note": self.note,
            "iterations": [
                {k: v for k, v in vars(rec).items() if k != "pose"} | {"pose_mm": rec.pose.xyz_mm}
                for rec in self.trace
            ],
        }


def _forward(graph: Graph, net_in: np.ndarray, last: bool) -> np.ndarray:
    """The head for ``net_in``. The forward retains what the next step's
    backward reads, or, when it is the ``last`` and no backward follows, only
    the head (``model.predict``)."""
    if last:
        return predict(graph, net_in)
    graph.forward({"volume": net_in}, to_node=output_node(graph))
    return graph.value(output_node(graph))


def _update(
    graph: Graph, adam: Adam, net_in: np.ndarray, proxy: np.ndarray, last: bool
) -> tuple[float, float, np.ndarray]:
    """One Adam step of the detector toward ``proxy``: the proxy loss before
    and after it, and the head after it.

    The head before the step is on the graph from the last forward, and the
    proxy loss's gradient there seeds the backward. This frame drops its
    reference to the old head before the backward and the seed after it, so
    neither outlives the backward.
    """
    pred = graph.value(output_node(graph))
    loss_pre = float(ops.l2_loss_forward(pred, proxy))
    grad_head, _ = ops.l2_loss_backward(
        pred, proxy, np.asarray(1.0, dtype=pred.dtype), target_grad=False
    )
    del pred
    adam.step(graph.backward_plain(grad_head))
    del grad_head
    head = _forward(graph, net_in, last)
    return loss_pre, float(ops.l2_loss_forward(head, proxy)), head


def refine(
    base_graph: Graph,
    volume: np.ndarray,
    spacing,
    library: PoseLibrary,
    detector_cfg: DetectorConfig,
    cfg: RefineConfig,
) -> RefineResult:
    """Refine one case. The base graph's parameters are copied, never touched."""
    graph = base_graph.clone()
    net_in, frame = prepare_volume(volume, spacing, detector_cfg)
    adam = Adam(graph.parameters(), lr=cfg.lr)

    initial = decode_prediction(
        _forward(graph, net_in, last=not cfg.iterations), frame, cfg.window,
        cfg.confidence_floor,
    )
    current = initial
    trace: list[IterationRecord] = []

    for it in range(cfg.iterations):
        try:
            support = retrieve_support(
                current.xyz_mm, current.present, library, k=cfg.k_support
            )
        except RetrievalDeclined as e:
            return RefineResult(current, trace, declined=True, note=str(e))
        proxy = build_label_proxy(
            frame.mm_to_net_voxel(support.aligned_mm), support.present,
            frame.net_shape, detector_cfg.sigma_vox,
        )
        try:
            loss_pre, loss_post, head = _update(
                graph, adam, net_in, proxy, last=it == cfg.iterations - 1
            )
        except NonFiniteValue as e:
            return RefineResult(initial, trace, aborted=True, note=f"non-finite value: {e}")
        current = decode_prediction(head, frame, cfg.window, cfg.confidence_floor)
        # nothing here may hold the head into the next step, whose backward frees it
        del proxy, head
        trace.append(
            IterationRecord(
                iteration=it,
                loss_pre=loss_pre,
                loss_post=loss_post,
                pose=current,
                support_ids=support.ids(),
                mean_support_error=float(np.mean(support.errors_mm)),
            )
        )
    return RefineResult(current, trace)


@dataclass
class BatchSummary:
    n_cases: int
    n_declined: int
    n_aborted: int
    mean_final_proxy_loss: float | None


def refine_batch(
    base_graph: Graph,
    cases: Iterable[tuple[str, np.ndarray, np.ndarray]],   # (case id, volume, spacing)
    library: PoseLibrary,
    detector_cfg: DetectorConfig,
    cfg: RefineConfig,
) -> tuple[dict[str, RefineResult], BatchSummary]:
    """Independent per-case refinement; one failing case never aborts the rest.

    ``cases`` is read once, in order, and may be a generator that loads each
    volume as its case is drawn: a case's volume is dropped once its
    refinement returns, before the next case is drawn, so the batch holds
    one volume (and one private copy of the detector) at a time.
    """
    results: dict[str, RefineResult] = {}
    n_cases = 0
    for case_id, volume, spacing in cases:
        n_cases += 1
        try:
            res = refine(base_graph, volume, spacing, library, detector_cfg, cfg)
        except Exception as e:  # defensive: isolate per-case failures
            dummy = DecodedPose(
                np.zeros((16, 3)), np.zeros(16), np.zeros(16, dtype=bool)
            )
            res = RefineResult(dummy, [], aborted=True, note=f"error: {e}")
        del volume
        results[case_id] = res
    final_losses = [
        res.trace[-1].loss_post for res in results.values() if res.trace and not res.aborted
    ]
    summary = BatchSummary(
        n_cases=n_cases,
        n_declined=sum(r.declined for r in results.values()),
        n_aborted=sum(r.aborted for r in results.values()),
        mean_final_proxy_loss=float(np.mean(final_losses)) if final_losses else None,
    )
    return results, summary
