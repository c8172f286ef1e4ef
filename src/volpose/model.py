"""The encoder-decoder landmark detector: graph construction, preprocessing,
training, and inference.

The network is a configurable 3-D U-shaped graph: ``depth`` encoder blocks
(convs + pool), a bottleneck block, matching decoder blocks (deconv + skip
concat + convs), and a final 1x1x1 conv producing 16 heatmap channels. Output
spatial shape equals input spatial shape. Training minimizes the mean squared
error between predicted and encoded ground-truth heatmaps with Adam at batch
size 1.

Every conv and deconv is He-normal initialised, except the heatmap head,
whose He-normal weights are scaled by ``HEAD_INIT_SCALE`` (1e-3). Target
heatmaps are nearly all zeros, so the all-zeros output is already a strong
predictor (loss ``mean(target**2)``). A full-size He head starts hundreds of
times above that loss, and Adam cannot shrink it in a few hundred steps, so
training flattens the last features instead and the detector collapses to
the zero predictor. A small head starts at the zero predictor's loss and
learns peaks from there. It is kept nonzero so that the first backward pass
gives every parameter tensor a live gradient (an exactly zero head blocks
the gradient to everything below it).

Volumes pass through a fixed preprocessing chain before the network: resample
by ``input_scale``, normalize to zero mean / unit variance, zero-pad to a
multiple of 2^depth. A ``NetFrame`` records the chain so decoded voxel
coordinates map back to original-frame mm exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field
from pathlib import Path
from typing import ClassVar, Iterable

import numpy as np

from volpose import heatmap
from volpose.anatomy import NUM_LANDMARKS
from volpose.fileio import write_csv
from volpose.graph import Graph, GraphError
from volpose.optim import BETA1, BETA2, EPS, Adam
from volpose.registration import Pose
from volpose.serialize import save_model


@dataclass
class DetectorConfig:
    depth: int = 3
    base_channels: int = 8
    convs_per_block: int = 2
    input_scale: float = 0.5
    sigma_vox: float = 2.0

    def __post_init__(self):
        if self.depth < 1:
            raise GraphError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise GraphError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.convs_per_block < 2:
            raise GraphError(f"convs_per_block must be >= 2, got {self.convs_per_block}")
        if not (0.0 < self.input_scale <= 1.0):
            raise GraphError(f"input_scale must be in (0, 1], got {self.input_scale}")
        if not 0 < self.sigma_vox < np.inf:
            raise GraphError(f"sigma_vox must be positive and finite, got {self.sigma_vox}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 20
    seed: int = 0
    # Adam's own constants, not settings: training leaves them to the optimizer
    beta1: ClassVar[float] = BETA1
    beta2: ClassVar[float] = BETA2
    eps: ClassVar[float] = EPS

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise GraphError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise GraphError(f"epochs must be >= 1, got {self.epochs}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

HEAD_INIT_SCALE = 1e-3


def build_detector(cfg: DetectorConfig, seed: int = 0) -> Graph:
    """Assemble the detector graph with seeded He-normal initialization.

    The 1x1x1 heatmap head draws He-normal weights like every other conv,
    then scales them by ``HEAD_INIT_SCALE`` so the untrained output is close
    to the all-zeros predictor but not equal to it (see the module
    docstring). The draw order, and so every other initial weight, does not
    depend on the scale.
    """
    rng = np.random.default_rng(seed)
    g = Graph()
    x = g.add_input("volume")

    def he(cout, cin, k):
        std = np.sqrt(2.0 / (cin * k**3))
        return rng.normal(scale=std, size=(cout, cin, k, k, k)).astype(g.dtype)

    def conv_bn_relu(prev, cin, cout, tag, block_output=False):
        c = g.add(
            "conv3d",
            [prev],
            params={"weight": he(cout, cin, 3), "bias": np.zeros(cout, dtype=g.dtype)},
            attrs={"tag": tag},
        )
        b = g.add(
            "batch_norm",
            [c],
            params={"gamma": np.ones(cout, dtype=g.dtype), "beta": np.zeros(cout, dtype=g.dtype)},
            attrs={"tag": f"{tag}.bn"},
        )
        attrs = {"tag": f"{tag}.relu"}
        if block_output:
            attrs["block_output"] = True
        return g.add("relu", [b], attrs=attrs)

    def block(prev, cin, cout, name, mark_last=False):
        h = conv_bn_relu(prev, cin, cout, f"{name}.conv0")
        for i in range(1, cfg.convs_per_block):
            h = conv_bn_relu(
                h, cout, cout, f"{name}.conv{i}",
                block_output=mark_last and i == cfg.convs_per_block - 1,
            )
        return h

    chans = [cfg.base_channels * 2**i for i in range(cfg.depth + 1)]
    skips = []
    h = x
    cin = 1  # prepare_volume makes one channel
    for level in range(cfg.depth):
        h = block(h, cin, chans[level], f"enc{level}")
        skips.append(h)
        h = g.add("max_pool3d", [h], attrs={"tag": f"enc{level}.pool", "block_output": True})
        cin = chans[level]
    h = block(h, cin, chans[cfg.depth], "bottleneck", mark_last=True)

    for level in reversed(range(cfg.depth)):
        cup = chans[level + 1]
        cdown = chans[level]
        std = np.sqrt(2.0 / cup)
        up = g.add(
            "deconv3d",
            [h],
            params={
                "weight": rng.normal(scale=std, size=(cup, cdown, 2, 2, 2)).astype(g.dtype),
                "bias": np.zeros(cdown, dtype=g.dtype),
            },
            attrs={"tag": f"dec{level}.up"},
        )
        cat = g.add("channel_concat", [up, skips[level]], attrs={"tag": f"dec{level}.concat"})
        h = block(cat, 2 * cdown, cdown, f"dec{level}", mark_last=True)

    out = g.add(
        "conv3d",
        [h],
        params={
            "weight": he(NUM_LANDMARKS, chans[0], 1) * g.dtype.type(HEAD_INIT_SCALE),
            "bias": np.zeros(NUM_LANDMARKS, dtype=g.dtype),
        },
        attrs={"tag": "head", "block_output": True},
    )
    t = g.add_input("target")
    loss = g.add("l2_loss", [out, t], attrs={"tag": "loss"})
    g.set_loss(loss)
    return g


def output_node(graph: Graph) -> int:
    """The heatmap head: the prediction-side input of the loss node."""
    return graph.nodes[graph.loss_id].inputs[0]


# ---------------------------------------------------------------------------
# preprocessing and the coordinate frame
# ---------------------------------------------------------------------------

@dataclass
class NetFrame:
    """Affine map between original-volume mm and network voxel indices.

    mm = origin + (net_voxel - pad_lo) * net_spacing, per axis (x, y, z).
    """

    net_shape: tuple[int, int, int]         # padded (nz, ny, nx)
    net_spacing: tuple[float, float, float]
    origin_mm: tuple[float, float, float]
    pad_lo: tuple[int, int, int]            # (x, y, z) voxels

    def mm_to_net_voxel(self, xyz_mm: np.ndarray) -> np.ndarray:
        o = np.asarray(self.origin_mm)
        s = np.asarray(self.net_spacing)
        p = np.asarray(self.pad_lo, dtype=np.float64)
        return (np.asarray(xyz_mm, dtype=np.float64) - o) / s + p

    def net_voxel_to_mm(self, vox: np.ndarray) -> np.ndarray:
        o = np.asarray(self.origin_mm)
        s = np.asarray(self.net_spacing)
        p = np.asarray(self.pad_lo, dtype=np.float64)
        return o + (np.asarray(vox, dtype=np.float64) - p) * s


def _resample(volume: np.ndarray, scale: float) -> np.ndarray:
    """Downscale a (z, y, x) volume; box-average for integer factors,
    trilinear otherwise. Uses the half-voxel-center convention throughout."""
    if scale == 1.0:
        return volume.astype(np.float32)
    inv = 1.0 / scale
    if abs(inv - round(inv)) < 1e-9 and all(n % round(inv) == 0 for n in volume.shape):
        f = int(round(inv))
        nz, ny, nx = (n // f for n in volume.shape)
        return (
            volume.reshape(nz, f, ny, f, nx, f)
            .mean(axis=(1, 3, 5))
            .astype(np.float32)
        )
    new_shape = tuple(max(1, int(round(n * scale))) for n in volume.shape)
    grids = []
    for axis, n_new in enumerate(new_shape):
        n_old = volume.shape[axis]
        ratio = n_old / n_new
        coords = (np.arange(n_new) + 0.5) * ratio - 0.5
        grids.append(np.clip(coords, 0.0, n_old - 1.0))
    out = volume.astype(np.float64)
    for axis, coords in enumerate(grids):
        lo = np.floor(coords).astype(int)
        hi = np.minimum(lo + 1, volume.shape[axis] - 1)
        frac = coords - lo
        a = np.take(out, lo, axis=axis)
        b = np.take(out, hi, axis=axis)
        shape = [1, 1, 1]
        shape[axis] = len(coords)
        out = a + (b - a) * frac.reshape(shape)
    return out.astype(np.float32)


def prepare_volume(
    volume: np.ndarray, spacing, cfg: DetectorConfig
) -> tuple[np.ndarray, NetFrame]:
    """Resample, normalize (zero mean, unit variance), pad to divisibility.

    Returns the (1, D, H, W) network input and the frame for coordinate
    round trips. Padding uses zeros, which equal the post-normalization mean.
    """
    spacing = np.broadcast_to(np.asarray(spacing, dtype=np.float64), (3,)).copy()  # (sx, sy, sz)
    scaled = _resample(volume, cfg.input_scale)
    ratios = [volume.shape[i] / scaled.shape[i] for i in range(3)]  # (z, y, x) order
    net_spacing = (spacing[0] * ratios[2], spacing[1] * ratios[1], spacing[2] * ratios[0])
    origin = tuple(
        (0.5 * r - 0.5) * s for r, s in zip((ratios[2], ratios[1], ratios[0]), spacing)
    )
    std = float(scaled.std())
    normalized = (scaled - scaled.mean()) / (std if std > 0 else 1.0)
    m = 2**cfg.depth
    pads = [(-n) % m for n in normalized.shape]  # (z, y, x)
    pad_lo = [p // 2 for p in pads]
    pad_hi = [p - lo for p, lo in zip(pads, pad_lo)]
    padded = np.pad(normalized, tuple(zip(pad_lo, pad_hi)))
    frame = NetFrame(
        net_shape=tuple(padded.shape),
        net_spacing=tuple(float(v) for v in net_spacing),
        origin_mm=tuple(float(v) for v in origin),
        pad_lo=(pad_lo[2], pad_lo[1], pad_lo[0]),  # reorder to (x, y, z)
    )
    return padded[None].astype(np.float32), frame


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def predict(graph: Graph, net_in: np.ndarray) -> np.ndarray:
    """The heatmap head for the network input ``net_in``, from a forward
    that no backward follows.

    The forward discards, with the head as its only checkpoint, so it frees
    each value after its last forward consumer, except what a discarding
    forward always retains (the input and the skip inputs of each concat).
    The head has the plain forward's bits. Every value is released from the
    graph before the head is returned, so no backward can follow, and the
    graph's checkpoint set is left as it was found.
    """
    out = output_node(graph)
    checkpoints = graph.checkpoint_set
    graph.checkpoint_set = {out}
    try:
        graph.forward({"volume": net_in}, discard=True, to_node=out)
        return graph.value(out)
    finally:
        graph.checkpoint_set = checkpoints
        graph.schedule = None
        for node in graph.nodes:
            node.value = None


def infer(graph: Graph, volume: np.ndarray, spacing, cfg: DetectorConfig) -> tuple[np.ndarray, NetFrame]:
    """Predicted 16-channel heatmap stack in the network frame."""
    net_in, frame = prepare_volume(volume, spacing, cfg)
    return predict(graph, net_in), frame


def decode_prediction(
    stack: np.ndarray,
    frame: NetFrame,
    window: int = heatmap.WINDOW,
    confidence_floor: float = heatmap.CONFIDENCE_FLOOR,
) -> heatmap.DecodedPose:
    """Decode network-frame heatmaps into original-frame mm coordinates."""
    dec = heatmap.decode_voxels(stack, window=window, confidence_floor=confidence_floor)
    dec.xyz_mm = frame.net_voxel_to_mm(dec.voxels)
    return dec


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    loss_curve: list[tuple[int, int, float]] = field(default_factory=list)  # (epoch, step, loss)
    epoch_means: list[float] = field(default_factory=list)


def train(
    graph: Graph,
    dataset: Iterable[tuple[np.ndarray, Pose, np.ndarray]],
    train_cfg: TrainConfig,
    detector_cfg: DetectorConfig,
    out_dir: str | Path | None = None,
    stamp: dict | None = None,
) -> TrainResult:
    """Optimize the detector on (volume, pose, spacing) cases.

    ``dataset`` is read once, in its order, before any step runs, so it may
    be a generator that loads each case as it is drawn. Of each case, training
    keeps only the network input (``prepare_volume``), the landmark positions
    in net voxels and the ``present`` flags; it drops the volume before it
    draws the next case. A landmark outside the network grid raises, naming
    the case's index, before any step. Each step encodes its target heatmaps
    (``heatmap.encode``, deterministic, so the bits are those of targets
    encoded up front), which the step's backward frees: a case's target is
    encoded again in every epoch, and one target is held at a time.

    A graph with a checkpoint set trains with a discarding forward and
    recompute on demand, which gives the plain gradients bit for bit.
    Each case is one Adam step (batch size 1). Per-epoch parameter
    checkpoints land in ``out_dir`` when given. The loss curve records every
    step; a non-finite value at any node aborts training with an error that
    names the epoch, the step and the node.
    """
    cases = []
    for volume, pose, spacing in dataset:
        net_in, frame = prepare_volume(volume, spacing, detector_cfg)
        del volume  # nothing here may hold it while the next case is drawn
        # ground-truth positions in the network frame, in net-voxel units
        vox = frame.mm_to_net_voxel(pose.xyz_mm)
        try:
            heatmap.check_in_grid(vox, frame.net_shape, pose.present)
        except heatmap.HeatmapError as e:
            raise GraphError(f"case {len(cases)}: {e}") from e
        cases.append((net_in, frame.net_shape, vox, pose.present))
    if not cases:
        raise GraphError("training dataset is empty")
    discard = bool(graph.checkpoint_set)
    adam = Adam(graph.parameters(), lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    result = TrainResult()
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(cases))
        epoch_losses = []
        for step, case_idx in enumerate(order):
            net_in, net_shape, vox, present = cases[case_idx]
            # the graph alone holds the target, and frees it in the backward
            target = heatmap.encode(vox, net_shape, 1.0, detector_cfg.sigma_vox, present)
            try:
                loss = graph.forward({"volume": net_in, "target": target}, discard=discard)
                del target
                grads = graph.backward_checkpointed()
            except GraphError as e:
                raise GraphError(f"epoch {epoch} step {step}: {e}") from e
            adam.step(grads)
            result.loss_curve.append((epoch, step, float(loss)))
            epoch_losses.append(loss)
        result.epoch_means.append(float(np.mean(epoch_losses)))
        if out_dir is not None:
            save_model(
                Path(out_dir) / f"epoch_{epoch:03d}",
                graph,
                extras={"detector_config.json": detector_cfg.to_dict()},
                stamp=stamp,
            )
    return result


def write_loss_curve(path: str | Path, result: TrainResult, stamp: dict | None = None) -> None:
    rows = [[epoch, step, f"{loss:.9e}"] for epoch, step, loss in result.loss_curve]
    write_csv(path, [["epoch", "step", "loss"]] + rows, stamp)
