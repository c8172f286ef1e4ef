"""The volpose workloads: inputs made from the workload seed, one closed-loop
request at a time, and the checks that each request's outputs are correct.

Each workload has the same shape:

* ``setup()`` builds every input and warms the code path; the harness times
  it several times and keeps the last state;
* ``pre()`` does untimed, untraced work the next request needs (a reference
  for a correctness check, the baseline of a differential timing);
* ``request(span)`` runs one request and returns an :class:`Outcome`;
  ``span`` opens a benchmark-side span in traced runs and does nothing
  otherwise;
* ``peak_pass()`` runs one unit of work under ``tracemalloc`` after timing;
* ``verify()`` returns the failures of checks made after the loop.

volpose is driven only through the public functions of its modules, called
as module attributes so that a traced run sees each call.
"""

from __future__ import annotations

import importlib
import json
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from volpose import cli, heatmap, model, phantom
from volpose.graph import GraphError, select_checkpoints
from volpose.model import DetectorConfig, TrainConfig
from volpose.optim import Adam
from volpose.phantom import PhantomSpec
from volpose.refine import RefineConfig
from volpose.registration import Pose, PoseLibrary

# the package attribute ``volpose.refine`` is the function, not the module
refine_module = importlib.import_module("volpose.refine")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-tests."""

    size: int = 64                      # phantom cube edge, voxels
    spacing_mm: float = 1.0
    train_pool: int = 8
    warmup_steps: int = 2
    refine_pool: int = 4
    library_size: int = 2000
    library_bases: int = 10
    pipeline_train: int = 8
    pipeline_test: int = 4
    pipeline_iterations: int = 2
    pipeline_k: int = 4


FULL = Sizes()
TINY = Sizes(
    size=32, spacing_mm=2.0, train_pool=2, warmup_steps=1, refine_pool=2,
    library_size=40, library_bases=2, pipeline_train=2, pipeline_test=2,
    pipeline_iterations=1, pipeline_k=2,
)


@dataclass
class Outcome:
    samples_ms: list[float]     # latency samples of the workload's step
    units: int                  # units of work, the divisor of per-layer values
    cases: int
    busy_s: float               # time that counts towards cases_per_s
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed % 2**63, stream])  # any int, negative too
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _spec(sizes: Sizes) -> PhantomSpec:
    return PhantomSpec(shape=(sizes.size,) * 3, spacing_mm=sizes.spacing_mm)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Workload:
    """Defaults for the hooks a workload does not need."""

    unit = ""

    def pre(self) -> None:
        pass

    def verify(self) -> list[str]:
        return []


class Train(Workload):
    """Plain (or checkpointed) training steps of the reference detector."""

    unit = "step"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, gcp: bool = False):
        self.seed, self.sizes, self.gcp = seed, sizes, gcp
        self.last_loss = float("nan")
        self._reference = None
        self._first_grads = None

    def setup(self) -> None:
        cfg = DetectorConfig()
        self._reference = self._first_grads = None
        self.pool = []
        for s in _seeds(self.seed, 0, self.sizes.train_pool):
            case = phantom.sample_case(_spec(self.sizes), s)
            net_in, frame = model.prepare_volume(case.volume, case.spacing_mm, cfg)
            target = heatmap.encode(
                frame.mm_to_net_voxel(case.pose.xyz_mm), frame.net_shape, 1.0, cfg.sigma_vox
            )
            self.pool.append((net_in, target))
        self.graph = model.build_detector(cfg, seed=_seeds(self.seed, 1, 1)[0])
        if self.gcp:
            self.graph.set_checkpoints(select_checkpoints(self.graph, "block_boundary"))
        tc = TrainConfig()
        self.adam = Adam(
            self.graph.parameters(), lr=tc.lr, beta1=tc.beta1, beta2=tc.beta2, eps=tc.eps
        )
        self._order_rng = np.random.default_rng([self.seed, 2])
        self._queue: list[int] = []
        for _ in range(self.sizes.warmup_steps):
            self._step()

    def _next_case(self):
        if not self._queue:
            self._queue = [int(i) for i in self._order_rng.permutation(len(self.pool))]
        return self.pool[self._queue[0]]

    def _step(self):
        net_in, target = self._next_case()
        self._queue.pop(0)
        loss = self.graph.forward(
            {"volume": net_in, "target": target}, discard=self.gcp, update_stats=True
        )
        grads = self.graph.backward_checkpointed() if self.gcp else self.graph.backward_plain()
        if not np.isfinite(loss):
            raise GraphError(f"non-finite training loss {loss}")
        self.adam.step(grads)
        self.last_loss = float(loss)
        return grads

    def pre(self) -> None:
        if self.gcp and self._reference is None:
            # plain gradients of the first timed step, on a copy of the model
            net_in, target = self._next_case()
            ref = self.graph.clone()
            ref.forward({"volume": net_in, "target": target}, update_stats=True)
            self._reference = ref.backward_plain()

    def request(self, span) -> Outcome:
        t0 = time.perf_counter()
        try:
            grads = self._step()
        except GraphError as e:
            dt = time.perf_counter() - t0
            return Outcome([dt * 1e3], 1, 1, dt, 1, 1, [f"train step: {e}"])
        dt = time.perf_counter() - t0
        if self.gcp and self._first_grads is None:
            self._first_grads = grads
        return Outcome([dt * 1e3], 1, 1, dt, 1, 0)

    def peak_pass(self) -> int:
        return _peak_bytes(self._step)

    def verify(self) -> list[str]:
        if not self.gcp:
            return []
        ref, got = self._reference, self._first_grads
        if ref is None or got is None:
            return ["checkpointed step: no first-step gradients to compare"]
        bad = sorted(
            k for k in ref.keys() | got.keys()
            if k not in ref or k not in got or ref[k].dtype != got[k].dtype
            or ref[k].tobytes() != got[k].tobytes()
        )
        if bad:
            return [f"checkpointed gradients differ bitwise from plain ones: {bad[:5]}"]
        return []

    def layer_values(self) -> dict[str, float]:
        return {"train.final_loss": self.last_loss}


class Refine(Workload):
    """Per-case test-time refinement against a large pose library.

    A request refines one case by a single iteration, with ``RefineConfig``
    defaults otherwise, so that a run holds some 25 short samples: the
    median of the five or six six-iteration cases a run would hold follows
    every slow spell of a shared host. The iteration is timed differentially:
    each case is refined once with zero iterations (clone, preprocessing,
    first forward and decode) just before the timed refinement.
    """

    unit = "iteration"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.cfg = RefineConfig(iterations=1)
        self.final_losses: list[float] = []

    def setup(self) -> None:
        spec = _spec(self.sizes)
        self.cases = [
            phantom.sample_case(spec, s) for s in _seeds(self.seed, 3, self.sizes.refine_pool)
        ]
        bases = [
            phantom.sample_case(spec, s).pose.xyz_mm
            for s in _seeds(self.seed, 4, self.sizes.library_bases)
        ]
        rng = np.random.default_rng([self.seed, 5])
        poses = []
        for i in range(self.sizes.library_size):
            xyz = bases[i % len(bases)]
            centre = xyz.mean(axis=0)
            moved = (xyz - centre) @ _random_rotation(rng).T + centre + rng.uniform(-5, 5, 3)
            poses.append(Pose(moved + rng.normal(scale=1 / np.sqrt(3), size=xyz.shape)))
        n = len(poses)
        self.library = PoseLibrary([f"lib{i:05d}" for i in range(n)], poses, ["bench"] * n)
        self.detector_cfg = DetectorConfig()
        self.graph = model.build_detector(self.detector_cfg, seed=_seeds(self.seed, 1, 1)[0])
        self._next = 0
        self._refine(self.cases[0], self.cfg)

    def _refine(self, case, cfg):
        return refine_module.refine(
            self.graph, case.volume, case.spacing_mm, self.library, self.detector_cfg, cfg
        )

    def pre(self) -> None:
        self._case = self.cases[self._next % len(self.cases)]
        self._next += 1
        t0 = time.perf_counter()
        self._refine(self._case, RefineConfig(iterations=0))
        self._base_s = time.perf_counter() - t0

    def request(self, span) -> Outcome:
        t0 = time.perf_counter()
        res = self._refine(self._case, self.cfg)
        dt = time.perf_counter() - t0
        iters = self.cfg.iterations
        errors = []
        if res.declined or res.aborted:
            errors.append(f"refinement declined={res.declined} aborted={res.aborted}: {res.note}")
        elif len(res.trace) != iters:
            errors.append(f"refinement ran {len(res.trace)} of {iters} iterations")
        elif not np.all(np.isfinite(res.pose.xyz_mm)):
            errors.append("refined pose has non-finite coordinates")
        else:
            self.final_losses.append(res.trace[-1].loss_post)
        step_ms = (dt - self._base_s) / iters * 1e3
        return Outcome([step_ms], iters, 1, dt, 1, int(bool(errors)), errors)

    def peak_pass(self) -> int:
        return _peak_bytes(lambda: self._refine(self.cases[0], self.cfg))

    def layer_values(self) -> dict[str, float]:
        losses = self.final_losses
        return {"refine.mean_final_proxy_loss": float(np.mean(losses)) if losses else 0.0}


class Pipeline(Workload):
    """The six CLI stages run in-process on a reduced dataset, on disk."""

    unit = "pipeline"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.data_seed = _seeds(seed, 6, 1)[0]
        self.values = {"train.final_loss": 0.0, "refine.mean_final_proxy_loss": 0.0}

    def _stages(self, d: Path, n_train: int, n_test: int) -> list[tuple[str, list[str]]]:
        s = self.sizes
        data = str(d / "data")
        model_dir = str(d / "run" / "model")
        return [
            ("phantom-gen", ["phantom-gen", "--out", data, "--n-train", str(n_train),
                             "--n-test", str(n_test), "--seed", str(self.data_seed),
                             "--size", str(s.size), "--spacing", str(s.spacing_mm)]),
            ("build-library", ["build-library", "--data", data, "--out", str(d / "library.json")]),
            ("train", ["train", "--data", data, "--out", str(d / "run"), "--epochs", "1",
                       "--no-save-epochs"]),
            ("infer", ["infer", "--model", model_dir, "--data", data, "--out", str(d / "pred")]),
            ("refine", ["refine", "--model", model_dir, "--data", data,
                        "--library", str(d / "library.json"), "--out", str(d / "refined"),
                        "--iterations", str(s.pipeline_iterations), "--k", str(s.pipeline_k)]),
            ("eval", ["eval", "--pred", str(d / "refined"), "--gt", str(Path(data) / "cases"),
                      "--out", str(d / "eval")]),
        ]

    def setup(self) -> None:
        d = Path(tempfile.mkdtemp(prefix="warmup-", dir=self.workdir))
        try:
            for _, argv in self._stages(d, 1, 1)[:3]:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"warm-up stage failed: {' '.join(argv[:1])}")
        finally:
            shutil.rmtree(d)

    def request(self, span) -> Outcome:
        s = self.sizes
        d = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir))
        stages = self._stages(d, s.pipeline_train, s.pipeline_test)
        errors = []
        passed = 0
        total = 0.0
        try:
            for stage, argv in stages:
                t0 = time.perf_counter()
                with span(f"cli.{stage}"):
                    try:
                        rc = cli.main(argv)
                    except Exception as e:  # a stage that crashes is a failed stage
                        rc = f"{type(e).__name__}: {e}"
                total += time.perf_counter() - t0
                if rc != 0:
                    errors.append(f"stage {stage} exited {rc}")
                    break
                passed += 1
            else:
                check = self._check(d)
                errors += check
                passed -= bool(check)
        finally:
            shutil.rmtree(d)
        return Outcome([total * 1e3], 1, s.pipeline_train + s.pipeline_test, total,
                       len(stages), len(stages) - passed, errors)

    def _check(self, d: Path) -> list[str]:
        report = json.loads((d / "eval" / "report.json").read_text())
        expected = [f"test_{i:04d}" for i in range(self.sizes.pipeline_test)]
        if report["case_ids"] != expected:
            return [f"eval covers {report['case_ids']}, expected {expected}"]
        last = (d / "run" / "loss_curve.csv").read_text().strip().splitlines()[-1]
        summary = json.loads((d / "refined" / "refine_summary.json").read_text())
        # an aborted case hit a non-finite value; a declined one is allowed,
        # since a model trained for one epoch may lack confident landmarks
        if summary["n_aborted"]:
            return [f"refine stage aborted {summary['n_aborted']} of {summary['n_cases']} cases"]
        self.values = {
            "train.final_loss": float(last.split(",")[-1]),
            "refine.mean_final_proxy_loss": summary["mean_final_proxy_loss"] or 0.0,
        }
        return []

    def peak_pass(self) -> int:
        d = Path(tempfile.mkdtemp(prefix="peak-", dir=self.workdir))
        try:
            stages = self._stages(d, self.sizes.pipeline_train, self.sizes.pipeline_test)
            cli.main(stages[0][1])
            return _peak_bytes(lambda: cli.main(stages[2][1]))
        finally:
            shutil.rmtree(d)

    def layer_values(self) -> dict[str, float]:
        return dict(self.values)


WORKLOADS = {
    "train": lambda seed, sizes, workdir: Train(seed, sizes, workdir),
    "train-gcp": lambda seed, sizes, workdir: Train(seed, sizes, workdir, gcp=True),
    "refine": Refine,
    "pipeline": Pipeline,
}
