"""Runs one workload for a fixed time and turns what it saw into metrics.

An untraced run (``trace=False``) reports the end-to-end metrics and never
patches volpose. A traced run alternates untraced and traced requests, so
the tracing overhead is measured in the same process, and reports the
per-layer metrics derived from the spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import re
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from volpose.graph import select_checkpoints
from volpose.memplan import plan_memory
from volpose.model import DetectorConfig, build_detector

from perfbench import tracing, workloads

SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10


class EnvironmentRecordError(RuntimeError):
    """The environment record is incomplete, so no result may be reported."""


def _blas_threads_in_force() -> int:
    with open("/proc/self/maps") as f:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    raise EnvironmentRecordError("cannot read the BLAS thread count in force (no OpenBLAS loaded)")


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    raise EnvironmentRecordError("no CPU model in /proc/cpuinfo")


def environment() -> dict:
    """Python, numpy, the BLAS build and the thread count actually in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads_in_force()
    if threads > nproc:
        raise EnvironmentRecordError(f"{threads} BLAS threads in force on {nproc} CPUs")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its rank.

    With fewer than 21 samples no such percentile lies above the median, so
    the median is reported at rank 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * MIN_TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)


def _null_span(name):
    return contextlib.nullcontext()


def checkpointed_plan_peak() -> int:
    """Planner peak of a checkpointed step of the reference detector at 32^3."""
    graph = build_detector(DetectorConfig())
    graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
    shapes = {"volume": (1, 32, 32, 32), "target": (16, 32, 32, 32)}
    return plan_memory(graph, shapes).checkpointed_step_peak


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    outdir: Path,
    sizes: workloads.Sizes = workloads.FULL,
) -> Result:
    env = environment()
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=outdir))
    tracer = tracing.Tracer() if trace else None
    try:
        wl = workloads.WORKLOADS[name](seed, sizes, workdir)
        setup_s = []
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            t0 = time.perf_counter()
            if tracer is not None and last:
                with tracer.active("setup"):
                    wl.setup()
            else:
                wl.setup()
            setup_s.append(time.perf_counter() - t0)

        outcomes: list[tuple[bool, workloads.Outcome]] = []
        deadline = time.perf_counter() + seconds
        while len(outcomes) < (2 if trace else 1) or time.perf_counter() < deadline:
            wl.pre()
            traced = tracer is not None and len(outcomes) % 2 == 1
            if traced:
                with tracer.active(len(outcomes)):
                    out = wl.request(tracer.span)
            else:
                out = wl.request(_null_span)
            outcomes.append((traced, out))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_mb = wl.peak_pass() / 1e6

        late = wl.verify()
        errors = [e for _, o in outcomes for e in o.errors] + late
        attempted = sum(o.attempted for _, o in outcomes)
        failed = min(attempted, sum(o.failed for _, o in outcomes) + len(late))
        plain = [o for traced, o in outcomes if not traced]
        samples = [x for o in plain for x in o.samples_ms]
        tail_ms, tail_rank = tail(samples)
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "env": env,
            "unit": wl.unit,
            "requests": len(outcomes),
            "step_samples": len(samples),
            "step_ms_tail_percentile": tail_rank,
            "setup_runs_s": setup_s,
            "failed_ratio": failed / attempted,
            "errors": errors[:20],
        }
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "cases_per_s": sum(o.cases for o in plain) / sum(o.busy_s for o in plain),
                "step_ms_p50": statistics.median(samples),
                "step_ms_tail": tail_ms,
                "step_peak_mb": peak_mb,
                "peak_rss_mb": rss_mb,
            }
        else:
            metrics = _per_layer(tracer, outcomes, wl, peak_mb, failed / attempted)
            detail["wrapper_calls"] = {
                f"{module}.{path}": n
                for (_, module, path, _), n in zip(tracing.TARGETS, tracer.fired)
            }
            tracer.write_jsonl(outdir / f"trace-{name}-seed{seed}.jsonl")
        return Result(not errors and failed == 0, attempted, failed, metrics, detail)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(tracer, outcomes, wl, peak_mb, failed_ratio) -> dict[str, float]:
    traced = [o for t, o in outcomes if t]
    plain = [o for t, o in outcomes if not t]
    units = sum(o.units for o in traced)
    m = tracing.layer_metrics(tracer.spans, units)
    untraced_ms = statistics.median(x for o in plain for x in o.samples_ms)
    traced_ms = statistics.median(x for o in traced for x in o.samples_ms)
    m["trace.untraced_step_ms_p50"] = untraced_ms
    m["trace.traced_step_ms_p50"] = traced_ms
    m["trace.overhead_ratio"] = traced_ms / untraced_ms - 1.0
    m["trace.accounted_ratio"] = m["trace.layers_self_ms"] / untraced_ms
    # retrieval time per unit as a share of an untraced unit (a refinement iteration on refine)
    m["registration.retrieve_support.share"] = m["registration.retrieve_support.ms"] / untraced_ms
    m["memplan.checkpointed_step_peak"] = checkpointed_plan_peak()
    m["graph.meter_coverage"] = m["graph.meter_peak_bytes"] / (peak_mb * 1e6)
    m["failed_ratio"] = failed_ratio
    # losses of a workload that neither trains nor refines read 0
    m["train.final_loss"] = m["refine.mean_final_proxy_loss"] = 0.0
    m.update(wl.layer_values())
    return m
