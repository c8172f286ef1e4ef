"""Benchmark entry point.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a volpose checkout. Prints a JSON line with the run's
environment and details, then, as the last line, the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
Exits 2, printing no result, when the volpose sources or BENCHMARK.json are
missing or the environment record is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "train-gcp", "refine", "pipeline")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "volpose" / "__init__.py").is_file():
        _fail(f"no volpose sources under {src}; run from a volpose checkout")
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    # Pin BLAS threads before numpy is imported: oversubscribed OpenBLAS
    # threads slow a training step several-fold.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    os.environ["VOLPOSE_LOG"] = "warning"
    sys.path[:0] = [str(src), str(ROOT)]

    import volpose
    if Path(volpose.__file__).resolve().parent != (src / "volpose").resolve():
        _fail(f"imported volpose from {volpose.__file__}, not from {src}")
    from perfbench import harness

    wanted = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        res = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT / "perfbench" / "out"
        )
    except harness.EnvironmentRecordError as e:
        _fail(f"environment record incomplete: {e}")
    missing = [m["name"] for m in wanted if m["name"] not in res.metrics]
    if missing:
        _fail(f"metrics not produced: {missing}")
    for e in res.detail["errors"]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"detail": res.detail}))
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    m["name"]: {"value": float(res.metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )


if __name__ == "__main__":
    main()
