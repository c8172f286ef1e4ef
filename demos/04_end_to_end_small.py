"""A complete small run: generate, train, infer, refine, evaluate.

Uses a reduced configuration (20 train cases, 5 epochs, 48^3 volumes) so it
finishes in a couple of minutes on a laptop; the CLI equivalents of each
stage are printed as it goes. Everything is written to a temporary
directory that is removed when the run ends. For the full desk-scale
pipeline, see the README and tests/test_acceptance.py.
"""

import json
import tempfile
from pathlib import Path

from volpose.cli import main

with tempfile.TemporaryDirectory(prefix="volpose_demo_") as tmp:
    root = Path(tmp)
    print(f"working under {root}\n")

    stages = [
        ["phantom-gen", "--out", str(root / "data"), "--n-train", "20", "--n-test", "5",
         "--size", "48", "--seed", "21"],
        ["build-library", "--data", str(root / "data"), "--out", str(root / "library.json")],
        ["train", "--data", str(root / "data"), "--out", str(root / "train"),
         "--epochs", "5", "--depth", "3", "--base-channels", "8", "--input-scale", "0.5",
         "--no-save-epochs"],
        ["infer", "--model", str(root / "train" / "model"), "--data", str(root / "data"),
         "--split", "test", "--out", str(root / "plain"), "--floor", "0.05"],
        ["refine", "--model", str(root / "train" / "model"), "--data", str(root / "data"),
         "--split", "test", "--library", str(root / "library.json"),
         "--out", str(root / "refined"), "--floor", "0.05"],
        ["eval", "--pred", str(root / "plain"), "--gt", str(root / "data" / "cases"),
         "--out", str(root / "eval_plain")],
        ["eval", "--pred", str(root / "refined"), "--gt", str(root / "data" / "cases"),
         "--out", str(root / "eval_refined")],
    ]

    for argv in stages:
        print(f"$ volpose {' '.join(argv)}")
        rc = main(argv)
        assert rc == 0, f"stage failed with exit code {rc}"
        print()

    for name in ("plain", "refined"):
        report = json.loads((root / f"eval_{name}" / "report.json").read_text())
        print(f"{name:8s}: mean error {report['mean_distance_mm']:.2f} mm, "
              f"AUC {report['mean_auc_percent']:.1f}%")
