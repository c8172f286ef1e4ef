"""Command-line surface tying the toolkit into reproducible runs.

Subcommands: phantom-gen, build-library, train, infer, refine, eval. Every
command is a pure function of its resolved configuration and input files;
rerunning with the same inputs yields byte-identical artifacts, wherever the
inputs and outputs sit (the config hash identifies inputs by content and
records their paths only in ``run_config.json``). A command's out directory
appears whole or not at all: a failed run leaves none where none existed.
Exit codes: 0 on success, 1 on runtime failure, 2 on usage or configuration
errors.
Set VOLPOSE_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from volpose import fileio
from volpose.anatomy import LANDMARKS, REGISTRATION_SUBSET
from volpose.config import RunConfig, digest_files
from volpose.graph import GraphError, select_checkpoints
from volpose.heatmap import CONFIDENCE_FLOOR, WINDOW, DecodedPose, HeatmapError, check_decode
from volpose.metrics import GRID_MAX_MM, GRID_STEP_MM, build_report, threshold_grid, write_report
from volpose.model import (
    DetectorConfig,
    TrainConfig,
    build_detector,
    decode_prediction,
    infer,
    train,
    write_loss_curve,
)
from volpose.phantom import (
    AUGMENT_POLICIES,
    PhantomCase,
    PhantomError,
    PhantomSpec,
    augment,
    make_dataset,
)
from volpose.refine import RefineConfig, refine_batch
from volpose.registration import Pose, PoseLibrary
from volpose.serialize import load_model, save_model

log = logging.getLogger("volpose")


class UsageError(RuntimeError):
    """Configuration or input-path problems: exit code 2."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_manifest_cases(data_dir: Path, split: str) -> list[dict]:
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"dataset manifest not found: {manifest_path}")
    with fileio.reading(manifest_path, fileio.MANIFEST_FORMAT_VERSION) as manifest:
        cases = [{"id": c["id"], "volume": data_dir / c["volume"], "pose": data_dir / c["pose"]}
                 for c in manifest["cases"] if c["split"] == split]
    if not cases:
        raise UsageError(f"manifest has no '{split}' cases")
    return cases


def _dataset_id(data_dir: Path) -> str:
    """A dataset's content id: its manifest carries the generator's stamp."""
    return digest_files([data_dir / "manifest.json"])


def _model_id(model_dir: Path) -> str:
    return digest_files(model_dir / name for name in ("graph.json", "manifest.json", "params.bin"))


def _pose_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("*_pose.json"))


def _configured(make, **fields):
    """Build a config object, or run a check, on argument values; a value
    the validation rejects is a usage error."""
    try:
        return make(**fields)
    except (GraphError, HeatmapError, PhantomError) as e:
        raise UsageError(str(e)) from e


def _load_detector(model_dir: Path):
    if not (model_dir / "graph.json").exists():
        raise UsageError(f"model directory not found or incomplete: {model_dir}")
    graph = load_model(model_dir)
    with fileio.reading(model_dir / "detector_config.json") as doc:
        return graph, DetectorConfig(**doc)


# ---------------------------------------------------------------------------
# phantom-gen
# ---------------------------------------------------------------------------

def cmd_phantom_gen(args) -> int:
    if args.n_train < 1 or args.n_test < 1:
        raise UsageError(
            f"--n-train and --n-test must be >= 1, got {args.n_train} and {args.n_test}"
        )
    spec = _configured(
        PhantomSpec,
        shape=(args.size, args.size, args.size),
        spacing_mm=args.spacing,
        left_intensity_offset=args.left_offset,
        noise_multiplicative=args.noise_mult,
        noise_additive=args.noise_add,
        shadow_probability=args.shadow_prob,
    )
    cfg = RunConfig(
        "phantom-gen",
        {
            "spec": spec.to_dict(),
            "n_train": args.n_train,
            "n_test": args.n_test,
            "seed": args.seed,
        },
    )
    with fileio.writing(args.out) as out:
        manifest = make_dataset(
            spec, args.n_train, args.n_test, out, seed=args.seed, stamp=cfg.stamp()
        )
        cfg.save(out / "run_config.json")
    log.info("wrote %d cases under %s", len(manifest["cases"]), args.out)
    return 0


# ---------------------------------------------------------------------------
# build-library
# ---------------------------------------------------------------------------

def cmd_build_library(args) -> int:
    data_dir = Path(args.data)
    cases = _load_manifest_cases(data_dir, args.split)
    cfg = RunConfig(
        "build-library",
        {"split": args.split},
        inputs={"data": _dataset_id(data_dir)},
        paths={"data": str(data_dir)},
    )
    ids, poses, sources = [], [], []
    for case in cases:
        pose, _ = fileio.load_pose(case["pose"])
        ids.append(case["id"])
        poses.append(pose)
        sources.append(args.split)
    fileio.save_library(args.out, PoseLibrary(ids, poses, sources), stamp=cfg.stamp())
    log.info("library of %d poses -> %s", len(ids), args.out)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _training_case(case: dict, chain: tuple[str, ...], augment_name: str) -> tuple:
    """One training case as (volume, pose, spacing): loaded from disk, then
    passed through the augmentation ops of ``chain`` in turn."""
    volume, spacing = fileio.load_volume(case["volume"])
    if AUGMENT_POLICIES[augment_name] and np.any(spacing != spacing[0]):
        # augment mirrors coordinates with one spacing for all three axes
        raise UsageError(
            f"--augment {augment_name} needs isotropic voxels, but case {case['id']} "
            f"has spacing {spacing.tolist()} mm"
        )
    pose, _ = fileio.load_pose(case["pose"])
    if not chain:
        return volume, pose, spacing
    augmented = PhantomCase(volume, pose, float(spacing[0]))
    del volume
    for op in chain:
        augmented = augment(augmented, op)
    return augmented.volume, augmented.pose, spacing


def _training_cases(cases: list[dict], augment_name: str):
    """The training set, one case at a time: every case as it is on disk,
    then every case through each augmentation chain of the policy in turn.
    A case is loaded again for each chain, so no volume outlives its turn
    (this frame binds none)."""
    for chain in ((), *AUGMENT_POLICIES[augment_name]):
        for case in cases:
            yield _training_case(case, chain, augment_name)


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    cases = _load_manifest_cases(data_dir, "train")
    det_cfg = _configured(
        DetectorConfig,
        depth=args.depth,
        base_channels=args.base_channels,
        convs_per_block=args.convs_per_block,
        input_scale=args.input_scale,
        sigma_vox=args.sigma,
    )
    train_cfg = _configured(TrainConfig, lr=args.lr, epochs=args.epochs, seed=args.seed)
    run_cfg = RunConfig(
        "train",
        {
            "detector": det_cfg.to_dict(),
            "train": train_cfg.to_dict(),
            "gcp": args.gcp,
            # k is a setting of the every_k policy only; no other run reads it
            **({"every_k": args.every_k} if args.gcp == "every_k" else {}),
            "augment": args.augment,
            "model_seed": args.model_seed,
        },
        inputs={"data": _dataset_id(data_dir)},
        paths={"data": str(data_dir)},
    )
    graph = build_detector(det_cfg, seed=args.model_seed)
    if args.gcp != "off":
        # the policy checks --every-k itself; ask it before anything is written
        graph.set_checkpoints(
            _configured(select_checkpoints, graph=graph, policy=args.gcp, k=args.every_k)
        )
    with fileio.writing(args.out) as out:
        result = train(
            graph,
            _training_cases(cases, args.augment),
            train_cfg,
            det_cfg,
            out_dir=out / "epochs" if args.save_epochs else None,
            stamp=run_cfg.stamp(),
        )
        save_model(
            out / "model",
            graph,
            extras={
                "detector_config.json": det_cfg.to_dict(),
                "train_config.json": {**train_cfg.to_dict(), **run_cfg.stamp()},
            },
            stamp=run_cfg.stamp(),
        )
        write_loss_curve(out / "loss_curve.csv", result, stamp=run_cfg.stamp())
        run_cfg.save(out / "run_config.json")
    log.info(
        "trained %d epochs on %d cases; final epoch mean loss %.3e",
        train_cfg.epochs, len(result.loss_curve) // train_cfg.epochs, result.epoch_means[-1],
    )
    return 0


# ---------------------------------------------------------------------------
# infer and refine: one prediction path
# ---------------------------------------------------------------------------

def _prediction_inputs(args) -> tuple:
    """What infer and refine read: the detector and its config, the
    (case id, volume stem) pairs, and the content ids and paths of the model
    and of the volumes, which come from a dataset split or are given
    explicitly."""
    model_dir = Path(args.model)
    graph, det_cfg = _load_detector(model_dir)
    inputs, paths = {"model": _model_id(model_dir)}, {"model": str(model_dir)}
    if args.volumes:
        stems = [Path(v).with_suffix("") for v in args.volumes]
        volumes = [(stem.name, stem) for stem in stems]
        first = {}
        for given, (case_id, _) in zip(args.volumes, volumes):
            if case_id in first:
                raise UsageError(
                    f"--volumes {first[case_id]} and {given} both write {case_id}_pose.json"
                )
            first[case_id] = given
        inputs["volumes"] = digest_files(
            stem.with_suffix(ext) for stem in stems for ext in (".json", ".raw")
        )
        paths["volumes"] = [str(v) for v in args.volumes]
    elif args.data:
        data_dir = Path(args.data)
        cases = _load_manifest_cases(data_dir, args.split)
        volumes = [(c["id"], c["volume"]) for c in cases]
        inputs |= {"data": _dataset_id(data_dir), "split": args.split}
        paths["data"] = str(data_dir)
    else:
        raise UsageError("provide either --data with --split, or --volumes")
    return graph, det_cfg, volumes, inputs, paths


def _save_prediction(path: Path, dec: DecodedPose, spacing, stamp: dict, **fields) -> None:
    """A predicted pose file: the decode as it is, the volume's spacing and
    the peak confidences, plus ``fields``."""
    fileio.save_pose(path, dec, spacing=spacing, stamp=stamp, confidence=dec.confidence, **fields)


def cmd_infer(args) -> int:
    _configured(check_decode, window=args.window, confidence_floor=args.floor)
    graph, det_cfg, volumes, inputs, paths = _prediction_inputs(args)
    run_cfg = RunConfig(
        "infer",
        {
            "window": args.window,
            "confidence_floor": args.floor,
            "detector": det_cfg.to_dict(),
        },
        inputs=inputs,
        paths=paths,
    )
    with fileio.writing(args.out) as out:
        for case_id, vol_path in volumes:
            volume, spacing = fileio.load_volume(vol_path)
            stack, frame = infer(graph, volume, spacing, det_cfg)
            dec = decode_prediction(stack, frame, window=args.window, confidence_floor=args.floor)
            _save_prediction(out / f"{case_id}_pose.json", dec, spacing, run_cfg.stamp())
            if args.dump_heatmaps:
                for j in range(stack.shape[0]):
                    fileio.save_volume(
                        out / f"{case_id}_ch{j:02d}",
                        stack[j],
                        frame.net_spacing,
                        stamp=run_cfg.stamp(),
                    )
            log.info("inferred %s", case_id)
        run_cfg.save(out / "run_config.json")
    return 0


def _refine_cases(volumes: list[tuple[str, Path]], spacings: dict):
    """(case id, volume, spacing) for each of ``volumes``, each volume loaded
    only when its case is drawn; ``spacings`` records each case's spacing."""
    for case_id, vol_path in volumes:
        volume, spacings[case_id] = fileio.load_volume(vol_path)
        yield case_id, volume, spacings[case_id]
        del volume  # before the next case loads


def cmd_refine(args) -> int:
    if not Path(args.library).exists():
        raise UsageError(f"pose library not found: {args.library}")
    library = fileio.load_library(args.library)
    if args.k > len(library):
        raise UsageError(f"--k {args.k} exceeds library size {len(library)}")
    refine_cfg = _configured(
        RefineConfig,
        iterations=args.iterations,
        lr=args.lr,
        k_support=args.k,
        window=args.window,
        confidence_floor=args.floor,
    )
    graph, det_cfg, volumes, inputs, paths = _prediction_inputs(args)
    run_cfg = RunConfig(
        "refine",
        {
            "refine": refine_cfg.to_dict(),
            "snapshot_each_iter": args.snapshot_each_iter,
            "detector": det_cfg.to_dict(),
        },
        inputs={**inputs, "library": digest_files([args.library])},
        paths={**paths, "library": str(args.library)},
    )
    spacings = {}
    results, summary = refine_batch(
        graph, _refine_cases(volumes, spacings), library, det_cfg, refine_cfg
    )
    # the layout of a refine directory: per case the final pose and, with
    # --snapshot-each-iter, the trace and the pose after each iteration
    stamp = run_cfg.stamp()
    with fileio.writing(args.out) as out:
        for case_id, spacing in spacings.items():
            res = results[case_id]
            _save_prediction(
                out / f"{case_id}_pose.json", res.pose, spacing, stamp,
                declined=res.declined, aborted=res.aborted, note=res.note,
            )
            if args.snapshot_each_iter:
                fileio.write_json(out / f"{case_id}_trace.json", res.trace_dict(), stamp)
                for rec in res.trace:
                    _save_prediction(
                        out / f"{case_id}_iter{rec.iteration:02d}_pose.json",
                        rec.pose, spacing, stamp,
                    )
        fileio.write_json(out / "refine_summary.json", asdict(summary), stamp)
        run_cfg.save(out / "run_config.json")
    log.info("refined %d cases (%d declined)", summary.n_cases, summary.n_declined)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _collect_poses(directory: Path) -> dict[str, tuple[Pose, dict]]:
    out = {}
    for path in _pose_files(directory):
        case_id = path.name[: -len("_pose.json")]
        out[case_id] = fileio.load_pose(path)
    return out


def cmd_eval(args) -> int:
    if not 0 < args.grid_step <= args.grid_max < np.inf:
        raise UsageError(
            f"--grid-step and --grid-max must be positive and finite, the step at most "
            f"the max, got {args.grid_step} and {args.grid_max}"
        )
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    if not pred_dir.is_dir():
        raise UsageError(f"prediction directory not found: {pred_dir}")
    if not gt_dir.is_dir():
        raise UsageError(f"ground-truth directory not found: {gt_dir}")
    preds = _collect_poses(pred_dir)
    gts = _collect_poses(gt_dir)
    common = sorted(set(preds) & set(gts))
    if not common:
        raise UsageError("no case ids shared between prediction and ground-truth dirs")
    thresholds = threshold_grid(args.grid_max, args.grid_step)
    run_cfg = RunConfig(
        "eval",
        {"grid_max": args.grid_max, "grid_step": args.grid_step},
        inputs={
            "pred": digest_files(_pose_files(pred_dir)),
            "gt": digest_files(_pose_files(gt_dir)),
        },
        paths={"pred": str(pred_dir), "gt": str(gt_dir)},
    )
    # spacing agreement guard, where both sides carry metadata
    for cid in common:
        ps = preds[cid][1].get("spacing_mm")
        gs = gts[cid][1].get("spacing_mm")
        if ps is not None and gs is not None and not np.allclose(ps, gs):
            raise UsageError(f"case {cid}: spacing metadata disagrees ({ps} vs {gs})")
    report = build_report(
        {cid: preds[cid][0] for cid in common},
        {cid: gt[0] for cid, gt in gts.items()},
        thresholds,
    )
    with fileio.writing(args.out) as out:
        write_report(report, out, stamp=run_cfg.stamp())
        run_cfg.save(out / "run_config.json")
    log.info(
        "evaluated %d of %d ground-truth cases: mean %.3f mm, AUC %.2f%%, coverage %.3f",
        report.case_count, report.gt_case_count, report.mean_mm, report.mean_auc,
        report.coverage,
    )
    return 0


# ---------------------------------------------------------------------------
# landmark table
# ---------------------------------------------------------------------------

def cmd_landmarks(args) -> int:
    rows = [
        {
            "index": ld.index,
            "name": ld.name,
            "side": ld.side,
            "swap_with": ld.swap_with,
            "registration_subset": ld.index in REGISTRATION_SUBSET,
        }
        for ld in LANDMARKS
    ]
    print(json.dumps(rows, indent=1))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="volpose", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("phantom-gen", help="generate a synthetic phantom dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n-train", type=int, default=50)
    g.add_argument("--n-test", type=int, default=10)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--size", type=int, default=PhantomSpec.shape[0])
    g.add_argument("--spacing", type=float, default=PhantomSpec.spacing_mm)
    g.add_argument("--left-offset", type=float, default=PhantomSpec.left_intensity_offset,
                   help="left-limb intensity offset; 0 is the hardest symmetry")
    g.add_argument("--noise-mult", type=float, default=PhantomSpec.noise_multiplicative)
    g.add_argument("--noise-add", type=float, default=PhantomSpec.noise_additive)
    g.add_argument("--shadow-prob", type=float, default=PhantomSpec.shadow_probability)
    g.set_defaults(func=cmd_phantom_gen)

    b = sub.add_parser("build-library", help="collect poses into a library file")
    b.add_argument("--data", required=True)
    b.add_argument("--split", default="train")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_library)

    t = sub.add_parser("train", help="train the landmark detector")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    t.add_argument("--lr", type=float, default=TrainConfig.lr)
    t.add_argument("--seed", type=int, default=TrainConfig.seed)
    t.add_argument("--model-seed", type=int, default=0)
    t.add_argument("--depth", type=int, default=DetectorConfig.depth)
    t.add_argument("--base-channels", type=int, default=DetectorConfig.base_channels)
    t.add_argument("--convs-per-block", type=int, default=DetectorConfig.convs_per_block)
    t.add_argument("--input-scale", type=float, default=DetectorConfig.input_scale)
    t.add_argument("--sigma", type=float, default=DetectorConfig.sigma_vox)
    t.add_argument("--gcp", choices=("off", "block_boundary", "every_k"), default="off")
    t.add_argument("--every-k", type=int, default=8)
    t.add_argument("--augment", choices=tuple(AUGMENT_POLICIES),
                   default="none", help="expand the training set with label-consistent"
                   " flips and quarter rotations")
    t.add_argument("--no-save-epochs", dest="save_epochs", action="store_false")
    t.set_defaults(func=cmd_train)

    # the flags infer and refine share: what they read, where they write,
    # and how a heatmap stack is decoded
    predict = argparse.ArgumentParser(add_help=False)
    predict.add_argument("--model", required=True)
    predict.add_argument("--data")
    predict.add_argument("--split", default="test")
    predict.add_argument("--volumes", nargs="*")
    predict.add_argument("--out", required=True)
    predict.add_argument("--window", type=int, default=WINDOW)
    predict.add_argument("--floor", type=float, default=CONFIDENCE_FLOOR)

    i = sub.add_parser("infer", parents=[predict], help="predict poses for volumes")
    i.add_argument("--dump-heatmaps", action="store_true")
    i.set_defaults(func=cmd_infer)

    r = sub.add_parser(
        "refine", parents=[predict], help="test-time refinement against a pose library"
    )
    r.add_argument("--library", required=True)
    r.add_argument("--iterations", type=int, default=RefineConfig.iterations)
    r.add_argument("--lr", type=float, default=RefineConfig.lr)
    r.add_argument("--k", type=int, default=RefineConfig.k_support)
    r.add_argument("--snapshot-each-iter", action="store_true")
    r.set_defaults(func=cmd_refine)

    e = sub.add_parser("eval", help="compare predicted poses against ground truth")
    e.add_argument("--pred", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--grid-max", type=float, default=GRID_MAX_MM)
    e.add_argument("--grid-step", type=float, default=GRID_STEP_MM)
    e.set_defaults(func=cmd_eval)

    lm = sub.add_parser("landmarks", help="print the canonical landmark table")
    lm.set_defaults(func=cmd_landmarks)
    return p


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("VOLPOSE_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (GraphError, PhantomError, ValueError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
