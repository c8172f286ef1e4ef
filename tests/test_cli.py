"""CLI contracts on tiny configurations: exit codes, artifacts, determinism."""

import hashlib
import importlib
import json
import pkgutil
import shutil
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import volpose
from volpose import config, fileio, heatmap, metrics
from volpose.cli import build_parser, main
from volpose.fileio import load_pose, load_volume
from volpose.model import DetectorConfig, TrainConfig
from volpose.phantom import PhantomSpec
from volpose.refine import RefineConfig
from volpose.serialize import load_model


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_ARGS = [
    "phantom-gen", "--n-train", "3", "--n-test", "2", "--size", "48",
    "--seed", "11", "--noise-mult", "0.05", "--shadow-prob", "0.0",
]

TRAIN_ARGS = [
    "train", "--epochs", "1", "--depth", "1", "--base-channels", "2",
    "--input-scale", "1.0", "--sigma", "2.0", "--seed", "3", "--no-save-epochs",
]


def test_package_attributes_are_its_modules():
    # the package re-exports nothing, so no function shadows a module:
    # `import volpose.refine as r` binds the module
    names = [m.name for m in pkgutil.iter_modules(volpose.__path__) if m.name != "__main__"]
    assert "refine" in names
    for name in names:
        module = importlib.import_module(f"volpose.{name}")
        assert getattr(volpose, name) is module and isinstance(module, types.ModuleType)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(GEN_ARGS + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("model")
    assert main(TRAIN_ARGS + ["--data", str(dataset), "--out", str(out)]) == 0
    return out / "model"


@pytest.fixture(scope="module")
def library(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("library") / "library.json"
    assert main(["build-library", "--data", str(dataset), "--out", str(out)]) == 0
    return out


def predicted_record(doc: dict) -> dict:
    """What every predicted pose file carries."""
    return {key: doc[key] for key in ("landmarks", "spacing_mm", "confidence")}


REQUIRED_ARGS = {
    "phantom-gen": ["--out", "o"],
    "train": ["--data", "d", "--out", "o"],
    "infer": ["--model", "m", "--out", "o"],
    "refine": ["--model", "m", "--library", "l", "--out", "o"],
    "eval": ["--pred", "p", "--gt", "g", "--out", "o"],
}


def declared_defaults(command: str) -> dict:
    """Each option's default as the config class or library constant it
    maps onto declares it, by argparse destination."""
    spec, det, tc, rc = PhantomSpec(), DetectorConfig(), TrainConfig(), RefineConfig()
    return {
        "phantom-gen": {
            "size": spec.shape[0], "spacing": spec.spacing_mm,
            "left_offset": spec.left_intensity_offset,
            "noise_mult": spec.noise_multiplicative, "noise_add": spec.noise_additive,
            "shadow_prob": spec.shadow_probability,
        },
        "train": {
            "epochs": tc.epochs, "lr": tc.lr, "seed": tc.seed,
            "depth": det.depth, "base_channels": det.base_channels,
            "convs_per_block": det.convs_per_block, "input_scale": det.input_scale,
            "sigma": det.sigma_vox,
        },
        "infer": {"window": heatmap.WINDOW, "floor": heatmap.CONFIDENCE_FLOOR},
        "refine": {
            "iterations": rc.iterations, "lr": rc.lr, "k": rc.k_support,
            "window": rc.window, "floor": rc.confidence_floor,
        },
        "eval": {"grid_max": metrics.GRID_MAX_MM, "grid_step": metrics.GRID_STEP_MM},
    }[command]


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_cli_defaults_are_the_declared_ones(command):
    args = build_parser().parse_args([command] + REQUIRED_ARGS[command])
    expected = declared_defaults(command)
    assert {dest: getattr(args, dest) for dest in expected} == expected


def test_phantom_gen_counts_and_manifest(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["n_train"] == 3 and manifest["n_test"] == 2
    assert len(manifest["cases"]) == 5
    assert "config_hash" in manifest


@pytest.mark.parametrize("counts", [("0", "2"), ("3", "0")])
def test_phantom_gen_empty_split_exits_2(tmp_path, counts):
    args = ["phantom-gen", "--n-train", counts[0], "--n-test", counts[1], "--size", "48"]
    assert main(args + ["--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("flag", [
    ["--spacing", "0"], ["--spacing", "-1"], ["--size", "0"], ["--shadow-prob", "2"],
    ["--noise-mult", "-1"], ["--noise-add", "-1"], ["--noise-mult", "nan"],
    ["--left-offset", "nan"],
])
def test_phantom_gen_invalid_spec_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "d"
    rc = main(["phantom-gen", "--n-train", "1", "--n-test", "1", "--out", str(out)] + flag)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()


def test_phantom_gen_unplaceable_skeleton_exits_1(tmp_path, capsys):
    # the figure does not fit a 32-voxel grid: a runtime failure, not a traceback
    rc = main(["phantom-gen", "--n-train", "1", "--n-test", "1", "--size", "32",
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "could not place the skeleton" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["38", "32"])
def test_failed_phantom_gen_leaves_no_out_directory(tmp_path, capsys, size):
    # at 38 voxels seeds 4 and 5 are written before seed 6 cannot be placed;
    # at 32 no seed can be. Neither leaves the out directory, nor the parent
    # it would have needed
    out = tmp_path / "new" / "d"
    rc = main(["phantom-gen", "--size", size, "--seed", "4", "--n-train", "2", "--n-test", "1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "could not place the skeleton" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_phantom_gen_deterministic(tmp_path, dataset):
    rerun = tmp_path / "again"
    assert main(GEN_ARGS + ["--out", str(rerun)]) == 0
    assert digest(rerun / "manifest.json") == digest(dataset / "manifest.json")
    for case in json.loads((dataset / "manifest.json").read_text())["cases"]:
        a = (dataset / case["volume"]).with_suffix(".raw")
        b = (rerun / case["volume"]).with_suffix(".raw")
        assert digest(a) == digest(b)


def test_train_writes_model_and_curve(dataset, model):
    assert (model / "graph.json").exists()
    assert (model / "params.bin").exists()
    assert (model / "manifest.json").exists()
    curve = (model.parent / "loss_curve.csv").read_text().splitlines()
    assert curve[0].startswith("# ")
    assert curve[1] == "epoch,step,loss"
    assert len(curve) == 2 + 3  # three train cases, one epoch


def test_train_saves_every_epoch_by_default(dataset, tmp_path):
    out = tmp_path / "m"
    args = [a for a in TRAIN_ARGS if a != "--no-save-epochs"]
    assert main(args + ["--data", str(dataset), "--out", str(out), "--epochs", "2"]) == 0
    epochs = out / "epochs"
    assert sorted(p.name for p in epochs.iterdir()) == ["epoch_000", "epoch_001"]
    for path in epochs.iterdir():
        load_model(path)
    assert digest(epochs / "epoch_001" / "params.bin") == digest(out / "model" / "params.bin")


@pytest.mark.parametrize("flag", [["--beta1", "0.9"], ["--batch-size", "2"], ["--save-epochs"]])
def test_train_retired_flags_exit_2(flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["train"] + REQUIRED_ARGS["train"] + flag)
    assert exc.value.code == 2


def test_every_k_is_recorded_only_under_its_policy(dataset, tmp_path):
    # --every-k without --gcp every_k trains the same bytes, so it must not
    # change the recorded settings or the config hash
    runs = {}
    for name, flags in (
        ("off", []),
        ("off_k3", ["--every-k", "3"]),
        ("every_k3", ["--gcp", "every_k", "--every-k", "3"]),
    ):
        out = tmp_path / name
        assert main(TRAIN_ARGS + ["--data", str(dataset), "--out", str(out)] + flags) == 0
        runs[name] = json.loads((out / "run_config.json").read_text())
    assert "every_k" not in runs["off"]["settings"]
    assert runs["off_k3"]["hash"] == runs["off"]["hash"]
    assert runs["every_k3"]["settings"]["every_k"] == 3


def test_train_missing_dataset_exits_2(tmp_path):
    rc = main(TRAIN_ARGS + ["--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "m")])
    assert rc == 2


@pytest.mark.parametrize("flag", [
    ["--lr", "0"], ["--depth", "0"], ["--epochs", "0"], ["--sigma", "0"],
    ["--gcp", "every_k", "--every-k", "0"],
    ["--lr", "nan"], ["--lr", "inf"], ["--sigma", "nan"], ["--sigma", "inf"],
    ["--base-channels", "0"], ["--base-channels", "-1"],
])
def test_train_invalid_config_exits_2(dataset, tmp_path, capsys, flag):
    rc = main(TRAIN_ARGS + ["--data", str(dataset), "--out", str(tmp_path / "m")] + flag)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "m").exists()


def test_train_augment_flips_doubles_the_steps(dataset, tmp_path):
    out = tmp_path / "m"
    assert main(TRAIN_ARGS + ["--data", str(dataset), "--out", str(out), "--augment", "flips"]) == 0
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert len(curve) == 2 + 2 * 3  # three train cases and their flipped copies, one epoch


@pytest.mark.parametrize("command", ["train", "refine"])
def test_stages_hold_one_loaded_volume_at_a_time(dataset, model, library, tmp_path,
                                                 monkeypatch, command):
    # train (with an augmentation chain) and refine load each volume as its
    # case comes up: when one loads, every volume loaded before is gone
    real = fileio.load_volume
    refs = []

    def load_volume(path):
        held = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not held, f"loads {len(held)} still held when load {len(refs)} starts"
        volume, spacing = real(path)
        refs.append(weakref.ref(volume))
        return volume, spacing

    monkeypatch.setattr(fileio, "load_volume", load_volume)
    if command == "train":
        argv = TRAIN_ARGS + ["--augment", "flips"]
    else:
        argv = ["refine", "--model", str(model), "--library", str(library), "--k", "3",
                "--iterations", "1", "--floor", "0.0"]
    assert main(argv + ["--data", str(dataset), "--out", str(tmp_path / "out")]) == 0
    # three train cases, loaded once as they are and once more to flip; two test cases
    assert len(refs) == (6 if command == "train" else 2)


def test_train_augment_rejects_anisotropic_case(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    sidecar = data / "cases" / "train_0001.json"
    doc = json.loads(sidecar.read_text())
    doc["spacing_mm"] = [1.0, 1.0, 2.0]
    sidecar.write_text(json.dumps(doc))
    out = tmp_path / "m"
    rc = main(TRAIN_ARGS + ["--data", str(data), "--out", str(out), "--augment", "flips"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train_0001" in err
    assert not out.exists()


def test_manifest_version_check(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    manifest = json.loads((dataset / "manifest.json").read_text())
    manifest["version"] = 99
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "m"
    assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {data / 'manifest.json'}: ") and "version 99" in err
    assert not out.exists()


def test_manifest_case_without_split_exits_1(dataset, tmp_path, capsys):
    # a case the reader cannot read fails the command, naming the manifest
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["cases"][1]["split"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["build-library", "--data", str(data), "--out", str(tmp_path / "l.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {data / 'manifest.json'}: ") and "split" in err
    assert not (tmp_path / "l.json").exists()


def test_infer_emits_pose_per_volume(dataset, model, tmp_path):
    out = tmp_path / "pred"
    assert main([
        "infer", "--model", str(model), "--data", str(dataset),
        "--split", "test", "--out", str(out), "--floor", "0.0",
    ]) == 0
    poses = sorted(out.glob("*_pose.json"))
    assert len(poses) == 2
    pose, doc = load_pose(poses[0])
    assert doc["spacing_mm"] == [1.0, 1.0, 1.0]  # propagated from input header
    assert "config_hash" in doc


def test_infer_even_window_exits_2(dataset, model, tmp_path, capsys):
    out = tmp_path / "pred"
    rc = main([
        "infer", "--model", str(model), "--data", str(dataset),
        "--split", "test", "--out", str(out), "--window", "4",
    ])
    assert rc == 2
    assert "window must be an odd integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("floor", ["nan", "inf"])
def test_infer_non_finite_floor_exits_2(dataset, model, tmp_path, capsys, floor):
    out = tmp_path / "pred"
    rc = main([
        "infer", "--model", str(model), "--data", str(dataset),
        "--split", "test", "--out", str(out), "--floor", floor,
    ])
    assert rc == 2
    assert "confidence floor must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("bn_eps", 1e-5), ("padding_mode", "zeros")])
def test_infer_unknown_detector_config_key_exits_1(dataset, model, tmp_path, capsys, key, value):
    # a model directory whose detector config holds a key that no setting
    # declares: one of a retired constant, or one never declared
    copy = tmp_path / "model"
    shutil.copytree(model, copy)
    path = copy / "detector_config.json"
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "pred"
    rc = main(["infer", "--model", str(copy), "--data", str(dataset), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ") and key in err
    assert not out.exists()


def _first_relu(doc):
    return next(n for n in doc["nodes"] if n["op"] == "relu")


@pytest.mark.parametrize("name, corrupt", [
    ("graph.json", lambda doc: _first_relu(doc).update(op="gelu")),
    ("detector_config.json", lambda doc: doc.update(depth=0)),
    ("graph.json", lambda doc: doc.update(loss=999)),
    ("graph.json", lambda doc: doc.update(loss="3")),
    ("graph.json", lambda doc: doc.update(loss=None)),
    ("graph.json", lambda doc: doc["inputs"].update(
        volume=next(n["id"] for n in doc["nodes"] if n["op"] == "conv3d"))),
    ("graph.json", lambda doc: doc.update(dtype="int32")),
    ("graph.json", lambda doc: doc.update(dtype="float16")),
], ids=["unknown-op", "depth-0", "loss-999", "loss-string", "loss-null", "input-is-a-conv",
        "dtype-int32", "dtype-float16"])
def test_infer_invalid_model_description_names_the_file(dataset, model, tmp_path, capsys,
                                                         name, corrupt):
    # a graph or a detector setting that the model files describe but the
    # graph rejects: exit 1, the message starting with the file's path
    copy = tmp_path / "model"
    shutil.copytree(model, copy)
    path = copy / name
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "pred"
    rc = main(["infer", "--model", str(copy), "--data", str(dataset), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: ") and "Traceback" not in err
    assert not out.exists()


def test_infer_dump_heatmaps(dataset, model, tmp_path):
    out = tmp_path / "pred_hm"
    assert main([
        "infer", "--model", str(model), "--data", str(dataset),
        "--split", "test", "--out", str(out), "--dump-heatmaps", "--floor", "0.0",
    ]) == 0
    channels = sorted(out.glob("test_0000_ch*.raw"))
    assert len(channels) == 16
    vol, spacing = load_volume(channels[0].with_suffix(""))
    assert vol.shape == (48, 48, 48)


def test_infer_on_a_raw_file_of_101_bytes_names_it(dataset, model, tmp_path, capsys):
    # 101 bytes hold no whole number of float32 voxels: exit 1, the message
    # starting with the .raw file's path, and no pose written
    for ext in (".raw", ".json"):
        shutil.copy(dataset / "cases" / f"test_0000{ext}", tmp_path / f"short{ext}")
    raw = tmp_path / "short.raw"
    raw.write_bytes(b"\x00" * 101)
    out = tmp_path / "pred"
    rc = main(["infer", "--model", str(model), "--volumes", str(raw), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {raw} holds 101 bytes, ") and "Traceback" not in err
    assert not list(out.glob("*.json"))


def test_failed_infer_leaves_no_out_directory(dataset, model, tmp_path, capsys):
    # the first volume infers, the second holds 101 bytes: exit 1 and no out
    # directory, so eval finds no partial prediction set
    vols = tmp_path / "vols"
    vols.mkdir()
    for stem in ("a", "b"):
        for ext in (".raw", ".json"):
            shutil.copy(dataset / "cases" / f"test_0000{ext}", vols / f"{stem}{ext}")
    (vols / "b.raw").write_bytes(b"\x00" * 101)
    out = tmp_path / "pred"
    rc = main(["infer", "--model", str(model), "--volumes", str(vols / "a.raw"),
               str(vols / "b.raw"), "--out", str(out)])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["vols"]


def test_infer_into_a_new_or_an_existing_directory_writes_the_same_bytes(dataset, model, tmp_path):
    # a new out directory is written in a staging directory and renamed; an
    # existing one is written in place; both hold the same files, and no
    # staging directory is left
    new, existing = tmp_path / "new" / "pred", tmp_path / "existing"
    existing.mkdir()
    for out in (new, existing):
        assert main(["infer", "--model", str(model), "--data", str(dataset), "--floor", "0.0",
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in existing.iterdir())
    assert names == sorted(p.name for p in new.iterdir()) and "run_config.json" in names
    for name in names:
        assert digest(new / name) == digest(existing / name), name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "new"]
    assert [p.name for p in (tmp_path / "new").iterdir()] == ["pred"]


def test_infer_explicit_volumes(dataset, model, tmp_path):
    # explicit volumes, given with and without ".raw", are read like the
    # dataset's and named after their stems; the hash follows their bytes
    vols = tmp_path / "vols"
    vols.mkdir()
    for case, stem in (("test_0000", "alpha"), ("test_0001", "beta")):
        for ext in (".raw", ".json"):
            shutil.copy(dataset / "cases" / f"{case}{ext}", vols / f"{stem}{ext}")
    argv = ["infer", "--model", str(model), "--floor", "0.0",
            "--volumes", str(vols / "alpha.raw"), str(vols / "beta")]
    assert main(argv + ["--out", str(tmp_path / "v1")]) == 0
    assert main(["infer", "--model", str(model), "--data", str(dataset), "--floor", "0.0",
                 "--out", str(tmp_path / "split")]) == 0
    assert sorted(p.name for p in (tmp_path / "v1").glob("*_pose.json")) == [
        "alpha_pose.json", "beta_pose.json",
    ]
    for stem, case in (("alpha", "test_0000"), ("beta", "test_0001")):
        _, doc = load_pose(tmp_path / "v1" / f"{stem}_pose.json")
        _, expected = load_pose(tmp_path / "split" / f"{case}_pose.json")
        assert predicted_record(doc) == predicted_record(expected)
    raw = np.fromfile(vols / "beta.raw", dtype="<f4")
    raw[0] += 1.0
    raw.tofile(vols / "beta.raw")
    assert main(argv + ["--out", str(tmp_path / "v2")]) == 0
    hashes = [json.loads((tmp_path / name / "run_config.json").read_text())["hash"]
              for name in ("v1", "v2")]
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("command", ["infer", "refine"])
def test_volumes_with_one_stem_exit_2(dataset, model, library, tmp_path, capsys, command):
    # a/test_0000 and b/test_0000 would both write test_0000_pose.json
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        for ext in (".raw", ".json"):
            shutil.copy(dataset / "cases" / f"test_0000{ext}", tmp_path / sub / f"test_0000{ext}")
    first, second = str(tmp_path / "a" / "test_0000"), str(tmp_path / "b" / "test_0000.raw")
    extra = ["--library", str(library), "--k", "3"] if command == "refine" else []
    out = tmp_path / "pred"
    rc = main([command, "--model", str(model), "--out", str(out),
               "--volumes", first, second] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert first in err and second in err and "test_0000_pose.json" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def refined0(tmp_path_factory, dataset, model, library):
    """refine with no iterations: the plain prediction, in refine's files."""
    out = tmp_path_factory.mktemp("refined0")
    assert main([
        "refine", "--model", str(model), "--data", str(dataset), "--split", "test",
        "--library", str(library), "--out", str(out),
        "--iterations", "0", "--floor", "0.0", "--k", "3",
    ]) == 0
    return out


def test_refine_zero_iterations_matches_infer(dataset, model, refined0, tmp_path):
    infer_out = tmp_path / "plain"
    assert main([
        "infer", "--model", str(model), "--data", str(dataset),
        "--split", "test", "--out", str(infer_out), "--floor", "0.0",
    ]) == 0
    pose_files = sorted(infer_out.glob("*_pose.json"))
    assert len(pose_files) == 2
    for pose_file in pose_files:
        _, plain = load_pose(pose_file)
        _, doc = load_pose(refined0 / pose_file.name)
        assert predicted_record(doc) == predicted_record(plain)
        assert doc["declined"] is False and doc["aborted"] is False


def test_eval_of_refined_poses_checks_spacing(dataset, refined0, tmp_path):
    # refined pose files carry the volume's spacing, so eval's agreement
    # guard sees them
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    for path in (dataset / "cases").glob("test_*_pose.json"):
        doc = json.loads(path.read_text())
        doc["spacing_mm"] = [2.0 * v for v in doc["spacing_mm"]]
        (gt_dir / path.name).write_text(json.dumps(doc))
    out = tmp_path / "eval"
    rc = main(["eval", "--pred", str(refined0), "--gt", str(gt_dir), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_snapshot_traces_written(dataset, model, library, tmp_path):
    # one iteration at a floor that the refined peaks partly fall below: the
    # snapshot holds the final decode, with the same validity flags
    out = tmp_path / "snapshots"
    assert main([
        "refine", "--model", str(model), "--data", str(dataset), "--split", "test",
        "--library", str(library), "--out", str(out),
        "--iterations", "1", "--floor", "0.01", "--k", "3", "--snapshot-each-iter",
    ]) == 0
    invalid = 0
    for case in ("test_0000", "test_0001"):
        trace = json.loads((out / f"{case}_trace.json").read_text())
        assert len(trace["iterations"]) == 1 and not trace["declined"]
        _, final = load_pose(out / f"{case}_pose.json")
        _, snapshot = load_pose(out / f"{case}_iter00_pose.json")
        assert predicted_record(snapshot) == predicted_record(final)
        assert final["spacing_mm"] == [1.0, 1.0, 1.0]
        invalid += sum(not lm["valid"] for lm in final["landmarks"])
    assert invalid > 0


def test_refine_flags_declined_cases(dataset, model, tmp_path):
    lib = tmp_path / "library.json"
    assert main(["build-library", "--data", str(dataset), "--out", str(lib)]) == 0
    out = tmp_path / "declined"
    # an untrained net cannot reach confidence 1e9: every case declines
    assert main([
        "refine", "--model", str(model), "--data", str(dataset), "--split", "test",
        "--library", str(lib), "--out", str(out),
        "--iterations", "2", "--floor", "1e9", "--k", "3",
    ]) == 0
    docs = [json.loads(p.read_text()) for p in out.glob("*_pose.json")]
    assert all(d["declined"] for d in docs)
    summary = json.loads((out / "refine_summary.json").read_text())
    assert summary["n_declined"] == 2


@pytest.mark.parametrize("flag", [
    ["--k", "0"], ["--k", "-1"], ["--iterations", "-1"], ["--window", "4"], ["--window", "0"],
    ["--lr", "nan"], ["--lr", "inf"], ["--floor", "nan"], ["--floor", "inf"],
])
def test_refine_invalid_config_exits_2(dataset, model, tmp_path, flag):
    lib = tmp_path / "library.json"
    assert main(["build-library", "--data", str(dataset), "--out", str(lib)]) == 0
    out = tmp_path / "refined"
    rc = main([
        "refine", "--model", str(model), "--data", str(dataset), "--split", "test",
        "--library", str(lib), "--out", str(out), "--floor", "0.0", "--k", "3",
    ] + flag)
    assert rc == 2
    assert not out.exists()


def test_eval_perfect_predictions(dataset, tmp_path):
    gt_dir = dataset / "cases"
    out = tmp_path / "eval"
    assert main([
        "eval", "--pred", str(gt_dir), "--gt", str(gt_dir), "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mean_distance_mm"] == 0.0
    assert report["mean_auc_percent"] == 100.0
    table = (out / "distance_table.csv").read_text().splitlines()
    assert table[1].split(",") == ["metric"] + [f"L{j}" for j in range(1, 17)] + ["mean"]


def test_eval_counts_every_ground_truth_case(dataset, tmp_path):
    # predictions for 2 of the 5 ground-truth cases: the other 3 are listed
    # and count against coverage; the 2 scored ones are perfect
    gt_dir = dataset / "cases"
    gt_paths = sorted(gt_dir.glob("*_pose.json"))
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for path in gt_paths[:2]:
        shutil.copy(path, pred_dir / path.name)
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ids = [path.name[: -len("_pose.json")] for path in gt_paths]
    assert report["case_ids"] == ids[:2] and report["case_count"] == 2
    assert report["gt_case_count"] == 5
    assert report["missing_case_ids"] == ids[2:]
    assert report["coverage"] == 2 / 5
    assert report["mean_distance_mm"] == 0.0
    assert report["mean_distance_rule"] == metrics.MEAN_RULE


def test_eval_scores_the_split_its_predictions_came_from(dataset, model, tmp_path):
    # test-split predictions scored against the dataset's cases: the train
    # cases are no ground truth of theirs, so none is missing
    pred, out = tmp_path / "pred", tmp_path / "eval"
    assert main(["infer", "--model", str(model), "--data", str(dataset), "--split", "test",
                 "--out", str(pred), "--floor", "0.0"]) == 0
    assert main(["eval", "--pred", str(pred), "--gt", str(dataset / "cases"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["case_ids"] == ["test_0000", "test_0001"]
    assert report["gt_case_count"] == 2 and report["missing_case_ids"] == []
    data_id = json.loads((pred / "run_config.json").read_text())["inputs"]["data"]
    assert report["ground_truth"] == {"rule": "split", "data": data_id, "split": "test"}
    inputs = json.loads((out / "run_config.json").read_text())["inputs"]
    assert inputs["data"] == data_id and inputs["split"] == "test"
    assert inputs["gt"] == config.digest_files(
        dataset / "cases" / f"{cid}_pose.json" for cid in report["case_ids"])


def test_eval_of_predictions_from_explicit_volumes_scores_the_directory(dataset, model,
                                                                          tmp_path):
    pred, out = tmp_path / "pred", tmp_path / "eval"
    assert main(["infer", "--model", str(model), "--floor", "0.0", "--out", str(pred),
                 "--volumes", str(dataset / "cases" / "test_0000.raw")]) == 0
    assert main(["eval", "--pred", str(pred), "--gt", str(dataset / "cases"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["case_ids"] == ["test_0000"] and report["gt_case_count"] == 5
    assert report["ground_truth"] == {"rule": "directory"}


def eval_predictions(pred: Path, gt: Path, out: Path) -> dict:
    """report.json's ``predictions`` of an eval of ``pred`` against ``gt``."""
    assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["predictions"]


def test_eval_report_names_the_model_behind_the_predictions(dataset, model, refined0, tmp_path):
    model_id = json.loads((refined0 / "run_config.json").read_text())["inputs"]["model"]
    assert model_id == config.digest_files(
        model / name for name in ("graph.json", "manifest.json", "params.bin"))
    assert eval_predictions(refined0, dataset / "cases", tmp_path / "e1")["model"] == model_id
    # poses with no run config behind them name no model
    cases = dataset / "cases"
    assert eval_predictions(cases, cases, tmp_path / "e2")["model"] is None


def test_eval_report_names_the_decode_window(dataset, model, refined0, tmp_path):
    pred = tmp_path / "pred"
    assert main(["infer", "--model", str(model), "--data", str(dataset), "--split", "test",
                 "--out", str(pred), "--window", "7"]) == 0
    assert eval_predictions(pred, dataset / "cases", tmp_path / "e1")["window"] == 7
    # refine decodes by its own settings
    refined = eval_predictions(refined0, dataset / "cases", tmp_path / "e2")
    assert refined["window"] == heatmap.WINDOW


def test_eval_report_names_the_confidence_floor(dataset, model, refined0, tmp_path):
    pred = tmp_path / "pred"
    assert main(["infer", "--model", str(model), "--data", str(dataset), "--split", "test",
                 "--out", str(pred), "--floor", "0.25"]) == 0
    assert eval_predictions(pred, dataset / "cases", tmp_path / "e1")["confidence_floor"] == 0.25
    refined = eval_predictions(refined0, dataset / "cases", tmp_path / "e2")
    assert refined["confidence_floor"] == 0.0


def test_eval_of_another_datasets_predictions_exits_2(dataset, model, tmp_path, capsys):
    other, pred, out = tmp_path / "other", tmp_path / "pred", tmp_path / "eval"
    assert main(GEN_ARGS + ["--seed", "12", "--out", str(other)]) == 0
    assert main(["infer", "--model", str(model), "--data", str(dataset), "--split", "test",
                 "--out", str(pred), "--floor", "0.0"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--pred", str(pred), "--gt", str(other / "cases"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    pred_id = json.loads((pred / "run_config.json").read_text())["inputs"]["data"]
    other_id = config.digest_files([other / "manifest.json"])
    assert pred_id != other_id and pred_id in err and other_id in err


def test_eval_reports_reproducible(dataset, tmp_path):
    gt_dir = dataset / "cases"
    outs = [tmp_path / "e1", tmp_path / "e2"]
    for out in outs:
        assert main(["eval", "--pred", str(gt_dir), "--gt", str(gt_dir), "--out", str(out)]) == 0
    for name in ("report.json", "distance_table.csv", "auc_table.csv", "pck_curve.csv"):
        assert digest(outs[0] / name) == digest(outs[1] / name)


def test_eval_missing_dirs_exit_2(tmp_path):
    assert main(["eval", "--pred", str(tmp_path / "x"), "--gt", str(tmp_path / "y"),
                 "--out", str(tmp_path / "z")]) == 2


@pytest.mark.parametrize("grid", [
    ["--grid-step", "0"], ["--grid-step", "-1"], ["--grid-max", "0"], ["--grid-max", "-5"],
    ["--grid-step", "nan"], ["--grid-step", "inf"], ["--grid-max", "nan"], ["--grid-max", "inf"],
    ["--grid-step", "2", "--grid-max", "1"],
])
def test_eval_invalid_grid_exits_2(dataset, tmp_path, capsys, grid):
    gt_dir = dataset / "cases"
    out = tmp_path / "eval"
    rc = main(["eval", "--pred", str(gt_dir), "--gt", str(gt_dir), "--out", str(out)] + grid)
    assert rc == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_eval_spacing_disagreement_exits_2(dataset, tmp_path):
    gt_dir = dataset / "cases"
    gt_path = sorted(gt_dir.glob("*_pose.json"))[0]
    doc = json.loads(gt_path.read_text())
    assert doc["spacing_mm"] is not None
    doc["spacing_mm"] = [2.0 * v for v in doc["spacing_mm"]]
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    (pred_dir / gt_path.name).write_text(json.dumps(doc))
    rc = main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_eval_malformed_landmark_record_exits_1(dataset, tmp_path, capsys):
    # a copy of a ground-truth pose whose first landmark claims index 17, or
    # is flagged valid with a NaN coordinate, or whose spacing is not numbers
    gt_dir = dataset / "cases"
    gt_path = sorted(gt_dir.glob("*_pose.json"))[0]

    def index_17(doc):
        doc["landmarks"][0]["index"] = 17

    def nan_coordinate(doc):
        doc["landmarks"][0]["xyz_mm"][0] = float("nan")
        doc["landmarks"][0]["valid"] = True

    def spacing_string(doc):
        doc["spacing_mm"] = "abc"

    for mutate in (index_17, nan_coordinate, spacing_string):
        doc = json.loads(gt_path.read_text())
        mutate(doc)
        pred_dir = tmp_path / mutate.__name__ / "pred"
        pred_dir.mkdir(parents=True)
        (pred_dir / gt_path.name).write_text(json.dumps(doc))
        out = pred_dir.parent / "out"
        rc = main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)])
        assert rc == 1, mutate.__name__
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and str(pred_dir / gt_path.name) in err
        assert not out.exists()


def test_gcp_produces_identical_final_params(dataset, tmp_path):
    # and the same network: graph.json differs only in the run stamp's hash
    outs, graphs = {}, {}
    for policy in ("off", "block_boundary"):
        out = tmp_path / f"train_{policy}"
        assert main(
            TRAIN_ARGS + ["--data", str(dataset), "--out", str(out), "--gcp", policy]
        ) == 0
        outs[policy] = digest(out / "model" / "params.bin")
        graphs[policy] = json.loads((out / "model" / "graph.json").read_text())
        del graphs[policy]["config_hash"]
    assert outs["off"] == outs["block_boundary"]
    assert graphs["off"] == graphs["block_boundary"]


def run_tiny_pipeline(root: Path) -> None:
    data = root / "data"
    model = root / "train" / "model"
    assert main(GEN_ARGS + ["--out", str(data)]) == 0
    assert main(TRAIN_ARGS + ["--data", str(data), "--out", str(root / "train")]) == 0
    assert main(["build-library", "--data", str(data), "--out", str(root / "library.json")]) == 0
    assert main([
        "infer", "--model", str(model), "--data", str(data), "--split", "test",
        "--out", str(root / "plain"), "--floor", "0.0",
    ]) == 0
    assert main([
        "refine", "--model", str(model), "--data", str(data), "--split", "test",
        "--library", str(root / "library.json"), "--out", str(root / "refined"),
        "--iterations", "2", "--floor", "0.0", "--k", "3",
    ]) == 0
    for name in ("plain", "refined"):
        assert main([
            "eval", "--pred", str(root / name), "--gt", str(data / "cases"),
            "--out", str(root / f"eval_{name}"),
        ]) == 0


def test_pipeline_rerun_under_another_root_is_byte_identical(tmp_path):
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        run_tiny_pipeline(root)
    a, b = roots
    artifacts = ["data/manifest.json", "train/loss_curve.csv", "library.json",
                 "refined/refine_summary.json"]
    artifacts += [f"train/model/{name}" for name in (
        "graph.json", "params.bin", "manifest.json", "detector_config.json",
        "train_config.json",
    )]
    artifacts += [f"eval_{name}/{table}" for name in ("plain", "refined") for table in (
        "report.json", "distance_table.csv", "auc_table.csv", "pck_curve.csv",
    )]
    poses = [str(p.relative_to(a)) for d in ("plain", "refined") for p in (a / d).glob("*_pose.json")]
    assert len(poses) == 4
    artifacts += poses
    assert [rel for rel in artifacts if digest(a / rel) != digest(b / rel)] == []

    # the input paths are recorded, outside the hash
    for root in roots:
        def paths(stage):
            return json.loads((root / stage / "run_config.json").read_text())["paths"]

        assert paths("train") == {"data": str(root / "data")}
        assert paths("plain") == {"model": str(root / "train" / "model"), "data": str(root / "data")}
        assert paths("refined")["library"] == str(root / "library.json")
        assert paths("eval_refined") == {
            "pred": str(root / "refined"), "gt": str(root / "data" / "cases"),
        }


def test_every_artifact_is_canonical(tmp_path):
    # every JSON file is sorted, one-space indented JSON; every CSV starts
    # with the stamp of the run that wrote it (that run's run_config.json)
    run_tiny_pipeline(tmp_path)
    data, model = tmp_path / "data", tmp_path / "train" / "model"
    assert main([
        "refine", "--model", str(model), "--data", str(data), "--split", "test",
        "--library", str(tmp_path / "library.json"), "--out", str(tmp_path / "snapshots"),
        "--iterations", "2", "--floor", "0.0", "--k", "3", "--snapshot-each-iter",
    ]) == 0
    assert len(list((tmp_path / "snapshots").glob("*_trace.json"))) == 2
    json_files = sorted(tmp_path.rglob("*.json"))
    assert [
        str(p.relative_to(tmp_path)) for p in json_files
        if p.read_text() != json.dumps(json.loads(p.read_text()), sort_keys=True, indent=1)
    ] == []
    csv_files = sorted(tmp_path.rglob("*.csv"))
    assert len(csv_files) == 7  # the loss curve and two evals' three tables
    for path in csv_files:
        run = json.loads((path.parent / "run_config.json").read_text())
        stamp = {"config_version": run["version"], "config_hash": run["hash"]}
        first = path.read_text().splitlines()[0]
        assert first == "# " + json.dumps(stamp, sort_keys=True), path


def test_environment_record_stays_outside_the_hash(monkeypatch, tmp_path):
    # another BLAS build or thread count changes the record, not the hash
    cfg = config.RunConfig("train", settings={"lr": 1e-3}, inputs={"data": "abc"})
    docs = []
    for threads in (1, None):
        env = {"blas": {"name": "openblas", "version": "0.3.0"}, "blas_threads": threads}
        monkeypatch.setattr(config, "environment", lambda env=env: env)
        cfg.save(tmp_path / f"{threads}.json")
        docs.append(json.loads((tmp_path / f"{threads}.json").read_text()))
    assert [d["environment"]["blas_threads"] for d in docs] == [1, None]
    assert docs[0]["hash"] == docs[1]["hash"] == cfg.hash()
    assert {k: v for k, v in docs[0].items() if k != "environment"} == {
        k: v for k, v in docs[1].items() if k != "environment"}


def test_every_stage_records_its_environment(tmp_path):
    run_tiny_pipeline(tmp_path)
    env = config.environment()
    assert set(env) == {"blas", "blas_threads"} and set(env["blas"]) == {"name", "version"}
    stages = sorted(p.parent.name for p in tmp_path.rglob("run_config.json"))
    assert stages == ["data", "eval_plain", "eval_refined", "plain", "refined", "train"]
    for stage in stages:
        doc = json.loads((tmp_path / stage / "run_config.json").read_text())
        assert doc["environment"] == env, stage


def test_config_hash_follows_input_content(dataset, model, tmp_path):
    # the same model bytes under another path stamp the same hash; changed
    # weights stamp another
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in model.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    stamps = []
    for src, name in ((model, "p1"), (copy, "p2")):
        assert main(["infer", "--model", str(src), "--data", str(dataset),
                     "--out", str(tmp_path / name), "--floor", "0.0"]) == 0
        stamps.append(json.loads((tmp_path / name / "run_config.json").read_text())["hash"])
    params = np.frombuffer((copy / "params.bin").read_bytes(), dtype="<f4").copy()
    params[0] += 1.0
    (copy / "params.bin").write_bytes(params.tobytes())
    assert main(["infer", "--model", str(copy), "--data", str(dataset),
                 "--out", str(tmp_path / "p3"), "--floor", "0.0"]) == 0
    stamps.append(json.loads((tmp_path / "p3" / "run_config.json").read_text())["hash"])
    assert stamps[0] == stamps[1] != stamps[2]


def test_landmarks_table_prints(capsys):
    assert main(["landmarks"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 16
    subset = [r["index"] for r in rows if r["registration_subset"]]
    assert subset == [1, 2, 3, 4, 5, 7, 8, 9, 11, 14]
