"""File formats: byte-level layout, sidecar contracts, error paths."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from volpose import cli
from volpose.fileio import (
    FileFormatError,
    load_library,
    load_pose,
    load_volume,
    save_library,
    save_pose,
    save_volume,
    write_csv,
    write_json,
)
from volpose.model import DetectorConfig, build_detector
from volpose.registration import Pose, PoseLibrary
from volpose.serialize import load_model, save_model


def test_raw_volume_is_little_endian_x_fastest(tmp_path):
    # hand-build a volume where the value encodes (z, y, x); the raw file
    # must advance x first, then y, then z
    nz, ny, nx = 2, 3, 4
    vol = np.zeros((nz, ny, nx), dtype=np.float32)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                vol[z, y, x] = z * 100 + y * 10 + x
    save_volume(tmp_path / "v", vol, 1.0)
    raw = np.frombuffer((tmp_path / "v.raw").read_bytes(), dtype="<f4")
    expected = [z * 100 + y * 10 + x
                for z in range(nz) for y in range(ny) for x in range(nx)]
    np.testing.assert_array_equal(raw, expected)
    header = json.loads((tmp_path / "v.json").read_text())
    assert header["dims"] == [nx, ny, nz]
    assert header["dtype"] == "float32"
    assert header["version"] == 1


def test_volume_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(0)
    vol = rng.normal(size=(5, 6, 7)).astype(np.float32)
    save_volume(tmp_path / "v", vol, [0.5, 0.5, 1.0])
    loaded, spacing = load_volume(tmp_path / "v")
    np.testing.assert_array_equal(loaded, vol)
    np.testing.assert_array_equal(spacing, [0.5, 0.5, 1.0])


def test_volume_size_mismatch_rejected(tmp_path):
    # 7 voxels and 9 voxels for a header that says 8, and 101 bytes, which
    # are no whole number of float32 voxels: each is refused from the file's
    # size, before it is read, naming the .raw file
    vol = np.zeros((2, 2, 2), dtype=np.float32)
    save_volume(tmp_path / "v", vol, 1.0)
    raw = tmp_path / "v.raw"
    for nbytes in (4 * 7, 4 * 9, 101):
        raw.write_bytes(b"\x00" * nbytes)
        with pytest.raises(FileFormatError, match="header says") as err:
            load_volume(tmp_path / "v")
        assert str(err.value) == f"{raw} holds {nbytes} bytes, header says 8 float32 voxels"


def test_loading_a_volume_holds_it_once(tmp_path):
    # the 64^3 volume is read straight into its array: no bytes object
    # beside it, and no second copy
    vol = np.random.default_rng(3).normal(size=(64, 64, 64)).astype(np.float32)
    save_volume(tmp_path / "v", vol, 1.0)
    tracemalloc.start()
    try:
        loaded, _ = load_volume(tmp_path / "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.tobytes() == vol.tobytes() and loaded.flags.writeable
    assert peak <= 1.1 * vol.nbytes, peak / vol.nbytes


def test_volume_version_check(tmp_path):
    vol = np.zeros((2, 2, 2), dtype=np.float32)
    save_volume(tmp_path / "v", vol, 1.0)
    header = json.loads((tmp_path / "v.json").read_text())
    header["version"] = 99
    (tmp_path / "v.json").write_text(json.dumps(header))
    with pytest.raises(FileFormatError, match="version"):
        load_volume(tmp_path / "v")


@pytest.mark.parametrize("dims", [[-1, -1, 8], [2, 2, 2.0], [2, 2, True]])
def test_volume_dims_must_be_positive_ints(tmp_path, dims):
    # [-1, -1, 8] and the others pass the voxel-count check
    save_volume(tmp_path / "v", np.zeros((2, 2, 2), dtype=np.float32), 1.0)
    header = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps({**header, "dims": dims}))
    with pytest.raises(FileFormatError, match=r"v\.json: dims must be three positive integers"):
        load_volume(tmp_path / "v")


def test_pose_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pose = Pose(rng.normal(scale=20, size=(16, 3)))
    pose.present[5] = False
    save_pose(tmp_path / "p.json", pose, spacing=1.0, stamp={"config_hash": "abc"}, note="x")
    loaded, doc = load_pose(tmp_path / "p.json")
    np.testing.assert_allclose(loaded.xyz_mm, pose.xyz_mm)
    np.testing.assert_array_equal(loaded.present, pose.present)
    assert doc["config_hash"] == "abc"
    assert doc["note"] == "x"
    assert doc["landmarks"][0]["name"] == "head_top"
    assert doc["spacing_mm"] == [1.0, 1.0, 1.0]


def set_version(doc, records):
    doc["version"] = 42


def set_index(value):
    def mutate(doc, records):
        records[3]["index"] = value
    return mutate


def drop_last_record(doc, records):
    del records[-1]


def drop_key(key):
    def mutate(doc, records):
        del records[3][key]
    return mutate


def set_nan(doc, records):
    records[3]["xyz_mm"][1] = float("nan")


def drop_subset_landmark(doc, records):
    records[0]["present"] = False


def set_flag_string(doc, records):
    records[3]["valid" if "valid" in records[3] else "present"] = "false"


def set_xyz_strings(doc, records):
    records[3]["xyz_mm"] = ["a", "b", "c"]


def drop_pose_id(doc, records):
    del doc["poses"][0]["id"]


# each makes a pose file or library unreadable: an unknown version, an index
# out of range (0, 17), one repeated, or a boolean, a landmark without a
# record, a record without its position, a NaN coordinate, a flag that is not
# a JSON boolean, or coordinates that are not numbers; with what the error
# says after naming the file
MALFORMED = [
    (set_version, "version"), (set_index(17), "index"), (set_index(0), "index"),
    (set_index(1), "repeated"), (set_index(True), "index True"),
    (drop_last_record, "no record"), (drop_key("xyz_mm"), "xyz_mm"), (set_nan, "non-finite"),
    (set_flag_string, "needs"), (set_xyz_strings, "xyz_mm"),
]


def test_pose_version_check(tmp_path):
    pose = Pose(np.zeros((16, 3)))
    save_pose(tmp_path / "p.json", pose)
    saved = (tmp_path / "p.json").read_text()
    for mutate, says in MALFORMED + [(drop_key("valid"), "valid")]:
        doc = json.loads(saved)
        mutate(doc, doc["landmarks"])
        (tmp_path / "p.json").write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=rf"p\.json: .*{says}"):
            load_pose(tmp_path / "p.json")


def test_library_version_check(tmp_path):
    lib = PoseLibrary(["a"], [Pose(np.zeros((16, 3)))], ["train"])
    save_library(tmp_path / "l.json", lib)
    saved = (tmp_path / "l.json").read_text()
    for mutate, says in MALFORMED + [
        (drop_key("present"), "present"), (drop_subset_landmark, "registration-subset"),
        (drop_pose_id, "missing key 'id'"),
    ]:
        doc = json.loads(saved)
        mutate(doc, doc["poses"][0]["landmarks"])
        (tmp_path / "l.json").write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=rf"l\.json(, pose a)?: .*{says}"):
            load_library(tmp_path / "l.json")


def write_artifacts(root):
    """One of each JSON artifact the pipeline reads; returns each reader's
    (path of the file it reads, call that reads it)."""
    pose = Pose(np.zeros((16, 3)))
    save_volume(root / "case", np.zeros((2, 2, 2), dtype=np.float32), 1.0)
    save_pose(root / "case_pose.json", pose)
    save_library(root / "library.json", PoseLibrary(["a"], [pose], ["train"]))
    cfg = DetectorConfig(depth=1, base_channels=2, input_scale=1.0)
    save_model(root / "model", build_detector(cfg, seed=0),
               extras={"detector_config.json": asdict(cfg)})
    cases = [{"id": "train_0000", "split": "train", "volume": "case", "pose": "case_pose.json"}]
    write_json(root / "manifest.json", {"version": 1, "cases": cases})
    return {
        "manifest": (root / "manifest.json", lambda: cli._load_manifest_cases(root, "train")),
        "volume": (root / "case.json", lambda: load_volume(root / "case")),
        "pose": (root / "case_pose.json", lambda: load_pose(root / "case_pose.json")),
        "library": (root / "library.json", lambda: load_library(root / "library.json")),
        "graph": (root / "model" / "graph.json", lambda: load_model(root / "model")),
        "model-manifest": (root / "model" / "manifest.json", lambda: load_model(root / "model")),
        "detector-config": (root / "model" / "detector_config.json",
                            lambda: cli._load_detector(root / "model")),
    }


def first_entry(doc):
    return doc["entries"][min(doc["entries"])]


def version_99(doc):
    doc["version"] = 99


# per reader, mutations of the parsed document: a wrong format version, a
# missing key and a value of the wrong type; detector_config.json has no
# version, and each of its fields has a default
CORRUPT = {
    "manifest": {
        "wrong-version": version_99,
        "missing-key": lambda d: d["cases"][0].pop("split"),
        "wrong-type": lambda d: d["cases"][0].update(volume=5),
    },
    "volume": {
        "wrong-version": version_99,
        "missing-key": lambda d: d.pop("dims"),
        "wrong-type": lambda d: d.update(dims=["2", "2", "2"]),
    },
    "pose": {
        "wrong-version": version_99,
        "missing-key": lambda d: d.pop("landmarks"),
        "wrong-type": lambda d: d.update(landmarks=5),
    },
    "library": {
        "wrong-version": version_99,
        "missing-key": lambda d: d["poses"][0].pop("id"),
        "wrong-type": lambda d: d.update(poses=5),
    },
    "graph": {
        "wrong-version": version_99,
        "missing-key": lambda d: d.pop("nodes"),
        "wrong-type": lambda d: d.update(nodes=5),
    },
    "model-manifest": {
        "wrong-version": version_99,
        "missing-key": lambda d: d.pop("entries"),
        "wrong-type": lambda d: first_entry(d).update(shape="ab"),
    },
    "detector-config": {"wrong-type": lambda d: d.update(depth="3")},
}


@pytest.mark.parametrize("reader, corruption", [
    (reader, corruption)
    for reader, mutations in CORRUPT.items()
    for corruption in ["not-json", "not-object", *mutations]
])
def test_every_reader_names_its_file(tmp_path, reader, corruption):
    path, read = write_artifacts(tmp_path)[reader]
    text = path.read_text()
    if corruption == "not-json":
        path.write_text(text[:-2])
    elif corruption == "not-object":
        path.write_text(f"[{text}]")
    else:
        doc = json.loads(text)
        CORRUPT[reader][corruption](doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError) as exc:
        read()
    assert str(exc.value).startswith(f"{path}: ")


def test_write_json_numpy_values_match_plain_numbers(tmp_path):
    # numpy values are written as the numbers float(v), int(v) or bool(v)
    # give, arrays as nested lists of them
    values = np.array([0.1, 1.0 / 3.0, -2.5e-7])
    doc = {
        "f32": np.float32(0.1),
        "f64": np.float64(1.0 / 3.0),
        "i64": np.int64(-3),
        "b": np.bool_(True),
        "f32_arr": values.astype(np.float32),
        "f64_arr": values.reshape(3, 1),
        "b_arr": np.array([True, False]),
        "i_arr": np.arange(3, dtype=np.int32),
    }
    plain = {
        "f32": float(np.float32(0.1)),
        "f64": float(np.float64(1.0 / 3.0)),
        "i64": -3,
        "b": True,
        "f32_arr": [float(v) for v in values.astype(np.float32)],
        "f64_arr": [[float(v)] for v in values],
        "b_arr": [True, False],
        "i_arr": [0, 1, 2],
    }
    write_json(tmp_path / "a.json", doc, stamp={"config_hash": "abc", "config_version": 3})
    text = (tmp_path / "a.json").read_text()
    expected = {**plain, "config_hash": "abc", "config_version": 3}
    assert text == json.dumps(expected, sort_keys=True, indent=1)
    assert json.loads(text) == expected


def test_write_json_rejects_other_objects(tmp_path):
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "a.json", {"ids": {1, 2}})


def test_write_csv_stamp_line_then_rows(tmp_path):
    stamp = {"config_version": 3, "config_hash": "abc"}
    write_csv(tmp_path / "t.csv", [["a", "b"], [1, "x"]], stamp)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines == ['# {"config_hash": "abc", "config_version": 3}', "a,b", "1,x"]
    write_csv(tmp_path / "u.csv", [["a"]])
    assert (tmp_path / "u.csv").read_text().splitlines() == ["a"]
