"""File formats: every JSON and CSV artifact, raw volumes, poses, libraries.

Text artifacts go through ``write_json`` and ``write_csv`` and nothing else:
JSON has sorted keys and a one-space indent, with the run stamp
(``config_version``, ``config_hash``) merged in at the top level; a CSV
starts with a ``# {stamp}`` line, then its rows. Every JSON artifact is read
through ``reading``; a malformed one raises ``FileFormatError`` naming it,
and one that describes an invalid graph or setting a ``GraphError`` naming it.

Volume format: raw little-endian float32, x-fastest order (exactly the bytes
of a C-order (z, y, x) array), with a sidecar ``<stem>.json`` holding
``{dims: [nx, ny, nz], spacing_mm: [sx, sy, sz], dtype, version}``.
Pose format: JSON with 16 named landmarks in mm and validity flags. A pose
library holds one such landmark record per pose, flagged ``present``.
All writers are pure functions of their inputs; nothing embeds timestamps.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from volpose.anatomy import NUM_LANDMARKS, landmark_names
from volpose.graph import GraphError
from volpose.registration import Pose, PoseLibrary

VOLUME_FORMAT_VERSION = 1
POSE_FORMAT_VERSION = 1
LIBRARY_FORMAT_VERSION = 1
MANIFEST_FORMAT_VERSION = 1


class FileFormatError(ValueError):
    pass


@contextmanager
def reading(path: str | Path, version: int | None = None):
    """Yield the JSON object in ``path``, of format ``version`` when given. In
    the block, a key, attribute, type or value error becomes a ``FileFormatError``
    that starts with the path, so convert every value there. A ``GraphError``
    (a graph or a setting the file describes is invalid) stays one, with
    the path in front."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise FileFormatError(f"holds a JSON {type(doc).__name__}, not an object")
        if version is not None and doc.get("version") != version:
            raise FileFormatError(f"unsupported format version {doc.get('version')!r}")
        yield doc
    except KeyError as e:
        raise FileFormatError(f"{path}: missing key {e}") from e
    except GraphError as e:
        raise GraphError(f"{path}: {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        if isinstance(e, FileFormatError) and str(e).startswith(str(path)):
            raise
        raise FileFormatError(f"{path}: {e}") from e


@contextmanager
def writing(out: str | Path):
    """The directory to write the out directory ``out`` through. Where
    ``out`` does not exist, that is a new directory inside a hidden staging
    directory next to the outermost directory the block creates. When the
    block completes, the staged tree is renamed into place; when it raises,
    the staging directory is removed with what was written. So a failed
    block leaves no out directory, nor any parent it created. An existing
    ``out`` is written in place, so a ``writing`` inside another's block
    stages nothing again."""
    out = Path(out)
    if out.exists():
        yield out
        return
    top = out  # the outermost directory the block creates
    while not top.parent.exists():
        top = top.parent
    stage = Path(tempfile.mkdtemp(prefix=f".{top.name}.", dir=top.parent))
    try:
        staged = stage / out.relative_to(top.parent)
        staged.mkdir(parents=True)
        yield staged
        (stage / top.name).rename(top)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _plain(value):
    """numpy scalars and arrays as plain numbers and lists; nothing else."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: str | Path, doc: dict, stamp: dict | None = None) -> None:
    """Write ``doc`` with the stamp merged in at the top level."""
    text = json.dumps({**(stamp or {}), **doc}, sort_keys=True, indent=1, default=_plain)
    Path(path).write_text(text)


def write_csv(path: str | Path, rows, stamp: dict | None = None) -> None:
    """Write a ``# {stamp}`` line (when stamped), then the rows."""
    with open(path, "w", newline="") as f:
        if stamp:
            f.write(f"# {json.dumps(stamp, sort_keys=True)}\n")
        csv.writer(f).writerows(rows)


def save_volume(path: str | Path, volume: np.ndarray, spacing, stamp: dict | None = None) -> None:
    """Write <path>.raw plus <path>.json; volume is (z, y, x) float32."""
    path = Path(path)
    if volume.ndim != 3:
        raise FileFormatError(f"volume must be 3-D (z, y, x), got shape {volume.shape}")
    arr = np.ascontiguousarray(volume, dtype="<f4")
    path.with_suffix(".raw").write_bytes(arr.tobytes())
    nz, ny, nx = volume.shape
    header = {
        "version": VOLUME_FORMAT_VERSION,
        "dims": [nx, ny, nz],
        "spacing_mm": np.broadcast_to(np.asarray(spacing, dtype=np.float64), (3,)),
        "dtype": "float32",
    }
    write_json(path.with_suffix(".json"), header, stamp)


def load_volume(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a raw+sidecar volume; returns ((z, y, x) float32, spacing (3,))."""
    path = Path(path)
    with reading(path.with_suffix(".json"), VOLUME_FORMAT_VERSION) as header:
        if header["dtype"] != "float32":
            raise FileFormatError(f"unsupported volume dtype {header['dtype']!r}")
        nx, ny, nz = dims = header["dims"]
        if not all(type(n) is int and n > 0 for n in dims):
            raise FileFormatError(f"dims must be three positive integers, got {dims}")
        spacing = np.asarray(header["spacing_mm"], dtype=np.float64)
    raw = path.with_suffix(".raw")
    size = raw.stat().st_size
    if size != 4 * nx * ny * nz:
        raise FileFormatError(f"{raw} holds {size} bytes, header says {nx * ny * nz} float32 voxels")
    # one allocation: the array is read straight from the file
    return np.fromfile(raw, dtype="<f4").reshape(nz, ny, nx), spacing


def _landmark_records(pose: Pose, flag: str) -> list[dict]:
    """One record per landmark; ``flag`` names the presence key."""
    return [
        {"index": j + 1, "name": name, "xyz_mm": pose.xyz_mm[j], flag: pose.present[j]}
        for j, name in enumerate(landmark_names())
    ]


def _read_landmarks(records: list[dict], flag: str, where: str) -> Pose:
    """Each index 1..16 exactly once, with 3 numbers in ``xyz_mm`` and a boolean
    ``flag``; any other record list raises, naming ``where``. Call it in ``reading``."""
    xyz = np.zeros((NUM_LANDMARKS, 3))
    present = np.zeros(NUM_LANDMARKS, dtype=bool)
    seen: set[int] = set()
    for lm in records:
        j = lm.get("index")
        if not (type(j) is int and 1 <= j <= NUM_LANDMARKS) or j in seen:
            raise FileFormatError(
                f"{where}: landmark index {j!r} is out of 1..{NUM_LANDMARKS} or repeated"
            )
        coords = np.asarray(lm.get("xyz_mm"))
        if coords.shape != (3,) or coords.dtype.kind not in "iuf" or type(lm.get(flag)) is not bool:
            raise FileFormatError(f"{where}: landmark {j} needs 'xyz_mm' (3 numbers) and '{flag}'")
        seen.add(j)
        xyz[j - 1] = coords
        present[j - 1] = lm[flag]
    if len(seen) != NUM_LANDMARKS:
        missing = sorted(set(range(1, NUM_LANDMARKS + 1)) - seen)
        raise FileFormatError(f"{where}: no record for landmark indices {missing}")
    return Pose(xyz, present)


def save_pose(
    path: str | Path,
    pose: Pose,
    spacing=None,
    stamp: dict | None = None,
    **fields,
) -> None:
    """Write one pose: a ``Pose`` or a ``heatmap.DecodedPose``, whose
    ``present`` mask becomes the ``valid`` flags. ``fields`` (e.g.
    per-landmark confidence) join the top level next to the stamp."""
    doc = {
        "version": POSE_FORMAT_VERSION,
        "spacing_mm": None if spacing is None else np.broadcast_to(
            np.asarray(spacing, dtype=np.float64), (3,)
        ),
        "landmarks": _landmark_records(pose, "valid"),
        **fields,
    }
    write_json(path, doc, stamp)


def load_pose(path: str | Path) -> tuple[Pose, dict]:
    with reading(path, POSE_FORMAT_VERSION) as doc:
        if doc.get("spacing_mm") is not None:
            doc["spacing_mm"] = np.broadcast_to(np.asarray(doc["spacing_mm"], float), (3,)).tolist()
        return _read_landmarks(doc["landmarks"], "valid", str(path)), doc


def save_library(path: str | Path, library: PoseLibrary, stamp: dict | None = None) -> None:
    records = [
        {"id": pid, "source": src, "landmarks": _landmark_records(pose, "present")}
        for pid, pose, src in zip(library.ids, library.poses, library.sources)
    ]
    write_json(path, {"version": LIBRARY_FORMAT_VERSION, "poses": records}, stamp)


def load_library(path: str | Path) -> PoseLibrary:
    with reading(path, LIBRARY_FORMAT_VERSION) as doc:
        return PoseLibrary(
            [rec["id"] for rec in doc["poses"]],
            [_read_landmarks(rec["landmarks"], "present", f"{path}, pose {rec['id']}")
             for rec in doc["poses"]],
            [rec.get("source", "") for rec in doc["poses"]],
        )
