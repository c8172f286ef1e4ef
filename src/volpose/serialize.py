"""On-disk model format: versioned graph JSON plus a flat parameter blob.

Layout of a model directory:
  graph.json     node list (op kinds, inputs, attrs, parameter shapes)
  params.bin     the learnable parameters, little-endian float32,
                 concatenated in manifest order
  manifest.json  maps each parameter key ('<node id>.<name>') to
                 (offset, shape); offsets are in elements
Extra JSON documents (detector config, run config) sit next to these.
The checkpoint set is not saved: a loaded model runs plain forwards, and
the run config records the policy. So a checkpointed run saves the plain
run's network. Batch-norm nodes carry no epsilon; it is ``ops.BN_EPS``.

Version 1 also stored batch-norm running statistics, which nothing read;
loading a version-1 directory raises ``fileio.FileFormatError``, naming the
file, as any malformed ``graph.json`` or ``manifest.json`` does; a graph
whose ``dtype`` is not ``float32`` is malformed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from volpose.fileio import FileFormatError, reading, write_json
from volpose.graph import Graph, GraphError

FORMAT_VERSION = 2


def graph_to_dict(graph: Graph) -> dict:
    return {
        "version": FORMAT_VERSION,
        "dtype": graph.dtype.name,
        "loss": graph.loss_id,
        "inputs": dict(graph.inputs),
        "nodes": [
            {
                "id": n.nid,
                "op": n.op,
                "inputs": n.inputs,
                "attrs": n.attrs,
                "params": {k: list(v.shape) for k, v in n.params.items()},
            }
            for n in graph.nodes
        ],
    }


def graph_from_dict(doc: dict) -> Graph:
    # params.bin holds float32 only, and the graph computes in its dtype
    if doc["dtype"] != "float32":
        raise FileFormatError(f"dtype {doc['dtype']!r} is not 'float32'")
    g = Graph(np.float32)
    for pos, spec in enumerate(doc["nodes"]):
        if spec["id"] != pos:
            raise GraphError(f"node at position {pos} has id {spec['id']}")
        g.add(
            spec["op"],
            spec["inputs"],
            {k: np.zeros(shape, dtype=g.dtype) for k, shape in spec["params"].items()},
            spec["attrs"],
        )
    g.inputs = {n.attrs["name"]: n.nid for n in g.nodes if n.op == "input"}
    if doc["inputs"] != g.inputs:
        raise FileFormatError(f"inputs {doc['inputs']} are not the input nodes {g.inputs}")
    g.loss_id = doc["loss"]
    if type(g.loss_id) is not int or not 0 <= g.loss_id < len(g.nodes):
        raise FileFormatError(f"loss {g.loss_id!r} is not a node id")
    return g


def save_model(
    model_dir: str | Path,
    graph: Graph,
    extras: dict[str, dict] | None = None,
    stamp: dict | None = None,
) -> None:
    """Write graph.json, params.bin, manifest.json (+ extra JSON docs).

    ``stamp`` (the run-config stamp) is merged into graph.json and
    manifest.json so the whole model directory is traceable.
    """
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    write_json(model_dir / "graph.json", graph_to_dict(graph), stamp)

    entries = {}
    chunks = []
    offset = 0
    params = graph.parameters()
    for key in sorted(params):
        arr = np.ascontiguousarray(params[key], dtype="<f4")
        entries[key] = {"offset": offset, "shape": list(arr.shape)}
        chunks.append(arr.tobytes())
        offset += arr.size
    (model_dir / "params.bin").write_bytes(b"".join(chunks))
    manifest = {
        "version": FORMAT_VERSION,
        "dtype": "<f4",
        "total_elements": offset,
        "entries": entries,
    }
    write_json(model_dir / "manifest.json", manifest, stamp)
    for name, doc in (extras or {}).items():
        write_json(model_dir / name, doc)


def load_model(model_dir: str | Path) -> Graph:
    model_dir = Path(model_dir)
    with reading(model_dir / "graph.json", FORMAT_VERSION) as doc:
        graph = graph_from_dict(doc)
    blob = np.frombuffer((model_dir / "params.bin").read_bytes(), dtype="<f4")
    params = graph.parameters()
    with reading(model_dir / "manifest.json", FORMAT_VERSION) as manifest:
        if blob.size != manifest["total_elements"]:
            raise FileFormatError(f"total_elements differs from params.bin's {blob.size} elements")
        if set(manifest["entries"]) != set(params):
            raise FileFormatError("entries do not match the graph's parameters")
        for key, entry in manifest["entries"].items():
            offset, shape = entry["offset"], tuple(entry["shape"])
            if params[key].shape != shape:
                raise FileFormatError(f"entry '{key}' has shape {shape}, not {params[key].shape}")
            end = offset + math.prod(shape)
            if type(offset) is not int or not 0 <= offset <= end <= blob.size:
                raise FileFormatError(f"entry '{key}' at offset {offset!r} lies outside params.bin")
            nid, name = key.split(".", 1)
            graph.nodes[int(nid)].params[name] = blob[offset:end].reshape(shape).astype(graph.dtype)
    return graph
