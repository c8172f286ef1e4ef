"""Run configuration: a versioned, hashable record of everything a command
resolved before running.

Every artifact a command writes embeds the config version and hash, so any
output can be traced to the exact settings that produced it and reruns can
be verified byte for byte.

The hash covers the command's settings and its inputs, and it identifies
each input by content, never by path: a dataset by its ``manifest.json``
(which carries the generator's stamp and the case list), a model by its
``graph.json``, ``manifest.json`` and ``params.bin``, a pose library by its
file, and anything else by the bytes of the files read (``digest_files``).
Where the inputs were read from is kept in ``run_config.json`` under
``paths`` but left out of the hash, so the same run under another directory
writes the same bytes. So is the ``environment`` that ran it: the BLAS
build numpy links, and the thread count in force in the loaded OpenBLAS,
which trained bits depend on (``null`` where no OpenBLAS is loaded).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from volpose.fileio import write_json

CONFIG_VERSION = 4


def digest_files(paths: Iterable[str | Path]) -> str:
    """Content id of a sequence of files: sha256 over each file's name,
    length and bytes, in the order given. Directories do not enter it."""
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """The thread count in force in the OpenBLAS this process has loaded,
    or None where none is (or the process map cannot be read)."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """The BLAS name and version numpy was built with, and its threads in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
    }


@dataclass
class RunConfig:
    command: str
    settings: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)    # input name -> content id
    paths: dict = field(default_factory=dict)     # input name -> path, not hashed

    def canonical(self) -> dict:
        """What the hash covers: the version, the command, its settings and inputs."""
        return {
            "version": CONFIG_VERSION,
            "command": self.command,
            "settings": self.settings,
            "inputs": self.inputs,
        }

    def hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def stamp(self) -> dict:
        """The stamp embedded into every artifact."""
        return {"config_version": CONFIG_VERSION, "config_hash": self.hash()}

    def save(self, path: str | Path) -> None:
        doc = {
            **self.canonical(),
            "paths": self.paths,
            "environment": environment(),
            "hash": self.hash(),
        }
        write_json(path, doc)
