"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the benchmark offers, also those BENCHMARK.json does not gate
NAMES = list(workloads.WORKLOADS)


def _run(name, seed, trace, tmp_path):
    res = harness.run_workload(name, seed, 0.0, trace, tmp_path, workloads.TINY)
    assert res.correct, res.detail["errors"]
    assert res.failed == 0 and res.attempted >= 1
    return res


def _bindings():
    """Every function or method reachable from a volpose module, by identity."""
    out = {}
    for modname, mod in tracing.volpose_modules().items():
        for key, value in vars(mod).items():
            out[(modname, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("volpose"):
                for attr, member in vars(value).items():
                    out[(modname, key, attr)] = id(member)
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tiny traced run per workload, shared by the tests below."""
    out = tmp_path_factory.mktemp("traced")
    return {name: _run(name, 1, True, out) for name in NAMES}


def test_every_wrapper_fires_on_a_tiny_run(traced):
    calls = {}
    for res in traced.values():
        for target, n in res.detail["wrapper_calls"].items():
            calls[target] = calls.get(target, 0) + n
    assert len(calls) == len(tracing.TARGETS)
    assert [t for t, n in calls.items() if n == 0] == []


def test_every_metric_in_the_spec_is_produced(traced, tmp_path):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for res in traced.values():
        assert per_layer <= set(res.metrics)
    untraced = _run("train", 1, False, tmp_path)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(untraced.metrics)
    assert all(untraced.metrics[m["name"]] > 0 for m in SPEC["end_to_end"])


def test_install_rebinds_every_lookup_site_and_uninstall_restores_it():
    before = _bindings()
    originals = {id(owner.__dict__[attr]) for _, module, path, _ in tracing.TARGETS
                 for owner, attr in [tracing._resolve(module, path)]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        still_original = [k for k, v in _bindings().items() if v in originals]
        assert still_original == []
        # reached through the module, not the function the package exports
        assert sys.modules["volpose.refine"].retrieve_support.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_untraced_run_replaces_no_volpose_function(tmp_path, monkeypatch):
    before = _bindings()
    seen = []

    def checked(factory):
        def make(*args):
            wl = factory(*args)
            pre = wl.pre

            def pre_and_check():
                seen.append(_bindings() == before)
                pre()

            wl.pre = pre_and_check
            return wl
        return make

    for name in NAMES:
        monkeypatch.setitem(workloads.WORKLOADS, name, checked(workloads.WORKLOADS[name]))
        _run(name, 1, False, tmp_path)
    assert seen and all(seen)
    assert _bindings() == before


COUNTS = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith("ops.")
          and m["name"].endswith(".calls")] + [
    "heatmap.encode_channel.calls",
    "setup.heatmap.encode_channel.calls",
    "registration.fit_rigid.calls",
    "graph.meter_peak_bytes",
]


@pytest.mark.parametrize("name", ["train", "train-gcp", "refine"])
def test_counts_repeat_exactly_across_workload_seeds(name, traced, tmp_path):
    other = _run(name, 2, True, tmp_path)
    first = traced[name].metrics
    assert {k: first[k] for k in COUNTS} == {k: other.metrics[k] for k in COUNTS}
    assert first["ops.conv3d_forward.calls"] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([5.0] * 3 + [1.0]) == (5.0, 50.0)
    value, rank = harness.tail([float(i) for i in range(40)])
    assert value == 29.0 and rank == 75.0
