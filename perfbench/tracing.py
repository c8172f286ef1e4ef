"""Spans around the calls into each volpose layer, for traced runs only.

A :class:`Tracer` wraps the public functions and methods listed in
``TARGETS``. Installing it rebinds every name under which a volpose module
holds the original object: ``cli``, ``model`` and ``refine`` bind several of
them with ``from ... import``, so patching only the defining module would
miss those calls. ``volpose.refine`` as a package attribute is the
``refine`` function (``volpose/__init__.py`` shadows the module), which is
why modules are walked through ``sys.modules``. Uninstalling restores every
original object; an untraced run never installs anything.

Spans are kept in memory as (name, start, end, parent, request, info) and
written out once the run ends. Per-layer numbers are derived from them by
:func:`layer_metrics`; a span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field

OPS = ("conv3d", "deconv3d", "batch_norm", "max_pool3d", "relu", "concat", "l2_loss")
CLI_STAGES = ("phantom-gen", "build-library", "train", "infer", "refine", "eval")


def _conv3d_forward_cost(args, kwargs, result) -> dict:
    x, w = args[0], args[1]
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    voxels = x[0].size
    return {
        "flop": 2 * cout * cin * k**3 * voxels,
        "bytes": 4 * (x.size + w.size + result.size),
    }


def _conv3d_backward_cost(args, kwargs, result) -> dict:
    x, w, go = args
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    voxels = x[0].size
    # gx and gw each cost one forward-sized product
    return {
        "flop": 4 * cout * cin * k**3 * voxels,
        "bytes": 4 * (x.size + w.size + go.size + x.size + w.size),
    }


def _meter_peak(args, kwargs, result) -> dict:
    return {"meter_peak": args[0].meter.peak}


def _support_size(args, kwargs, result) -> dict:
    return {"kept": len(result)}


def _refine_outcome(args, kwargs, result) -> dict:
    cfg = args[5] if len(args) > 5 else kwargs["cfg"]
    return {
        "configured": cfg.iterations,
        "iterations": len(result.trace),
        "declined": bool(result.declined),
        "aborted": bool(result.aborted),
    }


# (span name, defining module, attribute path, info hook)
TARGETS = (
    *[
        (f"ops.{op}_{d}", "volpose.ops", f"{op}_{d}", None)
        for op in OPS
        for d in ("forward", "backward")
        if op != "conv3d"
    ],
    ("ops.conv3d_forward", "volpose.ops", "conv3d_forward", _conv3d_forward_cost),
    ("ops.conv3d_backward", "volpose.ops", "conv3d_backward", _conv3d_backward_cost),
    ("graph.forward", "volpose.graph", "Graph.forward", None),
    ("graph.backward", "volpose.graph", "Graph.backward_plain", _meter_peak),
    ("graph.backward", "volpose.graph", "Graph.backward_checkpointed", _meter_peak),
    ("graph.clone", "volpose.graph", "Graph.clone", None),
    ("optim.adam_step", "volpose.optim", "Adam.step", None),
    ("model.prepare_volume", "volpose.model", "prepare_volume", None),
    ("model.decode_prediction", "volpose.model", "decode_prediction", None),
    ("model.train", "volpose.model", "train", None),
    ("model.infer", "volpose.model", "infer", None),
    ("heatmap.encode_channel", "volpose.heatmap", "encode_channel", None),
    ("heatmap.decode_voxels", "volpose.heatmap", "decode_voxels", None),
    ("registration.retrieve_support", "volpose.registration", "retrieve_support", _support_size),
    ("registration.fit_rigid", "volpose.registration", "fit_rigid", None),
    ("registration.build_label_proxy", "volpose.registration", "build_label_proxy", None),
    ("refine.refine", "volpose.refine", "refine", _refine_outcome),
    ("phantom.sample_case", "volpose.phantom", "sample_case", None),
    ("serialize.save_model", "volpose.serialize", "save_model", None),
    ("serialize.load_model", "volpose.serialize", "load_model", None),
    ("fileio.load_volume", "volpose.fileio", "load_volume", None),
    ("fileio.save_volume", "volpose.fileio", "save_volume", None),
    ("metrics.build_report", "volpose.metrics", "build_report", None),
)


def volpose_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "volpose" or name.startswith("volpose."))
    }


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@dataclass
class Span:
    name: str
    start: int               # perf_counter_ns
    end: int
    parent: int              # index into the span list, -1 for a root
    request: object          # request number, or "setup"
    info: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; patches volpose only between install/uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: object = None
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        self._installed = False
        self.fired = [0] * len(TARGETS)     # calls seen by each wrapper
        for ti, (name, module, path, hook) in enumerate(TARGETS):
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(ti, name, original, hook)
            if isinstance(owner, type):
                self._sites.append((owner, attr, original, wrapper))
                continue
            # every module-level binding of the same object, wherever it is looked up
            for mod in volpose_modules().values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def _wrap(self, ti, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fired[ti] += 1
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[idx].info["raised"] = True
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx].info.update(hook(args, kwargs, result))
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: object = None):
        """A span opened by the benchmark itself (a request, a CLI stage)."""
        if request is not None:
            self.request = request
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def install(self) -> None:
        if self._installed:
            return
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self._installed = False

    @contextlib.contextmanager
    def active(self, request: object):
        self.request = request
        self.install()
        try:
            with self.span("bench.request"):
                yield
        finally:
            self.uninstall()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


@dataclass
class _Agg:
    ns: int = 0
    self_ns: int = 0
    calls: int = 0


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-layer values from spans.

    Request-scope values are per unit of work (a training step, a refinement
    iteration or a whole pipeline); ``setup.*`` values are totals of the one
    traced set-up.
    """
    n = len(spans)
    child_ns = [0] * n
    in_backward = [False] * n
    in_retrieve = [False] * n
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
            in_backward[i] = in_backward[s.parent] or spans[s.parent].name == "graph.backward"
            in_retrieve[i] = (
                in_retrieve[s.parent] or spans[s.parent].name == "registration.retrieve_support"
            )

    req: dict[str, _Agg] = {}
    setup: dict[str, _Agg] = {}
    recompute_ns = 0
    conv_flop = conv_bytes = 0
    meter_peak = 0
    kept = aligned = 0
    refine_iters = refine_calls = declined = aborted = 0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        name = s.name
        if s.request == "setup":
            table = setup
        else:
            table = req
            if name.startswith("ops.") and name.endswith("_forward") and in_backward[i]:
                recompute_ns += dur
                name = name + ".recompute"
            if name.startswith("ops.conv3d"):
                conv_flop += s.info.get("flop", 0)
                conv_bytes += s.info.get("bytes", 0)
            if s.name == "graph.backward":
                meter_peak = max(meter_peak, s.info.get("meter_peak", 0))
            if s.name == "registration.fit_rigid" and in_retrieve[i]:
                aligned += 1
            if s.name == "registration.retrieve_support":
                kept += s.info.get("kept", 0)
            if s.name == "refine.refine":
                declined += s.info.get("declined", False)
                aborted += s.info.get("aborted", False) or s.info.get("raised", False)
                if s.info.get("configured", 0) > 0:
                    refine_calls += 1
                    refine_iters += s.info.get("iterations", 0)
        agg = table.setdefault(name, _Agg())
        agg.ns += dur
        agg.self_ns += dur - child_ns[i]
        agg.calls += 1

    u = max(units, 1)

    def ms(name, table=req, per=u):
        return table.get(name, _Agg()).ns / 1e6 / per

    def self_ms(name):
        return req.get(name, _Agg()).self_ns / 1e6 / u

    def calls(name, table=req, per=u):
        return table.get(name, _Agg()).calls / per

    out: dict[str, float] = {}
    fwd_ops_ms = 0.0
    ops_self_ms = 0.0
    for op in OPS:
        for d in ("forward", "backward"):
            key = f"ops.{op}_{d}"
            out[f"{key}.ms"] = ms(key)
            out[f"{key}.calls"] = calls(key)
            ops_self_ms += self_ms(key) + self_ms(key + ".recompute")
        fwd_ops_ms += ms(f"ops.{op}_forward")
    out["ops.recompute.ms"] = recompute_ns / 1e6 / u
    out["ops.conv3d.gflop"] = conv_flop / 1e9 / u
    out["ops.conv3d.bytes"] = conv_bytes / u

    out["graph.forward.ms"] = ms("graph.forward")
    out["graph.backward.ms"] = ms("graph.backward")
    out["graph.clone.ms"] = ms("graph.clone")
    out["graph.self.ms"] = sum(self_ms(k) for k in ("graph.forward", "graph.backward", "graph.clone"))
    out["graph.recompute_ratio"] = out["ops.recompute.ms"] / fwd_ops_ms if fwd_ops_ms else 0.0
    out["graph.meter_peak_bytes"] = meter_peak
    out["optim.adam_step.ms"] = ms("optim.adam_step")
    out["trace.layers_self_ms"] = ops_self_ms + out["graph.self.ms"] + self_ms("optim.adam_step")

    for key in ("model.prepare_volume", "model.decode_prediction", "heatmap.decode_voxels",
                "registration.retrieve_support", "registration.fit_rigid",
                "registration.build_label_proxy", "phantom.sample_case",
                "serialize.save_model", "serialize.load_model", "fileio.load_volume",
                "fileio.save_volume", "metrics.build_report", "heatmap.encode_channel"):
        out[f"{key}.ms"] = ms(key)
    out["heatmap.encode_channel.calls"] = calls("heatmap.encode_channel")
    out["registration.fit_rigid.calls"] = calls("registration.fit_rigid")
    out["registration.kept_ratio"] = kept / aligned if aligned else 0.0
    out["refine.iterations"] = refine_iters / refine_calls if refine_calls else 0.0
    out["refine.declined"] = declined
    out["refine.aborted"] = aborted
    for stage in CLI_STAGES:
        out[f"cli.{stage}.s"] = ms(f"cli.{stage}") / 1e3

    out["setup.phantom.sample_case.ms"] = ms("phantom.sample_case", setup, 1)
    out["setup.heatmap.encode_channel.calls"] = calls("heatmap.encode_channel", setup, 1)
    return out
