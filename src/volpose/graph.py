"""Explicit computation graph with reverse-mode autodiff and checkpointing.

A :class:`Graph` is a topologically ordered list of nodes. Each op is
declared once, in ``OP_TABLE``: its forward, backward and shape rules, and
what its backward reads (its inputs, its own output, or no value). One
training step is one program, a list of actions that the :class:`Schedule`
builds from (graph, target, discard, input shapes):

  * ``("run", nid)`` stores node ``nid``'s value: its feed, or its op's
    forward on stored values;
  * ``("free", nid)`` drops that value;
  * ``("grad", nid)`` backpropagates through node ``nid``'s step.

``forward`` walks the program up to its ``split`` and
``backward_checkpointed`` (``backward_plain`` is the same function) walks
the rest, both by one loop, and the backward returns gradients for every
learnable parameter. Every primitive has a fixed reduction order, so a
recomputed value has the forward's bits, and the gradients after a
discarding forward are bitwise identical to those after a plain one. The
memory account walks the same program: it sizes each value by the
``OP_TABLE`` shape rules and gives the peak of the forward and of the whole
step. The executor checks the meter's cap against that peak before each
walk; ``memplan`` builds the same schedule from shapes alone.

A ``channel_concat`` holds no buffer of its own: its value is an
``ops.Blocks`` of its inputs' arrays, which conv3d reads block by block and
any other op's kernels get joined. So each input of a concat stays in its
node for as long as the concat is live, and a free still releases its value.

What the program keeps. One rule frees values in a sequence of runs: a
value not kept dies right after its last consumer there, and a concat's
input no earlier than the concat. A kept concat keeps its inputs.
  * the forward runs the target and its ancestors, keeping the retained
    values. A plain forward retains every value some backward step reads,
    and the inputs, the target and the loss. On the reference detector that
    frees every batch-norm output (a ReLU masks by its own output); a
    deconv output, which no backward step reads, stays as its concat's
    first block;
  * a discarding forward retains the inputs, the target and the loss, and,
    of the values some backward step reads, the members of
    ``checkpoint_set`` and the direct inputs of any ``channel_concat``. A
    plain forward is a discarding one with every node checkpointed. The
    concat rule is a cost rule, not a correctness one: any checkpoint set
    runs, but a freed skip input is recomputed in the backward, next to the
    decoder's live values. On the reference detector at 32^3 under
    ``block_boundary``, dropping the rule takes the forward peak from 7.27 to
    5.89 MB but the step peak from 9.36 to 11.13 MB, and recomputes 40 values
    instead of 34;
  * before each grad, the backward runs the freed values its step reads,
    and the freed values those read in turn, in forward order from live
    values. It keeps the live values and the recomputed values that a step
    from here on reads. After the grad, it frees each live value that no
    later step reads.

The account counts node values and the gradients the backward holds (not
parameters, not kernel workspace): an activation gradient from the step
that makes it to the step that consumes it, a parameter gradient from its
step to the end of the walk. A concat's value counts 0 bytes, its inputs'
having been counted. conv3d gives the gradient of a concat one array per
block, and the concat's grad hands those on to its inputs, so that step
adds no bytes; a concat gradient that is one array (from another reader)
is split into copies, a transient the account leaves out. A kernel's
workspace stays outside it, and is small: a conv3d call holds one column
block's padded planes, stack and accumulator (``ops.CONV_BLOCK``), about
2 MB for the reference detector's widest 32^3 layer, growing with a plane
of the volume but not its depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from volpose import ops
from volpose.ops import ShapeMismatch


class GraphError(RuntimeError):
    pass


class NonFiniteValue(GraphError):
    """A node produced a non-finite value; carries the first offending node."""

    def __init__(self, node_id: int, op: str, detail: str = ""):
        self.node_id = node_id
        self.op = op
        super().__init__(f"non-finite value at node {node_id} ({op}){detail}")


class MissingValue(GraphError):
    pass


class MemoryCapExceeded(GraphError):
    pass


@dataclass
class MemMeter:
    """The planned peak of the last walk, in bytes of node values and held
    gradients, and a cap."""

    peak: int = 0
    cap: int | None = None

    def plan(self, peak: int, walk: str) -> None:
        """Admit a walk whose planned peak is ``peak``, or raise if it is over the cap."""
        if self.cap is not None and peak > self.cap:
            raise MemoryCapExceeded(
                f"planned {walk} peak of {peak} bytes exceeds the simulated cap {self.cap}"
            )
        self.peak = peak


@dataclass
class Node:
    nid: int
    op: str
    inputs: list[int]
    params: dict[str, np.ndarray] = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)
    value: np.ndarray | None = None


@dataclass(frozen=True)
class Op:
    """One primitive op.

    ``forward(node, xs)`` is the value from the input values ``xs``;
    ``backward(node, xs, g, want)`` is (input gradients, parameter gradients)
    for the output gradient ``g``, where ``want[i]`` says whether anything
    reads input ``i``'s gradient (an op may skip it and give None);
    ``shape(node, shapes)`` is the value shape from the input shapes.
    ``reads`` declares what the backward reads, and so what ``xs`` holds
    there: ``"inputs"``, the input values; ``"output"``, the op's own value;
    ``"shapes"``, no value, only the planned input shapes. The schedule keeps
    a value only while some backward step reads it. ``blocks`` says the
    kernels read a concat's value (an ``ops.Blocks``) as it is; any other
    op's kernels get it joined by ``np.asarray``.
    Kernels are looked up on ``ops`` at call time, so a rebound
    ``volpose.ops`` attribute sees every call.
    """

    forward: Callable | None
    backward: Callable | None
    shape: Callable | None
    reads: str = "inputs"
    blocks: bool = False


def _with_params(result: tuple, *names: str) -> tuple[list, dict]:
    gx, *gparams = result
    return [gx], dict(zip(names, gparams))


def _same_shape(node: Node, shapes: list[tuple]) -> tuple:
    return shapes[0]


# The one declaration of every op. Input nodes take their value from a feed
# (executor) or a named shape (planner), so they have no rules here.
OP_TABLE: dict[str, Op] = {
    "input": Op(None, None, None),
    "conv3d": Op(
        lambda n, x: ops.conv3d_forward(x[0], n.params["weight"], n.params["bias"]),
        lambda n, x, g, want: _with_params(
            ops.conv3d_backward(x[0], n.params["weight"], g, input_grad=want[0]),
            "weight",
            "bias",
        ),
        lambda n, s: (n.params["weight"].shape[0],) + s[0][1:],
        blocks=True,
    ),
    "deconv3d": Op(
        lambda n, x: ops.deconv3d_forward(x[0], n.params["weight"], n.params["bias"]),
        lambda n, x, g, want: _with_params(
            ops.deconv3d_backward(x[0], n.params["weight"], g), "weight", "bias"
        ),
        lambda n, s: (n.params["weight"].shape[1],) + tuple(2 * e for e in s[0][1:]),
    ),
    "max_pool3d": Op(
        lambda n, x: ops.max_pool3d_forward(x[0]),
        lambda n, x, g, want: ([ops.max_pool3d_backward(x[0], g)], {}),
        lambda n, s: s[0][:1] + tuple(e // 2 for e in s[0][1:]),
    ),
    "batch_norm": Op(
        lambda n, x: ops.batch_norm_forward(x[0], n.params["gamma"], n.params["beta"]),
        lambda n, x, g, want: _with_params(
            ops.batch_norm_backward(x[0], n.params["gamma"], g), "gamma", "beta"
        ),
        _same_shape,
    ),
    # the mask from the output: relu(x) > 0 exactly where x > 0
    "relu": Op(
        lambda n, x: ops.relu_forward(x[0]),
        lambda n, y, g, want: ([ops.relu_backward(y[0], g)], {}),
        _same_shape,
        reads="output",
    ),
    "channel_concat": Op(
        lambda n, x: ops.concat_forward(x),
        lambda n, s, g, want: (ops.concat_backward([e[0] for e in s], g), {}),
        lambda n, s: (sum(e[0] for e in s),) + s[0][1:],
        reads="shapes",
    ),
    "add": Op(
        lambda n, x: ops.add_forward(x[0], x[1]),
        lambda n, s, g, want: ([g, g], {}),
        _same_shape,
        reads="shapes",
    ),
    "l2_loss": Op(
        lambda n, x: ops.l2_loss_forward(x[0], x[1]),
        lambda n, x, g, want: (
            list(ops.l2_loss_backward(x[0], x[1], g, target_grad=want[1])),
            {},
        ),
        lambda n, s: (),
    ),
}


def value_shapes(graph: "Graph", nids, input_shapes: dict[str, tuple]) -> dict[int, tuple]:
    """Value shape of each node in ``nids`` (ascending, closed under inputs)
    from the named input shapes and the ``OP_TABLE`` shape rules."""
    shapes: dict[int, tuple] = {}
    for nid in nids:
        node = graph.nodes[nid]
        if node.op == "input":
            name = node.attrs["name"]
            if name not in input_shapes:
                raise GraphError(f"missing feed for input '{name}' (node {nid})")
            shapes[nid] = tuple(input_shapes[name])
        else:
            shapes[nid] = OP_TABLE[node.op].shape(node, [shapes[i] for i in node.inputs])
    return shapes


def _upstream(nodes: list[Node], roots, stop: set[int]) -> list[int]:
    """``roots`` and their ancestors, ascending, walking into no node of ``stop``."""
    seen: set[int] = set()
    stack = [r for r in roots if r not in stop]
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack += [i for i in nodes[nid].inputs if i not in stop]
    return sorted(seen)


def _reads(node: Node) -> list[int]:
    """The values ``node``'s backward step reads, by its op's ``reads``."""
    reads = OP_TABLE[node.op].reads
    return node.inputs if reads == "inputs" else [node.nid] if reads == "output" else []


def _hold_concat_inputs(nodes: list[Node], nids, last: dict[int, int]) -> None:
    """Give each input of a concat among ``nids`` at least the concat's
    ``last`` (the last position that reads it): a concat's value is its
    inputs' arrays, so none of them may be freed before it."""
    for nid in sorted(nids, reverse=True):  # an outer concat before an inner one
        if nodes[nid].op == "channel_concat" and nid in last:
            for i in nodes[nid].inputs:
                last[i] = max(last.get(i, -1), last[nid])


def _run_then_free(nodes: list[Node], order: list[int], kept: set[int]) -> list[tuple[str, int]]:
    """Run ``order`` in turn, freeing each value not in ``kept`` right after
    its last consumer there, or a concat input's, with its concat."""
    last = {i: j for j, nid in enumerate(order) for i in nodes[nid].inputs}
    _hold_concat_inputs(nodes, order, last)
    dies: dict[int, list[int]] = {}
    for i, j in last.items():
        dies.setdefault(j, []).append(i)
    actions = []
    for j, nid in enumerate(order):
        actions.append(("run", nid))
        actions += [("free", i) for i in dies.get(j, []) if i not in kept]
    return actions


@dataclass
class Schedule:
    """One training step as a program of actions, and its memory account,
    computed from shapes alone.

    * ``requires_grad``: needed nodes (the target and its ancestors) whose
      gradient is read, those with a learnable parameter at or upstream of
      them (never an input). Only their backward steps and the target's
      run, and only those read values;
    * ``program``: the step's actions (see the module docstring).
      ``program[:split]`` runs every needed node once, in forward order;
      ``program[split:]`` has one grad per needed node, in reverse order.
      Inputs stay live until their last consumer's grad, so a recompute
      never runs an input, and every checkpoint set gives a program that
      runs;
    * ``shapes`` and ``nbytes``: the planned shape and bytes of each needed
      value (a concat's are its blocks', which the account charges to its
      inputs);
    * ``forward_peak`` and ``step_peak``: the peak of live bytes over
      ``program[:split]``, and over the whole program, held gradients
      included.
    """

    target: int
    requires_grad: set[int]
    program: list[tuple[str, int]]
    split: int
    shapes: dict[int, tuple]
    nbytes: dict[int, int]
    forward_peak: int
    step_peak: int

    @classmethod
    def build(cls, graph: "Graph", target: int, discard: bool, input_shapes: dict) -> "Schedule":
        nodes = graph.nodes
        need = _upstream(nodes, [target], set())
        requires_grad: set[int] = set()
        for nid in need:
            if nodes[nid].params or requires_grad.intersection(nodes[nid].inputs):
                requires_grad.add(nid)
        walk = need[::-1]
        reads = {nid: _reads(nodes[nid]) if nid in requires_grad or nid == target else []
                 for nid in walk}
        # the last backward step, in walk order, that reads each value; an
        # input cannot be recomputed, so its consumers' steps count as reads
        last: dict[int, int] = {}
        for k, nid in enumerate(walk):
            for i in reads[nid] + [i for i in nodes[nid].inputs if nodes[i].op == "input"]:
                last[i] = k
        if discard:
            keep = graph.checkpoint_set.union(
                *(nodes[nid].inputs for nid in need if nodes[nid].op == "channel_concat"))
        else:
            keep = set(need)
        # the values the forward retains; from there on, those live before
        # each backward step
        alive = keep.intersection(last) | set(graph.inputs.values()) | {target, graph.loss_id}
        alive.intersection_update(need)
        # a concat's inputs live as long as it does: retained with it, and
        # freed after its last read, not before
        for nid in walk:
            if nodes[nid].op == "channel_concat" and nid in alive:
                alive.update(nodes[nid].inputs)
        _hold_concat_inputs(nodes, walk, last)

        program = _run_then_free(nodes, need, alive)
        split = len(program)
        # a recomputed value that a step from here on reads stays live; a live
        # value is freed after the last step that reads it, or after the
        # first step if none does
        for k, nid in enumerate(walk):
            recompute = _upstream(nodes, reads[nid], alive)
            alive.update(m for m in recompute if last.get(m, -1) >= k)
            program += _run_then_free(nodes, recompute, alive)
            freed = sorted(i for i in alive if last.get(i, 0) == k)
            alive.difference_update(freed)
            program += [("grad", nid)] + [("free", i) for i in freed]

        # the account: live bytes along the program, and a gradient as the
        # module docstring says (the seed is the target's gradient)
        shapes = value_shapes(graph, need, input_shapes)
        nbytes = {nid: math.prod(s) * graph.dtype.itemsize for nid, s in shapes.items()}
        own = {nid: 0 if nodes[nid].op == "channel_concat" else b for nid, b in nbytes.items()}
        live = peak = forward_peak = 0
        held = {target}
        for k, (action, nid) in enumerate(program):
            if k == split:
                forward_peak = peak
                live += nbytes[target]
            if action == "run":
                live += own[nid]
                peak = max(peak, live)
            elif action == "free":
                live -= own[nid]
            else:
                done = nbytes[nid] if nid in held else 0
                if nid in requires_grad:
                    made = set(nodes[nid].inputs).intersection(requires_grad) - held
                    held |= made
                    live += sum(nbytes[i] for i in made)
                    live += sum(p.nbytes for p in nodes[nid].params.values())
                if nodes[nid].op == "channel_concat":
                    live, done = live - done, 0  # its gradient's blocks are its inputs'
                peak = max(peak, live)
                live -= done
        return cls(target, requires_grad, program, split, shapes, nbytes, forward_peak, peak)


class Graph:
    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.nodes: list[Node] = []
        self.inputs: dict[str, int] = {}
        self.loss_id: int | None = None
        self.checkpoint_set: set[int] = set()
        self.meter = MemMeter()
        self.schedule: Schedule | None = None  # of the last forward
        self._built: tuple[tuple, Schedule] | None = None  # (key, schedule) of the last build

    # -- construction -------------------------------------------------------

    def add_input(self, name: str) -> int:
        nid = self.add("input", [], attrs={"name": name})
        self.inputs[name] = nid
        return nid

    def add(self, op: str, inputs: list[int], params=None, attrs=None) -> int:
        if op not in OP_TABLE:
            raise GraphError(f"unknown op '{op}'")
        nid = len(self.nodes)
        for i in inputs:
            if not (0 <= i < nid):
                raise GraphError(f"node {nid}: input {i} does not precede it topologically")
        self.nodes.append(Node(nid, op, list(inputs), dict(params or {}), dict(attrs or {})))
        return nid

    def set_loss(self, nid: int) -> None:
        self.loss_id = nid

    def value(self, nid: int) -> np.ndarray:
        v = self.nodes[nid].value
        if v is None:
            raise MissingValue(f"node {nid} has no stored value")
        return v

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live views of every learnable parameter, keyed '<nid>.<name>'."""
        out: dict[str, np.ndarray] = {}
        for n in self.nodes:
            for name, arr in n.params.items():
                out[f"{n.nid}.{name}"] = arr
        return out

    def clone(self) -> "Graph":
        """Structure-sharing copy with fresh parameter arrays, no values."""
        g = Graph(self.dtype)
        for n in self.nodes:
            g.nodes.append(
                Node(
                    n.nid,
                    n.op,
                    list(n.inputs),
                    {k: v.copy() for k, v in n.params.items()},
                    dict(n.attrs),
                )
            )
        g.inputs = dict(self.inputs)
        g.loss_id = self.loss_id
        g.checkpoint_set = set(self.checkpoint_set)
        return g

    # -- checkpoint bookkeeping ----------------------------------------------

    def set_checkpoints(self, ids: set[int]) -> None:
        for i in ids:
            if not (0 <= i < len(self.nodes)):
                raise GraphError(f"checkpoint id {i} not in graph")
        self.checkpoint_set = set(ids)

    # -- execution ---------------------------------------------------------------

    def _store(self, node: Node, value: np.ndarray, nbytes: int) -> None:
        if value.nbytes != nbytes:
            raise ShapeMismatch(
                f"node {node.nid} ({node.op}): value {value.dtype}{value.shape} has "
                f"{value.nbytes} bytes, planned {nbytes}"
            )
        node.value = value

    def _values(self, node: Node, nids: list[int]) -> list[np.ndarray]:
        vals = [self.nodes[i].value for i in nids]
        for i, v in zip(nids, vals):
            if v is None:
                raise MissingValue(f"node {node.nid}: node {i} has no stored value")
        return vals if OP_TABLE[node.op].blocks else [np.asarray(v) for v in vals]

    def _execute(self, actions: list[tuple[str, int]], schedule: Schedule, feeds: dict | None,
                 grads: dict | None) -> dict[str, np.ndarray]:
        """Walk ``actions``, a slice of ``schedule.program``, and return the
        parameter gradients its grads give. A run stores its feed or its
        op's forward through ``_store``, which checks the planned bytes. Only
        the forward, the walk given ``feeds``, checks values for non-finite
        entries: a recompute gives the forward's bits.
        """
        gradmap: dict[str, np.ndarray] = {}
        for action, nid in actions:
            node = self.nodes[nid]
            if action == "free":
                node.value = None
            elif action == "grad":
                self._backward_step(node, schedule, grads, gradmap)
            else:
                if node.op == "input":
                    val = np.ascontiguousarray(feeds[node.attrs["name"]], dtype=self.dtype)
                else:
                    try:
                        val = OP_TABLE[node.op].forward(node, self._values(node, node.inputs))
                    except ShapeMismatch as e:
                        raise ShapeMismatch(f"node {nid} ({node.op}): {e}") from e
                self._store(node, val, schedule.nbytes[nid])
                # a concat's blocks were checked as its inputs' values
                if feeds is not None and isinstance(val, np.ndarray) and val.size and not (
                        np.isfinite(val.min()) and np.isfinite(val.max())):
                    raise NonFiniteValue(nid, node.op, f" tag={node.attrs.get('tag', '')}")
                del val  # no reference here may outlive the value's free
        return gradmap

    def _backward_step(self, node: Node, schedule: Schedule, grads: dict, gradmap: dict) -> None:
        g = grads.pop(node.nid, None)
        if g is None:
            return
        op = OP_TABLE[node.op]
        if op.reads == "shapes":
            xs = [schedule.shapes[i] for i in node.inputs]
        else:
            xs = self._values(node, _reads(node))
        want = [i in schedule.requires_grad for i in node.inputs]
        gins, gparams = op.backward(node, xs, g, want)
        for i, gi, wanted in zip(node.inputs, gins, want):
            if wanted:
                grads[i] = np.add(grads[i], gi) if i in grads else gi  # joins blocks
        for name, gp in gparams.items():
            gradmap[f"{node.nid}.{name}"] = gp

    def forward(
        self,
        feeds: dict[str, np.ndarray],
        discard: bool = False,
        update_stats: bool = False,
        to_node: int | None = None,
    ) -> float:
        """Run the graph up to ``to_node`` (default: the loss node).

        Builds the step's :class:`Schedule`, or reuses the last forward's
        when the target, ``discard``, the checkpoint set, the feed shapes,
        the node count and the loss node all match, and walks its forward,
        ``program[:split]``: it runs the target and its ancestors and frees
        each value the program does not retain (see the module docstring)
        right after its last forward consumer. The loss value is identical
        either way. ``update_stats`` is accepted for old callers and ignored.
        The walk's planned forward peak goes to ``meter.peak``, or raises
        :class:`MemoryCapExceeded` before any kernel runs.
        """
        target = self.loss_id if to_node is None else to_node
        if target is None:
            raise GraphError("graph has no loss node and no to_node was given")
        if discard and not self.checkpoint_set:
            raise GraphError("discarding forward requires a non-empty checkpoint_set")

        self.schedule = None
        for n in self.nodes:
            n.value = None
        shapes = {k: np.shape(v) for k, v in feeds.items()}
        # what Schedule.build reads; a forward like the last one reuses its schedule
        key = (target, discard, frozenset(self.checkpoint_set), tuple(sorted(shapes.items())),
               len(self.nodes), self.loss_id)
        if self._built is None or self._built[0] != key:
            self._built = key, Schedule.build(self, target, discard, shapes)
        schedule = self._built[1]
        self.meter.plan(schedule.forward_peak, "forward")
        self._execute(schedule.program[:schedule.split], schedule, feeds, None)
        self.schedule = schedule
        out = self.nodes[target].value
        return float(out) if out.ndim == 0 else out

    def backward_checkpointed(self, grad_out: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Gradients of the loss w.r.t. every reachable learnable parameter.

        Without ``grad_out`` the seed is 1 at the loss node, so the last
        forward must have run to it. With ``grad_out``, it is the gradient at
        the last forward's target node, whatever that was (refinement seeds
        the heatmap head with its own loss's gradient).

        Walks the backward of the last forward's :class:`Schedule`,
        ``program[split:]``: before each grad it recomputes the freed values
        the step reads, and the freed values those read, from live values
        (after a plain forward there are none), and after it frees every
        value that no later step reads. After the walk the graph holds no
        value, so a second call raises :class:`MissingValue`. Gradients are
        bitwise identical whether the forward discarded values or not. The
        step's planned peak goes to ``meter.peak``, or raises
        :class:`MemoryCapExceeded` before the walk.
        """
        schedule = self.schedule
        if schedule is None or (grad_out is None and schedule.target != self.loss_id):
            raise MissingValue("backward: run forward to the loss node first")
        seed = np.asarray(1.0, dtype=self.dtype) if grad_out is None else grad_out
        if seed.shape != self.nodes[schedule.target].value.shape:
            raise ShapeMismatch(f"backward: grad_out shape {seed.shape} is not node "
                                f"{schedule.target}'s {self.nodes[schedule.target].value.shape}")
        self.meter.plan(schedule.step_peak, "step")
        gradmap = self._execute(schedule.program[schedule.split:], schedule, None,
                                {schedule.target: seed})
        self.schedule = None
        return gradmap

    backward_plain = backward_checkpointed


# ---------------------------------------------------------------------------
# checkpoint selection policies
# ---------------------------------------------------------------------------

def select_checkpoints(graph: Graph, policy: str, k: int | None = None) -> set[int]:
    """The checkpoint set a policy picks for a discarding forward pass.

    Policies:
      * ``block_boundary``: the nodes the detector builder tags as block
        outputs;
      * ``every_k``: every k-th node id.

    Whatever the set, the :class:`Schedule` also keeps the inputs, the
    target and the loss, keeps every direct input of a channel_concat that a
    backward step reads, and drops the picks that no backward step reads.
    Any other set goes through ``Graph.set_checkpoints``, which checks its
    ids.
    """
    if policy == "every_k":
        if not k or k < 1:
            raise GraphError("every_k policy requires k >= 1")
        return set(range(0, len(graph.nodes), k))
    if policy == "block_boundary":
        marks = {node.nid for node in graph.nodes if node.attrs.get("block_output", False)}
        if not marks:
            raise GraphError("block_boundary policy: graph has no tagged block outputs")
        return marks
    raise GraphError(f"unknown checkpoint policy '{policy}'")
