"""Gradient checkpointing on the reference detector: same gradients, less memory.

Builds the depth-3 detector, runs one training step with and without
checkpointing, and compares the planned peak bytes of live node values and
held gradients, wall time, and the gradients themselves (they must be
bitwise identical). Finally shows the headline capability: a
1.25x-per-dimension input fits under a simulated memory cap that the plain
pass would exceed. The cap is checked against the planned peak of each walk
before it starts, so the plain pass is refused before any kernel runs.
"""

import time

import numpy as np

from volpose.graph import MemoryCapExceeded, select_checkpoints
from volpose.model import DetectorConfig, build_detector


def one_step(graph, feeds, checkpointed):
    t0 = time.perf_counter()
    graph.forward(feeds, discard=checkpointed)
    grads = graph.backward_checkpointed() if checkpointed else graph.backward_plain()
    return grads, graph.meter.peak, time.perf_counter() - t0


def feeds_for(shape, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "volume": rng.normal(size=(1, *shape)).astype(np.float32),
        "target": rng.normal(size=(16, *shape)).astype(np.float32),
    }


cfg = DetectorConfig(depth=3, base_channels=8, input_scale=1.0)
graph = build_detector(cfg, seed=0)
feeds = feeds_for((32, 32, 32))

grads_plain, peak_plain, t_plain = one_step(graph, feeds, checkpointed=False)
graph.set_checkpoints(select_checkpoints(graph, "block_boundary"))
grads_ckpt, peak_ckpt, t_ckpt = one_step(graph, feeds, checkpointed=True)

print(f"planned peak      plain: {peak_plain/1e6:7.2f} MB")
print(f"planned peak      ckpt:  {peak_ckpt/1e6:7.2f} MB   "
      f"({(1 - peak_ckpt/peak_plain)*100:.0f}% less)")
print(f"step wall time    plain: {t_plain*1e3:6.0f} ms, ckpt: {t_ckpt*1e3:6.0f} ms "
      f"(ratio {t_ckpt/t_plain:.2f})")

identical = all(np.array_equal(grads_plain[k], grads_ckpt[k]) for k in grads_plain)
print(f"gradients bitwise identical: {identical}")

# the payoff: a 40^3 input (1.25x per dimension) under a cap sized from the
# 32^3 plain peak
cap = int(1.2 * peak_plain)
big = feeds_for((40, 40, 40), seed=1)

graph_big = build_detector(cfg, seed=0)
graph_big.meter.cap = cap
try:
    one_step(graph_big, big, checkpointed=False)
    print("plain pass unexpectedly fit under the cap")
except MemoryCapExceeded as e:
    print(f"plain pass at 40^3 refused before it ran: {e}")

graph_big = build_detector(cfg, seed=0)
graph_big.set_checkpoints(select_checkpoints(graph_big, "block_boundary"))
graph_big.meter.cap = cap
_, peak_big, _ = one_step(graph_big, big, checkpointed=True)
print(f"checkpointed pass at 40^3 fits: peak {peak_big/1e6:.2f} MB under cap {cap/1e6:.2f} MB")
