"""Adam optimizer over a flat parameter dict.

Parameters are updated in place, in sorted key order, so two runs with the
same gradients produce identical parameter bits.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.5     # the reference protocol's moment term
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        beta1: float = BETA1,
        beta2: float = BETA2,
        eps: float = EPS,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for key in sorted(self.params):
            if key not in grads:
                continue
            g = grads[key]
            p = self.params[key]
            m = self.m[key]
            v = self.v[key]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            mhat = m / bc1
            vhat = v / bc2
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
