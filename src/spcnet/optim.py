"""Parameter bookkeeping and the Adam update."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

# Named parameter set: "<module>.<layer>.<role>" -> grad-enabled Tensor.
ParamSet = dict

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def zero_grads(params: ParamSet) -> None:
    for p in params.values():
        p.grad = None


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict
    v: dict
    t: int

    @classmethod
    def for_params(cls, params: ParamSet) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            t=0,
        )


def adam_step(params: ParamSet, state: AdamState, lr: float = 1e-4) -> None:
    """One bias-corrected Adam update; grads are read, not cleared."""
    missing = [k for k, p in params.items() if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradient for {missing[0]!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


class ParamBuilder:
    """Registers parameters in a fixed walk order, drawing from one stream.

    Weights are uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero,
    batch-norm scale one / shift zero, so a seed fully determines the set.
    Without an rng (``None``) weights are zero, giving the layout alone.
    """

    def __init__(self, rng):
        self.rng = rng
        self.entries: ParamSet = {}

    def _add(self, name: str, data: np.ndarray) -> None:
        if name in self.entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        self.entries[name] = Tensor(data, requires_grad=True)

    def weight(self, name: str, fan_in: int, fan_out: int) -> None:
        if self.rng is None:
            self._add(name, np.zeros((fan_in, fan_out)))
            return
        bound = 1.0 / np.sqrt(fan_in)
        self._add(name, self.rng.uniform_array((fan_in, fan_out), -bound, bound))

    def bias(self, name: str, width: int) -> None:
        self._add(name, np.zeros(width))

    def bn_pair(self, name: str, width: int) -> None:
        self._add(f"{name}.gamma", np.ones(width))
        self._add(f"{name}.beta", np.zeros(width))
