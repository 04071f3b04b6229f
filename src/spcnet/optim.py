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


def adam_step(params: ParamSet, state: AdamState, lr: float) -> None:
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
        self._entries: ParamSet = {}
        self._pending: list = []  # (name, fan_in, fan_out) of weights not drawn yet

    @property
    def entries(self) -> ParamSet:
        """The parameters registered so far. Weights registered since the
        last read are drawn now, in one ``uniform_array`` call over all of
        them: the walk's draws are consecutive in the stream, so each weight
        (a view of that draw) and the stream's state after it are what one
        draw per weight would give."""
        if self._pending:
            draw = self.rng.uniform_array(sum(i * o for _, i, o in self._pending))
            start = 0
            for name, fan_in, fan_out in self._pending:
                w = draw[start : start + fan_in * fan_out].reshape(fan_in, fan_out)
                start += w.size
                bound = 1.0 / np.sqrt(fan_in)
                # rounds as Rng.uniform(lo, hi)'s lo + (hi - lo) * u does
                w *= bound - -bound
                w += -bound
                self._entries[name] = Tensor(w, requires_grad=True)
            self._pending = []
        return self._entries

    def _add(self, name: str, data) -> None:
        """``data`` None holds a weight's place in the walk until it is drawn."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._entries[name] = None if data is None else Tensor(data, requires_grad=True)

    def weight(self, name: str, fan_in: int, fan_out: int) -> None:
        if self.rng is None:
            self._add(name, np.zeros((fan_in, fan_out)))
            return
        self._add(name, None)
        self._pending.append((name, fan_in, fan_out))

    def bias(self, name: str, width: int) -> None:
        self._add(name, np.zeros(width))

    def bn_pair(self, name: str, width: int) -> None:
        self._add(f"{name}.gamma", np.ones(width))
        self._add(f"{name}.beta", np.zeros(width))
