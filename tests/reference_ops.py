"""Tape operations and model edits that only the tests use.

``activation`` and ``subtract`` are building blocks of the composite
references that the fused ops are checked against, and of the gradient
suite; ``zero_fold_heads`` sets up an end-to-end identity audit.
"""
import numpy as np

from spcnet.model import ModelConfig, width_schedule
from spcnet.optim import ParamSet
from spcnet.tensor import Tensor, _unbroadcast, as_tensor


def activation(x: Tensor, kind: str, slope: float = 0.2) -> Tensor:
    """Elementwise nonlinearity: relu, leaky_relu (default slope 0.2), tanh."""
    x = as_tensor(x)
    if kind == "relu":
        out_data = np.maximum(x.data, 0.0)
        mask = (x.data > 0.0).astype(np.float64)

        def bwd(g):
            x._accumulate(g * mask, owned=True)

    elif kind == "leaky_relu":
        factor = np.where(x.data > 0.0, 1.0, slope)
        out_data = x.data * factor

        def bwd(g):
            x._accumulate(g * factor, owned=True)

    elif kind == "tanh":
        out_data = np.tanh(x.data)
        deriv = 1.0 - out_data * out_data

        def bwd(g):
            x._accumulate(g * deriv, owned=True)

    else:
        raise ValueError(f"unsupported activation kind {kind!r}")
    return Tensor._node(out_data, (x,), bwd)


def subtract(a: Tensor, b) -> Tensor:
    """``a - b`` with numpy broadcasting, as one tape node."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bwd(g):
        a._accumulate(_unbroadcast(g, a.data.shape), owned=True)
        b._accumulate(_unbroadcast(-g, b.data.shape), owned=True)

    return Tensor._node(out_data, (a, b), bwd)


def zero_fold_heads(params: ParamSet, config: ModelConfig) -> None:
    """Zero the final layer of every folding head: each stage then reproduces
    its coarse input replicated, an end-to-end identity audit."""
    w = width_schedule(config.width_scale)
    last = len(w.fold_hidden)
    for i in range(config.scm_count):
        params[f"scm{i}.acm.fold.l{last}.w"].data[:] = 0.0
        params[f"scm{i}.acm.fold.l{last}.b"].data[:] = 0.0
