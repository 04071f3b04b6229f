"""Analytic-vs-numeric gradient verification by central differences."""
from __future__ import annotations

from typing import Callable

import numpy as np

from .optim import ParamSet, zero_grads
from .tensor import Tensor, backward

_REL_FLOOR = 1e-8
_REFINE_TRIGGER = 1e-6


def finite_diff_check(
    f: Callable[[ParamSet], Tensor],
    params: ParamSet,
    eps: float = 1e-5,
    coord_limit: int | None = None,
    rng=None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``f`` maps the parameter set to a scalar Tensor and must be deterministic;
    two baseline evaluations guard against hidden state.  Every coordinate of
    every parameter is probed unless ``coord_limit`` caps the count per tensor
    (sampled via ``rng``), which keeps checks on large compositions tractable.
    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.

    Coordinates that disagree at the primary step are re-measured a decade
    up and down and the best agreement is kept: a kink (relu, max,
    nearest-point switch) straddled by one step width resolves at a smaller
    step, fp noise on a near-zero slope resolves at a larger one,
    while a genuinely wrong gradient disagrees at every step.
    """
    if eps <= 0:
        raise ValueError(f"finite_diff_check: eps must be positive, got {eps}")
    base_a = f(params).item()
    base_b = f(params).item()
    if base_a != base_b:
        raise ValueError(
            f"finite_diff_check: f is not deterministic ({base_a!r} != {base_b!r})"
        )

    zero_grads(params)
    backward(f(params))
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def probe(flat: np.ndarray, i: int, a: float, step: float) -> float:
        saved = flat[i]
        flat[i] = saved + step
        hi = f(params).item()
        flat[i] = saved - step
        lo = f(params).item()
        flat[i] = saved
        numeric = (hi - lo) / (2.0 * step)
        return abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if coord_limit is not None and size > coord_limit:
            if rng is None:
                raise ValueError("finite_diff_check: coord_limit needs an rng")
            coords = rng.sample_indices(size, coord_limit)
        else:
            coords = range(size)
        grad_flat = analytic[name].reshape(-1)
        for i in coords:
            rel = probe(flat, i, grad_flat[i], eps)
            if rel > _REFINE_TRIGGER:
                rel = min(rel, probe(flat, i, grad_flat[i], eps * 0.1))
            if rel > _REFINE_TRIGGER:
                rel = min(rel, probe(flat, i, grad_flat[i], eps * 10.0))
            if rel > worst:
                worst = rel
    return worst
