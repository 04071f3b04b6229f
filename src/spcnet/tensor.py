"""Dense float64 tensors with reverse-mode differentiation.

A deliberately small tape: only the operations the completion network needs,
all numpy-backed, all double precision.  Forward ops are pure; nodes record
their parents and a backward closure, and ``backward`` walks the graph in
reverse topological order, accumulating into ``.grad`` (multiple paths add)
and releasing each interior node once its closure has run.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Sequence

import numpy as np

# A context variable, so a no_grad block in one thread leaves tape recording
# in every other thread alone.
_grad_enabled: ContextVar[bool] = ContextVar("spcnet_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / evaluation)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def recording(parents) -> bool:
    """Whether the tape records an op over ``parents``: recording is on and
    some parent is tracked."""
    return _grad_enabled.get() and any(p._tracked() for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Value node of the differentiation record.

    ``requires_grad`` marks leaves whose ``.grad`` the caller wants; interior
    nodes participate in backward regardless whenever any ancestor requires
    gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor(data)
        if recording(parents):
            out._parents = parents
            out._backward = backward
        return out

    def _tracked(self) -> bool:
        return self.requires_grad or self._backward is not None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``.grad``.

        ``owned`` hands ``g`` over: the caller allocated it, or it is the
        released node's own gradient passed to that node's only taker.
        Otherwise the first gradient is copied, as ``g`` may also be handed
        to another parent and ``.grad`` is added into in place.
        """
        if not self._tracked():
            return
        if self.grad is None:
            self.grad = np.asarray(g) if owned else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_data = self.data + other.data

        def bwd(g):
            self._accumulate(_unbroadcast(g, self.data.shape), owned=True)
            other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._node(out_data, (self, other), bwd)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out_data = self.data * other.data
        a_data, b_data = self.data, other.data

        def bwd(g):
            self._accumulate(_unbroadcast(g * b_data, a_data.shape), owned=True)
            other._accumulate(_unbroadcast(g * a_data, b_data.shape), owned=True)

        return Tensor._node(out_data, (self, other), bwd)

    __rmul__ = __mul__

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        out_data = self.data.sum(axis=axis)
        shape = self.data.shape

        def bwd(g):
            g = g if axis is None else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, shape).copy(), owned=True)

        return Tensor._node(out_data, (self,), bwd)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        old = self.data.shape
        out_data = self.data.reshape(*shape)

        def bwd(g):
            self._accumulate(g.reshape(old), owned=True)

        return Tensor._node(out_data, (self,), bwd)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor | None, b: Tensor, gamma: Tensor | None = None,
           relu: bool = False) -> Tensor:
    """One MLP layer as one tape node: ``x @ w`` (skipped when ``w`` is
    None), then the bias ``b`` or, with ``gamma``, the batch norm of the rows
    scaled by ``gamma`` and shifted by ``b``, then relu if asked.

    The norm uses the rows' own (biased) statistics, so the map is a pure
    function of the rows at hand; the epsilon guard keeps zero-variance
    columns (one-row batches too) finite.  Forward and backward take the
    floating-point steps of the composite form (one node per step), so both
    give its bits.
    """
    x, b = as_tensor(x), as_tensor(b)
    if x.data.ndim != 2:
        raise ValueError(f"linear: need a 2-d input, got shape {x.data.shape}")
    parents, pre = (x, b), x.data
    if w is not None:
        w = as_tensor(w)
        if w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
            raise ValueError(
                f"linear: inner dimensions disagree, x has shape {x.data.shape} "
                f"and w has shape {w.data.shape}"
            )
        parents += (w,)
        x_data, w_data = x.data, w.data
        pre = x_data @ w_data
    if b.data.shape != pre.shape[1:]:
        raise ValueError(
            f"linear: bias shape {b.data.shape} does not match output width {pre.shape[1]}"
        )
    if gamma is None:
        out_data = pre + b.data
    else:
        gamma = as_tensor(gamma)
        parents += (gamma,)
        if pre.shape[0] < 1 or gamma.data.shape != b.data.shape:
            raise ValueError(
                f"batch_norm: need a non-empty input and a gamma per column, "
                f"got {pre.shape} and {gamma.data.shape}"
            )
        inv_n = 1.0 / pre.shape[0]
        centered = pre - pre.sum(axis=0) * inv_n
        var_eps = (centered * centered).sum(axis=0) * inv_n + 1e-5
        scale = var_eps ** -0.5
        out_data = gamma.data * (centered * scale) + b.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def bwd(g):
        if relu:
            g = g * (out_data > 0.0)  # relu keeps the sign, so the output gives its slope
        b._accumulate(g.sum(axis=0), owned=True)
        if gamma is not None:
            gamma._accumulate((g * (centered * scale)).sum(axis=0), owned=True)
            g_normed = g * gamma.data
            # through scale = var_eps ** -0.5 to the variance, then to each square
            g_square = (g_normed * centered).sum(axis=0) * -0.5 * var_eps ** -1.5 * inv_n
            g = g_normed * scale
            via_square = g_square * centered
            g += via_square  # once per factor of centered * centered
            g += via_square
            g -= g.sum(axis=0) * inv_n  # through the mean
        if w is None:
            x._accumulate(g, owned=gamma is not None)
        else:
            x._accumulate(g @ w_data.T, owned=True)
            w._accumulate(x_data.T @ g, owned=True)

    return Tensor._node(out_data, parents, bwd)


def reduce_max_rows(*xs: Tensor) -> Tensor:
    """Column-wise max over the rows of each input, joined into one vector;
    gradient goes to the lowest argmax row."""
    xs = [as_tensor(x) for x in xs]
    for x in xs:
        if x.data.ndim != 2 or x.data.shape[0] < 1:
            raise ValueError(f"reduce_max_rows: need non-empty 2-d inputs, got {x.data.shape}")
    picks = [(x.data.argmax(axis=0), np.arange(x.data.shape[1])) for x in xs]
    out_data = np.concatenate([x.data[pick] for x, pick in zip(xs, picks)])
    ends = np.cumsum([x.data.shape[1] for x in xs])

    def bwd(g):
        for x, pick, g_x in zip(xs, picks, np.split(g, ends[:-1])):
            gx = np.zeros(x.data.shape)
            gx[pick] = g_x
            x._accumulate(gx, owned=True)

    return Tensor._node(out_data, tuple(xs), bwd)


def scatter_rows(index: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """[rows, w] sums of the rows of ``values`` [n, w] by ``index`` [n], by
    one ``bincount``: each sum starts at zero and adds its rows in order, as
    an unbuffered scatter-add does."""
    w = values.shape[1]
    flat = (index.reshape(-1, 1) * w + np.arange(w)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=rows * w).reshape(rows, w)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows by index; backward scatter-adds into the sources."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"gather_rows: index out of range for {n} rows")
    out_data = x.data[idx]
    shape = x.data.shape

    def bwd(g):
        width = int(np.prod(shape[1:]))
        gx = scatter_rows(idx.reshape(-1), g.reshape(idx.size, width), shape[0])
        x._accumulate(gx.reshape(shape), owned=True)

    return Tensor._node(out_data, (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along any ``axis``; backward slices the gradient back."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat: need at least one tensor")
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(
            s[d] != ref[d] for d in range(len(ref)) if d != axis
        ):
            raise ValueError(f"concat: extents disagree off axis {axis}: {ref} vs {s}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = np.cumsum([t.data.shape[axis] for t in tensors])

    def bwd(g):
        for t, g_t in zip(tensors, np.split(g, ends[:-1], axis=axis)):
            t._accumulate(g_t)

    return Tensor._node(out_data, tuple(tensors), bwd)


def tile_rows(x: Tensor, k: int) -> Tensor:
    """Stack k copies of an [m, d] block into [k*m, d] (replica-major)."""
    x = as_tensor(x)
    m, d = x.data.shape
    out_data = np.tile(x.data, (k, 1))

    def bwd(g):
        x._accumulate(g.reshape(k, m, d).sum(axis=0), owned=True)

    return Tensor._node(out_data, (x,), bwd)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-column normalization with the rows' own statistics, scaled by
    ``gamma`` and shifted by ``beta``: a ``linear`` layer without a weight."""
    return linear(x, None, beta, gamma)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every ``requires_grad``
    leaf reachable from ``loss``.

    Adds into existing ``.grad`` arrays, so callers batching several losses
    zero grads between optimizer steps, not between calls.  The walk
    releases the tape as it goes: once a node's closure has run, its
    ``.grad``, closure and parents are dropped, so each forward array is
    freed with its last consumer.  Interior nodes end with ``.grad`` None
    and no parents; the graph cannot be walked twice.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss._accumulate(np.ones_like(loss.data), owned=True)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, None, ()
