"""Neural building blocks for the completion network.

Point features travel as [n, d] tensors alongside [n, 3] coordinate tensors.
Graph structure (neighbor indices, sampling choices) is always computed from
raw coordinate values and treated as constant by the tape; feature and
coordinate values themselves stay differentiable end to end.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import geometry
from . import tensor as T
from .geometry import NeighborGraph, fps, knn, nearest_index, row_blocks
from .optim import ParamBuilder, ParamSet
from .tensor import Tensor, as_tensor, constant

EDGE_SLOPE = 0.2  # slope of the leaky-relu used as the edge nonlinearity
VMLP_KINDS = ("vmlp", "pointnet_mlp", "one_subnet")


@dataclass(frozen=True)
class LayerSpec:
    """Widths of a shared (per-point) MLP stack.

    ``final_activation=False`` leaves the last layer bare (no norm, no
    nonlinearity), the usual arrangement for output heads.
    """

    dims: tuple
    use_bn: bool = True
    final_activation: bool = True

    def __post_init__(self):
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"LayerSpec: dims must be non-empty and positive, got {self.dims}")


def _layer_has_post(spec: LayerSpec, i: int) -> bool:
    return i < len(spec.dims) - 1 or spec.final_activation


def shared_mlp_params(pb: ParamBuilder, prefix: str, d_in: int, spec: LayerSpec) -> int:
    width = d_in
    for i, d_out in enumerate(spec.dims):
        normed = spec.use_bn and _layer_has_post(spec, i)
        pb.weight(f"{prefix}.l{i}.w", width, d_out)
        if normed:
            # the norm's shift absorbs any bias, so none is allocated
            pb.bn_pair(f"{prefix}.l{i}.bn", d_out)
        else:
            pb.bias(f"{prefix}.l{i}.b", d_out)
        width = d_out
    return width


def shared_mlp(
    x: Tensor, spec: LayerSpec, params: ParamSet, prefix: str, collect: bool = False
):
    """Per-point linear -> batch_norm -> relu stack, one ``T.linear`` node
    per layer.

    Normalization uses the statistics of the rows at hand, so the map is a
    pure function of (input, params).  With ``collect`` the per-layer outputs
    come back too.
    """
    x = as_tensor(x)
    outputs = []
    for i in range(len(spec.dims)):
        p, post = f"{prefix}.l{i}", _layer_has_post(spec, i)
        if spec.use_bn and post:  # the norm's shift stands in for the bias
            b, gamma = params[f"{p}.bn.beta"], params[f"{p}.bn.gamma"]
        else:
            b, gamma = params[f"{p}.b"], None
        x = T.linear(x, params[f"{p}.w"], b, gamma, relu=post)
        outputs.append(x)
    return (x, outputs) if collect else x


# ---------------------------------------------------------------------------
# graph convolutions
# ---------------------------------------------------------------------------

def adaptconv_params(pb: ParamBuilder, prefix: str, feat_width: int, m_out: int) -> None:
    # hidden width m_out keeps the generator's parameter count linear in the
    # kernel size (a D*m_out hidden layer would grow quadratically)
    pb.weight(f"{prefix}.g.l0.w", 6, m_out)
    pb.bias(f"{prefix}.g.l0.b", m_out)
    pb.weight(f"{prefix}.g.l1.w", m_out, 2 * feat_width * m_out)
    pb.bias(f"{prefix}.g.l1.b", 2 * feat_width * m_out)


def edgeconv_params(pb: ParamBuilder, prefix: str, feat_width: int, m_out: int) -> None:
    pb.weight(f"{prefix}.theta", 2 * feat_width, m_out)


def self_knn_k(k: int, n: int) -> int:
    """Neighbor count of an n-point cloud's graph over itself: k, at most n - 1."""
    return max(1, min(k, n - 1))


# Graph convolutions by ``ModelConfig.conv_kind``: AdaptConv (Zhou et al., ICCV
# 2021) and EdgeConv (Wang et al., DGCNN), as parameter builders
# (pb, prefix, feat_width, m_out).  EdgeConv is the kernel with no generator
# units; ``_conv_over_edges`` runs both.
CONVS = {"adapt": adaptconv_params, "edge": edgeconv_params}


# Threads the fused conv's forward runs on: one per CPU the process may run
# on (``taskset`` narrows them).
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# A forward whose per-edge arrays take at least this many ``_BLOCK_BYTES``
# blocks runs on the workers; a smaller one runs on the calling thread.
# Measured on a 2-vCPU Xeon with one BLAS thread: a lone forward ran
# 15-30 % faster on two workers from 2 MB up, but in training steps on
# 256-point shapes (convs of 4.25 MB at most) workers on every conv made
# the step 20 % slower, and on convs from 2 blocks up 13 % slower (12
# interleaved in-process calls each).  At 2048 points the convs from 4
# blocks up (8.5 MB and more) ran 25-40 % faster.
_PARALLEL_BLOCKS = 4
# A forward projects its centres a chunk of whole blocks of at least this
# many rows at a time, so that each product reads the weights once per chunk.
# Measured on a 2-vCPU Xeon with one BLAS thread: per row, products of 8
# rows cost 1.3-2.7x the whole projection's, and of 32 rows 0.67-0.97x at
# the benchmark's widths and 1.33x at a paper-scale pool2 (1.06x at 64 rows,
# 0.91x at 128).  Yet no-grad paper-scale forwards (3 interleaved in one
# process each) took 6.1-6.5 s at 32 rows, 6.2-7.6 s at 64 and 6.5-7.6 s at
# 128, with traced peaks of 650, 671 and 736 MB.
_CHUNK_ROWS = 32
# The weights' layout is copied this many outputs at a time: for a
# paper-scale pool2's forward, 0.44 s in one pass and 0.29-0.33 s in blocks
# of 1 to 32 outputs.
_LAYOUT_OUTPUTS = 32
_pool = None


def _executor() -> ThreadPoolExecutor:
    """The forward's worker pool, created on first use."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS)
    return _pool


def _drop_pool() -> None:
    """Forget the pool in a forked child, which has none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_drop_pool)


def _leaky_factor(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, EDGE_SLOPE)


def _hidden_units(pre: np.ndarray) -> np.ndarray:
    """The generator's hidden units, with a last unit fixed at 1 for its
    output bias."""
    hid = np.ones(pre.shape[:-1] + (pre.shape[-1] + 1,))
    np.maximum(pre, EDGE_SLOPE * pre, out=hid[..., :-1])  # leaky relu, the same bits
    return hid


def _conv_over_edges(
    kind, center_coords, center_feats, ref_coords, ref_feats, neighbors, params, prefix, m_out
) -> Tensor:
    """Max over each centre's neighbours of the leaky edge response, as one
    tape node.

    Each product of a weight with an edge's pair ``[a_i, a_j - a_i]`` is
    taken as ``a_i (W_top - W_bot) + a_j W_bot``: per-point projections
    whose rows are gathered per edge.  The adaptive kernel's generator bias
    is a hidden unit fixed at 1, so an edge's response to output ``o`` is
    ``sum_u hid[e, u] (A[i] + B[j])[o, u]`` with ``A = f_c W_c`` and
    ``B = f_r W_r``.  EdgeConv is the kernel with no generator units: its
    ``theta`` is the bias unit's row, and its coordinates get no gradient.
    Forward projects the references whole, since edges gather them at
    random, and the centres a chunk of whole blocks at a time.  It builds
    per-edge arrays one block of centres at a time, on ``_WORKERS`` threads
    when they are large (each thread a contiguous run of chunks, bits
    unchanged), and keeps the max; with a tape it keeps the
    argmax too (ties to the lowest neighbour slot).  Backward needs only the
    max edges: it recomputes their hidden units and responses from the
    inputs, and contracts with the weights before scattering to the
    references.
    """
    if kind not in CONVS:
        raise ValueError(f"unknown convolution kind {kind!r}")
    q, k = neighbors.shape
    if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= ref_feats.shape[0]):
        raise IndexError(f"{kind} conv: neighbour index out of range for {ref_feats.shape[0]} rows")
    d = center_feats.shape[1]
    if kind == "adapt":
        weights = tuple(params[f"{prefix}.g.{n}"] for n in ("l0.w", "l0.b", "l1.w", "l1.b"))
        parents = (center_coords, center_feats, ref_coords, ref_feats) + weights
        w0, b0, w1, b1 = (w.data for w in weights)
    else:
        theta = params[f"{prefix}.theta"]
        parents = (center_feats, ref_feats, theta)
        w0, b0, w1 = np.empty((6, 0)), np.empty(0), np.empty((0, 2 * d * m_out))
        b1 = theta.data.T
    units = w0.shape[1] + 1
    w0_r = w0[3:]
    w0_c = w0[:3] - w0_r
    xc, fc, xr, fr = center_coords.data, center_feats.data, ref_coords.data, ref_feats.data

    def factored_weights(rows_first):
        """[m_out, d, units] weights of the centre and reference projections,
        laid out [d, m_out, units] in memory when ``rows_first`` and as
        shaped otherwise, made from the generator's weight rows and bias row
        (recomputed in backward rather than held on the tape)."""
        shape = (d, m_out, units) if rows_first else (m_out, d, units)
        w_c, w_r = np.empty(shape), np.empty(shape)
        if rows_first:
            w_c, w_r = w_c.transpose(1, 0, 2), w_r.transpose(1, 0, 2)
        kernels = [  # [m_out, 2d, rows] views of the kernel rows
            (src.reshape(-1, m_out, 2 * d).transpose(1, 2, 0), cols)
            for src, cols in ((w1, np.s_[..., :-1]), (b1, np.s_[..., -1:]))
        ]
        for o in range(0, m_out, _LAYOUT_OUTPUTS):
            outs = slice(o, o + _LAYOUT_OUTPUTS)
            for kernel, cols in kernels:
                top, bot = kernel[outs, :d], kernel[outs, d:]
                w_r[outs][cols] = bot
                np.subtract(top, bot, out=w_c[outs][cols])
        return w_c, w_r

    def generator_inputs():
        return xc @ w0_c + b0, xr @ w0_r

    # [d, m_out * units] views of the weights, whose product gives a
    # projection's rows: the adaptive kernel's are laid out so, and
    # EdgeConv's are [m_out, d] read transposed (BLAS rounds by the layout)
    w_c, w_r = (w.transpose(1, 0, 2).reshape(d, -1) for w in factored_weights(units > 1))
    proj_r = (fr @ w_r).reshape(-1, m_out, units)
    del w_r
    hid_c, hid_r = generator_inputs()

    taped = T.recording(parents)
    row_bytes = 8 * k * m_out * units  # one centre's per-edge responses
    parallel = q * row_bytes >= _PARALLEL_BLOCKS * geometry._BLOCK_BYTES
    workers = _WORKERS if parallel else 1
    # The centre projection is made a chunk of one worker's whole blocks at
    # a time, whatever the worker count, for BLAS rounds a product's rows by
    # the rows it is given; and of two rows or more, for a one-row product
    # takes BLAS's matrix-vector kernel, which rounds otherwise again.
    block = row_blocks(q, row_bytes)[0].stop
    size = -(-max(_CHUNK_ROWS, 2) // block) * block
    chunks = [slice(i, min(q, i + size)) for i in range(0, q, size)]
    if len(chunks) > 1 and chunks[-1].stop - chunks[-1].start == 1:
        chunks[-2:] = [slice(chunks[-2].start, q)]  # a lone last row joins the chunk before it
    # the workers share one budget: each block takes 1 / workers of it
    step = -(-block // workers)
    best = np.empty((q, m_out))
    arg = np.empty((q, m_out), dtype=np.intp) if taped else None

    def buffers():
        """A chunk's centre projection, and per-edge responses,
        pre-activations, hidden units (bias unit set here, once) and their
        product, for one thread's blocks."""
        a = np.empty((min(q, size + 1), m_out * units))
        z = np.empty((step, k, m_out, units))
        if units == 1:
            return a, z, None, None, None
        hid = np.empty((step, k, units))
        hid[..., -1] = 1.0
        return a, z, np.empty((step, k, units - 1)), hid, np.empty((step, k, m_out, 1))

    def run(chunks, a_buf, z_buf, pre_buf, hid_buf, prod_buf):
        """Fill ``best`` (and ``arg``, taped) over ``chunks``; numpy only, so
        a worker records no tape and no span."""
        for chunk in chunks:
            start, stop = chunk.start, chunk.stop
            proj_c = np.matmul(fc[chunk], w_c, out=a_buf[: stop - start])
            proj_c = proj_c.reshape(-1, m_out, units)
            for first in range(start, stop, step):
                rows = slice(first, min(first + step, stop))
                b = rows.stop - first
                nbrs = neighbors[rows]
                # "clip" skips take's buffered bounds check; the indices were checked
                z = np.take(proj_r, nbrs, axis=0, out=z_buf[:b], mode="clip")
                z += proj_c[first - start : rows.stop - start, None]
                if units > 1:
                    pre = np.take(hid_r, nbrs, axis=0, out=pre_buf[:b], mode="clip")
                    pre += hid_c[rows, None]
                    hid = hid_buf[:b, :, :-1]
                    np.multiply(pre, EDGE_SLOPE, out=hid)
                    np.maximum(pre, hid, out=hid)  # leaky relu, as _hidden_units
                    h = np.matmul(z, hid_buf[:b, ..., None], out=prod_buf[:b])[..., 0]
                else:
                    h = z[..., 0]  # the one unit is the constant 1, and z·1 = z
                np.max(h, axis=1, out=best[rows])
                if taped:  # ties to the lowest neighbour slot
                    np.argmax(h, axis=1, out=arg[rows])

    if workers == 1:
        run(chunks, *buffers())
    else:
        # one contiguous run of chunks per worker, each with its own buffers
        cuts = [len(chunks) * i // workers for i in range(workers + 1)]
        jobs = [
            _executor().submit(run, chunks[a:b], *buffers())
            for a, b in zip(cuts, cuts[1:]) if a < b
        ]
        wait(jobs)  # every run ends before any error is raised
        for job in jobs:
            job.result()
    out_data = best * _leaky_factor(best)

    def bwd(g):
        # leaky keeps the sign, so the output gives the slope at the max
        g_h = (g * _leaky_factor(out_data)).T[:, :, None]  # [m_out, q, 1]
        w_c, w_r = factored_weights(False)
        hid_c, hid_r = generator_inputs()
        g_fc = np.empty_like(fc)
        g_fr = np.zeros_like(fr)
        r = fr.shape[0]
        g_w_c = np.zeros_like(w_c)
        g_w_r = np.zeros_like(w_r)
        g_hid_c = np.empty_like(hid_c)
        # the generator's share: its hidden units' columns of the projection
        # weights, and the coordinates, which reach the output only through
        # those units (none of either without generator units)
        gen_c, gen_r = w_c[..., :-1], w_r[..., :-1]
        xr_gen = xr[:, : 3 if units > 1 else 0]
        w0_gen = w0_r[: xr_gen.shape[1]]
        g_xr, g_w0_r = np.zeros_like(xr_gen), np.zeros_like(w0_gen)
        centres = np.arange(q)[:, None]
        # Each block adds a whole [m_out, d, units] product into each weight
        # gradient, over an inner dimension of only its rows, so a block
        # takes 4x the rows of a 2 MB [m_out, max(units, d)] array: at paper
        # width that halves the backward, and more rows gain nothing further.
        for rows in row_blocks(q, 2 * m_out * max(units, d)):
            # [m_out, qb] reference at each output's max edge
            picked = neighbors[centres[rows], arg[rows]].T
            gh = g_h[:, rows]
            fc_b, fr_p = fc[rows], fr[picked]
            pre = hid_c[rows] + hid_r[picked]
            # g_a [m_out, qb, units]: gradient of A[i] (and of B at the max edge)
            g_a = _hidden_units(pre)
            g_a *= gh
            g_fc[rows] = (g_a @ w_c.transpose(0, 2, 1)).sum(axis=0)
            g_w_c += fc_b.T @ g_a
            g_fr += T.scatter_rows(picked, (g_a @ w_r.transpose(0, 2, 1)).reshape(-1, d), r)
            g_w_r += fr_p.transpose(0, 2, 1) @ g_a
            g_pre = fc_b @ gen_c + fr_p @ gen_r
            g_pre *= gh
            g_pre *= np.where(pre <= 0.0, EDGE_SLOPE, 1.0)  # times 1.0 is exact
            g_hid_c[rows] = g_pre.sum(axis=0)
            g_pre = g_pre.reshape(picked.size, units - 1)
            g_xr += T.scatter_rows(picked, g_pre @ w0_gen.T, r)
            g_w0_r += xr_gen[picked].reshape(picked.size, -1).T @ g_pre
        # W_c = W_top - W_bot and W_r = W_bot; back to the [units, m_out, 2d] kernel
        g_w_r -= g_w_c
        g_kernel = np.concatenate([g_w_c, g_w_r], axis=1).transpose(2, 0, 1)
        center_feats._accumulate(g_fc, owned=True)
        ref_feats._accumulate(g_fr, owned=True)
        if kind == "adapt":
            center_coords._accumulate(g_hid_c @ w0_c.T, owned=True)
            ref_coords._accumulate(g_xr, owned=True)
            g_w0_c = xc.T @ g_hid_c
            for weight, grad in zip(weights, (
                np.vstack([g_w0_c, g_w0_r - g_w0_c]),
                g_hid_c.sum(axis=0),
                g_kernel[:-1].reshape(units - 1, -1),
                g_kernel[-1].reshape(-1),
            )):
                weight._accumulate(grad, owned=True)
        else:
            theta._accumulate(np.ascontiguousarray(g_kernel[-1].T), owned=True)

    return Tensor._node(out_data, parents, bwd)


def graph_conv(
    kind: str,
    coords: Tensor,
    features: Tensor,
    graph: NeighborGraph,
    params: ParamSet,
    prefix: str,
    m_out: int,
) -> Tensor:
    """Convolution ``kind`` (a ``CONVS`` key) over a cloud's graph on itself."""
    coords, features = as_tensor(coords), as_tensor(features)
    if graph.neighbors.shape[0] != coords.shape[0]:
        raise ValueError(
            f"{kind} conv: graph covers {graph.neighbors.shape[0]} points, "
            f"coords have {coords.shape[0]}"
        )
    return _conv_over_edges(
        kind, coords, features, coords, features, graph.neighbors, params, prefix, m_out
    )


def graph_pool(
    coords: Tensor,
    features: Tensor,
    pool_n: int,
    k: int,
    params: ParamSet,
    prefix: str,
    out_width: int,
    kind: str,
    graph: NeighborGraph | None = None,
) -> tuple[np.ndarray, Tensor, Tensor]:
    """Reduce the cloud to ``pool_n`` points chosen by farthest point sampling,
    re-aggregating each kept point's feature by one graph convolution over its
    k nearest neighbors in the original cloud (the point itself included as a
    zero-distance neighbor).

    Given ``graph``, the cloud's graph on itself, farthest point sampling
    reads it to skip work, and a kept point's neighbours are the point
    followed by the first k - 1 entries of its graph row.  On
    a cloud without coincident points that is ``knn``'s table.  With them,
    the row of a point with lower-index copies holds ``knn``'s set in
    another order, or, with k or more such copies, the point in place of the
    last copy; either way the forward max is unchanged where copies carry
    equal features.  Farthest point sampling keeps the lowest-index copy, so
    here every row is ``knn``'s.  A pooled cloud has no graph, and ``knn``
    searches it.  Returns the kept indices with their coordinates and new
    features.
    """
    coords, features = as_tensor(coords), as_tensor(features)
    n = coords.shape[0]
    if pool_n > n:
        raise ValueError(f"graph_pool: pool_n {pool_n} exceeds point count {n}")
    k_eff = max(1, min(k, n))
    if graph is not None and (
        graph.neighbors.shape[0] != n or graph.neighbors.shape[1] < k_eff - 1
    ):
        raise ValueError(
            f"graph_pool: graph of {graph.neighbors.shape} does not give {k_eff - 1} "
            f"neighbours of each of {n} points"
        )
    idx = fps(coords.data, pool_n, graph)
    kept_coords = T.gather_rows(coords, idx)
    kept_feats = T.gather_rows(features, idx)
    if graph is None:
        table = knn(kept_coords.data, coords.data, k_eff, exclude_self=False).neighbors
    else:
        table = np.concatenate([idx[:, None], graph.neighbors[idx, : k_eff - 1]], axis=1)
    new_feats = _conv_over_edges(
        kind, kept_coords, kept_feats, coords, features, table, params, prefix, out_width
    )
    return idx, kept_coords, new_feats


def interpolate_up(
    query_coords: Tensor,
    support_coords: Tensor,
    support_feats: Tensor,
    neighbors: np.ndarray,
) -> Tensor:
    """Inverse-distance weighted feature pull from each query point's support
    points ``neighbors`` ([m, k] support rows: its k nearest), as one tape
    node.

    The neighbor choice is fixed by the coordinate values, but the weights
    are differentiated, so gradients flow into the features and both
    coordinate sets.  Forward and backward take the floating-point steps of
    the composite form (gathers, distance, weight, share of the weight sum,
    group sums; each a node), so both give the composite's bits.
    """
    query_coords = as_tensor(query_coords)
    support_coords = as_tensor(support_coords)
    support_feats = as_tensor(support_feats)
    s = support_coords.shape[0]
    m, k = neighbors.shape
    if m != query_coords.shape[0]:
        raise ValueError(
            f"interpolate_up: {m} neighbour rows for {query_coords.shape[0]} query points"
        )
    idx_q = np.repeat(np.arange(m, dtype=np.intp), k)
    idx_s = neighbors.reshape(-1)
    diff = query_coords.data[idx_q] - support_coords.data[idx_s]
    # the inner guard keeps sqrt differentiable at exact coincidence
    dist = np.sqrt((diff * diff).sum(axis=1).reshape(m * k, 1) + 1e-16)
    shifted = dist + 1e-8
    w = 1.0 / shifted
    denom = w.reshape(m, k, 1).sum(axis=1)[idx_q]
    share = w / denom
    picked = support_feats.data[idx_s]
    out_data = (picked * share).reshape(m, k, -1).sum(axis=1)

    def bwd(g):
        g_contrib = np.repeat(g, k, axis=0)
        g_share = T._unbroadcast(g_contrib * picked, share.shape)  # as the product's backward
        g_denom = -g_share * w / (denom * denom)
        g_w = g_share / denom
        g_w += np.repeat(T.scatter_rows(idx_q, g_denom, m), k, axis=0)  # the weight sum
        g_dist = -g_w / (shifted * shifted)
        half = (g_dist * 0.5 / dist) * diff
        g_diff = half + half  # once per factor of diff * diff
        query_coords._accumulate(T.scatter_rows(idx_q, g_diff, m), owned=True)
        support_coords._accumulate(T.scatter_rows(idx_s, -g_diff, s), owned=True)
        support_feats._accumulate(T.scatter_rows(idx_s, g_contrib * share, s), owned=True)

    return Tensor._node(out_data, (query_coords, support_coords, support_feats), bwd)


def aggregate_prev_params(
    pb: ParamBuilder, prefix: str, feat_width: int, prev_width: int, out_width: int
) -> None:
    pb.weight(f"{prefix}.w", feat_width + prev_width, out_width)
    pb.bias(f"{prefix}.b", out_width)


def aggregate_prev(
    points: Tensor,
    feats: Tensor,
    prev_points: np.ndarray,
    prev_feats: Tensor,
    params: ParamSet,
    prefix: str,
) -> Tensor:
    """Merge the previous stage's feature by closest-point lookup: fetch each
    point's nearest previous feature, concatenate, pass through one linear."""
    points, feats = as_tensor(points), as_tensor(feats)
    prev_points = np.asarray(prev_points, dtype=np.float64)
    if prev_points.shape[0] < 1:
        raise ValueError("aggregate_prev: previous cloud is empty")
    j = nearest_index(points.data, prev_points)
    fetched = T.gather_rows(prev_feats, j)
    merged = T.concat([feats, fetched], axis=1)
    return T.linear(merged, params[f"{prefix}.w"], params[f"{prefix}.b"])


# ---------------------------------------------------------------------------
# VMLP: parallel MLP sub-nets with multi-layer max pooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VmlpSpec:
    sub_dims: tuple
    adjust_width: int
    out_width: int
    kind: str = "vmlp"  # one of VMLP_KINDS

    def __post_init__(self):
        if self.kind not in VMLP_KINDS:
            raise ValueError(f"VmlpSpec: unknown kind {self.kind!r}")
        if len(self.sub_dims) < 4:
            raise ValueError(
                f"VmlpSpec: sub-nets need at least four layers, got {self.sub_dims}"
            )


def _vmlp_layout(spec: VmlpSpec):
    """(sub-net count, per-sub dims, pooled layers per sub, adjust width)."""
    if spec.kind == "vmlp":
        return 3, spec.sub_dims, 4, spec.adjust_width
    if spec.kind == "pointnet_mlp":
        return 1, spec.sub_dims, 1, spec.adjust_width
    return 1, tuple(3 * d for d in spec.sub_dims), 4, 3 * spec.adjust_width


def vmlp_params(pb: ParamBuilder, prefix: str, spec: VmlpSpec) -> None:
    n_subs, dims, n_pooled, adjust = _vmlp_layout(spec)
    for s in range(n_subs):
        shared_mlp_params(pb, f"{prefix}.sub{s}", 3, LayerSpec(dims))
    pb.weight(f"{prefix}.adjust.w", sum(dims[-n_pooled:]), adjust)
    pb.bias(f"{prefix}.adjust.b", adjust)
    adaptconv_params(pb, f"{prefix}.conv", n_subs * adjust + 3, spec.out_width)


def vmlp(
    points: Tensor,
    graph: NeighborGraph,
    params: ParamSet,
    prefix: str,
    spec: VmlpSpec,
    return_pooled: bool = False,
):
    """Point-wise global feature from parallel MLP sub-nets.

    Each sub-net runs over the full coordinates and its last layer outputs
    (four, or one for ``pointnet_mlp``) are max-pooled, every sub-net's in
    one tape node, into one ``[subs, P]`` tensor that a shared linear layer
    adjusts row by row.  Each sub-net's code is repeated per point and
    joined to its share of the coordinate columns (one column each for
    three sub-nets, all three for one), giving ``[a0, x, a1, y, a2, z]`` or
    ``[a, x, y, z]``, and the joined rows pass through a final adaptive
    convolution over ``graph``, the cloud's graph on itself.
    ``return_pooled`` also returns the ``[subs, P]`` pooled tensor.
    """
    points = as_tensor(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"vmlp: need at least 2 points, got {n}")
    n_subs, dims, n_pooled, adjust = _vmlp_layout(spec)

    last_layers = []
    for s in range(n_subs):
        _, per_layer = shared_mlp(
            points, LayerSpec(dims), params, f"{prefix}.sub{s}", collect=True
        )
        last_layers += per_layer[-n_pooled:]
    pooled = T.reduce_max_rows(*last_layers).reshape(n_subs, -1)
    codes = T.linear(pooled, params[f"{prefix}.adjust.w"], params[f"{prefix}.adjust.b"])
    # the tiled codes live only inside the join: without a tape they are
    # freed before the conv runs
    per_point = T.concat(
        [T.tile_rows(codes.reshape(1, -1), n).reshape(n, n_subs, adjust),
         points.reshape(n, n_subs, -1)],
        axis=2,
    ).reshape(n, -1)
    out = graph_conv("adapt", points, per_point, graph, params, f"{prefix}.conv", spec.out_width)
    return (out, pooled) if return_pooled else out


# ---------------------------------------------------------------------------
# folding decoder
# ---------------------------------------------------------------------------

def grid_codes(upsample_k: int, grid_count: int, grid_r: float) -> np.ndarray:
    """2-D codes for the replicas: entries of a GxG lattice over [-r, r]^2 in
    row-major order; a single replica uses the explicit center code (0, 0)."""
    if upsample_k < 1:
        raise ValueError(f"grid_codes: upsample factor must be >= 1, got {upsample_k}")
    if upsample_k == 1:
        return np.zeros((1, 2))
    side = int(round(np.sqrt(grid_count)))
    if side * side != grid_count:
        raise ValueError(f"grid_codes: grid_count {grid_count} is not a perfect square")
    if upsample_k > grid_count:
        raise ValueError(
            f"grid_codes: upsample factor {upsample_k} exceeds grid_count {grid_count}"
        )
    axis = np.linspace(-grid_r, grid_r, side)
    cells = np.arange(upsample_k)
    return np.stack([axis[cells % side], axis[cells // side]], axis=1)


def _fold_spec(hidden_dims: tuple) -> LayerSpec:
    # no normalization: columns constant across replicas (grid codes, the
    # repeated feature rows) must keep influencing the displacement
    return LayerSpec(tuple(hidden_dims) + (3,), use_bn=False, final_activation=False)


def fold_decode_params(
    pb: ParamBuilder, prefix: str, feat_width: int, hidden_dims: tuple
) -> None:
    shared_mlp_params(pb, prefix, 2 + feat_width + 3, _fold_spec(hidden_dims))


def fold_decode(
    coarse_points: Tensor,
    point_feats: Tensor,
    upsample_k: int,
    grid_r: float,
    grid_count: int,
    params: ParamSet,
    prefix: str,
    hidden_dims: tuple,
) -> Tensor:
    """Replicate each coarse point ``upsample_k`` times and displace each
    replica by an MLP over [grid code, point feature, coarse point].

    Output is replica-major: row c*m + i belongs to replica c of point i.
    """
    coarse_points = as_tensor(coarse_points)
    point_feats = as_tensor(point_feats)
    m = coarse_points.shape[0]
    codes = grid_codes(upsample_k, grid_count, grid_r)
    code_rows = constant(np.repeat(codes, m, axis=0))
    tiled_pts = T.tile_rows(coarse_points, upsample_k)
    tiled_feats = T.tile_rows(point_feats, upsample_k)
    joined = T.concat([code_rows, tiled_feats, tiled_pts], axis=1)
    displacement = shared_mlp(joined, _fold_spec(hidden_dims), params, prefix)
    return tiled_pts + displacement
