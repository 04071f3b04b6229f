"""Neural building blocks for the completion network.

Point features travel as [n, d] tensors alongside [n, 3] coordinate tensors.
Graph structure (neighbor indices, sampling choices) is always computed from
raw coordinate values and treated as constant by the tape; feature and
coordinate values themselves stay differentiable end to end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import NeighborGraph, fps, knn, nearest_index, row_blocks
from .optim import ParamBuilder, ParamSet
from .tensor import Tensor, as_tensor

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


# The reference pass groups a reference's incoming edges in rows of at most
# this many, so that coincident points cannot widen every row to q * k.
# Measured on a 2-vCPU Xeon with one BLAS thread: the convs of two 256-point
# no-grad forwards took 17.3, 16.0, 16.0 and 15.8 ms at widths 4, 8, 16
# and 32, and four taped 2048-point stage convs 41.7-42.4 ms at 8 and
# 44.1-44.6 ms at 16.
_REF_WIDTH = 8
# The weights are laid out about this many kernel values (a unit's at
# least) at a time.  Measured on a 2-vCPU Xeon for a conv of 64 features
# and 256 outputs: the forward's layout took 203 ms in blocks of 32 outputs
# and 40 ms a unit at a time; the backward's 131 and 91 ms.
_LAYOUT_VALUES = 1 << 14


def _carve(*shapes) -> list:
    """Arrays of ``shapes`` cut from one allocation of whole MiB.

    Freed as one block, a forward's scratch stays with the allocator for
    the next forward.  Freed as several blocks of a similar size, glibc
    handed it back to the system at each return, and the next forward
    faulted its pages in again: 2193 page faults per 256-point no-grad
    forward, against none in one block.  In whole MiB, a conv's freed
    scratch fits the next one of about its size: unrounded, the pool2
    conv of a 2048-point forward (4.16 MiB of scratch, pool1's 4.11) took
    fresh heap, and ``infer_2k``'s peak RSS read about 3.5 MB higher in
    13 of 20 runs of ``perfbench/run.py``; rounded, in 2 of 20.
    """
    sizes = [math.prod(shape) for shape in shapes]
    work = np.empty(-(-sum(sizes) // (1 << 17)) << 17)  # float64s
    views, end = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(work[end : end + size].reshape(shape))
        end += size
    return views


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
    ``A = f_c W_c`` and ``B = f_r W_r``, laid out ``[n, units, m_out]``.
    The adaptive kernel's generator bias is a hidden unit fixed at 1, so
    an edge's response to output ``o`` is ``hid[e]·A[i, :, o] +
    hid[e]·B[j, :, o]``.  EdgeConv is the kernel with no generator units:
    its ``theta`` is the bias unit's row, the terms are ``A[i]`` and
    ``B[j]`` themselves, and its coordinates get no gradient.

    Forward makes both sides' terms with one routine over a block of edge
    groups, each group the edges of one owning point: it gathers the other
    side's generator inputs, adds the owner's, applies the leaky unit,
    multiplies by the owner's projection (the block's owners projected in
    one product) and adds the bias unit's row.  Both passes and the
    backward take their blocks by ``geometry.row_blocks``' one rule.  The
    reference pass groups the edges stably sorted by reference, in rows of
    at most ``_REF_WIDTH`` edges of one reference padded to a common width
    (a reference no edge reaches has no row), and writes the terms back in
    edge order, the one ``[q * k, m_out]`` array the forward holds whole.
    The centre pass groups each centre's neighbours, adds the reference
    terms, and keeps the max over neighbours; with a tape it keeps the
    argmax too (ties to the lowest neighbour slot).  Backward needs only
    the max edges: it recomputes their hidden units and responses from the
    inputs, and contracts with the weights before scattering to the
    references.
    """
    if kind not in CONVS:
        raise ValueError(f"unknown convolution kind {kind!r}")
    q, k = neighbors.shape
    r = ref_feats.shape[0]
    if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= r):
        raise IndexError(f"{kind} conv: neighbour index out of range for {r} rows")
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

    def factored_weights(layout):
        """[m_out, d, units] weights of the centre and reference projections,
        laid out in memory with that shape's axes in the order ``layout``,
        made from the generator's weight rows and bias row (recomputed in
        backward rather than held on the tape)."""
        shape = (m_out, d, units)
        w_c, w_r = (
            np.empty([shape[a] for a in layout]).transpose([layout.index(a) for a in range(3)])
            for _ in "cr"
        )
        # [units, m_out, d] views, filled from the [rows, m_out, 2d] kernel
        # rows: the generator's weight rows from unit 0, its bias row as the
        # last unit
        c_rows, r_rows = w_c.transpose(2, 0, 1), w_r.transpose(2, 0, 1)
        step = max(1, _LAYOUT_VALUES // (m_out * d))
        kernel = ((w1.reshape(-1, m_out, 2 * d), 0), (b1.reshape(1, m_out, 2 * d), units - 1))
        for rows, first in kernel:
            for u in range(0, rows.shape[0], step):
                block = rows[u : u + step]
                at = slice(first + u, first + u + block.shape[0])
                r_rows[at] = block[..., d:]
                np.subtract(block[..., :d], block[..., d:], out=c_rows[at])
        return w_c, w_r

    def generator_inputs():
        return xc @ w0_c + b0, xr @ w0_r

    # the weights as [d, units * m_out] views in memory order, whose
    # product gives a projection's rows (EdgeConv's read transposed, its
    # rows' bits moved with the block size)
    w_c, w_r = (w.transpose(1, 2, 0).reshape(d, -1) for w in factored_weights((1, 2, 0)))
    hid_c, hid_r = generator_inputs()

    # The reference pass takes each reference's incoming edges, in edge
    # order, in rows of ``width`` slots (a padding slot names edge q * k,
    # a spare row); ``row_ref`` names each row's reference.
    flat = neighbors.reshape(-1)
    # numpy sorts 16-bit keys by radix, 6x faster at 32768 edges
    order = np.argsort(flat.astype(np.uint16) if r <= 1 << 16 else flat, kind="stable")
    counts = np.bincount(flat, minlength=r)
    width = max(1, min(_REF_WIDTH, int(counts.max(initial=0))))
    ref_rows = -(-counts // width)
    row_ref = np.repeat(np.arange(r), ref_rows)
    slots = np.full((row_ref.size, width), q * k)
    first_slot = (np.cumsum(ref_rows) - ref_rows) * width - (np.cumsum(counts) - counts)
    slots.reshape(-1)[first_slot[flat[order]] + np.arange(flat.size)] = order

    # Both passes take their blocks in one set of buffers carved with the
    # reference terms.
    def blocks(rows, width):
        return row_blocks(rows, 8 * (units * m_out + width * (2 * units + m_out)))

    ref_blocks, centre_blocks = blocks(row_ref.size, width), blocks(q, k)
    spans = [(b.stop - b.start, width) for b in ref_blocks]
    spans += [(b.stop - b.start, k) for b in centre_blocks]
    block_edges = max(rows * n for rows, n in spans)
    ref_terms, proj_buf, pre_buf, tmp_buf, h_buf = _carve(
        (q * k + 1, m_out), (max(rows for rows, _ in spans), units * m_out),
        (block_edges, units - 1), (block_edges, units - 1), (block_edges, m_out),
    )

    def terms(owners, others, hid_own, hid_other, f_own, w):
        """[rows, width, m_out] terms of the edges from each point of
        ``owners`` to its row of ``others``, the other side's points."""
        n, width = others.shape
        proj = np.matmul(f_own[owners], w, out=proj_buf[:n]).reshape(n, units, m_out)
        pre, tmp = (buf[: n * width].reshape(n, width, units - 1) for buf in (pre_buf, tmp_buf))
        # "clip" skips take's buffered bounds check and maps the padding's
        # centre q to a real one; the neighbours were checked
        pre = np.take(hid_other, others, axis=0, out=pre, mode="clip")
        pre += hid_own[owners, None]
        np.maximum(pre, np.multiply(pre, EDGE_SLOPE, out=tmp), out=pre)  # leaky, as _hidden_units
        h = np.matmul(pre, proj[:, :-1], out=h_buf[: n * width].reshape(n, width, m_out))
        h += proj[:, -1:]  # the bias unit's term
        return h

    for rows in ref_blocks:
        edges = slots[rows]
        ref_terms[edges] = terms(row_ref[rows], edges // k, hid_r, hid_c, fr, w_r)
    ref_terms = ref_terms[:-1].reshape(q, k, m_out)

    # The centre pass adds each centre's terms to its edges' reference
    # terms and keeps the max over neighbours.
    taped = T.recording(parents)
    best = np.empty((q, m_out))
    arg = np.empty((q, m_out), dtype=np.intp) if taped else None
    later = np.empty(q * m_out, dtype=bool) if taped else None
    for rows in centre_blocks:
        h = terms(rows, neighbors[rows], hid_c, hid_r, fc, w_c)
        h += ref_terms[rows]
        # the max over neighbours a slot at a time, which numpy takes
        # faster than a reduction over the middle axis
        top = best[rows]
        top[:] = h[:, 0]
        if taped:
            at, greater = arg[rows], later[: top.size].reshape(top.shape)
            at[:] = 0
        for slot in range(1, k):
            if taped:  # ties to the lowest neighbour slot
                np.copyto(at, slot, where=np.greater(h[:, slot], top, out=greater))
            np.maximum(top, h[:, slot], out=top)
    out_data = best * _leaky_factor(best)

    def bwd(g):
        # leaky keeps the sign, so the output gives the slope at the max
        g_h = (g * _leaky_factor(out_data)).T[:, :, None]  # [m_out, q, 1]
        w_c, w_r = factored_weights((0, 1, 2))
        hid_c, hid_r = generator_inputs()
        g_fc = np.empty_like(fc)
        g_fr = np.zeros_like(fr)
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
        # takes 4x the rows of a 2 MB [m_out, max(units, d)] array, and at
        # least the 32-row floor.  At paper width the floor sets them (the
        # pool2 budget alone gives 15 rows).  Over 3 alternating pairs of
        # scripts/paper_scale_step.py on a 2-vCPU Xeon, the backward took
        # 12.1-12.2 s with the floor against 12.8-15.5 s without, and its
        # traced peak was 809 MB against 756 MB.
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
) -> Tensor:
    """Point-wise global feature from parallel MLP sub-nets.

    Each sub-net runs over the full coordinates and its last layer outputs
    (four, or one for ``pointnet_mlp``) are max-pooled, every sub-net's in
    one tape node, into one ``[subs, P]`` tensor that a shared linear layer
    adjusts row by row.  Each sub-net's code is repeated per point and
    joined to its share of the coordinate columns (one column each for
    three sub-nets, all three for one), giving ``[a0, x, a1, y, a2, z]`` or
    ``[a, x, y, z]``, and the joined rows pass through a final adaptive
    convolution over ``graph``, the cloud's graph on itself.
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
    return out


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
    code_rows = Tensor(np.repeat(codes, m, axis=0))
    tiled_pts = T.tile_rows(coarse_points, upsample_k)
    tiled_feats = T.tile_rows(point_feats, upsample_k)
    joined = T.concat([code_rows, tiled_feats, tiled_pts], axis=1)
    displacement = shared_mlp(joined, _fold_spec(hidden_dims), params, prefix)
    return tiled_pts + displacement
