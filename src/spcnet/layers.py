"""Neural building blocks for the completion network.

Point features travel as [n, d] tensors alongside [n, 3] coordinate tensors.
Graph structure (neighbor indices, sampling choices) is always computed from
raw coordinate values and treated as constant by the tape; feature and
coordinate values themselves stay differentiable end to end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import NeighborGraph, fps, knn, nearest_index
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
    """Per-point linear -> batch_norm -> relu stack.

    Normalization uses the statistics of the rows at hand, so the map is a
    pure function of (input, params).  With ``collect`` the per-layer outputs
    come back too.
    """
    x = as_tensor(x)
    outputs = []
    for i in range(len(spec.dims)):
        if _layer_has_post(spec, i):
            if spec.use_bn:
                x = T.matmul(x, params[f"{prefix}.l{i}.w"])
                x = T.batch_norm(
                    x, params[f"{prefix}.l{i}.bn.gamma"], params[f"{prefix}.l{i}.bn.beta"]
                )
            else:
                x = T.linear(x, params[f"{prefix}.l{i}.w"], params[f"{prefix}.l{i}.b"])
            x = T.relu(x)
        else:
            x = T.linear(x, params[f"{prefix}.l{i}.w"], params[f"{prefix}.l{i}.b"])
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


def _edge_inputs(center_coords, center_feats, ref_coords, ref_feats, neighbors):
    """Per-edge [x_i, x_j - x_i] and [f_i, f_j - f_i] blocks, center-major."""
    q, k = neighbors.shape
    idx_center = np.repeat(np.arange(q, dtype=np.intp), k)
    idx_neigh = neighbors.reshape(-1)
    x_i = T.gather_rows(center_coords, idx_center)
    x_j = T.gather_rows(ref_coords, idx_neigh)
    f_i = T.gather_rows(center_feats, idx_center)
    f_j = T.gather_rows(ref_feats, idx_neigh)
    dx = T.concat([x_i, x_j - x_i], axis=1)
    df = T.concat([f_i, f_j - f_i], axis=1)
    return dx, df


def _adapt_edge_response(dx: Tensor, df: Tensor, params: ParamSet, prefix: str, m_out: int) -> Tensor:
    """Edge responses of the adaptive kernel: per edge, m_out kernel blocks of
    width 2D are generated from the coordinate pair and dotted with the
    feature pair."""
    n_edges, two_d = df.shape
    hidden = T.leaky_relu(
        T.linear(dx, params[f"{prefix}.g.l0.w"], params[f"{prefix}.g.l0.b"]), EDGE_SLOPE
    )
    kernels = T.linear(hidden, params[f"{prefix}.g.l1.w"], params[f"{prefix}.g.l1.b"])
    blocks = kernels.reshape(n_edges, m_out, two_d)
    h = (blocks * df.reshape(n_edges, 1, two_d)).sum(axis=2)
    return T.leaky_relu(h, EDGE_SLOPE)


def _edge_response(dx: Tensor, df: Tensor, params: ParamSet, prefix: str, m_out: int) -> Tensor:
    """Fixed shared kernel applied to the feature pair (the ablation baseline)."""
    return T.leaky_relu(T.matmul(df, params[f"{prefix}.theta"]), EDGE_SLOPE)


# Graph convolutions by ``ModelConfig.conv_kind``: AdaptConv (Zhou et al., ICCV
# 2021) and EdgeConv (Wang et al., DGCNN) as (builder(pb, prefix, feat_width,
# m_out), edge response(dx, df, params, prefix, m_out) -> [edges, m_out]).
CONVS = {
    "adapt": (adaptconv_params, _adapt_edge_response),
    "edge": (edgeconv_params, _edge_response),
}


def _conv_over_edges(
    kind, center_coords, center_feats, ref_coords, ref_feats, neighbors, params, prefix, m_out
) -> Tensor:
    if kind not in CONVS:
        raise ValueError(f"unknown convolution kind {kind!r}")
    dx, df = _edge_inputs(center_coords, center_feats, ref_coords, ref_feats, neighbors)
    _, edge_response = CONVS[kind]
    h = edge_response(dx, df, params, prefix, m_out)
    return T.group_max_rows(h, neighbors.shape[1])


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
) -> tuple[Tensor, Tensor]:
    """Reduce the cloud to ``pool_n`` points chosen by farthest point sampling,
    re-aggregating each kept point's feature by one graph convolution over its
    k nearest neighbors in the original cloud (the point itself included as a
    zero-distance neighbor)."""
    coords, features = as_tensor(coords), as_tensor(features)
    n = coords.shape[0]
    if pool_n > n:
        raise ValueError(f"graph_pool: pool_n {pool_n} exceeds point count {n}")
    idx = fps(coords.data, pool_n)
    kept_coords = T.gather_rows(coords, idx)
    kept_feats = T.gather_rows(features, idx)
    k_eff = max(1, min(k, n))
    graph = knn(kept_coords.data, coords.data, k_eff, exclude_self=False)
    new_feats = _conv_over_edges(
        kind, kept_coords, kept_feats, coords, features, graph.neighbors, params, prefix, out_width
    )
    return kept_coords, new_feats


def interpolate_up(
    query_coords: Tensor,
    support_coords: Tensor,
    support_feats: Tensor,
    k: int = 3,
) -> Tensor:
    """Inverse-distance weighted feature pull from the k nearest support
    points.

    The neighbor choice is fixed by the coordinate values, but the weights
    stay on the tape, so gradients flow into the features and both coordinate
    sets.
    """
    query_coords = as_tensor(query_coords)
    support_coords = as_tensor(support_coords)
    support_feats = as_tensor(support_feats)
    s = support_coords.shape[0]
    if s < k:
        raise ValueError(f"interpolate_up: need at least k={k} support points, have {s}")
    graph = knn(query_coords.data, support_coords.data, k, exclude_self=False)
    m = query_coords.shape[0]
    idx_q = np.repeat(np.arange(m, dtype=np.intp), k)
    idx_s = graph.neighbors.reshape(-1)
    diff = T.gather_rows(query_coords, idx_q) - T.gather_rows(support_coords, idx_s)
    # the inner guard keeps sqrt differentiable at exact coincidence
    dist = ((diff * diff).sum(axis=1).reshape(m * k, 1) + 1e-16).sqrt()
    w = 1.0 / (dist + 1e-8)
    denom = T.gather_rows(T.group_sum_rows(w, k), idx_q)
    contrib = T.gather_rows(support_feats, idx_s) * (w / denom)
    return T.group_sum_rows(contrib, k)


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
    """(sub-net count, per-sub dims, pooled width, adjust out, conv feat width)."""
    if spec.kind == "vmlp":
        dims = spec.sub_dims
        return 3, dims, sum(dims[-4:]), spec.adjust_width, 3 * (spec.adjust_width + 1)
    if spec.kind == "pointnet_mlp":
        dims = spec.sub_dims
        return 1, dims, dims[-1], spec.adjust_width, spec.adjust_width + 3
    dims = tuple(3 * d for d in spec.sub_dims)
    adjust = 3 * spec.adjust_width
    return 1, dims, sum(dims[-4:]), adjust, adjust + 3


def vmlp_params(pb: ParamBuilder, prefix: str, spec: VmlpSpec) -> None:
    n_subs, dims, pooled, adjust, conv_feat = _vmlp_layout(spec)
    for s in range(n_subs):
        shared_mlp_params(pb, f"{prefix}.sub{s}", 3, LayerSpec(dims))
    pb.weight(f"{prefix}.adjust.w", pooled, adjust)
    pb.bias(f"{prefix}.adjust.b", adjust)
    adaptconv_params(pb, f"{prefix}.conv", conv_feat, spec.out_width)


def vmlp(
    points: Tensor,
    graph: NeighborGraph,
    params: ParamSet,
    prefix: str,
    spec: VmlpSpec,
    return_pooled: bool = False,
):
    """Point-wise global feature from parallel MLP sub-nets.

    Each sub-net runs over the full coordinates; the last four layer outputs
    are max-pooled and concatenated, adjusted by a linear layer, repeated per
    point, paired with one coordinate column, and the joined blocks pass
    through a final adaptive convolution over ``graph``, the cloud's graph
    on itself.
    """
    points = as_tensor(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"vmlp: need at least 2 points, got {n}")
    n_subs, dims, _, _, _ = _vmlp_layout(spec)

    pooled_vectors = []
    blocks = []
    for s in range(n_subs):
        _, per_layer = shared_mlp(
            points, LayerSpec(dims), params, f"{prefix}.sub{s}", collect=True
        )
        if spec.kind == "pointnet_mlp":
            pooled = T.reduce_max_rows(per_layer[-1])
        else:
            pooled = T.concat([T.reduce_max_rows(o) for o in per_layer[-4:]], axis=0)
        pooled_vectors.append(pooled)
        adjusted = T.linear(
            pooled.reshape(1, -1), params[f"{prefix}.adjust.w"], params[f"{prefix}.adjust.b"]
        )
        repeated = T.tile_rows(adjusted, n)
        if spec.kind == "vmlp":
            blocks.append(T.concat([repeated, T.slice_cols(points, s, s + 1)], axis=1))
        else:
            blocks.append(T.concat([repeated, points], axis=1))
    per_point = T.concat(blocks, axis=1) if len(blocks) > 1 else blocks[0]
    out = graph_conv("adapt", points, per_point, graph, params, f"{prefix}.conv", spec.out_width)
    return (out, pooled_vectors) if return_pooled else out


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
    hidden_dims: tuple = (256, 128),
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
