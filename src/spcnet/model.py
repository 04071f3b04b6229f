"""The stepwise completion network: coarse stage plus a chain of refinement
modules, predicting the missing part of a partial cloud.

Row-order contract used throughout: whenever a partial cloud and a coarse
prediction are joined, the partial rows come first and the predicted rows
last, and the refinement module slices the trailing block back out.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from . import layers as L
from .geometry import NeighborGraph, fps, knn, rps
from .optim import ParamBuilder, ParamSet
from .rng import Rng
from .tensor import Tensor, as_tensor

CONV_KINDS = tuple(L.CONVS)
SAMPLING_KINDS = ("fps", "rps")
LOSS_MODES = ("1L", "2L", "4L")
PARTIAL_SUBSTITUTIONS = ("none", "pnk-pn", "pnkk-pn")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# type of a config field's default -> (test of a value, what it expects)
_VALUE_TYPES = {
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}

# config field -> (test of a value of its type, the rule it breaks)
_FIELD_RULES = {
    "missing_ratio": (lambda v: 0.0 < v < 1.0, "missing_ratio must be in (0, 1)"),
    "down_rate": (lambda v: v >= 1, "down_rate must be >= 1"),
    "scm_count": (lambda v: 1 <= v <= 3, "scm_count must be 1..3"),
    "upsample_factors": (lambda v: all(u >= 1 for u in v), "upsample factors must be >= 1"),
    "grid_count": (
        lambda v: v >= 1 and math.isqrt(v) ** 2 == v, "grid_count must be a positive perfect square"
    ),
    "grid_r": (np.isfinite, "grid_r must be finite"),
    "knn_k": (lambda v: v >= 1, "knn_k must be >= 1"),
    "width_scale": (lambda v: 0.0 < v < np.inf, "width_scale must be a positive finite number"),
}

# config field -> the values it may take
_CHOICES = {
    "conv_kind": CONV_KINDS, "vmlp_kind": L.VMLP_KINDS, "sampling_kind": SAMPLING_KINDS,
    "loss_mode": LOSS_MODES, "partial_substitution": PARTIAL_SUBSTITUTIONS,
}


def typed_value(name: str, value, kind: type):
    """``value`` as a config field ``name`` of type ``kind`` holds it (an int
    widens to a float, a list to a tuple); anything else is a ValueError."""
    accepts, expected = _VALUE_TYPES[kind]
    if not accepts(value):
        raise ValueError(
            f"config key {name}: expected {expected}, got {json.dumps(value, default=repr)}"
        )
    return kind(value)


def config_value(name: str, value):
    """``value`` as config field ``name`` holds it: of the type of the
    field's default (``typed_value``) and within the field's own rule."""
    value = typed_value(name, value, type(ModelConfig.__dataclass_fields__[name].default))
    if name in _FIELD_RULES and not _FIELD_RULES[name][0](value):
        raise ValueError(f"{_FIELD_RULES[name][1]}, got {value!r}")
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and ablation switches, checked when built: each field by
    ``config_value``, then the rules between fields.

    ``width_scale`` multiplies every layer width of the base schedule, which
    keeps the wiring topology fixed while shrinking runs to desk scale.
    Each default's type is the field's type (checkpoints decode by it).
    """

    points_per_shape: int = 2048
    missing_ratio: float = 0.5
    down_rate: int = 4
    scm_count: int = 3
    upsample_factors: tuple = (4, 4, 1)
    grid_count: int = 16
    grid_r: float = 0.05
    knn_k: int = 16
    conv_kind: str = "adapt"
    vmlp_kind: str = "vmlp"
    use_aggregation: bool = True
    sampling_kind: str = "fps"
    width_scale: float = 1.0
    loss_mode: str = "1L"
    partial_substitution: str = "none"

    # -- derived counts ----------------------------------------------------

    @property
    def missing_count(self) -> int:
        return int(round(self.missing_ratio * self.points_per_shape))

    @property
    def partial_count(self) -> int:
        return self.points_per_shape - self.missing_count

    @property
    def coarse_count(self) -> int:
        return self.missing_count // int(np.prod(self.upsample_factors))

    def stage_counts(self) -> list:
        """Point counts of (coarse, refinement 1, ..., refinement S)."""
        counts = [self.coarse_count]
        for factor in self.upsample_factors:
            counts.append(counts[-1] * factor)
        return counts

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, config_value(f.name, getattr(self, f.name)))
        if len(self.upsample_factors) != self.scm_count:
            raise ValueError(
                f"upsample_factors {self.upsample_factors} must have one entry "
                f"per refinement stage ({self.scm_count})"
            )
        for factor in self.upsample_factors:
            if factor > self.grid_count:
                raise ValueError(
                    f"upsample factor {factor} exceeds grid_count {self.grid_count}"
                )
        prod = int(np.prod(self.upsample_factors))
        if self.missing_count % prod != 0 or self.coarse_count < 1:
            raise ValueError(
                f"missing part of {self.missing_count} points is not divisible "
                f"by the upsample chain {self.upsample_factors}"
            )
        depth = self.down_rate ** (self.scm_count - 1)
        if self.partial_count % depth != 0 or self.partial_count // depth < 2:
            raise ValueError(
                f"partial input of {self.partial_count} points does not divide "
                f"by down-sampling rate {self.down_rate} over "
                f"{self.scm_count - 1} levels"
            )
        if self.partial_substitution == "pnkk-pn" and self.scm_count < 3:
            raise ValueError("pnkk-pn substitution needs the three-stage chain")
        if self.partial_substitution == "pnk-pn" and self.scm_count < 2:
            raise ValueError("pnk-pn substitution needs at least two stages")

    def reversed_ratio(self) -> "ModelConfig":
        """Config of the companion network completing the opposite part."""
        return replace(self, missing_ratio=1.0 - self.missing_ratio)


@dataclass(frozen=True)
class WidthSchedule:
    vmlp_sub: tuple
    vmlp_adjust: int
    global_width: int
    encoder: tuple
    local_feat: int
    fold_hidden: tuple
    coarse_enc: tuple
    coarse_hidden: int


def width_schedule(scale: float) -> WidthSchedule:
    def s(x: int) -> int:
        return max(1, int(round(x * scale)))

    return WidthSchedule(
        vmlp_sub=tuple(s(x) for x in (16, 32, 64, 64, 128)),
        vmlp_adjust=s(32),
        global_width=s(128),
        encoder=tuple(s(x) for x in (64, 128, 256)),
        local_feat=s(256),
        fold_hidden=(s(256), s(128)),
        coarse_enc=tuple(s(x) for x in (64, 128, 256)),
        coarse_hidden=s(256),
    )


def vmlp_spec(config: ModelConfig) -> L.VmlpSpec:
    w = width_schedule(config.width_scale)
    return L.VmlpSpec(
        sub_dims=w.vmlp_sub,
        adjust_width=w.vmlp_adjust,
        out_width=w.global_width,
        kind=config.vmlp_kind,
    )


def _aggregates(stage_index: int, config: ModelConfig) -> bool:
    """Whether refinement stage ``stage_index`` merges the previous stage's
    hand-off feature: every stage after the first, unless ablated."""
    return stage_index > 0 and config.use_aggregation


@dataclass
class StageOutputs:
    """Predicted clouds of every stage: ``stages[0]`` is the coarse
    prediction; each later entry is one refinement."""

    stages: list

    @property
    def final(self) -> Tensor:
        return self.stages[-1]

    def counts(self) -> list:
        return [s.shape[0] for s in self.stages]


def stage_names(count: int) -> list:
    """Names of a forward pass's ``count`` stages, coarse first: coarse, mid,
    fine, final for the full chain, else stage0, stage1, ..."""
    if count == 4:
        return ["coarse", "mid", "fine", "final"]
    return [f"stage{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def global_code(features: Tensor) -> Tensor:
    """Max-pool point features into a global code with zero mean and unit
    variance over its entries.

    A max-pool of activations is non-negative, or nearly so, with a common
    offset far larger than its variation between inputs.  Fed unnormalized
    into a ReLU layer, that offset alone sets the sign of each unit, which
    is then off, or on, for every input (or every row of a shape) alike.
    """
    pooled = T.reduce_max_rows(features).reshape(-1, 1)
    # the code's entries as the rows of one column
    return T.batch_norm(pooled, Tensor([1.0]), Tensor([0.0])).reshape(-1)


def coarse_stage(p_down: Tensor, params: ParamSet, config: ModelConfig) -> Tensor:
    """Encode the sparsest partial input to a global code and decode it with
    two linear layers into the coarse missing-part prediction."""
    p_down = as_tensor(p_down)
    if p_down.shape[0] < 2:
        raise ValueError(f"coarse_stage: need at least 2 points, got {p_down.shape[0]}")
    w = width_schedule(config.width_scale)
    enc = L.shared_mlp(p_down, L.LayerSpec(w.coarse_enc), params, "coarse.enc")
    code = global_code(enc).reshape(1, -1)
    hidden = T.linear(code, params["coarse.dec.l0.w"], params["coarse.dec.l0.b"], relu=True)
    flat = T.linear(hidden, params["coarse.dec.l1.w"], params["coarse.dec.l1.b"])
    return flat.reshape(config.coarse_count, 3)


def acm_forward(
    whole: Tensor,
    p_missing: Tensor,
    pointwise_global: Tensor,
    graph: NeighborGraph,
    upsample_k: int,
    params: ParamSet,
    prefix: str,
    config: ModelConfig,
) -> Tensor:
    """Graph-convolution encoder over the joined cloud's ``graph``, a detailed
    local feature of each predicted point, and a folding head over them.

    The encoder pools twice and interpolates both pooled features back onto
    the trailing block of predicted points (PointNet++'s feature
    propagation, only where the fold reads it).  Pool1's neighbours are
    read off ``graph``; pool2 and the interpolations search with ``knn``.
    """
    whole = as_tensor(whole)
    p_missing = as_tensor(p_missing)
    n = whole.shape[0]
    m = p_missing.shape[0]
    # equal_nan: a non-finite prediction is for the loss to report
    if m > n or not np.array_equal(whole.data[n - m:], p_missing.data, equal_nan=True):
        raise ValueError(
            f"{prefix}: joined cloud must end with the {m} predicted rows "
            "(row-order contract violated)"
        )
    w = width_schedule(config.width_scale)
    kind = config.conv_kind
    f0 = L.graph_conv(
        kind, whole, pointwise_global, graph, params, f"{prefix}.conv0", w.encoder[0]
    )
    _, c1, f1 = L.graph_pool(
        whole, f0, max(1, n // 2), config.knn_k, params, f"{prefix}.pool1",
        w.encoder[1], kind, graph,
    )
    _, c2, f2 = L.graph_pool(
        c1, f1, max(1, c1.shape[0] // 2), config.knn_k, params, f"{prefix}.pool2",
        w.encoder[2], kind,
    )
    code = global_code(f2)
    up1 = knn(p_missing.data, c1.data, min(3, c1.shape[0]), exclude_self=False)
    up2 = knn(p_missing.data, c2.data, min(3, c2.shape[0]), exclude_self=False)
    u1 = L.interpolate_up(p_missing, c1, f1, up1.neighbors)
    u2 = L.interpolate_up(p_missing, c2, f2, up2.neighbors)
    tail = np.arange(n - m, n)
    detail = T.concat(
        [T.gather_rows(f0, tail), u1, u2, T.tile_rows(code.reshape(1, -1), m)], axis=1
    )
    local = L.shared_mlp(
        detail, L.LayerSpec((w.local_feat,), use_bn=False), params, f"{prefix}.local"
    )
    return L.fold_decode(
        p_missing, local, upsample_k, config.grid_r, config.grid_count,
        params, f"{prefix}.fold", w.fold_hidden,
    )


def scm_forward(
    p_partial: Tensor,
    p_coarse: Tensor,
    prev_handoff,
    stage_index: int,
    params: ParamSet,
    config: ModelConfig,
):
    """One refinement stage: join partial and coarse clouds, build their graph
    on itself for the VMLP and the ACM, extract the point-wise global feature,
    merge the previous stage's hand-off when the stage aggregates, and emit
    the refined cloud plus this stage's hand-off (coordinates and feature)."""
    merge = _aggregates(stage_index, config)
    if merge and prev_handoff is None:
        raise ValueError(f"scm{stage_index}: previous hand-off feature required")
    whole = T.concat([as_tensor(p_partial), as_tensor(p_coarse)], axis=0)
    graph = knn(whole.data, whole.data, L.self_knn_k(config.knn_k, whole.shape[0]))
    f_hat = L.vmlp(whole, graph, params, f"scm{stage_index}.vmlp", vmlp_spec(config))
    if merge:
        prev_points, prev_feats = prev_handoff
        feat = L.aggregate_prev(
            whole, f_hat, prev_points, prev_feats, params, f"scm{stage_index}.agg"
        )
    else:
        feat = f_hat
    refined = acm_forward(
        whole, p_coarse, feat, graph, config.upsample_factors[stage_index],
        params, f"scm{stage_index}.acm", config,
    )
    return refined, (whole.data, feat)


def spcnet_forward(
    p_partial: Tensor,
    params: ParamSet,
    config: ModelConfig,
    rng: Rng | None = None,
) -> StageOutputs:
    """Full pipeline: multi-resolution sampling of the partial input, the
    coarse stage, then every refinement stage with feature hand-off."""
    p_partial = as_tensor(p_partial)
    if p_partial.shape[0] != config.partial_count:
        raise ValueError(
            f"expected a partial cloud of {config.partial_count} points, "
            f"got {p_partial.shape[0]}"
        )
    levels = [p_partial]
    for _ in range(config.scm_count - 1):
        target = levels[-1].shape[0] // config.down_rate
        if config.sampling_kind == "rps":
            if rng is None:
                raise ValueError("random point sampling needs an rng")
            idx = rps(levels[-1].data, target, rng)
        else:
            idx = fps(levels[-1].data, target)
        levels.append(T.gather_rows(levels[-1], idx))
    if config.partial_substitution == "pnk-pn" and len(levels) > 1:
        levels[1] = levels[0]
    elif config.partial_substitution == "pnkk-pn":
        levels[2] = levels[0]

    current = coarse_stage(levels[config.scm_count - 1], params, config)
    stages = [current]
    handoff = None
    for i in range(config.scm_count):
        partial = levels[config.scm_count - 1 - i]
        current, handoff = scm_forward(partial, current, handoff, i, params, config)
        stages.append(current)
    return StageOutputs(stages=stages)


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------

def init_params(config: ModelConfig, seed: int | None) -> ParamSet:
    """Every parameter of every stage, in a fixed walk order under one seed;
    ``seed=None`` draws nothing and leaves weights zero (the layout alone)."""
    w = width_schedule(config.width_scale)
    pb = ParamBuilder(None if seed is None else Rng(seed))

    enc_out = L.shared_mlp_params(pb, "coarse.enc", 3, L.LayerSpec(w.coarse_enc))
    pb.weight("coarse.dec.l0.w", enc_out, w.coarse_hidden)
    pb.bias("coarse.dec.l0.b", w.coarse_hidden)
    pb.weight("coarse.dec.l1.w", w.coarse_hidden, config.coarse_count * 3)
    pb.bias("coarse.dec.l1.b", config.coarse_count * 3)

    vspec = vmlp_spec(config)
    g = vspec.out_width
    conv_params = L.CONVS[config.conv_kind]
    for i in range(config.scm_count):
        L.vmlp_params(pb, f"scm{i}.vmlp", vspec)
        if _aggregates(i, config):
            L.aggregate_prev_params(pb, f"scm{i}.agg", g, g, g)
        conv_params(pb, f"scm{i}.acm.conv0", g, w.encoder[0])
        conv_params(pb, f"scm{i}.acm.pool1", w.encoder[0], w.encoder[1])
        conv_params(pb, f"scm{i}.acm.pool2", w.encoder[1], w.encoder[2])
        detail_width = w.encoder[0] + w.encoder[1] + 2 * w.encoder[2]
        L.shared_mlp_params(
            pb, f"scm{i}.acm.local", detail_width,
            L.LayerSpec((w.local_feat,), use_bn=False),
        )
        L.fold_decode_params(pb, f"scm{i}.acm.fold", w.local_feat, w.fold_hidden)
    return pb.entries
