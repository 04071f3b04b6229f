"""Losses, the cycle training loop, and evaluation.

The training objective compares every stage's prediction against a nested
farthest-point-sampled version of the true missing part; the cycle variants
additionally feed first-pass outputs back through the network and penalize
the round trip, with gradients flowing through the whole composition.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import partial
from typing import get_type_hints

import numpy as np

from . import tensor as T
from .geometry import fps, nearest_index, viewpoint_split
from .model import (
    LOSS_MODES, ModelConfig, StageOutputs, init_params, spcnet_forward, stage_names, typed_value,
)
from .optim import AdamState, ParamSet, adam_step, zero_grads
from .rng import Rng
from .tensor import Tensor, as_tensor, backward, no_grad

CUBE_CORNERS = np.array(
    [(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
)
LR_DECAYS = ("none", "cosine")

log = logging.getLogger(__name__)


def chamfer(a: Tensor, b: Tensor) -> Tensor:
    """Symmetric mean of squared nearest-neighbor distances between clouds.

    Differentiable with respect to both clouds; the nearest-neighbor
    assignment itself is held fixed, which is the true gradient almost
    everywhere.  One tape node.  The assignment comes from the blocked
    ``nearest_index`` in each direction, so no [|a|, |b|] distance matrix
    is built.  Value and gradients take the floating-point steps of the
    composite form (gather, difference, square, row sum and mean per side).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("chamfer: clouds must be non-empty")
    idx_ab = nearest_index(a.data, b.data)
    idx_ba = nearest_index(b.data, a.data)
    da = a.data - b.data[idx_ab]
    db = b.data - a.data[idx_ba]
    inv_a, inv_b = 1.0 / da.shape[0], 1.0 / db.shape[0]
    value = (da * da).sum(axis=1).sum() * inv_a + (db * db).sum(axis=1).sum() * inv_b

    def bwd(g):
        half_a, half_b = g * inv_a * da, g * inv_b * db
        g_da, g_db = half_a + half_a, half_b + half_b  # once per factor of d * d
        # new arrays, not in-place sums: each of g_da and g_db is read again
        # by the other cloud's scatter
        g_a = g_da + T.scatter_rows(idx_ba, -g_db, da.shape[0])
        g_b = g_db + T.scatter_rows(idx_ab, -g_da, db.shape[0])
        a._accumulate(g_a, owned=True)
        b._accumulate(g_b, owned=True)

    return Tensor._node(value, (a, b), bwd)


def nested_targets(p_missing: np.ndarray, counts) -> list:
    """One target cloud per stage count, sampled by a nested FPS chain."""
    p_missing = np.asarray(p_missing, dtype=np.float64)
    by_count = {p_missing.shape[0]: p_missing}
    current = p_missing
    for c in sorted(set(counts), reverse=True):
        if c > current.shape[0]:
            raise ValueError(
                f"nested_targets: stage count {c} exceeds missing part size "
                f"{p_missing.shape[0]}"
            )
        if c not in by_count:
            current = current[fps(current, c)]
            by_count[c] = current
        else:
            current = by_count[c]
    return [by_count[c] for c in counts]


@dataclass(frozen=True)
class LossWeights:
    alpha: tuple = (1.0, 1.0, 1.0, 1.0)
    beta: tuple = (1.0, 0.5)

    def __post_init__(self):
        if any(a < 0 for a in self.alpha) or any(b < 0 for b in self.beta):
            raise ValueError("loss weights must be non-negative")
        if not any(self.alpha) or not any(self.beta):
            raise ValueError("loss weights must not be all zero")


def stepwise_loss(outputs: StageOutputs, targets, weights: LossWeights) -> Tensor:
    """Weighted sum of per-stage Chamfer distances against matching targets."""
    stages = outputs.stages
    if len(targets) != len(stages):
        raise ValueError(
            f"stepwise_loss: {len(stages)} stages but {len(targets)} targets"
        )
    if len(stages) > len(weights.alpha):
        raise ValueError(
            f"stepwise_loss: {len(stages)} stages exceed the {len(weights.alpha)} "
            "stage weights"
        )
    total = None
    for stage, target, alpha in zip(stages, targets, weights.alpha):
        target = np.asarray(target, dtype=np.float64)
        if stage.shape[0] != target.shape[0]:
            raise ValueError(
                f"stepwise_loss: stage has {stage.shape[0]} points but target "
                f"has {target.shape[0]}"
            )
        term = chamfer(stage, Tensor(target)) * alpha
        total = term if total is None else total + term
    return total


def cycle_total_loss(
    complete_from_partial,
    complete_from_missing,
    p_partial: np.ndarray,
    p_missing: np.ndarray,
    weights: LossWeights,
    loss_mode: str,
):
    """Direct and cycle losses over one shape.

    ``complete_from_partial`` maps a partial-side cloud to StageOutputs
    predicting the missing side; ``complete_from_missing`` is the companion
    direction (the same network when the split is symmetric).  Mode 1L keeps
    only the direct missing-side loss; 2L both direct losses; 4L adds the two
    cycle losses, whose passes consume first-pass outputs as fresh inputs so
    gradients flow through the full composition.

    Returns (total, components) with components keyed loss1..loss4.  Each
    direction's targets are sampled once: its cycle pass runs the same
    network, so its stage counts match the direct pass.
    """
    if loss_mode not in LOSS_MODES:
        raise ValueError(f"unknown loss mode {loss_mode!r}")
    beta1, beta2 = weights.beta

    out_missing = complete_from_partial(Tensor(p_partial))
    missing_targets = nested_targets(p_missing, out_missing.counts())
    loss1 = stepwise_loss(out_missing, missing_targets, weights)
    if loss_mode == "1L":
        return loss1, {"loss1": loss1.item()}

    out_partial = complete_from_missing(Tensor(p_missing))
    partial_targets = nested_targets(p_partial, out_partial.counts())
    loss2 = stepwise_loss(out_partial, partial_targets, weights)
    direct = loss1 + loss2
    if loss_mode == "2L":
        total = direct * beta1
        return total, {"loss1": loss1.item(), "loss2": loss2.item()}

    loss4 = stepwise_loss(complete_from_partial(out_partial.final), missing_targets, weights)
    loss3 = stepwise_loss(complete_from_missing(out_missing.final), partial_targets, weights)
    total = direct * beta1 + (loss3 + loss4) * beta2
    return total, {
        "loss1": loss1.item(),
        "loss2": loss2.item(),
        "loss3": loss3.item(),
        "loss4": loss4.item(),
    }


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Training-run settings, checked when built: each field's type by
    ``model.typed_value``, then its range or choice."""

    epochs: int
    batch_size: int = 24
    lr: float = 1e-4
    seed: int = 0
    lr_decay: str = "none"  # one of LR_DECAYS

    def __post_init__(self):
        for name, kind in get_type_hints(TrainConfig).items():
            object.__setattr__(self, name, typed_value(name, getattr(self, name), kind))
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be a positive finite number, got {self.lr}")
        if self.lr_decay not in LR_DECAYS:
            raise ValueError(f"lr_decay must be one of {LR_DECAYS}, got {self.lr_decay!r}")

    def lr_at(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch; cosine decays to 2% of lr."""
        if self.lr_decay == "none" or self.epochs == 1:
            return self.lr
        floor = 0.02 * self.lr
        phase = (epoch - 1) / (self.epochs - 1)
        return floor + 0.5 * (self.lr - floor) * (1.0 + np.cos(np.pi * phase))


@dataclass
class TrainResult:
    params: ParamSet
    adam: AdamState
    config: ModelConfig
    trace: list
    meta: dict
    reverse_params: ParamSet | None = None
    reverse_adam: AdamState | None = None
    reverse_config: ModelConfig | None = None

    def networks(self) -> list:
        """(config, params, adam) of each trained network, forward first."""
        trained = [(self.config, self.params, self.adam)]
        if self.reverse_params is not None:
            trained.append((self.reverse_config, self.reverse_params, self.reverse_adam))
        return trained

    def trace_lines(self) -> list:
        lines = []
        for row in self.trace:
            epoch, *values = row.values()
            lines.append(",".join([str(epoch)] + [f"{v:.9g}" for v in values]))
        return lines


def train(dataset, model_config: ModelConfig, train_config: TrainConfig) -> TrainResult:
    """Optimize the network(s) on a dataset of complete shapes.

    Per epoch and shape a viewpoint is drawn from the eight cube corners, the
    shape is split at the configured ratio, and the configured loss applies;
    per-shape losses are averaged over a batch before each Adam step.  Each
    shape back-propagates as soon as it is scored, so a step holds one
    shape's tape at a time.
    Asymmetric splits under the cycle modes train a second network, seeded
    ``seed + 1``, for the reverse direction jointly; otherwise one network
    serves both directions.  Each trace row holds the epoch, the mean of each
    loss ``cycle_total_loss`` returns, in its order, and the mean total.  A
    non-finite loss stops training with a ValueError naming the (1-based)
    epoch and the (0-based) shape index.
    """
    shapes = dataset.shapes
    if not shapes:
        raise ValueError("train: dataset is empty")
    weights = LossWeights()
    rng = Rng(train_config.seed)
    sampling_rng = rng.spawn()

    configs = [model_config]
    if model_config.loss_mode != "1L" and model_config.missing_count != model_config.partial_count:
        configs.append(model_config.reversed_ratio())
    networks = []  # (config, params, adam), forward first
    for offset, config in enumerate(configs):
        params = init_params(config, train_config.seed + offset)
        networks.append((config, params, AdamState.for_params(params)))
    forwards = [
        partial(spcnet_forward, params=params, config=config, rng=sampling_rng)
        for config, params, _ in networks
    ]

    trace = []
    for epoch in range(1, train_config.epochs + 1):
        epoch_start = time.perf_counter()
        sums = {}
        for start in range(0, len(shapes), train_config.batch_size):
            batch = shapes[start:start + train_config.batch_size]
            for _, params, _ in networks:
                zero_grads(params)
            for index, (_, points) in enumerate(batch, start=start):
                corner = CUBE_CORNERS[rng.randrange(len(CUBE_CORNERS))]
                p_n, p_m = viewpoint_split(points, corner, model_config.missing_ratio)
                loss, components = cycle_total_loss(
                    forwards[0], forwards[-1], p_n, p_m, weights, model_config.loss_mode,
                )
                value = loss.item()
                if not np.isfinite(value):
                    raise ValueError(f"epoch {epoch}, shape {index}: non-finite loss")
                # one shape's tape at a time: gradients add up in the leaves
                backward(loss * (1.0 / len(batch)))
                for k, v in {**components, "total": value}.items():
                    sums[k] = sums.get(k, 0.0) + v
            lr = train_config.lr_at(epoch)
            for _, params, adam in networks:
                adam_step(params, adam, lr=lr)
        trace.append({"epoch": epoch, **{k: s / len(shapes) for k, s in sums.items()}})
        if log.isEnabledFor(logging.INFO):
            stepped = [p for _, params, _ in networks for p in params.values()]
            grad_norm = np.sqrt(sum(np.vdot(p.grad, p.grad) for p in stepped))
            log.info(
                "epoch %d: %.3f s, lr %.6g, grad norm %.6g (last step)",
                epoch, time.perf_counter() - epoch_start, lr, grad_norm,
            )

    meta = {
        "epochs": str(train_config.epochs),
        "seed": str(train_config.seed),
        "loss_mode": model_config.loss_mode,
    }
    (config, params, adam), *reverse = networks
    rev_config, rev_params, rev_adam = reverse[0] if reverse else (None, None, None)
    return TrainResult(
        params=params,
        adam=adam,
        config=config,
        trace=trace,
        meta=meta,
        reverse_params=rev_params,
        reverse_adam=rev_adam,
        reverse_config=rev_config,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Per-category mean Chamfer distances (x1000) plus the overall mean."""

    columns: tuple
    per_category: list = field(default_factory=list)  # (category, count, values)
    overall: tuple = ()

    def to_csv(self) -> str:
        lines = ["category,count," + ",".join(self.columns)]
        for category, count, values in self.per_category:
            lines.append(
                f"{category},{count}," + ",".join(f"{v:.9g}" for v in values)
            )
        total = sum(count for _, count, _ in self.per_category)
        lines.append(f"overall,{total}," + ",".join(f"{v:.9g}" for v in self.overall))
        return "\n".join(lines) + "\n"


def shape_errors(params: ParamSet, config: ModelConfig, points, viewpoint, stagewise, rng):
    """Split ``points`` at ``viewpoint``, complete the partial side without a
    tape, and score it: the Chamfer distance x1000 between the predicted and
    the true whole shape or, with ``stagewise``, one per stage against the
    nested targets sampled from the true missing part.  ``rng`` drives the
    sampling of an ``rps`` network (``None`` for fps)."""
    with no_grad():
        p_n, p_m = viewpoint_split(points, viewpoint, config.missing_ratio)
        out = spcnet_forward(Tensor(p_n), params, config, rng=rng)
        if stagewise:
            pairs = zip(out.stages, nested_targets(p_m, out.counts()))
        else:
            pairs = [(np.concatenate([p_n, out.final.data]), np.concatenate([p_n, p_m]))]
        return tuple(chamfer(pred, Tensor(true)).item() * 1000.0 for pred, true in pairs)


def evaluate(
    params: ParamSet,
    config: ModelConfig,
    dataset,
    viewpoint=(1.0, 1.0, 1.0),
    stagewise: bool = False,
    seed: int = 0,
) -> EvalReport:
    """``shape_errors`` of every shape at one viewpoint, averaged per category
    and overall.  An ``rps`` network samples shape ``i`` with ``Rng(seed + i)``.
    """
    shapes = dataset.shapes
    if not shapes:
        raise ValueError("evaluate: dataset is empty")
    if shapes[0][1].shape[0] != config.points_per_shape:
        raise ValueError(
            f"evaluate: checkpoint expects {config.points_per_shape} points per "
            f"shape, dataset has {shapes[0][1].shape[0]}"
        )
    values = [
        shape_errors(
            params, config, points, viewpoint, stagewise,
            Rng(seed + index) if config.sampling_kind == "rps" else None,
        )
        for index, (_, points) in enumerate(shapes)
    ]

    if stagewise:
        columns = tuple(f"cd_{name}" for name in stage_names(len(values[0])))
    else:
        columns = ("cd_x1000",)

    by_category: dict = {}
    for (category, _), vals in zip(shapes, values):
        by_category.setdefault(category, []).append(vals)
    per_category = []
    for category in sorted(by_category):
        rows = np.array(by_category[category])
        per_category.append((category, rows.shape[0], tuple(rows.mean(axis=0))))
    all_rows = np.array(values)
    overall = tuple(all_rows.mean(axis=0))
    return EvalReport(columns=columns, per_category=per_category, overall=overall)
