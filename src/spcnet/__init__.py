"""Stepwise point-cloud completion: sampling, adaptive graph convolution,
iterative refinement, and cycle-consistent training, on a small numpy-backed
autodiff core."""

from .tensor import Tensor, backward, batch_norm, no_grad
from .rng import Rng
from .optim import AdamState, ParamSet, adam_step, zero_grads
from .gradcheck import finite_diff_check
from .geometry import (
    NeighborGraph,
    fps,
    knn,
    nearest_index,
    normalize_cloud,
    rps,
    viewpoint_split,
)
from .layers import LayerSpec, VmlpSpec
from .model import ModelConfig, StageOutputs, init_params, spcnet_forward
from .training import (
    EvalReport,
    LossWeights,
    TrainConfig,
    chamfer,
    cycle_total_loss,
    evaluate,
    stepwise_loss,
    train,
)
from .data import Dataset, generate_dataset, load_dataset, read_xyz, write_xyz
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "AdamState",
    "Checkpoint",
    "CheckpointError",
    "Dataset",
    "EvalReport",
    "LayerSpec",
    "LossWeights",
    "ModelConfig",
    "NeighborGraph",
    "ParamSet",
    "Rng",
    "StageOutputs",
    "Tensor",
    "TrainConfig",
    "VmlpSpec",
    "adam_step",
    "backward",
    "batch_norm",
    "chamfer",
    "cycle_total_loss",
    "evaluate",
    "finite_diff_check",
    "fps",
    "generate_dataset",
    "init_params",
    "knn",
    "load_checkpoint",
    "load_dataset",
    "nearest_index",
    "no_grad",
    "normalize_cloud",
    "read_xyz",
    "rps",
    "save_checkpoint",
    "spcnet_forward",
    "stepwise_loss",
    "train",
    "viewpoint_split",
    "write_xyz",
    "zero_grads",
]
