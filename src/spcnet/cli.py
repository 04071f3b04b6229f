"""Command surface: gen-data, train, complete, eval, ablate.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  All outputs are
deterministic under fixed seeds and inputs.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import SHAPE_KINDS, generate_dataset, load_dataset, read_json, read_xyz, write_xyz
from .model import LOSS_MODES, ModelConfig, config_value, spcnet_forward, stage_names
from .rng import Rng
from .tensor import Tensor, no_grad
from .training import LR_DECAYS, TrainConfig, evaluate, train

# ablation variant -> the model-config field values it trains, from the base ones
VARIANTS = {
    "scm1": lambda v: dict(v, scm_count=1, upsample_factors=(1,)),
    "scm2": lambda v: dict(v, scm_count=2, upsample_factors=(v["down_rate"], 1)),
    "pointnet-mlp": lambda v: dict(v, vmlp_kind="pointnet_mlp"),
    "one-subnet": lambda v: dict(v, vmlp_kind="one_subnet"),
    "no-agg": lambda v: dict(v, use_aggregation=False),
    "edge-conv": lambda v: dict(v, conv_kind="edge"),
    "rps": lambda v: dict(v, sampling_kind="rps"),
    "pnk-pn": lambda v: dict(v, partial_substitution="pnk-pn"),
    "pnkk-pn": lambda v: dict(v, partial_substitution="pnkk-pn"),
}


def _parse_viewpoint(text: str):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"viewpoint needs 3 coordinates, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"viewpoint coordinates must be finite, got {text!r}")
    return values


def _config_values(args) -> dict:
    """Every model-config field value but the point count: the defaults, then
    ``--config``, then ``--missing-ratio`` and ``--loss-mode``.  Each given
    value is checked against its field's own rule here, before any data is
    read; an error in a ``--config`` value names the file."""
    given = {}
    if args.config:
        given = read_json(args.config)
        if not isinstance(given, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    values = {f.name: f.default for f in dataclass_fields(ModelConfig)}
    unknown = set(given) - set(values)
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
    for name, value in given.items():
        try:
            values[name] = config_value(name, value)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    flags = {"missing_ratio": args.missing_ratio, "loss_mode": args.loss_mode}
    values.update((name, config_value(name, v)) for name, v in flags.items() if v is not None)
    return values


# -- subcommands --------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    kinds = [k.strip() for k in args.shapes.split(",") if k.strip()]
    generate_dataset(args.out, kinds, args.count, args.points, args.seed)
    print(f"wrote {args.count} shapes ({args.points} points each) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    """``train``, and ``ablate`` with ``args.variant`` set."""
    values = _config_values(args)
    given = {f.name: getattr(args, f.name) for f in dataclass_fields(TrainConfig)}
    train_config = TrainConfig(**{name: v for name, v in given.items() if v is not None})
    dataset = load_dataset(args.data)
    values["points_per_shape"] = dataset.shapes[0][1].shape[0]
    if args.variant:
        values = VARIANTS[args.variant](values)
    config = ModelConfig(**values)
    result = train(dataset, config, train_config)
    saved = []
    paths = (args.out, Path(args.out).with_suffix(".rev.spcn"))
    for (config, params, adam), path in zip(result.networks(), paths):
        save_checkpoint(Checkpoint(config=config, params=params, adam=adam, meta=result.meta), path)
        saved.append(str(path))
    lines = result.trace_lines()
    if args.trace:
        with open(args.trace, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(f"saved checkpoint(s): {', '.join(saved)}")
    return 0


def _cmd_complete(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    partial = read_xyz(getattr(args, "in"))
    if partial.shape[0] != ckpt.config.partial_count:
        raise ValueError(
            f"checkpoint expects a partial cloud of {ckpt.config.partial_count} "
            f"points, input has {partial.shape[0]}"
        )
    rng = Rng(args.seed) if ckpt.config.sampling_kind == "rps" else None
    with no_grad():
        out = spcnet_forward(Tensor(partial), ckpt.params, ckpt.config, rng=rng)
    union = np.concatenate([partial, out.final.data], axis=0)
    write_xyz(union, args.out)
    if args.emit_stages:
        stage_dir = Path(args.emit_stages)
        stage_dir.mkdir(parents=True, exist_ok=True)
        for name, stage in zip(stage_names(len(out.stages)), out.stages):
            write_xyz(stage.data, stage_dir / f"{name}.xyz")
    print(f"wrote {union.shape[0]} points to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    given = {"viewpoint": args.viewpoint, "seed": args.seed}
    report = evaluate(
        ckpt.params, ckpt.config, dataset, stagewise=args.stagewise,
        **{name: v for name, v in given.items() if v is not None},
    )
    csv = report.to_csv()
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(csv)
    print(csv, end="")
    return 0


# -- parser -------------------------------------------------------------------

def _add_train_flags(p) -> None:
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--missing-ratio", type=float, default=None)
    p.add_argument("--loss-mode", type=str.upper, choices=LOSS_MODES, default=None)
    p.add_argument("--config", default=None, help="JSON file of model-config overrides")
    p.add_argument("--trace", default=None, help="write the per-epoch loss trace here")
    # None: the TrainConfig default
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lr-decay", choices=LR_DECAYS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spcnet", description="stepwise point-cloud completion"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a procedural dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--shapes", default=",".join(SHAPE_KINDS),
                   help=f"comma-separated kinds from {SHAPE_KINDS}")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a completion network")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train, variant=None)

    p = sub.add_parser("complete", help="complete a partial cloud")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in", required=True, help="partial .xyz input")
    p.add_argument("--out", required=True, help="completed .xyz output")
    p.add_argument("--emit-stages", default=None, help="directory for stage dumps")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    # --viewpoint and --seed: None takes evaluate's default
    p.add_argument("--viewpoint", type=_parse_viewpoint, default=None)
    p.add_argument("--report", default=None, help="CSV output path")
    p.add_argument("--stagewise", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="train a named ablation variant")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
