#!/usr/bin/env python3
"""Train every ablation variant on a small procedural set and tabulate the
whole-shape completion error of each.

Desk-scale analogue of the variant comparisons: absolute numbers depend on
the tiny budget, the point is the relative ordering and that every switch
runs end to end.
"""
import argparse
import time
from dataclasses import fields

from spcnet.cli import VARIANTS
from spcnet.data import SHAPE_KINDS, generate_shapes
from spcnet.model import ModelConfig
from spcnet.training import TrainConfig, evaluate, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--shapes", type=int, default=8)
    parser.add_argument("--points", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lr", type=float, default=3e-3)
    parser.add_argument(
        "--variants", default="baseline," + ",".join(VARIANTS),
        help="comma-separated subset to run",
    )
    args = parser.parse_args()

    dataset = generate_shapes(SHAPE_KINDS, args.shapes, args.points, args.seed)
    base = {f.name: f.default for f in fields(ModelConfig)}
    base.update(points_per_shape=args.points, width_scale=0.125, knn_k=8)
    train_config = TrainConfig(
        epochs=args.epochs, batch_size=args.shapes, lr=args.lr, seed=args.seed
    )

    print(f"{'variant':14s} {'cd_x1000':>10s} {'minutes':>8s}")
    for name in [v.strip() for v in args.variants.split(",") if v.strip()]:
        config = ModelConfig(**(base if name == "baseline" else VARIANTS[name](base)))
        started = time.time()
        result = train(dataset, config, train_config)
        report = evaluate(result.params, result.config, dataset)
        minutes = (time.time() - started) / 60.0
        print(f"{name:14s} {report.overall[0]:10.3f} {minutes:8.1f}")


if __name__ == "__main__":
    main()
