#!/usr/bin/env python3
"""Overfit the completion network on a handful of procedural shapes.

Reproduces the desk-scale sanity experiment: 8 shapes, 256 points each,
half missing, 300 epochs. Prints the loss trace and the final/epoch-1 ratio,
and reports per-stage errors on the training shapes afterwards.
"""
import argparse
import time

from spcnet.data import SHAPE_KINDS, generate_shapes
from spcnet.model import LOSS_MODES, ModelConfig
from spcnet.training import LR_DECAYS, TrainConfig, shape_errors, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--shapes", type=int, default=8)
    parser.add_argument("--points", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lr", type=float, default=5e-3)
    parser.add_argument("--lr-decay", choices=LR_DECAYS, default="cosine")
    parser.add_argument("--width-scale", type=float, default=0.125)
    parser.add_argument("--loss-mode", choices=LOSS_MODES, default="1L")
    parser.add_argument("--trace", default=None, help="write the loss trace here")
    args = parser.parse_args()

    dataset = generate_shapes(SHAPE_KINDS, args.shapes, args.points, args.seed)
    config = ModelConfig(
        points_per_shape=args.points, width_scale=args.width_scale, knn_k=8,
        loss_mode=args.loss_mode,
    )
    train_config = TrainConfig(
        epochs=args.epochs, batch_size=4, lr=args.lr, seed=args.seed,
        lr_decay=args.lr_decay,
    )

    started = time.time()
    result = train(dataset, config, train_config)
    runtime = time.time() - started

    lines = result.trace_lines()
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines[:: max(1, args.epochs // 20)]:
        print(line)
    totals = [row["total"] for row in result.trace]
    print(f"\nruntime: {runtime / 60:.1f} min")
    print(f"epoch-1 loss {totals[0]:.4f} -> final {totals[-1]:.4f} "
          f"(ratio {totals[-1] / totals[0]:.3f})")

    print("\nper-stage CD x1000 on the training shapes (viewpoint (1,1,1)):")
    for category, pts in dataset.shapes:
        cds = shape_errors(result.params, config, pts, (1.0, 1.0, 1.0), stagewise=True, rng=None)
        print(f"  {category:10s} " + "  ".join(f"{c:8.3f}" for c in cds))


if __name__ == "__main__":
    main()
