#!/usr/bin/env python3
"""Time one training step of the paper-scale network on one shape.

The default ModelConfig (2048 points, width_scale 1.0, knn_k 16, 1L loss):
one procedural shape is split at a cube corner, scored by the training loss,
and back-propagated. Prints the parameter count, the init time and the
process's peak resident memory right after init, the loss (in full, so two
runs can be compared to the last bit), the forward and backward wall times,
and three figures of the memory ``tracemalloc`` traces (the parameters, made
before tracing starts, are not in it; their gradients are): the forward's
peak, what the forward leaves held (the tape and the loss), and the
backward's own peak.

    PYTHONPATH=src python3 scripts/paper_scale_step.py
"""
import argparse
import resource
import time
import tracemalloc

from spcnet.data import generate_shapes
from spcnet.geometry import viewpoint_split
from spcnet.model import ModelConfig, init_params, spcnet_forward
from spcnet.tensor import backward
from spcnet.training import LossWeights, cycle_total_loss


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shape", default="torus")
    args = parser.parse_args()

    config = ModelConfig()
    started = time.perf_counter()
    params = init_params(config, args.seed)
    init_s = time.perf_counter() - started
    init_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    (_, points), = generate_shapes([args.shape], 1, config.points_per_shape, args.seed).shapes
    p_n, p_m = viewpoint_split(points, (1.0, 1.0, 1.0), config.missing_ratio)

    def forward(cloud):
        return spcnet_forward(cloud, params, config)

    tracemalloc.start()
    started = time.perf_counter()
    loss, _ = cycle_total_loss(forward, forward, p_n, p_m, LossWeights(), config.loss_mode)
    forward_s = time.perf_counter() - started
    tape_mb, forward_peak_mb = (b / 2**20 for b in tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()
    started = time.perf_counter()
    backward(loss)
    backward_s = time.perf_counter() - started
    backward_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    count = sum(p.data.size for p in params.values())
    print(
        f"parameters {count / 1e6:.1f} M ({count * 8 / 2**20:.0f} MB; init {init_s:.1f} s, "
        f"peak RSS after init {init_rss_mb:.0f} MB), loss {loss.item()!r}"
    )
    print(f"forward {forward_s:.2f} s, backward {backward_s:.2f} s")
    print(
        f"traced: forward peak {forward_peak_mb:.0f} MB, tape after forward {tape_mb:.0f} MB, "
        f"backward peak {backward_peak_mb:.0f} MB"
    )


if __name__ == "__main__":
    main()
