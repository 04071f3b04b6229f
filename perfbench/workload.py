"""One workload run in its own process: set up, measure, check, report.

Started by ``perfbench/run.py``, which pins the thread pools and removes
``SPCNET_THREADS`` first.  The last line of standard output is one JSON
object with the samples, the end-to-end metrics, the outputs used by the
cross-run checks and, with ``--trace``, the per-layer metrics.

The program is driven only through its public functions, looked up on their
modules at call time so that the tracer's wrappers apply.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import spcnet  # noqa: E402
from spcnet import checkpoint, data, geometry, model, tensor, training  # noqa: E402

from tracer import Tracer  # noqa: E402

if Path(spcnet.__file__).resolve().parent != SRC / "spcnet":
    raise SystemExit(f"error: spcnet imported from {spcnet.__file__}, not {SRC}")

SETUPS = 3  # set-ups per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Spec:
    kind: str  # "train" | "infer"
    shapes: int
    config: dict
    batch: int = 0
    lr: float = 0.0
    epochs: int = 0  # epochs per timed train() call
    min_calls: int = 0  # train() calls or shapes, whatever the clock says
    eval_shapes: int = 0  # infer: shapes in the evaluate call


TOY = {"points_per_shape": 256, "width_scale": 0.125, "knn_k": 8}
SPECS = {
    "train_1l": Spec("train", 8, TOY, batch=8, lr=3e-3, epochs=3, min_calls=3),
    "train_4l_asym": Spec(
        "train", 4, {**TOY, "missing_ratio": 0.25, "loss_mode": "4L"},
        batch=2, lr=3e-3, epochs=1, min_calls=3,
    ),
    "infer_2k": Spec(
        "infer", 4, {"points_per_shape": 2048, "width_scale": 0.125, "knn_k": 16},
        min_calls=5, eval_shapes=4,
    ),
}


def tail(samples):
    """(value, percentile, samples beyond it): the highest ladder percentile
    with at least ten samples beyond it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        beyond = math.floor(n * (1.0 - p / 100.0))
        if beyond >= 10:
            return ordered[max(0, math.ceil(p / 100.0 * n) - 1)], p, beyond
    return ordered[-1], 100.0, 0


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class StepClock:
    """Optimizer-step boundaries inside ``training.train``.

    A step opens at the first ``zero_grads`` call and closes with the
    ``adam_step`` call that matches the last of them, so a step that updates
    a second (reverse) parameter set is still one step.
    """

    def __init__(self):
        self.active = False
        self.samples = []
        self._start = None
        self._zeroed = 0
        self._stepped = 0

    def install(self) -> None:
        zero_grads, adam_step = training.zero_grads, training.adam_step
        clock = time.perf_counter

        def timed_zero_grads(params):
            if self._start is None:
                self._start = clock()
            self._zeroed += 1
            return zero_grads(params)

        def timed_adam_step(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            self._stepped += 1
            if self._stepped == self._zeroed:
                if self.active:
                    self.samples.append(clock() - self._start)
                self._start, self._zeroed, self._stepped = None, 0, 0
            return result

        training.zero_grads = timed_zero_grads
        training.adam_step = timed_adam_step


@dataclass
class Run:
    name: str
    spec: Spec
    seed: int
    seconds: float
    tracer: Tracer | None
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # compared across processes
    shapes_run: int = 0  # infer: shapes through the forward pass

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def set_up(run: Run, tmp: Path):
    """Data generation and loading, parameters through a checkpoint, and one
    untimed warm-up step or shape."""
    spec = run.spec
    run.phase("setup")
    start = time.perf_counter()
    data.generate_dataset(
        tmp / "data", data.SHAPE_KINDS, spec.shapes, spec.config["points_per_shape"], run.seed
    )
    dataset = data.load_dataset(tmp / "data")
    config = model.ModelConfig(**spec.config)
    params = model.init_params(config, run.seed)
    checkpoint.save_checkpoint(checkpoint.Checkpoint(config=config, params=params), tmp / "model.spcn")
    loaded = checkpoint.load_checkpoint(tmp / "model.spcn")
    one_unit(run, dataset, loaded)
    run.setup_s.append(time.perf_counter() - start)
    return dataset, loaded


def one_unit(run: Run, dataset, loaded) -> None:
    """One untimed step (a train() call on the first batch) or shape."""
    spec = run.spec
    if spec.kind == "train":
        training.train(
            data.Dataset(shapes=dataset.shapes[: spec.batch]), loaded.config,
            training.TrainConfig(epochs=1, batch_size=spec.batch, lr=spec.lr, seed=run.seed),
        )
    else:
        p_n, _ = geometry.viewpoint_split(
            dataset.shapes[0][1], (1.0, 1.0, 1.0), loaded.config.missing_ratio
        )
        with tensor.no_grad():
            model.spcnet_forward(tensor.Tensor(p_n), loaded.params, loaded.config)


def check_stages(run: Run, params, config, cloud) -> bool:
    p_n, _ = geometry.viewpoint_split(cloud, (1.0, 1.0, 1.0), config.missing_ratio)
    with tensor.no_grad():
        out = model.spcnet_forward(tensor.Tensor(p_n), params, config)
    if out.counts() != config.stage_counts():
        run.errors.append(f"stage counts {out.counts()} != {config.stage_counts()}")
        return False
    return all(np.isfinite(s.data).all() for s in out.stages)


def measure_train(run: Run, dataset, clock: StepClock) -> None:
    spec = run.spec
    config = model.ModelConfig(**spec.config)
    steps_per_call = spec.epochs * math.ceil(spec.shapes / spec.batch)
    first = {}  # seed -> outputs of its first call
    calls = 0
    start = time.perf_counter()
    while calls < spec.min_calls or time.perf_counter() - start < run.seconds:
        # two seeds in turn: every call of one seed must repeat its first
        seed = run.seed + calls % 2
        calls += 1
        run.attempted += steps_per_call + 1
        run.phase("op")
        clock.active = True
        before = len(clock.samples)
        try:
            result = training.train(
                dataset, config,
                training.TrainConfig(
                    epochs=spec.epochs, batch_size=spec.batch, lr=spec.lr, seed=seed
                ),
            )
        except Exception as exc:  # a failed call counts, the run goes on
            run.fail(steps_per_call + 1, f"train seed {seed}: {exc!r}")
            continue
        finally:
            clock.active = False
        timed = clock.samples[before:]
        if len(timed) != steps_per_call:
            run.fail(steps_per_call, f"{len(timed)} steps timed, expected {steps_per_call}")
        run.op_s.extend(timed)
        totals = [row["total"] for row in result.trace]
        if not all(math.isfinite(t) for t in totals):
            run.fail(steps_per_call, f"non-finite loss in seed {seed}: {totals}")

        run.phase("eval")
        t0 = time.perf_counter()
        try:
            report = training.evaluate(result.params, config, dataset)
        except Exception as exc:
            run.fail(1, f"evaluate seed {seed}: {exc!r}")
            continue
        run.eval_s.append(time.perf_counter() - t0)

        run.phase("check")
        ok = math.isfinite(report.overall[0])
        ok &= check_stages(run, result.params, config, dataset.shapes[0][1])
        if result.reverse_params is not None:
            ok &= check_stages(run, result.reverse_params, result.reverse_config, dataset.shapes[0][1])
        outputs = {
            "trace_csv": "\n".join(result.trace_lines()),
            "eval_csv": report.to_csv(),
        }
        if seed not in first:
            first[seed] = outputs
            if seed == run.seed:
                run.quality = {
                    "loss_final": result.trace[-1]["total"],
                    "eval_cd_x1000": float(report.overall[0]),
                }
        elif outputs != first[seed]:
            ok = False
            run.errors.append(f"seed {seed} did not repeat bit for bit")
        if not ok:
            run.fail(1, f"output check failed for seed {seed}")
    run.outputs = first.get(run.seed, {})


def measure_infer(run: Run, dataset, loaded) -> None:
    spec = run.spec
    params, config = loaded.params, loaded.config
    corners = random.Random(run.seed)
    views = [training.CUBE_CORNERS[corners.randrange(8)] for _ in dataset.shapes]
    first = {}  # shape index -> digest of its first prediction
    i = 0
    start = time.perf_counter()
    while i < spec.min_calls or time.perf_counter() - start < run.seconds:
        index = i % len(dataset.shapes)
        i += 1
        run.attempted += 1
        run.phase("check")
        p_n, _ = geometry.viewpoint_split(dataset.shapes[index][1], views[index], config.missing_ratio)
        run.phase("op")
        try:
            t0 = time.perf_counter()
            with tensor.no_grad():
                out = model.spcnet_forward(tensor.Tensor(p_n), params, config)
            run.op_s.append(time.perf_counter() - t0)
        except Exception as exc:
            run.fail(1, f"forward of shape {index}: {exc!r}")
            continue
        run.shapes_run += 1
        run.phase("check")
        ok = out.counts() == config.stage_counts()
        if not ok:
            run.errors.append(f"stage counts {out.counts()} != {config.stage_counts()}")
        ok &= all(bool(np.isfinite(s.data).all()) for s in out.stages)
        d = digest(out.final.data)
        if first.setdefault(index, d) != d:
            ok = False
            run.errors.append(f"shape {index} did not repeat bit for bit")
        if not ok:
            run.fail(1, f"output check failed for shape {index}")

    run.attempted += 1
    run.phase("eval")
    subset = data.Dataset(shapes=dataset.shapes[: spec.eval_shapes])
    t0 = time.perf_counter()
    report = training.evaluate(params, config, subset)
    run.eval_s.append(time.perf_counter() - t0)
    run.shapes_run += spec.eval_shapes
    if not math.isfinite(report.overall[0]):
        run.fail(1, "non-finite eval CD")
    run.outputs = {"eval_csv": report.to_csv(), "predictions": first}
    run.quality = {"eval_cd_x1000": float(report.overall[0])}


def trace_memory(run: Run, tracer: Tracer, dataset, loaded) -> None:
    """Peak traced allocation of one more untimed step or shape.

    tracemalloc slows every allocation, so it runs after the measured loop
    and its spans are left out of the per-layer metrics.
    """
    run.phase("memory")
    tracer.start_memory()
    try:
        one_unit(run, dataset, loaded)
    finally:
        tracer.stop_memory()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "spcnet_threads": os.environ.get("SPCNET_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    clock = StepClock()
    clock.install()
    run = Run(args.workload, SPECS[args.workload], args.seed, args.seconds, tracer)
    tmp = Path(args.tmp)
    try:
        for r in range(SETUPS):
            dataset, loaded = set_up(run, tmp / f"setup{r}")
        if run.spec.kind == "train":
            measure_train(run, dataset, clock)
        else:
            measure_infer(run, dataset, loaded)
        if tracer is not None:
            trace_memory(run, tracer, dataset, loaded)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    op_tail, percentile, beyond = tail(run.op_s) if run.op_s else (0.0, 100.0, 0)
    report = {
        "workload": run.name,
        "seed": run.seed,
        "trace": bool(args.trace),
        "env": environment(),
        "metrics": {
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
            "op_s_p50": {"value": statistics.median(run.op_s) if run.op_s else 0.0, "unit": "s"},
            "op_s_tail": {"value": op_tail, "unit": "s"},
            "eval_s": {"value": statistics.median(run.eval_s) if run.eval_s else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB",
            },
        },
        "tail": {"percentile": percentile, "beyond": beyond, "samples": len(run.op_s)},
        "samples": {"setup_s": run.setup_s, "op_s": run.op_s, "eval_s": run.eval_s},
        "quality": run.quality,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "outputs": run.outputs,
    }
    if tracer is not None:
        if run.spec.kind == "train":
            phases, units = ("op",), len(run.op_s)
        else:
            phases, units = ("op", "eval"), run.shapes_run
        report["layers"], report["self_check"] = tracer.layer_metrics(
            run.name, phases, units, SETUPS
        )
        report["bindings"] = sorted(tracer.bound)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
