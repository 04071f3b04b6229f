"""Per-layer spans taken from outside the program.

A ``Tracer`` replaces every module-level name that binds one of the spcnet
functions named in ``LAYER_METRICS`` with a wrapper that records a span
(name, start, end, parent span, phase) and, for some layers, a work count.
Modules import with ``from .geometry import knn``, so one function can be
bound under several names (``geometry.knn``, ``layers.knn``, ``model.knn``);
every binding is patched.  Spans stay in memory and are reduced to
per-layer metrics when the run ends.

Only the forward pass is split by layer: gradients run inside one
``backward`` call, so backward time is a single total.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc

# Bindings made by ``from .x import f`` that the traced run must reach.
REQUIRED_BINDINGS = [
    "model.knn", "layers.knn", "model.fps", "layers.fps", "training.fps",
    "training.chamfer", "training.backward", "training.adam_step",
    "training.spcnet_forward",
]

TRAIN = ("train_1l", "train_4l_asym")
ALL = ("train_1l", "train_4l_asym", "infer_2k")

# Per-layer metrics: (name, unit, layer, statistic, end-to-end metric it
# should move, workloads on which it is predicted to move).  Statistic "s" is
# self time (span minus child spans), "calls" the call count, anything else a
# count taken by the wrapper.  The zero-call self-check requires the layer to
# be called on each predicted workload.  Set-up layers are reported per
# set-up; all others per step (train_*) or per shape (infer_2k).
LAYER_METRICS = [
    ("tensor.backward.s", "s", "tensor.backward", "s", "op_s_p50", TRAIN),
    ("tensor.tape_nodes", "count", "tensor.backward", "tape_nodes", "op_s_p50", TRAIN),
    ("tensor.traced_peak_mb", "MB", None, "peak_mb", "peak_rss_mb", TRAIN),
    ("layers.graph_conv.s", "s", "layers.graph_conv", "s", "op_s_p50", ("train_1l", "infer_2k")),
    ("layers.graph_conv.edges", "count", "layers.graph_conv", "edges", "op_s_p50",
     ("train_1l", "infer_2k")),
    ("layers.graph_pool.s", "s", "layers.graph_pool", "s", "op_s_p50", ("train_1l", "infer_2k")),
    ("layers.vmlp.s", "s", "layers.vmlp", "s", "op_s_p50", ("train_1l", "infer_2k")),
    ("layers.interpolate_up.s", "s", "layers.interpolate_up", "s", "op_s_p50", ("train_1l",)),
    ("layers.fold_decode.s", "s", "layers.fold_decode", "s", "op_s_p50", ("train_1l",)),
    ("layers.aggregate_prev.s", "s", "layers.aggregate_prev", "s", "op_s_p50", ("train_1l",)),
    ("layers.shared_mlp.s", "s", "layers.shared_mlp", "s", "op_s_p50", ("train_1l",)),
    ("geometry.knn.s", "s", "geometry.knn", "s", "op_s_p50", ("infer_2k", "train_1l")),
    ("geometry.knn.calls", "count", "geometry.knn", "calls", "op_s_p50", ("infer_2k", "train_1l")),
    ("geometry.knn.pairs", "count", "geometry.knn", "pairs", "op_s_p50", ("infer_2k", "train_1l")),
    ("geometry.fps.s", "s", "geometry.fps", "s", "op_s_p50", ("infer_2k", "train_1l")),
    ("geometry.fps.calls", "count", "geometry.fps", "calls", "op_s_p50", ("infer_2k", "train_1l")),
    ("geometry.nearest_index.s", "s", "geometry.nearest_index", "s", "op_s_p50",
     ("infer_2k", "train_1l")),
    ("geometry.viewpoint_split.s", "s", "geometry.viewpoint_split", "s", "eval_s",
     ("infer_2k", "train_1l")),
    ("model.spcnet_forward.s", "s", "model.spcnet_forward", "s", "op_s_p50", ALL),
    ("model.coarse_stage.s", "s", "model.coarse_stage", "s", "op_s_p50", ALL),
    ("model.scm_forward.s", "s", "model.scm_forward", "s", "op_s_p50", ALL),
    ("model.acm_forward.s", "s", "model.acm_forward", "s", "op_s_p50", ALL),
    ("training.chamfer.s", "s", "training.chamfer", "s", "eval_s", ("infer_2k", "train_4l_asym")),
    ("training.chamfer.pairs", "count", "training.chamfer", "pairs", "eval_s",
     ("infer_2k", "train_4l_asym")),
    ("training.cycle_total_loss.s", "s", "training.cycle_total_loss", "s", "op_s_p50",
     ("train_4l_asym",)),
    ("training.nested_targets.s", "s", "training.nested_targets", "s", "op_s_p50",
     ("train_4l_asym",)),
    ("training.evaluate.s", "s", "training.evaluate", "s", "eval_s", ("infer_2k",)),
    ("optim.adam_step.s", "s", "optim.adam_step", "s", "op_s_p50", TRAIN),
    ("optim.zero_grads.s", "s", "optim.zero_grads", "s", "op_s_p50", TRAIN),
    ("optim.param_count", "count", "optim.adam_step", "param_count", "op_s_p50", TRAIN),
    ("data.generate_dataset.s", "s", "data.generate_dataset", "s", "setup_s", ("infer_2k",)),
    ("data.load_dataset.s", "s", "data.load_dataset", "s", "setup_s", ("infer_2k",)),
    ("checkpoint.save_checkpoint.s", "s", "checkpoint.save_checkpoint", "s", "setup_s",
     ("infer_2k",)),
    ("checkpoint.load_checkpoint.s", "s", "checkpoint.load_checkpoint", "s", "setup_s",
     ("infer_2k",)),
    ("checkpoint.bytes", "count", "checkpoint.save_checkpoint", "bytes", "setup_s",
     ("infer_2k",)),
]

SETUP_LAYERS = ("data.", "checkpoint.")
LAYERS = sorted({layer for _, _, layer, *_ in LAYER_METRICS if layer})  # "module.function"


def tape_size(loss) -> int:
    """Number of tape nodes reachable from ``loss`` (the graph ``backward``
    walks)."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_knn(args):
    return {"pairs": len(args["query"]) * len(args["reference"])}


def _count_graph_conv(args):
    return {"edges": int(args["graph"].neighbors.size)}


def _count_chamfer(args):
    return {"pairs": int(args["a"].shape[0]) * int(args["b"].shape[0])}


def _count_backward(args):
    return {"tape_nodes": tape_size(args["loss"])}


def _count_adam(args):
    return {"param_count": sum(int(p.data.size) for p in args["params"].values())}


# Counts taken before the call (from the arguments).
_PRE_COUNTS = {
    "geometry.knn": _count_knn,
    "layers.graph_conv": _count_graph_conv,
    "training.chamfer": _count_chamfer,
    "tensor.backward": _count_backward,
    "optim.adam_step": _count_adam,
}


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = []  # (name, phase, counter, value)
        self.phase = "setup"
        self._stack = []
        self.bound = set()  # "module.attribute" names that were patched
        self.peak_mb = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "spcnet" or name.startswith("spcnet.")
        }
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(modules[f"spcnet.{module_name}"], func_name)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.bound.add(f"{mod_name.removeprefix('spcnet.')}.{attr}")
        missing = [b for b in REQUIRED_BINDINGS if b not in self.bound]
        if missing:
            raise RuntimeError(f"tracer: bindings not patched: {missing}")

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        pre = _PRE_COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, value in pre(bound).items():
                    self.counts.append((name, self.phase, counter, value))
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.phase])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if name == "checkpoint.save_checkpoint":
                path = signature.bind(*args, **kwargs).arguments["path"]
                self.counts.append((name, self.phase, "bytes", os.path.getsize(path)))
            return result

        return wrapper

    # -- memory -------------------------------------------------------------

    def start_memory(self) -> None:
        tracemalloc.start()

    def stop_memory(self) -> None:
        self.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, workload: str, phases: tuple, units: int, setups: int):
        """Per-layer metrics plus the list of self-check failures.

        ``phases`` are the phases whose spans count towards per-op numbers
        and ``units`` the number of steps or shapes they cover.
        """
        self_time, calls, counters = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            key = (name, phase)
            self_time[key] = self_time.get(key, 0.0) + (end - start) - child_time[i]
            calls[key] = calls.get(key, 0) + 1
        for name, phase, counter, value in self.counts:
            key = (name, counter, phase)
            counters[key] = counters.get(key, 0) + value

        metrics, failures = {}, []
        for metric, unit, layer, stat, _, predicted in LAYER_METRICS:
            if layer is None:
                metrics[metric] = {"value": self.peak_mb, "unit": unit}
                if workload in predicted and self.peak_mb <= 0.0:
                    failures.append(f"{metric}: nothing traced on {workload}")
                continue
            use, denom = (("setup",), setups) if layer.startswith(SETUP_LAYERS) else (phases, units)
            n_calls = sum(calls.get((layer, p), 0) for p in use)
            if stat == "s":
                total = sum(self_time.get((layer, p), 0.0) for p in use)
            elif stat == "calls":
                total = n_calls
            else:
                total = sum(counters.get((layer, stat, p), 0) for p in use)
            metrics[metric] = {"value": total / denom if denom else 0.0, "unit": unit}
            if workload in predicted and n_calls == 0:
                failures.append(f"{metric}: zero calls on {workload}")
        return metrics, failures
