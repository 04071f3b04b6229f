"""The traced benchmark run wraps spcnet functions by name and reads some of
their arguments; its step clock counts the optimizer calls of a training
step, and it reads fields off the results.  A rename or reorder in ``src/``
must fail here, not silently there."""
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from spcnet import training
from spcnet.data import generate_shapes
from spcnet.model import ModelConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# layer -> the argument names its counters read (from the call's arguments)
READ_ARGS = {
    "geometry.knn": ("query", "reference"),
    "layers.graph_conv": ("graph",),
    "training.chamfer": ("a", "b"),
    "tensor.backward": ("loss",),
    "optim.adam_step": ("params",),
    "checkpoint.save_checkpoint": ("path",),
}

# result type -> the attributes perfbench/workload.py reads off it
READ_ATTRIBUTES = {
    "training.TrainResult": ("params", "reverse_params", "reverse_config", "trace", "trace_lines"),
    "model.StageOutputs": ("counts", "stages", "final"),
    "model.ModelConfig": ("stage_counts",),
    "geometry.NeighborGraph": ("neighbors",),
    "training.EvalReport": ("overall", "to_csv"),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as checked out
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"spcnet.{module}"), attr, None)


def test_every_traced_layer_exists(tracer):
    missing = [layer for layer in tracer.LAYERS if not callable(resolve(layer))]
    assert not missing


def test_required_bindings_are_the_traced_functions(tracer):
    originals = {layer.split(".")[1]: resolve(layer) for layer in tracer.LAYERS}
    assert len(originals) == len(tracer.LAYERS)  # one traced function per name
    for binding in tracer.REQUIRED_BINDINGS:
        attr = binding.split(".")[1]
        assert attr in originals, binding
        assert resolve(binding) is originals[attr], binding


def test_counted_arguments_are_in_the_signatures(tracer):
    assert set(tracer._PRE_COUNTS) <= set(READ_ARGS)
    for layer, names in READ_ARGS.items():
        parameters = inspect.signature(resolve(layer)).parameters
        assert all(n in parameters for n in names), (layer, names)


@pytest.mark.parametrize("name", sorted(READ_ATTRIBUTES))
def test_result_attributes_the_benchmark_reads_exist(name):
    cls = resolve(name)
    known = {f.name for f in dataclasses.fields(cls)} | set(dir(cls))
    missing = [attr for attr in READ_ATTRIBUTES[name] if attr not in known]
    assert not missing


@pytest.mark.parametrize("fields, points", [
    (dict(loss_mode="1L"), 64),  # one network
    (dict(loss_mode="4L", missing_ratio=0.25), 128),  # forward and reverse
])
def test_each_step_zeroes_every_network_before_updating_any(monkeypatch, fields, points):
    # the benchmark's step clock patches these two module bindings and closes
    # a step when the updates match the zeroings
    calls = []
    zero_grads, adam_step = training.zero_grads, training.adam_step

    def counted_zero_grads(params):
        calls.append(("zero", id(params)))
        return zero_grads(params)

    def counted_adam_step(params, *args, **kwargs):
        calls.append(("update", id(params)))
        return adam_step(params, *args, **kwargs)

    monkeypatch.setattr(training, "zero_grads", counted_zero_grads)
    monkeypatch.setattr(training, "adam_step", counted_adam_step)
    config = ModelConfig(
        points_per_shape=points, width_scale=0.0625, knn_k=4, down_rate=2,
        upsample_factors=(2, 2, 1), **fields,
    )
    result = training.train(
        generate_shapes(["sphere", "cube"], 3, points, 0), config,
        training.TrainConfig(epochs=2, batch_size=2, seed=1),
    )
    networks = [id(result.params)]
    if result.reverse_params is not None:
        networks.append(id(result.reverse_params))
    assert len(networks) == (1 if fields["loss_mode"] == "1L" else 2)
    per_step = 2 * len(networks)
    assert len(calls) == 2 * 2 * per_step  # two epochs of two batches
    for start in range(0, len(calls), per_step):
        step = calls[start:start + per_step]
        assert sorted(step[:len(networks)]) == sorted(("zero", n) for n in networks)
        assert sorted(step[len(networks):]) == sorted(("update", n) for n in networks)
