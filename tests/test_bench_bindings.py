"""The traced benchmark run wraps spcnet functions by name and reads some of
their arguments; a rename in ``src/`` must fail here, not silently there."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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
