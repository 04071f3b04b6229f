"""Weights drawn in one pass: the lane fill's chunks and jump blocks, and
ParamBuilder's one draw per read of ``entries``."""
import tracemalloc

import numpy as np
import pytest

from spcnet import rng as R
from spcnet.model import ModelConfig, init_params
from spcnet.optim import ParamBuilder
from spcnet.rng import _LANE_MIN, Rng


def one_by_one(seed, n, lo, hi):
    """``n`` draws of ``Rng.uniform(lo, hi)`` in a loop, and the generator after them."""
    rng = Rng(seed)
    return np.array([rng.uniform(lo, hi) for _ in range(n)]), rng


def assert_same_state(a, b):
    assert a._s == b._s


@pytest.mark.parametrize("chunk", [1, 3, 16, 64, 100])
def test_lane_fill_in_chunks_is_the_stream(monkeypatch, chunk):
    # lanes 64 long: chunks of 3 leave a ragged last one, 16 several whole
    # ones, 64 exactly one, and 100 one chunk shorter than its buffer
    monkeypatch.setattr(R, "_LANE_CHUNK", chunk)
    n = 64 * 70 + 9
    expected, after = one_by_one(38, n, -0.25, 0.75)
    rng = Rng(38)
    assert (-0.25 + (0.75 - -0.25) * rng.uniform_array(n)).tobytes() == expected.tobytes()
    assert_same_state(rng, after)


@pytest.mark.parametrize("columns", [1, 5, 256])
def test_lane_starts_jumped_in_column_blocks(monkeypatch, columns):
    # 300 lanes 256 long: the doublings jump 1, 2, 4, ... 128 starts, then 44
    monkeypatch.setattr(R, "_JUMP_COLUMNS", columns)
    n = 256 * 300
    expected, after = one_by_one(39, n, 0.0, 1.0)
    rng = Rng(39)
    assert rng.uniform_array(n).tobytes() == expected.tobytes()
    assert_same_state(rng, after)


# weights below _LANE_MIN alone whose running total crosses it, one above
# it alone, and biases and batch-norm pairs between them
WALK = [
    ("weight", "a.w", 3, 5),
    ("bias", "a.b", 5),
    ("weight", "b.w", 20, 50),
    ("bn_pair", "b.bn", 50),
    ("weight", "c.w", 40, 30),
    ("weight", "d.w", 7, 11),
    ("bias", "d.b", 11),
]


def walked_one_draw_per_weight(seed):
    rng = Rng(seed)
    expected = {}
    for kind, name, *dims in WALK:
        if kind == "weight":
            bound = 1.0 / np.sqrt(dims[0])
            expected[name] = -bound + (bound - -bound) * rng.uniform_array(tuple(dims))
        elif kind == "bias":
            expected[name] = np.zeros(dims[0])
        else:
            expected[f"{name}.gamma"] = np.ones(dims[0])
            expected[f"{name}.beta"] = np.zeros(dims[0])
    return expected, rng


@pytest.mark.parametrize("reads", [(), (1,), (3, 4), (0, 2, 5), tuple(range(len(WALK)))])
def test_walk_matches_one_draw_per_weight(reads):
    expected, after = walked_one_draw_per_weight(40)
    pb = ParamBuilder(Rng(40))
    for i, (kind, name, *dims) in enumerate(WALK):
        getattr(pb, kind)(name, *dims)
        if i in reads:
            assert list(pb.entries) == list(expected)[: len(pb.entries)]
    assert list(pb.entries) == list(expected)
    for name, want in expected.items():
        got = pb.entries[name]
        assert got.requires_grad and got.data.shape == want.shape
        assert got.data.tobytes() == want.tobytes(), name
    assert_same_state(pb.rng, after)
    assert sum(d[0] * d[1] for k, _, *d in WALK if k == "weight") > _LANE_MIN


def test_layout_draws_nothing(monkeypatch):
    config = ModelConfig(points_per_shape=64, width_scale=0.125, knn_k=4)
    seeded = init_params(config, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("the layout drew from a stream")

    for method in ("uniform_array", "uniform", "next_uint64"):
        monkeypatch.setattr(Rng, method, refuse)
    layout = init_params(config, None)
    assert [(n, p.data.shape) for n, p in layout.items()] == [
        (n, p.data.shape) for n, p in seeded.items()
    ]
    for name, p in layout.items():
        np.testing.assert_array_equal(p.data, 1.0 if name.endswith(".gamma") else 0.0)


def test_init_allocates_its_parameters_once():
    # width 0.5: 9.1 M values (73 MB), where the draw's own buffers are small
    config = ModelConfig(points_per_shape=256, width_scale=0.5, knn_k=8)
    tracemalloc.start()
    try:
        params = init_params(config, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(p.data.nbytes for p in params.values())
