"""Adam update and parameter initialization."""
import numpy as np
import pytest

from spcnet import layers as L
from spcnet.model import ModelConfig, init_params
from spcnet.optim import AdamState, ParamBuilder, adam_step, zero_grads
from spcnet.rng import Rng
from spcnet.tensor import Tensor


def single_param(value, grad):
    p = Tensor(np.array([value]), requires_grad=True)
    p.grad = np.array([grad])
    return {"p": p}


def test_zero_gradient_leaves_params_increments_t():
    params = single_param(1.5, 0.0)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=1e-2)
    assert params["p"].data[0] == 1.5
    assert state.t == 1


def test_first_step_matches_hand_evaluation():
    # one step from fresh state with g = 1:
    # update = -lr * (g / (1 - b1)) / (sqrt(g^2 / (1 - b2)) + eps)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    params = single_param(0.0, 1.0)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=lr)
    expected = -lr * (1.0 / (1 - b1)) * (1 - b1) / (np.sqrt((1 - b2) / (1 - b2)) + eps)
    assert params["p"].data[0] == pytest.approx(expected, rel=1e-12)
    assert params["p"].data[0] == pytest.approx(-lr, rel=1e-6)


def test_two_steps_match_scripted_trace():
    # independent straight-from-the-formula trace with constant gradient
    lr, b1, b2, eps, g = 0.01, 0.9, 0.999, 1e-8, 0.5
    theta, m, v = 2.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    params = single_param(2.0, g)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=lr)
    params["p"].grad = np.array([g])
    adam_step(params, state, lr=lr)
    assert params["p"].data[0] == pytest.approx(theta, rel=1e-12)
    assert state.t == 2


def test_missing_grad_rejected():
    params = {"p": Tensor(np.zeros(2), requires_grad=True)}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step(params, state, lr=1e-4)


def test_grads_left_intact_for_inspection():
    params = single_param(0.0, 1.0)
    state = AdamState.for_params(params)
    adam_step(params, state, lr=1e-4)
    assert params["p"].grad[0] == 1.0


def test_zero_grads():
    params = single_param(0.0, 1.0)
    zero_grads(params)
    assert params["p"].grad is None


class TestInitParams:
    CFG = ModelConfig(points_per_shape=64, width_scale=0.125, knn_k=4)

    def test_same_seed_bit_identical(self):
        a = init_params(self.CFG, seed=5)
        b = init_params(self.CFG, seed=5)
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        a = init_params(self.CFG, seed=5)
        b = init_params(self.CFG, seed=6)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_biases_exactly_zero(self):
        params = init_params(self.CFG, seed=5)
        bias_names = [n for n in params if n.endswith(".b")]
        assert bias_names
        for name in bias_names:
            np.testing.assert_array_equal(params[name].data, 0.0)

    def test_weights_within_fan_in_bound(self):
        pb = ParamBuilder(Rng(3))
        pb.weight("w", 4, 10)
        assert np.all(np.abs(pb.entries["w"].data) <= 0.5)

    def test_every_entry_grad_enabled_and_named_per_stage(self):
        params = init_params(self.CFG, seed=5)
        assert all(p.requires_grad for p in params.values())
        for i in range(self.CFG.scm_count):
            assert any(n.startswith(f"scm{i}.vmlp.") for n in params)
            assert any(n.startswith(f"scm{i}.acm.fold.") for n in params)

    def test_duplicate_name_rejected(self):
        pb = ParamBuilder(Rng(0))
        pb.bias("x", 2)
        with pytest.raises(ValueError, match="duplicate"):
            pb.bias("x", 2)
