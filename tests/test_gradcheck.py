"""The finite-difference harness itself."""
import numpy as np
import pytest

from spcnet.gradcheck import finite_diff_check
from spcnet.tensor import Tensor


def test_quadratic_is_exact_to_roundoff():
    rng = np.random.default_rng(0)
    params = {"p": Tensor(rng.standard_normal((4, 3)), requires_grad=True)}
    err = finite_diff_check(lambda ps: (ps["p"] * ps["p"]).sum(), params, eps=1e-5)
    assert err < 1e-9


def test_detects_missing_gradient_path():
    # a path routed through a constant copy contributes to the value but not the
    # analytic gradient; the numeric side sees it at every step size
    rng = np.random.default_rng(1)
    params = {"q": Tensor(rng.standard_normal(5), requires_grad=True)}

    def f(ps):
        return (ps["q"] * ps["q"]).sum() + Tensor(ps["q"].data).sum()

    err = finite_diff_check(f, params, eps=1e-5)
    assert err > 1e-2


def test_non_deterministic_f_rejected():
    counter = {"n": 0}
    params = {"p": Tensor(np.ones(2), requires_grad=True)}

    def f(ps):
        counter["n"] += 1
        return (ps["p"] * float(counter["n"])).sum()

    with pytest.raises(ValueError, match="not deterministic"):
        finite_diff_check(f, params)


def test_bad_eps_rejected():
    params = {"p": Tensor(np.ones(1), requires_grad=True)}
    with pytest.raises(ValueError, match="eps"):
        finite_diff_check(lambda ps: ps["p"].sum(), params, eps=0.0)


def test_coord_limit_requires_rng():
    params = {"p": Tensor(np.ones(10), requires_grad=True)}
    with pytest.raises(ValueError, match="rng"):
        finite_diff_check(lambda ps: (ps["p"] * ps["p"]).sum(), params, coord_limit=2)
