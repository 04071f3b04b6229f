"""Tensor core: forward semantics, backward correctness, purity."""
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcnet import tensor as T
from spcnet.gradcheck import finite_diff_check
from spcnet.tensor import Tensor, backward, batch_norm
from reference_ops import activation


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def parameter(value):
    """A float64 leaf that records gradients."""
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


class TestLinear:
    def test_identity_weights(self):
        x = rand((4, 3), 1)
        out = T.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weights_give_bias_rows(self):
        x = rand((5, 3), 2)
        out = T.linear(Tensor(x), Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (5, 1)))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((3, 2)), rng.standard_normal((2, 2)), rng.standard_normal(2)
        expected = np.empty((3, 2))
        for i in range(3):
            for j in range(2):
                acc = b[j]
                for k in range(2):
                    acc += x[i, k] * w[k, j]
                expected[i, j] = acc
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(3, 2\).*\(3, 2\)"):
            T.linear(Tensor(rand((3, 2))), Tensor(rand((3, 2))), Tensor(np.zeros(2)))

    def test_input_must_be_2d(self):
        with pytest.raises(ValueError, match=r"linear: need a 2-d input, got shape \(3,\)"):
            T.linear(Tensor(np.ones(3)), Tensor(np.eye(3)), Tensor(np.zeros(3)))

    def test_bias_must_match_output_width(self):
        with pytest.raises(ValueError, match="bias shape \\(2,\\) does not match output width 3"):
            T.linear(Tensor(rand((4, 3), 3)), Tensor(np.eye(3)), Tensor(np.zeros(2)))


class TestActivation:
    def test_relu_values(self):
        out = activation(Tensor([[-1.0, 0.0, 2.0]]), "relu")
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_negative_slope(self):
        out = activation(Tensor([[-1.0]]), "leaky_relu", slope=0.2)
        assert out.data[0, 0] == pytest.approx(-0.2)

    def test_tanh_gradient_at_zero_is_one(self):
        x = Tensor(np.zeros((1, 1)), requires_grad=True)
        backward(activation(x, "tanh").sum())
        assert x.grad[0, 0] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="sigmoid"):
            activation(Tensor([[1.0]]), "sigmoid")


class TestBatchNorm:
    def test_constant_column_becomes_beta(self):
        x = np.full((6, 2), 3.0)
        gamma, beta = Tensor([2.0, 2.0]), Tensor([1.0, -1.0])
        out = batch_norm(Tensor(x), gamma, beta)
        np.testing.assert_allclose(out.data, np.tile([1.0, -1.0], (6, 1)), atol=1e-12)

    def test_standardized_input_nearly_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((200, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_matches_naive_per_column_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
        expected = np.empty_like(x)
        for c in range(3):
            col = x[:, c]
            mu = sum(col) / 4.0
            var = sum((v - mu) ** 2 for v in col) / 4.0
            expected[:, c] = gamma[c] * (col - mu) / np.sqrt(var + 1e-5) + beta[c]
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_single_row_batch_is_guarded(self):
        out = batch_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[0.0, 0.0]], atol=1e-12)

    @staticmethod
    def inputs():
        rng = np.random.default_rng(22)
        constant_column = rng.standard_normal((5, 3))
        constant_column[:, 1] = 0.7
        for x in (rng.standard_normal((9, 4)), rng.standard_normal((1, 3)), constant_column):
            d = x.shape[1]
            yield x, rng.standard_normal(d), rng.standard_normal(d)

    def test_forward_matches_composite_formula_bitwise(self):
        # the op sequence of the composite (one node per step) formula
        for x, gamma, beta in self.inputs():
            inv_n = 1.0 / x.shape[0]
            centered = x - x.sum(axis=0) * inv_n
            var = (centered * centered).sum(axis=0) * inv_n
            scale = (var + 1e-5) ** -0.5
            expected = gamma * (centered * scale) + beta
            out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta))
            np.testing.assert_array_equal(out.data, expected)

    def test_one_tape_node(self):
        x = Tensor(rand((4, 2), 23), requires_grad=True)
        out = batch_norm(x, parameter(np.ones(2)), parameter(np.zeros(2)))
        assert all(p._backward is None for p in out._parents)

    def test_gradient_matches_central_differences(self):
        # includes the one-row input and a zero-variance column (eps guard);
        # each input also feeds a normed relu layer, the norm after a product
        for i, (x, gamma, beta) in enumerate(self.inputs()):
            weights = Tensor(np.random.default_rng(30 + i).standard_normal(x.shape))
            params = {"x": parameter(x), "g": parameter(gamma), "b": parameter(beta)}

            def loss(p):
                return (batch_norm(p["x"], p["g"], p["b"]) * weights).sum()

            assert finite_diff_check(loss, params) < 1e-5

            d = x.shape[1]
            params["w"] = parameter(np.random.default_rng(40 + i).standard_normal((d, d)))

            def layer_loss(p):
                return (T.linear(p["x"], p["w"], p["b"], p["g"], relu=True) * weights).sum()

            assert finite_diff_check(layer_loss, params) < 1e-5


def layer_cases():
    """(x, w, gamma, b): many rows, one row, and a product with a constant
    (zero) column."""
    rng = np.random.default_rng(26)
    constant_column = rng.standard_normal((3, 2))
    constant_column[:, 1] = 0.0
    for x, w in ((rng.standard_normal((9, 4)), rng.standard_normal((4, 3))),
                 (rng.standard_normal((1, 3)), rng.standard_normal((3, 2))),
                 (rng.standard_normal((5, 3)), constant_column)):
        d = w.shape[1]
        yield x, w, rng.standard_normal(d), rng.standard_normal(d)


def product(x, w):
    """``x @ w`` on the tape: a layer with a zero bias."""
    return T.linear(x, w, np.zeros(w.shape[1]))


class TestFusedLayer:
    """``linear`` with its norm and relu is one node with the bits of the
    composite of one node per step."""

    FORMS = {
        "normed_relu": (
            lambda x, w, g, b: T.linear(x, w, b, g, relu=True),
            lambda x, w, g, b: activation(T.batch_norm(product(x, w), g, b), "relu"),
        ),
        "bare_relu": (
            lambda x, w, g, b: T.linear(x, w, b, relu=True),
            lambda x, w, g, b: activation(product(x, w) + b, "relu"),
        ),
        "bare": (
            lambda x, w, g, b: T.linear(x, w, b),
            lambda x, w, g, b: product(x, w) + b,
        ),
    }

    @staticmethod
    def run(layer, case, seed):
        """Output and the gradients of x, w, gamma and b under a random
        linear probe."""
        leaves = [parameter(a) for a in case]
        out = layer(*leaves)
        probe = np.random.default_rng(seed).standard_normal(out.shape)
        backward((out * Tensor(probe)).sum())
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("form", FORMS)
    def test_value_and_gradients_equal_composite(self, form):
        fused, composite = self.FORMS[form]
        for i, case in enumerate(layer_cases()):
            out, grads = self.run(fused, case, i)
            ref, ref_grads = self.run(composite, case, i)
            np.testing.assert_array_equal(out, ref)
            if form != "normed_relu":
                assert grads[2] is None and ref_grads[2] is None  # gamma unused
                grads, ref_grads = grads[:2] + grads[3:], ref_grads[:2] + ref_grads[3:]
            for got, want in zip(grads, ref_grads):
                np.testing.assert_array_equal(got, want)

    def test_constant_column_gives_relu_of_shift(self):
        x, w, gamma, b = list(layer_cases())[2]
        out = T.linear(Tensor(x), Tensor(w), Tensor(b), Tensor(gamma), relu=True)
        np.testing.assert_array_equal(out.data[:, 1], np.full(5, max(b[1], 0.0)))

    def test_one_tape_node(self):
        x, w, gamma, b = (parameter(a) for a in next(layer_cases()))
        out = T.linear(x, w, b, gamma, relu=True)
        assert set(map(id, out._parents)) == {id(x), id(w), id(b), id(gamma)}

    def test_gamma_shape_checked(self):
        with pytest.raises(ValueError, match="gamma per column"):
            T.linear(Tensor(rand((4, 3))), Tensor(rand((3, 2))), Tensor(np.zeros(2)),
                     Tensor(np.ones(3)))


class TestReduceMaxRows:
    def test_single_row(self):
        x = rand((1, 4), 7)
        np.testing.assert_array_equal(T.reduce_max_rows(Tensor(x)).data, x[0])

    def test_tie_routes_gradient_to_row_zero(self):
        x = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]), requires_grad=True)
        backward(T.reduce_max_rows(x).sum())
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0]])

    def test_matches_naive_scan(self):
        x = rand((5, 4), 8)
        expected = [max(x[:, c]) for c in range(4)]
        np.testing.assert_array_equal(T.reduce_max_rows(Tensor(x)).data, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            T.reduce_max_rows(Tensor(np.empty((0, 3))))

    def test_several_inputs_join_their_maxima(self):
        # one node with the value and gradients of a max per input, joined
        xs = [parameter(rand(shape, 10 + i)) for i, shape in enumerate([(5, 2), (3, 4), (1, 1)])]
        probe = Tensor(rand((7,), 13))
        out = T.reduce_max_rows(*xs)
        backward((out * probe).sum())
        grads = [x.grad for x in xs]
        for x in xs:
            x.grad = None
        ref = T.concat([T.reduce_max_rows(x) for x in xs])
        backward((ref * probe).sum())
        np.testing.assert_array_equal(out.data, ref.data)
        for x, grad in zip(xs, grads):
            np.testing.assert_array_equal(grad, x.grad)


class TestGatherRows:
    def test_identity_permutation(self):
        x = rand((6, 3), 9)
        out = T.gather_rows(Tensor(x), np.arange(6))
        np.testing.assert_array_equal(out.data, x)

    def test_duplicate_index_scatter_adds(self):
        x = Tensor(rand((4, 2), 10), requires_grad=True)
        backward(T.gather_rows(x, [2, 2]).sum())
        np.testing.assert_array_equal(x.grad[2], [2.0, 2.0])
        np.testing.assert_array_equal(x.grad[[0, 1, 3]], 0.0)

    def test_matches_naive_copy(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3))
        idx = rng.integers(0, 8, size=5)
        expected = np.stack([x[i] for i in idx])
        np.testing.assert_array_equal(T.gather_rows(Tensor(x), idx).data, expected)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor(rand((3, 2))), [3])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_backward_conserves_gradient_mass(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        idx = rng.integers(0, n, size=int(rng.integers(1, 15)))
        x = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        out = T.gather_rows(x, idx)
        upstream = rng.standard_normal(out.shape)
        backward((out * Tensor(upstream)).sum())
        assert x.grad.sum() == pytest.approx(upstream.sum(), rel=1e-12)


class TestConcat:
    def test_single_tensor(self):
        x = rand((3, 2), 12)
        np.testing.assert_array_equal(T.concat([Tensor(x)], axis=0).data, x)

    def test_feature_axis_layout(self):
        a, b = rand((4, 2), 13), rand((4, 3), 14)
        out = T.concat([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (4, 5)
        np.testing.assert_array_equal(out.data[:, :2], a)
        np.testing.assert_array_equal(out.data[:, 2:], b)

    def test_third_axis_layout(self):
        a, b = rand((4, 3, 2), 15), rand((4, 3, 1), 16)
        out = T.concat([Tensor(a), Tensor(b)], axis=2)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b], axis=2))

    def test_third_axis_gradient_slices_back(self):
        a = Tensor(rand((4, 3, 2), 15), requires_grad=True)
        b = Tensor(rand((4, 3, 1), 16), requires_grad=True)
        upstream = rand((4, 3, 3), 17)
        backward((T.concat([a, b], axis=2) * Tensor(upstream)).sum())
        np.testing.assert_array_equal(a.grad, upstream[:, :, :2])
        np.testing.assert_array_equal(b.grad, upstream[:, :, 2:])

    def test_no_tensors(self):
        with pytest.raises(ValueError, match="concat: need at least one tensor"):
            T.concat([])

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            T.concat([Tensor(rand((3, 2))), Tensor(rand((4, 2)))], axis=1)


class TestBackward:
    def test_constant_loss_leaves_grads_zero(self):
        p = Tensor(rand((3, 2)), requires_grad=True)
        backward(Tensor(5.0))
        assert p.grad is None

    def test_linear_weight_gradient_formula(self):
        # d(sum(X @ W)) / dW[i, j] = sum of column i of X
        x = rand((5, 3), 17)
        w = Tensor(rand((3, 2), 18), requires_grad=True)
        backward(T.linear(Tensor(x), w, Tensor(np.zeros(2))).sum())
        expected = np.tile(x.sum(axis=0)[:, None], (1, 2))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12)

    def test_two_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 3))
        w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

        def loss_value():
            h = activation(T.linear(Tensor(x), w1, np.zeros(4)), "tanh")
            return T.linear(h, w2, np.zeros(2)).sum()

        backward(loss_value())
        eps = 1e-6
        for w in (w1, w2):
            flat = w.data.reshape(-1)
            grad = w.grad.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                hi = loss_value().item()
                flat[i] = saved - eps
                lo = loss_value().item()
                flat[i] = saved
                numeric = (hi - lo) / (2 * eps)
                assert abs(grad[i] - numeric) / max(abs(numeric), 1e-8) < 1e-4

    def test_multiple_paths_accumulate(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        backward(((x * 3.0) + (x * 4.0)).sum())
        assert x.grad[0, 0] == 7.0

    def test_interior_nodes_released_leaves_keep_grads(self):
        w = parameter(rand((3, 2), 24))
        x = Tensor(rand((4, 3), 25))
        hidden = activation(T.linear(x, w, np.zeros(2)), "relu")
        backward(hidden.sum())
        assert hidden.grad is None
        assert hidden._parents == () and hidden._backward is None
        assert w.grad is not None and w.grad.shape == (3, 2)
        assert x.grad is None  # not a requires_grad leaf

    def test_upstream_handed_to_two_parents_is_not_aliased(self):
        # a + b passes one upstream array to both parents; x + x twice to one.
        # More gradient then accumulates in place, as in per-shape backward.
        a, b = parameter(np.zeros((2, 2))), parameter(np.zeros((2, 2)))
        backward(((a + b) * 2.0).sum())
        backward((a * 3.0).sum())
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 5.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 2), 2.0))
        backward((b * 4.0).sum())
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 5.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 2), 6.0))

        x, y = parameter(np.ones(3)), parameter(np.ones(3))
        backward(((x + x) + y).sum())
        backward((x * 5.0).sum())
        np.testing.assert_array_equal(x.grad, np.full(3, 7.0))
        np.testing.assert_array_equal(y.grad, np.full(3, 1.0))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor(np.zeros((2, 2))))


class TestPurityAndMisc:
    def test_forward_ops_are_pure(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        first = activation(T.linear(x, w, b), "relu").data
        second = activation(T.linear(x, w, b), "relu").data
        np.testing.assert_array_equal(first, second)

    def test_tile_rows_backward_sums_replicas(self):
        x = Tensor(rand((3, 2), 21), requires_grad=True)
        backward(T.tile_rows(x, 4).sum())
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 4.0))

    @pytest.mark.parametrize("shape", [(2, 3), ((2, 3),), ([2, 3],), (-1, 3)])
    def test_reshape_takes_either_spelling(self, shape):
        x = parameter(np.arange(6.0))
        out = x.reshape(*shape)
        np.testing.assert_array_equal(out.data, np.arange(6.0).reshape(2, 3))
        weights = rand((2, 3), 22)
        backward((out * weights).sum())
        np.testing.assert_array_equal(x.grad, weights.reshape(6))

    def test_no_grad_disables_recording(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with T.no_grad():
            out = (x * 2.0).sum()
        backward(out)
        assert x.grad is None

    def test_no_grad_in_another_thread_leaves_this_one_recording(self):
        entered, release = threading.Event(), threading.Event()

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(timeout=30)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=30)
            x = parameter(rand((2, 2)))
            out = x * 2.0
        finally:
            release.set()
            worker.join(timeout=30)
        assert not worker.is_alive()
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
