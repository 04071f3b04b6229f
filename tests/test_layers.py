"""Neural building blocks against naive per-edge references."""
import contextlib
import hashlib
import itertools
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spcnet import geometry as G
from spcnet import layers as L
from spcnet import tensor as T
from spcnet.geometry import fps, knn, nearest_index
from spcnet.gradcheck import finite_diff_check
from spcnet.optim import ParamBuilder
from spcnet.rng import Rng
from spcnet.tensor import Tensor, backward
from reference_ops import activation, subtract


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


def feats(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def self_graph(pts, k):
    """The graph a refinement stage builds on its joined cloud."""
    return knn(pts, pts, L.self_knn_k(k, pts.shape[0]))


def table(query, support, k=3):
    """Each query point's k nearest support rows: an ``interpolate_up`` table."""
    return knn(query, support, k, exclude_self=False).neighbors


def leaky(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def probe(out, seed):
    """Generic linear functional of the output; a plain sum can sit at an
    exact zero of the Jacobian (symmetric codes, centered norms) where the
    finite-difference quotient is pure noise."""
    w = np.random.default_rng(seed).standard_normal(out.shape)
    return (out * Tensor(w / out.data.size)).sum()


def adaptconv_reference(coords, features, neighbors, params, prefix, m_out):
    """Per-edge loop evaluating the kernel generation, dot, and max."""
    n, d = features.shape
    w0 = params[f"{prefix}.g.l0.w"].data
    b0 = params[f"{prefix}.g.l0.b"].data
    w1 = params[f"{prefix}.g.l1.w"].data
    b1 = params[f"{prefix}.g.l1.b"].data
    out = np.empty((n, m_out))
    for i in range(n):
        responses = []
        for j in neighbors[i]:
            dx = np.concatenate([coords[i], coords[j] - coords[i]])
            kernel_flat = leaky(dx @ w0 + b0) @ w1 + b1
            df = np.concatenate([features[i], features[j] - features[i]])
            h = np.empty(m_out)
            for m in range(m_out):
                h[m] = leaky(kernel_flat[m * 2 * d:(m + 1) * 2 * d] @ df)
            responses.append(h)
        out[i] = np.max(responses, axis=0)
    return out


def interior_nodes(out):
    """Tape nodes (nodes with a backward) reachable from ``out``."""
    seen, stack, count = {id(out)}, [out], 0
    while stack:
        node = stack.pop()
        count += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def edgeconv_reference(features, neighbors, theta, m_out):
    n = features.shape[0]
    out = np.empty((n, m_out))
    for i in range(n):
        responses = []
        for j in neighbors[i]:
            df = np.concatenate([features[i], features[j] - features[i]])
            responses.append(leaky(df @ theta))
        out[i] = np.max(responses, axis=0)
    return out


class TestSharedMlp:
    def test_identity_single_layer(self):
        x = feats(5, 3, 0)
        params = {"m.l0.w": Tensor(np.eye(3)), "m.l0.b": Tensor(np.zeros(3))}
        spec = L.LayerSpec((3,), use_bn=False, final_activation=False)
        np.testing.assert_array_equal(L.shared_mlp(Tensor(x), spec, params, "m").data, x)

    def test_row_permutation_equivariance(self):
        pb = ParamBuilder(Rng(1))
        spec = L.LayerSpec((4, 3), use_bn=True, final_activation=True)
        L.shared_mlp_params(pb, "m", 3, spec)
        x = feats(6, 3, 1)
        perm = np.random.default_rng(2).permutation(6)
        out = L.shared_mlp(Tensor(x), spec, pb.entries, "m").data
        out_perm = L.shared_mlp(Tensor(x[perm]), spec, pb.entries, "m").data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_matches_hand_composition(self):
        pb = ParamBuilder(Rng(3))
        spec = L.LayerSpec((4, 2), use_bn=False, final_activation=True)
        L.shared_mlp_params(pb, "m", 3, spec)
        x = feats(5, 3, 3)
        p = pb.entries
        h = np.maximum(x @ p["m.l0.w"].data + p["m.l0.b"].data, 0.0)
        expected = np.maximum(h @ p["m.l1.w"].data + p["m.l1.b"].data, 0.0)
        np.testing.assert_allclose(
            L.shared_mlp(Tensor(x), spec, p, "m").data, expected, rtol=1e-12
        )

    @pytest.mark.parametrize("use_bn, final_activation", [
        (True, True), (True, False), (False, True), (False, False),
    ])
    def test_one_tape_node_per_layer(self, use_bn, final_activation):
        spec = L.LayerSpec((4, 3, 2), use_bn=use_bn, final_activation=final_activation)
        pb = ParamBuilder(Rng(4))
        L.shared_mlp_params(pb, "m", 3, spec)
        out = L.shared_mlp(Tensor(feats(6, 3, 4)), spec, pb.entries, "m")
        assert interior_nodes(out) == 3

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            L.LayerSpec(())
        with pytest.raises(ValueError):
            L.LayerSpec((4, 0))


class TestAdaptConv:
    def test_zeroed_kernel_generator_gives_zeros(self):
        pb = ParamBuilder(Rng(4))
        L.adaptconv_params(pb, "c", 2, 3)
        pb.entries["c.g.l1.w"].data[:] = 0.0
        pb.entries["c.g.l1.b"].data[:] = 0.0
        pts = cloud(8, 4)
        graph = knn(pts, pts, 3)
        out = L.graph_conv("adapt", Tensor(pts), Tensor(feats(8, 2, 4)), graph, pb.entries, "c", 3)
        np.testing.assert_array_equal(out.data, np.zeros((8, 3)))

    def test_single_edge_hand_evaluation(self):
        # k=1, M=1, D=1, hand-set weights: one kernel block of width 2
        params = {
            "c.g.l0.w": Tensor(np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [2.0]])),
            "c.g.l0.b": Tensor(np.array([0.5])),
            "c.g.l1.w": Tensor(np.array([[1.0, -1.0]])),
            "c.g.l1.b": Tensor(np.array([0.25, 0.0])),
        }
        pts = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.3]])
        f = np.array([[2.0], [5.0]])
        graph = knn(pts, pts, 1)
        # edge 0 -> 1: dx = [0.1, 0, 0, -0.1, 0, 0.3]
        hidden = leaky(np.array([0.1 * 1.0 + 0.3 * 2.0 + 0.5]))  # 1.2
        kernel = np.array([hidden[0] * 1.0 + 0.25, hidden[0] * -1.0])  # [1.45, -1.2]
        df = np.array([2.0, 3.0])  # [f_0, f_1 - f_0]
        expected_0 = leaky(np.array([kernel @ df]))[0]
        out = L.graph_conv("adapt", Tensor(pts), Tensor(f), graph, params, "c", 1)
        assert out.data[0, 0] == pytest.approx(expected_0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_edge_reference(self, seed):
        pb = ParamBuilder(Rng(seed))
        L.adaptconv_params(pb, "c", 3, 5)
        pts = cloud(16, seed)
        fs = feats(16, 3, seed + 50)
        graph = knn(pts, pts, 4)
        out = L.graph_conv("adapt", Tensor(pts), Tensor(fs), graph, pb.entries, "c", 5)
        ref = adaptconv_reference(pts, fs, graph.neighbors, pb.entries, "c", 5)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12)

    def test_permutation_equivariance(self):
        pb = ParamBuilder(Rng(6))
        L.adaptconv_params(pb, "c", 2, 3)
        pts = cloud(12, 6)
        fs = feats(12, 2, 6)
        out = L.graph_conv("adapt", Tensor(pts), Tensor(fs), knn(pts, pts, 4), pb.entries, "c", 3)
        perm = np.random.default_rng(7).permutation(12)
        pts_p = pts[perm]
        out_p = L.graph_conv(
            "adapt", Tensor(pts_p), Tensor(fs[perm]), knn(pts_p, pts_p, 4), pb.entries, "c", 3
        )
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)

    def test_gradients(self):
        pb = ParamBuilder(Rng(8))
        L.adaptconv_params(pb, "c", 2, 3)
        pts = cloud(8, 8)
        pb.entries["coords"] = Tensor(pts, requires_grad=True)
        pb.entries["feats"] = Tensor(feats(8, 2, 8), requires_grad=True)
        graph = knn(pts, pts, 3)

        def f(p):
            return probe(L.graph_conv("adapt", p["coords"], p["feats"], graph, p, "c", 3), 80)

        assert finite_diff_check(f, pb.entries) < 1e-4

    def test_graph_size_mismatch(self):
        pb = ParamBuilder(Rng(9))
        L.adaptconv_params(pb, "c", 2, 3)
        pts = cloud(8, 9)
        graph = knn(pts, pts, 3)
        with pytest.raises(ValueError, match="graph covers"):
            L.graph_conv(
                "adapt", Tensor(pts[:5]), Tensor(feats(5, 2, 9)), graph, pb.entries, "c", 3
            )


class TestEdgeConv:
    def test_zero_theta_gives_zeros(self):
        params = {"c.theta": Tensor(np.zeros((4, 3)))}
        pts = cloud(6, 10)
        out = L.graph_conv(
            "edge", Tensor(pts), Tensor(feats(6, 2, 10)), knn(pts, pts, 2), params, "c", 3
        )
        np.testing.assert_array_equal(out.data, np.zeros((6, 3)))

    def test_identical_features_constant_output(self):
        pb = ParamBuilder(Rng(11))
        L.edgeconv_params(pb, "c", 2, 3)
        pts = cloud(6, 11)
        fs = np.tile([[1.5, -0.5]], (6, 1))
        out = L.graph_conv("edge", Tensor(pts), Tensor(fs), knn(pts, pts, 2), pb.entries, "c", 3)
        np.testing.assert_allclose(out.data, np.tile(out.data[0], (6, 1)), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_edge_reference(self, seed):
        pb = ParamBuilder(Rng(seed + 20))
        L.edgeconv_params(pb, "c", 3, 4)
        pts = cloud(14, seed + 20)
        fs = feats(14, 3, seed + 70)
        graph = knn(pts, pts, 4)
        out = L.graph_conv("edge", Tensor(pts), Tensor(fs), graph, pb.entries, "c", 4)
        ref = edgeconv_reference(fs, graph.neighbors, pb.entries["c.theta"].data, 4)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12)

    def test_gradients(self):
        pb = ParamBuilder(Rng(12))
        L.edgeconv_params(pb, "c", 2, 3)
        pts = cloud(8, 12)
        pb.entries["feats"] = Tensor(feats(8, 2, 12), requires_grad=True)
        graph = knn(pts, pts, 3)

        def f(p):
            return probe(L.graph_conv("edge", Tensor(pts), p["feats"], graph, p, "c", 3), 81)

        assert finite_diff_check(f, pb.entries) < 1e-4

    def test_no_gradient_reaches_the_coordinates(self):
        # the kernel has no generator, so the coordinates are not inputs of it
        pb = ParamBuilder(Rng(13))
        L.edgeconv_params(pb, "c", 2, 3)
        pts = Tensor(cloud(10, 13), requires_grad=True)
        fs = Tensor(feats(10, 2, 13), requires_grad=True)
        self_conv = L.graph_conv("edge", pts, fs, knn(pts.data, pts.data, 3), pb.entries, "c", 3)
        (xc, fc, xr, fr), nbrs, params = conv_case("edge", 6, 15, 4, 2, 3, 14)
        pool_conv = L._conv_over_edges("edge", xc, fc, xr, fr, nbrs, params, "c", 3)
        for out, coords, features, theta in (
            (self_conv, (pts,), (fs, fs), pb.entries["c.theta"]),
            (pool_conv, (xc, xr), (fc, fr), params["c.theta"]),
        ):
            assert all(t.requires_grad for t in coords + features)
            assert [id(p) for p in out._parents] == [id(t) for t in features + (theta,)]
            backward(probe(out, 15))
            assert all(c.grad is None for c in coords)
            assert all(f.grad is not None for f in features + (theta,))


def group_max_rows(x, group_size):
    """Max over consecutive row groups, [g*k, d] -> [g, d], as one node;
    ties route gradient to the earliest row of the group."""
    total, d = x.data.shape
    blocks = x.data.reshape(total // group_size, group_size, d)
    arg = blocks.argmax(axis=1)

    def bwd(g):
        gx = np.zeros(blocks.shape)
        np.put_along_axis(gx, arg[:, None, :], g[:, None, :], axis=1)
        x._accumulate(gx.reshape(total, d), owned=True)

    return Tensor._node(np.take_along_axis(blocks, arg[:, None, :], axis=1)[:, 0, :], (x,), bwd)


def test_group_max_rows_tie_to_first_slot():
    x = Tensor(np.array([[1.0], [1.0], [0.5], [2.0]]), requires_grad=True)
    out = group_max_rows(x, 2)
    np.testing.assert_array_equal(out.data, [[1.0], [2.0]])
    backward(out.sum())
    np.testing.assert_array_equal(x.grad, [[1.0], [0.0], [0.0], [1.0]])


def composite_conv(kind, xc, fc, xr, fr, neighbors, params, prefix, m_out):
    """The per-edge composite the fused convolution replaces, on the tape:
    gather each edge's ``[a_i, a_j - a_i]`` pairs, form the response, take the
    max over each centre's neighbours."""
    q, k = neighbors.shape
    centre, ref = np.repeat(np.arange(q), k), neighbors.reshape(-1)
    f_i, f_j = T.gather_rows(fc, centre), T.gather_rows(fr, ref)
    df = T.concat([f_i, subtract(f_j, f_i)], axis=1)
    if kind == "adapt":
        x_i, x_j = T.gather_rows(xc, centre), T.gather_rows(xr, ref)
        dx = T.concat([x_i, subtract(x_j, x_i)], axis=1)
        hidden = activation(
            T.linear(dx, params[f"{prefix}.g.l0.w"], params[f"{prefix}.g.l0.b"]),
            "leaky_relu", L.EDGE_SLOPE,
        )
        kernels = T.linear(hidden, params[f"{prefix}.g.l1.w"], params[f"{prefix}.g.l1.b"])
        n_edges, two_d = df.shape
        blocks = kernels.reshape(n_edges, m_out, two_d)
        h = (blocks * df.reshape(n_edges, 1, two_d)).sum(axis=2)
    else:
        h = T.linear(df, params[f"{prefix}.theta"], np.zeros(m_out))
    return group_max_rows(activation(h, "leaky_relu", L.EDGE_SLOPE), k)


WEIGHTS = {"adapt": ("c.g.l0.w", "c.g.l0.b", "c.g.l1.w", "c.g.l1.b"), "edge": ("c.theta",)}


def conv_case(kind, q, r, k, d, m_out, seed, pool=True):
    """Leaf tensors and a neighbour table: ``q`` centres over ``r`` references
    (``pool``: the centres are copies of the first q references, each its own
    zero-distance neighbour, as ``graph_pool`` builds them) or one cloud of
    ``q`` points over itself."""
    pb = ParamBuilder(Rng(seed))
    L.CONVS[kind](pb, "c", d, m_out)
    rng = np.random.default_rng(seed)
    pts, fs = rng.uniform(-1, 1, (r, 3)), rng.standard_normal((r, d))
    if pool:
        xc, fc = Tensor(pts[:q].copy(), True), Tensor(fs[:q].copy(), True)
        xr, fr = Tensor(pts, True), Tensor(fs, True)
        neighbors = knn(pts[:q], pts, k, exclude_self=False).neighbors
    else:
        xc = xr = Tensor(pts, True)
        fc = fr = Tensor(fs, True)
        neighbors = knn(pts, pts, k).neighbors
    return (xc, fc, xr, fr), neighbors, pb.entries


def run_conv(conv, kind, tensors, neighbors, params, m_out, seed):
    """Output and the gradients of the four point tensors and the weights
    under a random linear probe."""
    for t in list(tensors) + [params[n] for n in WEIGHTS[kind]]:
        t.grad = None
    out = conv(kind, *tensors, neighbors, params, "c", m_out)
    values = out.data.copy()
    backward(probe(out, seed))
    grads = [t.grad for t in tensors] + [params[n].grad for n in WEIGHTS[kind]]
    return values, grads


def assert_matches_composite(kind, tensors, neighbors, params, m_out, seed=0):
    got, got_g = run_conv(L._conv_over_edges, kind, tensors, neighbors, params, m_out, seed)
    ref, ref_g = run_conv(composite_conv, kind, tensors, neighbors, params, m_out, seed)
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    for a, b in zip(got_g, ref_g):
        if b is None:  # EdgeConv leaves the coordinates alone
            assert a is None
            continue
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("kind", ["adapt", "edge"])
class TestFusedConv:
    def test_pool_layout_matches_composite(self, kind):
        tensors, nbrs, params = conv_case(kind, 9, 20, 5, 3, 4, 90)
        assert (nbrs[:, 0] == np.arange(9)).all()  # each centre is its own neighbour
        assert_matches_composite(kind, tensors, nbrs, params, 4)

    def test_shared_cloud_matches_composite(self, kind):
        tensors, nbrs, params = conv_case(kind, 16, 16, 4, 2, 3, 91, pool=False)
        assert tensors[0] is tensors[2]
        assert_matches_composite(kind, tensors, nbrs, params, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_composite(self, kind, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(2, 40))
        pool = bool(rng.integers(0, 2))
        q = int(rng.integers(1, r + 1)) if pool else r
        k = int(rng.integers(1, min(8, r - (not pool)) + 1))
        d, m_out = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        tensors, nbrs, params = conv_case(kind, q, r, k, d, m_out, 200 + seed, pool=pool)
        assert_matches_composite(kind, tensors, nbrs, params, m_out, seed)

    def test_single_neighbour(self, kind):
        tensors, nbrs, params = conv_case(kind, 7, 12, 1, 2, 3, 92)
        assert_matches_composite(kind, tensors, nbrs, params, 3)

    def test_ragged_blocks(self, kind, monkeypatch):
        tensors, nbrs, params = conv_case(kind, 75, 90, 4, 3, 2, 93)
        # blocks of the fewest rows: 32, 32 and a ragged 11 centres
        runs = over_several_blocks(kind, 4, 2, monkeypatch)
        assert_matches_composite(kind, tensors, nbrs, params, 2)
        assert [b.stop - b.start for b in runs[-1]] == [32, 32, 11]  # the centre pass

    def test_backward_over_several_blocks(self, kind, monkeypatch):
        q, d, m_out = 100, 3, 4
        tensors, nbrs, params = conv_case(kind, q, 120, 4, d, m_out, 98)
        units = m_out + 1 if kind == "adapt" else 1  # generator units and the bias unit
        # 3 rows per backward block: 33 blocks of 3 and a ragged 1; the
        # forward's blocks take the fewest rows, 32
        monkeypatch.setattr(G, "_BLOCK_BYTES", 2 * m_out * max(units, d) * 3)
        runs = spy_forward_blocks(monkeypatch)
        counts = []

        def counted(rows, row_bytes):
            blocks = G.row_blocks(rows, row_bytes)
            counts.append(len(blocks))
            return blocks

        monkeypatch.setattr(L, "row_blocks", counted)
        assert_matches_composite(kind, tensors, nbrs, params, m_out)
        # the forward's passes over several blocks too, then the backward's
        assert max(map(len, runs)) > 1 and counts[-1] == 34

    def test_forward_bits_independent_of_block_size(self, kind, monkeypatch):
        # 300 centres at budgets of 32, 33 or 64 rows, or one block (an
        # unbounded budget); m_out * units is no multiple of 8, and at 33
        # features and 6 outputs BLAS rounds a product's rows by where they
        # fall in its row tiles, which blocks of 33 rows would move, as
        # would EdgeConv's weights read transposed
        seed = 94
        cases = itertools.product(((3, 5), (33, 6)), (32, 33, 64, None), (False, True))
        for (d, m_out), block_rows, taped in cases:
            # fresh inputs per case, and the blocked forward first, so no
            # buffer of an earlier forward can stand in for its rows
            seed += 1
            tensors, nbrs, params = conv_case(kind, 300, 330, 6, d, m_out, seed)
            for name in WEIGHTS[kind][1::2]:  # nonzero generator biases, as trained
                bias = params[name].data
                bias[:] = np.random.default_rng(seed).standard_normal(bias.shape)
            budget = 1 << 62 if block_rows is None else row_bytes(kind, 6, m_out) * block_rows
            with monkeypatch.context() as m:
                m.setattr(G, "_BLOCK_BYTES", budget)
                runs = spy_forward_blocks(m)
                with T.no_grad() if not taped else contextlib.nullcontext():
                    out = L._conv_over_edges(kind, *tensors, nbrs, params, "c", m_out)
            assert (len(runs[-1]) > 1) == (block_rows is not None)  # the centre pass
            grads = []
            if taped:  # at the default budget: the backward's blocks set its sums
                backward(probe(out, 5))
                grads = [t.grad for t in tensors] + [params[n].grad for n in WEIGHTS[kind]]
            whole, whole_grads = forward(kind, tensors, nbrs, params, m_out, taped)
            same_bits(out.data, whole)
            for a, b in zip(grads, whole_grads, strict=True):
                if b is None:
                    assert a is None
                else:
                    same_bits(a, b)

    def test_reference_grouping_edge_cases(self, kind, monkeypatch):
        # a reference that no edge reaches (it holds no row: the reference
        # pass takes ceil(count / width) rows of each), every edge on one
        # reference (more than a row of edges, so its edges take several
        # rows), one centre, and one neighbour
        tensors, nbrs, params = conv_case(kind, 6, 20, 3, 2, 3, 99)
        counts = np.bincount(nbrs.reshape(-1), minlength=20)
        assert (counts == 0).any()
        width = min(L._REF_WIDTH, counts.max())
        runs = spy_forward_blocks(monkeypatch)
        assert_matches_composite(kind, tensors, nbrs, params, 3)
        assert runs[0][-1].stop == (-(-counts // width)).sum() < 20  # the reference pass
        tensors, nbrs, params = conv_case(kind, 9, 12, 5, 2, 3, 100)
        nbrs = np.full_like(nbrs, 7)
        assert nbrs.size > L._REF_WIDTH
        assert_matches_composite(kind, tensors, nbrs, params, 3)
        for q, r, k in ((1, 10, 4), (8, 10, 1), (1, 1, 1)):
            tensors, nbrs, params = conv_case(kind, q, r, k, 3, 4, 101 + q + k)
            assert nbrs.shape == (q, k)
            assert_matches_composite(kind, tensors, nbrs, params, 4)

    def test_tied_neighbours_route_to_lower_slot(self, kind):
        tensors, _, params = conv_case(kind, 1, 4, 1, 2, 3, 95)
        for t in tensors[2:]:
            t.data[1:] = t.data[1]  # references 1, 2 and 3 coincide
        nbrs = np.array([[3, 1, 2]])  # every edge ties; slot 0 holds reference 3
        assert_matches_composite(kind, tensors, nbrs, params, 3)
        g_fr = tensors[3].grad
        assert np.abs(g_fr[3]).max() > 0.0
        np.testing.assert_array_equal(g_fr[1:3], 0.0)
        if kind == "adapt":
            np.testing.assert_array_equal(tensors[2].grad[1:3], 0.0)

    def test_neighbour_index_out_of_range(self, kind):
        tensors, nbrs, params = conv_case(kind, 5, 8, 2, 2, 3, 97)
        nbrs = nbrs.copy()
        nbrs[4, 1] = 8
        with pytest.raises(IndexError, match="out of range"):
            L._conv_over_edges(kind, *tensors, nbrs, params, "c", 3)

    def test_graph_conv_is_one_tape_node(self, kind):
        (xc, fc, _, _), nbrs, params = conv_case(kind, 10, 10, 3, 2, 3, 96, pool=False)
        graph = knn(xc.data, xc.data, 3)
        out = L.graph_conv(kind, xc, fc, graph, params, "c", 3)
        assert out._backward is not None
        assert all(p._backward is None for p in out._parents)


def test_forward_holds_neither_projection_whole():
    # an untaped forward holds the reference terms in edge order whole, and
    # each projection a block of rows at a time: the traced peak stays
    # below the size of the reference projection, which the forward once
    # held whole
    q, m_out = 1024, 32
    tensors, nbrs, params = conv_case("adapt", q, q, 8, 8, m_out, 400)
    projection = 8 * q * m_out * (m_out + 1)
    assert projection > 3 * G._BLOCK_BYTES
    tracemalloc.start()
    try:
        with T.no_grad():
            L._conv_over_edges("adapt", *tensors, nbrs, params, "c", m_out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < projection


def test_forward_blocks_take_whole_multiples_of_the_row_floor(monkeypatch):
    def sizes(rows):
        return [b.stop - b.start for b in L._forward_blocks(rows, 8)]

    assert L._MIN_BLOCK_ROWS == 32
    monkeypatch.setattr(G, "_BLOCK_BYTES", 8)  # a one-row budget
    assert sizes(65) == [32, 33]  # a lone last row joins the block before
    assert sizes(33) == [33]
    assert sizes(64) == [32, 32]
    assert sizes(0) == []
    monkeypatch.setattr(G, "_BLOCK_BYTES", 8 * 70)  # whole multiples of the floor
    assert sizes(100) == [64, 36]
    assert sizes(70) == [70]
    monkeypatch.setattr(G, "_BLOCK_BYTES", 1 << 62)  # unbounded
    assert sizes(1000) == [1000]


def test_carve_takes_whole_mib():
    small, large = L._carve((3, 5), (2,)), L._carve((1 << 17,), (1,))
    assert [a.shape for a in small] == [(3, 5), (2,)]
    assert small[0].base.size == 1 << 17 and large[0].base.size == 2 << 17
    assert np.shares_memory(small[0].base, small[1])


# sha256 of EdgeConv forward outputs on a pool table and on a self table,
# recorded before the forward was split into reference and centre passes:
# EdgeConv's one unit is the constant 1, so its grouped terms are the
# projections themselves and its forward keeps its bits
EDGE_FORWARD_DIGESTS = {
    "pool": "372dfd594b19ec49a7c0abacff58302df9d61f1c2a94c58394dd23d29ee968c0",
    "self": "032766f04906a1b6843eb34e39e58ee4a7852aea7361d1d33b4ca7f6459c7187",
}


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("table", ["pool", "self"])
def test_edge_forward_bits_are_frozen(table, taped):
    pool = table == "pool"
    shape = (96, 200, 8, 12, 16) if pool else (150, 150, 10, 7, 8)
    tensors, nbrs, params = conv_case("edge", *shape, 500, pool=pool)
    out = forward("edge", tensors, nbrs, params, shape[-1], taped)[0]
    assert hashlib.sha256(out.tobytes()).hexdigest() == EDGE_FORWARD_DIGESTS[table]


def same_bits(a, b):
    """Equal arrays, bit for bit: -0.0 and 0.0 differ here."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def row_bytes(kind, k, m_out):
    """The fused conv's bytes per centre row: its projection row, and its
    edges' pre-activations, scratch and responses."""
    units = m_out + 1 if kind == "adapt" else 1
    return 8 * (units * m_out + k * (2 * units + m_out))


def spy_forward_blocks(monkeypatch):
    """A list that gets the blocks of each pass the fused conv's forward
    runs, in the order it runs them."""
    runs, blocks_of = [], L._forward_blocks

    def spied(rows, row_bytes):
        runs.append(blocks_of(rows, row_bytes))
        return runs[-1]

    monkeypatch.setattr(L, "_forward_blocks", spied)
    return runs


def over_several_blocks(kind, k, m_out, monkeypatch):
    """Shrink the block budget to one centre row of k neighbours, so the
    forward's blocks take the fewest rows (``L._MIN_BLOCK_ROWS``): a conv
    of 100 centres runs its centre pass over 4 blocks.  Returns the
    spy of ``spy_forward_blocks``."""
    monkeypatch.setattr(G, "_BLOCK_BYTES", row_bytes(kind, k, m_out))
    return spy_forward_blocks(monkeypatch)


def assert_several_blocks(runs):
    """Some pass of a spied forward ran over more than one block."""
    assert max(map(len, runs)) > 1


def forward(kind, tensors, nbrs, params, m_out, taped):
    """Output, and taped the gradients, of the fused conv."""
    if taped:
        return run_conv(L._conv_over_edges, kind, tensors, nbrs, params, m_out, 5)
    with T.no_grad():
        out = L._conv_over_edges(kind, *tensors, nbrs, params, "c", m_out)
    assert out._backward is None
    return out.data, []


def on_threads(count, job):
    """``job()`` run on ``count`` threads at once, with the results in
    thread order; a thread's error is raised here."""
    results, errors = [None] * count, []
    start = threading.Barrier(count)

    def run(i):
        try:
            start.wait()
            results[i] = job()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize("kind", ["adapt", "edge"])
class TestParallelForward:
    """The fused conv run by several threads at once: it keeps no state
    between calls and starts no thread, so each caller gets the serial
    bits."""

    @pytest.mark.parametrize("taped", [False, True])
    def test_worker_counts_give_the_serial_bits(self, kind, taped, monkeypatch):
        # backward adds into the leaves' gradients, so each thread's forward
        # starts from its own copies of the leaves; at 33 features and 6
        # outputs BLAS rounds a product's rows by the rows it is given
        for d, m_out in ((3, 4), (33, 6)):
            tensors, nbrs, params = conv_case(kind, 100, 120, 4, d, m_out, 300 + taped)
            runs = over_several_blocks(kind, 4, m_out, monkeypatch)
            serial = forward(kind, tensors, nbrs, params, m_out, taped)
            assert_several_blocks(runs)

            def job():
                copies = [Tensor(t.data, True) for t in tensors]
                own = {n: Tensor(p.data, True) for n, p in params.items()}
                return forward(kind, copies, nbrs, own, m_out, taped)

            for workers in (2, 3):
                for out, grads in on_threads(workers, job):
                    same_bits(out, serial[0])
                    for a, b in zip(grads, serial[1], strict=True):
                        if b is None:
                            assert a is None
                        else:
                            same_bits(a, b)
            assert_matches_composite(kind, tensors, nbrs, params, m_out)

    def test_workers_share_no_buffer(self, kind, monkeypatch):
        # more threads than CPUs, many blocks per pass and a short switch
        # interval, so that threads interleave inside their passes
        workers = (os.cpu_count() or 1) + 2
        tensors, nbrs, params = conv_case(kind, 400, 400, 8, 6, 16, 310, pool=False)
        serial = forward(kind, tensors, nbrs, params, 16, False)[0]
        runs = over_several_blocks(kind, 8, 16, monkeypatch)  # blocks of 32 rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                outs = on_threads(workers, lambda: forward(kind, tensors, nbrs, params, 16, False))
                for out, _ in outs:
                    same_bits(out, serial)
            assert_several_blocks(runs)
        finally:
            sys.setswitchinterval(interval)

    def test_untaped_forward_is_the_taped_one(self, kind, monkeypatch):
        tensors, nbrs, params = conv_case(kind, 100, 120, 4, 3, 4, 320)
        runs = over_several_blocks(kind, 4, 4, monkeypatch)
        taped = forward(kind, tensors, nbrs, params, 4, True)[0]
        untaped = forward(kind, tensors, nbrs, params, 4, False)[0]
        assert_several_blocks(runs)
        same_bits(untaped, taped)
        for out, _ in on_threads(2, lambda: forward(kind, tensors, nbrs, params, 4, False)):
            same_bits(out, taped)

    def test_exact_zero_responses(self, kind, monkeypatch):
        # zero features (-0.0 among them): EdgeConv's responses are all exact
        # zeros, every edge ties, and the max must not depend on the tape
        tensors, nbrs, params = conv_case(kind, 100, 120, 4, 1, 4, 330)
        for t in tensors[1], tensors[3]:
            t.data[:] = 0.0
            t.data[::3] = -0.0
        runs = over_several_blocks(kind, 4, 4, monkeypatch)
        taped = forward(kind, tensors, nbrs, params, 4, True)[0]
        untaped = forward(kind, tensors, nbrs, params, 4, False)[0]
        assert_several_blocks(runs)
        if kind == "edge":
            assert (taped == 0.0).all()
        same_bits(untaped, taped)

    def test_small_forward_stays_on_the_calling_thread(self, kind, monkeypatch):
        # no forward starts a thread, however many blocks it takes
        tensors, nbrs, params = conv_case(kind, 100, 120, 4, 3, 4, 340)
        runs = over_several_blocks(kind, 4, 4, monkeypatch)

        def no_thread(self):
            raise AssertionError("the fused conv started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        forward(kind, tensors, nbrs, params, 4, True)
        forward(kind, tensors, nbrs, params, 4, False)
        assert_several_blocks(runs)

    def test_forked_child_runs_a_parallel_forward(self, kind, monkeypatch):
        # a child forked after forwards ran on several threads runs them
        # again on several threads, with the same bits
        tensors, nbrs, params = conv_case(kind, 100, 120, 4, 3, 4, 350)
        runs = over_several_blocks(kind, 4, 4, monkeypatch)
        expected = forward(kind, tensors, nbrs, params, 4, False)[0]
        assert_several_blocks(runs)
        on_threads(2, lambda: forward(kind, tensors, nbrs, params, 4, False))
        child = multiprocessing.get_context("fork").Process(
            target=_forward_or_fail, args=(kind, tensors, nbrs, params, expected)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child's forwards did not finish in 60 s")
        assert child.exitcode == 0


def _forward_or_fail(kind, tensors, nbrs, params, expected):
    """A forked child's forwards on two threads; exits non-zero on other
    bits."""
    outs = on_threads(2, lambda: forward(kind, tensors, nbrs, params, 4, False)[0])
    same = all(np.array_equal(out.view(np.uint64), expected.view(np.uint64)) for out in outs)
    sys.exit(0 if same else 1)


class TestGraphPool:
    def make(self, n, d_in, d_out, seed):
        pb = ParamBuilder(Rng(seed))
        L.adaptconv_params(pb, "p", d_in, d_out)
        return cloud(n, seed), feats(n, d_in, seed + 30), pb.entries

    def test_full_pool_reorders_by_selection(self):
        pts, fs, params = self.make(10, 2, 3, 13)
        idx, coords_out, feats_out = L.graph_pool(
            Tensor(pts), Tensor(fs), 10, 4, params, "p", 3, "adapt"
        )
        np.testing.assert_array_equal(idx, fps(pts, 10))
        np.testing.assert_array_equal(coords_out.data, pts[fps(pts, 10)])
        assert feats_out.shape == (10, 3)

    def test_pool_to_one_is_start_point(self):
        pts, fs, params = self.make(9, 2, 3, 14)
        _, coords_out, _ = L.graph_pool(Tensor(pts), Tensor(fs), 1, 4, params, "p", 3, "adapt")
        np.testing.assert_array_equal(coords_out.data, pts[fps(pts, 1)])

    def test_recomposition_from_primitives(self):
        pts, fs, params = self.make(32, 2, 3, 15)
        _, coords_out, feats_out = L.graph_pool(
            Tensor(pts), Tensor(fs), 8, 5, params, "p", 3, "adapt"
        )
        idx = fps(pts, 8)
        np.testing.assert_array_equal(coords_out.data, pts[idx])
        graph = knn(pts[idx], pts.view(), 5)
        ref = np.empty((8, 3))
        w = params
        for a, i in enumerate(idx):
            responses = []
            for j in graph.neighbors[a]:
                dx = np.concatenate([pts[i], pts[j] - pts[i]])
                kern = leaky(dx @ w["p.g.l0.w"].data + w["p.g.l0.b"].data) @ w["p.g.l1.w"].data + w["p.g.l1.b"].data
                df = np.concatenate([fs[i], fs[j] - fs[i]])
                responses.append([leaky(kern[m * 4:(m + 1) * 4] @ df) for m in range(3)])
            ref[a] = np.max(responses, axis=0)
        np.testing.assert_allclose(feats_out.data, ref, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["adapt", "edge"])
    @pytest.mark.parametrize("n, k", [(32, 5), (6, 5), (5, 5), (40, 16)])
    def test_self_graph_gives_the_searched_pool(self, kind, n, k):
        # n <= k + 1 included: the graph row holds every other point
        pb = ParamBuilder(Rng(n))
        L.CONVS[kind](pb, "p", 2, 3)
        pts, fs = cloud(n, 40 + n), feats(n, 2, 41 + n)
        pts[3] = pts[1]  # a duplicated point
        searched = L.graph_pool(Tensor(pts), Tensor(fs), n // 2, k, pb.entries, "p", 3, kind)
        derived = L.graph_pool(
            Tensor(pts), Tensor(fs), n // 2, k, pb.entries, "p", 3, kind, self_graph(pts, k)
        )
        np.testing.assert_array_equal(derived[0], searched[0])
        np.testing.assert_array_equal(derived[2].data, searched[2].data)

    def pool1_table(self, monkeypatch, pts, k):
        """The neighbour table ``graph_pool`` convolves over, given the
        cloud's self graph, and the kept indices."""
        tables = []
        conv = L._conv_over_edges

        def spy(*args):
            tables.append(args[5])
            return conv(*args)

        monkeypatch.setattr(L, "_conv_over_edges", spy)
        n = pts.shape[0]
        pb = ParamBuilder(Rng(n))
        L.CONVS["edge"](pb, "p", 2, 3)
        idx, _, _ = L.graph_pool(
            Tensor(pts), Tensor(feats(n, 2, n)), n // 2, k, pb.entries, "p", 3, "edge",
            self_graph(pts, k),
        )
        return tables[0], idx

    @pytest.mark.parametrize("n, k", [(40, 1), (40, 8), (300, 16), (17, 16), (9, 16), (2, 16)])
    def test_pool1_table_is_the_searched_one(self, monkeypatch, n, k):
        pts = cloud(n, 60 + n)
        table, idx = self.pool1_table(monkeypatch, pts, k)
        searched = knn(pts[idx], pts, min(k, n), exclude_self=False).neighbors
        np.testing.assert_array_equal(table, searched)

    @pytest.mark.parametrize("distinct", [120, 100])
    def test_pool1_table_is_the_searched_one_with_duplicates(self, monkeypatch, distinct):
        # fps keeps the lowest-index copy of coincident points, whose graph
        # row lists the other copies first; with 100 distinct points fps
        # repeats points to keep 150
        pts = cloud(300, 62)
        pts[distinct:] = pts[np.arange(300 - distinct) % distinct]
        pts[280:] = pts[7]  # one point 23 times over, more than k
        table, idx = self.pool1_table(monkeypatch, pts, 8)
        assert 7 in idx
        searched = knn(pts[idx], pts, 8, exclude_self=False).neighbors
        np.testing.assert_array_equal(table, searched)

    def test_pool_samples_over_the_graph(self, monkeypatch):
        graphs = []

        def spy(cloud, n, graph=None):
            graphs.append(graph)
            return fps(cloud, n, graph)

        monkeypatch.setattr(L, "fps", spy)
        pts, fs, params = self.make(32, 2, 3, 19)
        graph = self_graph(pts, 5)
        L.graph_pool(Tensor(pts), Tensor(fs), 16, 5, params, "p", 3, "adapt", graph)
        L.graph_pool(Tensor(pts), Tensor(fs), 16, 5, params, "p", 3, "adapt")
        assert graphs[0] is graph and graphs[1] is None

    @pytest.mark.parametrize("graph_k, graph_n", [(3, 32), (8, 20), (8, 40)])
    def test_graph_too_narrow_or_small_rejected(self, graph_k, graph_n):
        pts, fs, params = self.make(32, 2, 3, 17)
        other = cloud(graph_n, 18)
        graph = knn(other, other, graph_k)
        with pytest.raises(ValueError, match="graph_pool: graph"):
            L.graph_pool(Tensor(pts), Tensor(fs), 16, 8, params, "p", 3, "adapt", graph)

    def test_pool_too_large(self):
        pts, fs, params = self.make(5, 2, 3, 16)
        with pytest.raises(ValueError):
            L.graph_pool(Tensor(pts), Tensor(fs), 6, 3, params, "p", 3, "adapt")


class TestInterpolateUp:
    def test_coincident_query_takes_support_feature(self):
        sup = cloud(5, 17)
        sf = feats(5, 4, 17)
        query = np.vstack([sup[2], [[0.9, 0.9, 0.9]]])
        out = L.interpolate_up(Tensor(query), Tensor(sup), Tensor(sf), table(query, sup))
        np.testing.assert_allclose(out.data[0], sf[2], atol=1e-6)

    def test_constant_features_reproduced_exactly(self):
        sup = cloud(6, 18)
        sf = np.tile([[2.0, -1.0]], (6, 1))
        q = cloud(4, 19)
        out = L.interpolate_up(Tensor(q), Tensor(sup), Tensor(sf), table(q, sup))
        np.testing.assert_allclose(out.data, np.tile([2.0, -1.0], (4, 1)), rtol=1e-12)

    def test_matches_naive_loop(self):
        sup, q = cloud(7, 20), cloud(5, 21)
        sf = feats(7, 3, 20)
        out = L.interpolate_up(Tensor(q), Tensor(sup), Tensor(sf), table(q, sup))
        for i in range(5):
            d = np.sqrt(((sup - q[i]) ** 2).sum(axis=1) + 1e-16)
            order = np.argsort(d, kind="stable")[:3]
            w = 1.0 / (d[order] + 1e-8)
            w = w / w.sum()
            np.testing.assert_allclose(out.data[i], w @ sf[order], rtol=1e-10)

    def test_too_few_support_points(self):
        # three neighbours among two support points: the table cannot be built
        with pytest.raises(ValueError):
            L.interpolate_up(
                Tensor(cloud(3, 22)), Tensor(cloud(2, 23)), Tensor(feats(2, 2, 23)),
                table(cloud(3, 22), cloud(2, 23)),
            )

    def test_table_must_cover_every_query_point(self):
        sup = cloud(5, 22)
        with pytest.raises(ValueError, match="neighbour rows"):
            L.interpolate_up(
                Tensor(cloud(3, 22)), Tensor(sup), Tensor(feats(5, 2, 23)),
                table(cloud(2, 22), sup),
            )

    def test_gradients_through_coords_and_features(self):
        params = {
            "q": Tensor(cloud(4, 24), requires_grad=True),
            "s": Tensor(cloud(6, 25), requires_grad=True),
            "f": Tensor(feats(6, 3, 25), requires_grad=True),
        }

        def f(p):
            nearest = table(p["q"].data, p["s"].data)
            return probe(L.interpolate_up(p["q"], p["s"], p["f"], nearest), 82)

        assert finite_diff_check(f, params) < 1e-4

    def test_query_and_support_as_one_tensor(self):
        params = {
            "x": Tensor(cloud(7, 26), requires_grad=True),
            "f": Tensor(feats(7, 3, 26), requires_grad=True),
        }

        def f(p):
            nearest = table(p["x"].data, p["x"].data)
            return probe(L.interpolate_up(p["x"], p["x"], p["f"], nearest), 83)

        assert finite_diff_check(f, params) < 1e-4

    def test_one_tape_node(self):
        q, s, f = (
            Tensor(a, requires_grad=True) for a in (cloud(4, 27), cloud(6, 28), feats(6, 2, 28))
        )
        out = L.interpolate_up(q, s, f, table(q.data, s.data))
        assert out._parents == (q, s, f)


class TestAggregatePrev:
    def test_constructed_identity(self):
        # linear = identity on the own-feature block, zero on the fetched block
        w = np.vstack([np.eye(3), np.zeros((2, 3))])
        params = {"a.w": Tensor(w), "a.b": Tensor(np.zeros(3))}
        pts = cloud(6, 26)
        fs = feats(6, 3, 26)
        out = L.aggregate_prev(Tensor(pts), Tensor(fs), cloud(4, 27), Tensor(feats(4, 2, 27)), params, "a")
        np.testing.assert_allclose(out.data, fs, atol=1e-12)

    def test_single_prev_point_broadcasts(self):
        pb = ParamBuilder(Rng(28))
        L.aggregate_prev_params(pb, "a", 2, 3, 4)
        pts = cloud(5, 28)
        fs = feats(5, 2, 28)
        prev_f = feats(1, 3, 29)
        out = L.aggregate_prev(Tensor(pts), Tensor(fs), cloud(1, 29), Tensor(prev_f), pb.entries, "a")
        joined = np.hstack([fs, np.tile(prev_f, (5, 1))])
        expected = joined @ pb.entries["a.w"].data + pb.entries["a.b"].data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_matches_recomposition(self):
        pb = ParamBuilder(Rng(30))
        L.aggregate_prev_params(pb, "a", 2, 3, 4)
        pts, prev_pts = cloud(8, 30), cloud(5, 31)
        fs, prev_fs = feats(8, 2, 30), feats(5, 3, 31)
        out = L.aggregate_prev(Tensor(pts), Tensor(fs), prev_pts, Tensor(prev_fs), pb.entries, "a")
        j = nearest_index(pts, prev_pts)
        expected = np.hstack([fs, prev_fs[j]]) @ pb.entries["a.w"].data + pb.entries["a.b"].data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_empty_prev_rejected(self):
        pb = ParamBuilder(Rng(32))
        L.aggregate_prev_params(pb, "a", 2, 3, 4)
        with pytest.raises(ValueError, match="empty"):
            L.aggregate_prev(
                Tensor(cloud(4, 32)), Tensor(feats(4, 2, 32)),
                np.empty((0, 3)), Tensor(np.empty((0, 3))), pb.entries, "a",
            )


def vmlp_reference(pts, graph, params, spec):
    """The per-sub formulation: each sub-net's pooled vector adjusted as a
    row of its own, repeated per point and joined to its coordinate column
    (three sub-nets) or to all three columns (one sub-net)."""
    n_subs = 3 if spec.kind == "vmlp" else 1
    n_pooled = 1 if spec.kind == "pointnet_mlp" else 4
    dims = tuple(3 * d for d in spec.sub_dims) if spec.kind == "one_subnet" else spec.sub_dims
    blocks = []
    for s in range(n_subs):
        _, per_layer = L.shared_mlp(
            Tensor(pts), L.LayerSpec(dims), params, f"v.sub{s}", collect=True
        )
        pooled = np.concatenate([o.data.max(axis=0) for o in per_layer[-n_pooled:]])
        code = pooled[None] @ params["v.adjust.w"].data + params["v.adjust.b"].data
        cols = pts[:, s:s + 1] if n_subs == 3 else pts
        blocks.append(np.hstack([np.repeat(code, len(pts), axis=0), cols]))
    per_point = Tensor(np.hstack(blocks))
    return L.graph_conv(
        "adapt", Tensor(pts), per_point, graph, params, "v.conv", spec.out_width
    ).data


class TestVmlp:
    SPEC = L.VmlpSpec(sub_dims=(2, 3, 4, 4, 6), adjust_width=3, out_width=5)

    def build(self, seed):
        pb = ParamBuilder(Rng(seed))
        L.vmlp_params(pb, "v", self.SPEC)
        return pb.entries

    def test_output_shape_default_toy_spec(self):
        spec = L.VmlpSpec(sub_dims=(16, 32, 64, 64, 128), adjust_width=32, out_width=128)
        pb = ParamBuilder(Rng(33))
        L.vmlp_params(pb, "v", spec)
        pts = cloud(10, 33)
        out = L.vmlp(Tensor(pts), self_graph(pts, 8), pb.entries, "v", spec)
        assert out.shape == (10, 128)

    def test_permutation_invariant_pooled_equivariant_rows(self):
        params = self.build(34)
        pts = cloud(9, 34)
        perm = np.random.default_rng(35).permutation(9)
        out, pooled = L.vmlp(
            Tensor(pts), self_graph(pts, 4), params, "v", self.SPEC, return_pooled=True
        )
        out_p, pooled_p = L.vmlp(
            Tensor(pts[perm]), self_graph(pts[perm], 4), params, "v", self.SPEC,
            return_pooled=True,
        )
        assert pooled.shape == (3, 17)  # three sub-nets, last four widths 3+4+4+6
        np.testing.assert_allclose(pooled_p.data, pooled.data, atol=1e-12)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-10)

    def test_duplication_leaves_pooled_vectors_unchanged(self):
        params = self.build(36)
        pts = cloud(7, 36)
        _, pooled = L.vmlp(
            Tensor(pts), self_graph(pts, 4), params, "v", self.SPEC, return_pooled=True
        )
        doubled = np.vstack([pts, pts])
        _, pooled_d = L.vmlp(
            Tensor(doubled), self_graph(doubled, 4), params, "v", self.SPEC,
            return_pooled=True,
        )
        assert pooled.shape == (3, 17)
        np.testing.assert_allclose(pooled_d.data, pooled.data, atol=1e-12)

    @pytest.mark.parametrize("kind", L.VMLP_KINDS)
    def test_matches_per_sub_reference(self, kind):
        spec = L.VmlpSpec(sub_dims=(2, 3, 4, 4, 6), adjust_width=3, out_width=5, kind=kind)
        pb = ParamBuilder(Rng(41))
        L.vmlp_params(pb, "v", spec)
        pts = cloud(12, 41)
        graph = self_graph(pts, 4)
        out = L.vmlp(Tensor(pts), graph, pb.entries, "v", spec)
        np.testing.assert_allclose(
            out.data, vmlp_reference(pts, graph, pb.entries, spec), rtol=1e-12
        )

    def test_one_pooling_node_per_stage(self):
        params = self.build(42)
        pts = cloud(8, 42)
        _, pooled = L.vmlp(
            Tensor(pts), self_graph(pts, 4), params, "v", self.SPEC, return_pooled=True
        )
        (pool,) = pooled._parents  # under the [subs, P] reshape
        assert len(pool._parents) == 3 * 4  # the last four layers of three sub-nets
        # three five-layer sub-nets, the pooling node and its reshape
        assert interior_nodes(pooled) == 3 * 5 + 2

    def test_variant_output_shapes(self):
        for kind in ("pointnet_mlp", "one_subnet"):
            spec = L.VmlpSpec(sub_dims=(2, 3, 4, 4, 6), adjust_width=3, out_width=5, kind=kind)
            pb = ParamBuilder(Rng(37))
            L.vmlp_params(pb, "v", spec)
            pts = cloud(8, 37)
            out = L.vmlp(Tensor(pts), self_graph(pts, 4), pb.entries, "v", spec)
            assert out.shape == (8, 5)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError, match="four layers"):
            L.VmlpSpec(sub_dims=(4, 4, 4), adjust_width=2, out_width=3)

    def test_too_few_points_rejected(self):
        params = self.build(38)
        pts = cloud(1, 38)
        graph = knn(pts, pts, 1, exclude_self=False)
        with pytest.raises(ValueError, match="at least 2"):
            L.vmlp(Tensor(pts), graph, params, "v", self.SPEC)

    def test_gradients(self):
        params = self.build(39)
        pts = cloud(6, 39)
        spec = self.SPEC
        graph = self_graph(pts, 4)

        def f(p):
            return probe(L.vmlp(Tensor(pts), graph, p, "v", spec), 83)

        # the kernel generator is wide; probe a sample of its coordinates
        assert finite_diff_check(f, params, coord_limit=40, rng=Rng(40)) < 1e-4


class TestFoldDecode:
    def build(self, feat_width, seed, hidden=(6, 4)):
        pb = ParamBuilder(Rng(seed))
        L.fold_decode_params(pb, "f", feat_width, hidden)
        return pb.entries

    def test_zero_final_layer_replicates_exactly(self):
        params = self.build(3, 40)
        params["f.l2.w"].data[:] = 0.0
        params["f.l2.b"].data[:] = 0.0
        pts = cloud(5, 40)
        out = L.fold_decode(Tensor(pts), Tensor(feats(5, 3, 40)), 4, 0.05, 16, params, "f", (6, 4))
        np.testing.assert_array_equal(out.data, np.tile(pts, (4, 1)))

    def test_k1_uses_center_code_and_count(self):
        np.testing.assert_array_equal(L.grid_codes(1, 16, 0.05), [[0.0, 0.0]])
        params = self.build(3, 41)
        pts = cloud(6, 41)
        out = L.fold_decode(Tensor(pts), Tensor(feats(6, 3, 41)), 1, 0.05, 16, params, "f", (6, 4))
        assert out.shape == (6, 3)

    def test_lattice_row_major(self):
        codes = L.grid_codes(5, 16, 0.05)
        axis = np.linspace(-0.05, 0.05, 4)
        np.testing.assert_allclose(codes[0], [axis[0], axis[0]])
        np.testing.assert_allclose(codes[3], [axis[3], axis[0]])
        np.testing.assert_allclose(codes[4], [axis[0], axis[1]])

    def test_k4_matches_per_replica_reference(self):
        params = self.build(2, 42)
        pts = cloud(3, 42)
        fs = feats(3, 2, 42)
        out = L.fold_decode(Tensor(pts), Tensor(fs), 4, 0.05, 16, params, "f", (6, 4))
        assert out.shape == (12, 3)
        codes = L.grid_codes(4, 16, 0.05)
        for c in range(4):
            for i in range(3):
                x = np.concatenate([codes[c], fs[i], pts[i]])
                h = np.maximum(x @ params["f.l0.w"].data + params["f.l0.b"].data, 0)
                h = np.maximum(h @ params["f.l1.w"].data + params["f.l1.b"].data, 0)
                disp = h @ params["f.l2.w"].data + params["f.l2.b"].data
                np.testing.assert_allclose(out.data[c * 3 + i], pts[i] + disp, rtol=1e-12)

    def test_bad_grid_settings(self):
        with pytest.raises(ValueError, match="perfect square"):
            L.grid_codes(3, 15, 0.05)
        with pytest.raises(ValueError, match="exceeds"):
            L.grid_codes(17, 16, 0.05)

    def test_gradients(self):
        params = self.build(2, 43)
        params["pts"] = Tensor(cloud(4, 43), requires_grad=True)
        params["ft"] = Tensor(feats(4, 2, 43), requires_grad=True)

        def f(p):
            return probe(L.fold_decode(p["pts"], p["ft"], 4, 0.05, 16, p, "f", (6, 4)), 84)

        assert finite_diff_check(f, params) < 1e-4
