"""Pipeline assembly: counts, contracts, identities, determinism."""
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcnet import geometry as G
from spcnet import layers as L
from spcnet import model as M
from spcnet import tensor as T
from spcnet.geometry import fps, knn
from spcnet.model import (
    ModelConfig,
    acm_forward,
    coarse_stage,
    global_code,
    init_params,
    scm_forward,
    spcnet_forward,
    stage_names,
)
from spcnet.rng import Rng
from spcnet.tensor import Tensor
from reference_ops import zero_fold_heads

TINY = ModelConfig(
    points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
    upsample_factors=(2, 2, 1),
)


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


def self_graph(pts):
    """The graph ``scm_forward`` builds on a joined cloud under TINY."""
    return knn(pts, pts, L.self_knn_k(TINY.knn_k, pts.shape[0]))


class TestModelConfig:
    def test_default_counts_match_published_configuration(self):
        cfg = ModelConfig()
        assert cfg.missing_count == 1024 and cfg.partial_count == 1024
        assert cfg.stage_counts() == [64, 256, 1024, 1024]

    def test_upsample_length_must_match_stage_count(self):
        with pytest.raises(ValueError, match="one entry"):
            ModelConfig(scm_count=2).validate()

    def test_divisibility_checks(self):
        with pytest.raises(ValueError, match="not divisible"):
            ModelConfig(points_per_shape=100, missing_ratio=0.5).validate()

    def test_bad_enumerations(self):
        with pytest.raises(ValueError):
            ModelConfig(conv_kind="dense").validate()
        with pytest.raises(ValueError):
            ModelConfig(loss_mode="3L").validate()
        with pytest.raises(ValueError):
            ModelConfig(sampling_kind="grid").validate()

    @pytest.mark.parametrize("change, message", [
        ({"down_rate": 0}, "down_rate must be >= 1, got 0"),
        ({"knn_k": 0}, "knn_k must be >= 1, got 0"),
        ({"width_scale": float("nan")}, "width_scale must be a positive finite number, got nan"),
        ({"width_scale": 0.0}, "width_scale must be a positive finite number, got 0.0"),
        ({"grid_r": float("inf")}, "grid_r must be finite, got inf"),
        ({"knn_k": 4.0}, "config key knn_k: expected an integer, got 4.0"),
        ({"upsample_factors": (2, "2", 1)},
         'config key upsample_factors: expected a list of integers, got [2, "2", 1]'),
        ({"use_aggregation": 1}, "config key use_aggregation: expected true or false, got 1"),
        ({"grid_count": 0}, "grid_count must be a positive perfect square, got 0"),
        ({"grid_count": -4}, "grid_count must be a positive perfect square, got -4"),
        ({"grid_count": 15}, "grid_count must be a positive perfect square, got 15"),
        ({"grid_count": 1}, "upsample factor 2 exceeds grid_count 1"),
        ({"grid_count": 4, "upsample_factors": (2, 9, 1)}, "upsample factor 9 exceeds grid_count 4"),
        ({"down_rate": 3}, "partial input of 32 points does not divide by down-sampling rate 3 "
         "over 2 levels"),
        ({"missing_ratio": 0.9375}, "partial input of 4 points does not divide by down-sampling "
         "rate 2 over 2 levels"),
        ({"scm_count": 2, "upsample_factors": (2, 2), "partial_substitution": "pnkk-pn"},
         "pnkk-pn substitution needs the three-stage chain"),
        ({"scm_count": 1, "upsample_factors": (2,), "partial_substitution": "pnk-pn"},
         "pnk-pn substitution needs at least two stages"),
    ])
    def test_replace_cannot_make_an_invalid_config(self, change, message):
        with pytest.raises(ValueError) as info:
            replace(TINY, **change)
        assert str(info.value) == message

    def test_factors_up_to_grid_count_are_accepted(self):
        assert replace(TINY, grid_count=4, upsample_factors=(4, 2, 1)).grid_count == 4
        assert replace(TINY, grid_count=1, upsample_factors=(1, 1, 1)).grid_count == 1

    def test_values_take_their_field_type(self):
        cfg = ModelConfig(upsample_factors=[4, 4, 1], grid_r=1)
        assert cfg.upsample_factors == (4, 4, 1) and cfg.grid_r == 1.0
        assert type(cfg.grid_r) is float
        assert cfg == ModelConfig(grid_r=1.0)

    def test_reversed_ratio(self):
        cfg = ModelConfig(missing_ratio=0.25)
        assert cfg.reversed_ratio().missing_ratio == 0.75

    @given(
        scm_count=st.integers(1, 3),
        factor=st.sampled_from([1, 2, 4]),
        base=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_stage_count_bookkeeping(self, scm_count, factor, base):
        factors = tuple([factor] * (scm_count - 1) + [1])
        total = 2 * base * int(np.prod(factors)) * (2 ** (scm_count - 1)) * 8
        cfg = ModelConfig(
            points_per_shape=total, scm_count=scm_count, upsample_factors=factors,
            down_rate=2, width_scale=0.0625, knn_k=4,
        )
        counts = cfg.stage_counts()
        assert len(counts) == scm_count + 1
        assert counts[0] == cfg.coarse_count
        for i, u in enumerate(cfg.upsample_factors):
            assert counts[i + 1] == counts[i] * u
        assert counts[-1] == cfg.missing_count


class TestInitParams:
    # sha256 of init_params(config, 5) for each (conv_kind, vmlp_kind) at the
    # benchmark's desk width, frozen from the one-value-per-step generator loop:
    # the names, shapes and float64 bytes in walk order.  The weights range
    # from 24 to 32768 values, so both the short-draw loop and the lane path
    # of Rng.uniform_array are pinned, and with them checkpoint bytes.
    DIGESTS = {
        ("adapt", "vmlp"): "7908cd3fa624a63b32e59e8d380f455f3e8e3e660494c164e277a7d0f80ccac3",
        ("adapt", "pointnet_mlp"): "faeace3be109bb160808bba90a7e13bb9f7d7f6228db8d5eabd5c91e8d4def63",
        ("adapt", "one_subnet"): "9f62c79095f9117eb763b385196f607ae9a8035a9f846ff6f50d29559f42aafa",
        ("edge", "vmlp"): "0ff561b47079173ed026e8680f23c9af9a5b0d13f0ea1f3ca9271becab55b906",
        ("edge", "pointnet_mlp"): "8d07e113f87eea17310cc0b2b19fa6e8e4005c718806424455390e96fc01b952",
        ("edge", "one_subnet"): "af0e2dd365a4dade0366aaa88445edcf375c817590613078d42d170153d7d007",
    }

    @pytest.mark.parametrize("conv_kind, vmlp_kind", sorted(DIGESTS))
    def test_init_bits_are_frozen(self, conv_kind, vmlp_kind):
        cfg = replace(TINY, width_scale=0.125, conv_kind=conv_kind, vmlp_kind=vmlp_kind)
        digest = hashlib.sha256()
        for name, p in init_params(cfg, 5).items():
            digest.update(name.encode())
            digest.update(repr(p.data.shape).encode())
            digest.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.DIGESTS[conv_kind, vmlp_kind]


class TestStageNames:
    def test_full_chain_is_named_by_resolution(self):
        assert stage_names(4) == ["coarse", "mid", "fine", "final"]

    def test_shorter_chains_are_numbered(self):
        assert stage_names(2) == ["stage0", "stage1"]
        assert stage_names(3) == ["stage0", "stage1", "stage2"]


class TestGlobalCode:
    def test_normalized_and_blind_to_offset_and_scale(self):
        feats = np.random.default_rng(0).standard_normal((10, 6))
        code = global_code(Tensor(feats)).data
        assert code.shape == (6,)
        assert abs(code.mean()) < 1e-12 and abs(code.var() - 1.0) < 1e-3
        shifted = global_code(Tensor(3.0 * feats + 2.0)).data
        np.testing.assert_allclose(shifted, code, rtol=1e-4, atol=1e-6)


class TestCoarseStage:
    def test_counts(self):
        params = init_params(TINY, 0)
        out = coarse_stage(Tensor(cloud(8, 0)), params, TINY)
        assert out.shape == (TINY.coarse_count, 3)

    def test_permutation_invariant(self):
        params = init_params(TINY, 1)
        pts = cloud(8, 1)
        perm = np.random.default_rng(2).permutation(8)
        a = coarse_stage(Tensor(pts), params, TINY)
        b = coarse_stage(Tensor(pts[perm]), params, TINY)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_zeroed_decoder_outputs_bias_location(self):
        params = init_params(TINY, 2)
        params["coarse.dec.l1.w"].data[:] = 0.0
        params["coarse.dec.l1.b"].data[:] = 0.25
        out = coarse_stage(Tensor(cloud(8, 3)), params, TINY)
        np.testing.assert_array_equal(out.data, np.full((TINY.coarse_count, 3), 0.25))

    def test_decoder_sees_the_code_up_to_scale(self):
        # scaling the encoder's last norm scales the max-pooled code; the
        # normalization before the decoder cancels it up to the norm's epsilon
        params = init_params(TINY, 6)
        pts = Tensor(cloud(8, 6))
        before = coarse_stage(pts, params, TINY).data
        for role in ("gamma", "beta"):
            params[f"coarse.enc.l2.bn.{role}"].data *= 3.0
        after = coarse_stage(pts, params, TINY).data
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-6)

    def test_too_few_points(self):
        params = init_params(TINY, 3)
        with pytest.raises(ValueError, match="at least 2"):
            coarse_stage(Tensor(cloud(1, 4)), params, TINY)


class TestAcmForward:
    def test_row_order_contract_enforced(self):
        params = init_params(TINY, 4)
        whole_np = cloud(12, 5)
        wrong_tail = Tensor(cloud(4, 6))
        feats = Tensor(np.random.default_rng(7).standard_normal((12, 16)))
        with pytest.raises(ValueError, match="row-order"):
            acm_forward(
                Tensor(whole_np), wrong_tail, feats, self_graph(whole_np), 2, params,
                "scm0.acm", TINY,
            )

    def test_upsample_one_preserves_count(self):
        params = init_params(TINY, 5)
        whole_np = cloud(12, 8)
        tail = Tensor(whole_np[-4:])
        g = TINY and init_params  # noqa: F841  (kept local names tidy)
        feats = Tensor(np.random.default_rng(9).standard_normal((12, 8)))
        out = acm_forward(
            Tensor(whole_np), tail, feats, self_graph(whole_np), 1, params, "scm2.acm", TINY
        )
        assert out.shape == (4, 3)

    def test_zeroed_fold_head_replicates_tail(self):
        params = init_params(TINY, 6)
        zero_fold_heads(params, TINY)
        whole_np = cloud(12, 10)
        tail = Tensor(whole_np[-4:])
        feats = Tensor(np.random.default_rng(11).standard_normal((12, 8)))
        out = acm_forward(
            Tensor(whole_np), tail, feats, self_graph(whole_np), 2, params, "scm0.acm", TINY
        )
        np.testing.assert_array_equal(out.data, np.tile(whole_np[-4:], (2, 1)))


class TestScmForward:
    def test_counts_and_handoff(self):
        params = init_params(TINY, 7)
        partial = Tensor(cloud(8, 12))
        coarse = Tensor(cloud(4, 13))
        refined, handoff = scm_forward(partial, coarse, None, 0, params, TINY)
        assert refined.shape == (8, 3)
        handoff_pts, handoff_feat = handoff
        assert handoff_pts.shape == (12, 3)
        assert handoff_feat.shape[0] == 12

    def test_missing_prev_feature_rejected(self):
        params = init_params(TINY, 8)
        with pytest.raises(ValueError, match="hand-off"):
            scm_forward(Tensor(cloud(16, 14)), Tensor(cloud(8, 15)), None, 1, params, TINY)

    def test_each_stage_builds_its_self_graph_once(self, monkeypatch):
        calls = []

        def spy(query, reference, k, exclude_self=None):
            calls.append((query.shape, query.tobytes(), reference.shape, reference.tobytes(), k))
            return knn(query, reference, k, exclude_self)

        monkeypatch.setattr(M, "knn", spy)
        monkeypatch.setattr(L, "knn", spy)
        spcnet_forward(Tensor(cloud(TINY.partial_count, 21)), init_params(TINY, 12), TINY)
        # per stage: the self graph, pool2's search and both interpolations';
        # pool1 reads the self graph
        assert len(calls) == 4 * TINY.scm_count == 12
        assert len(set(calls)) == len(calls)

    def test_no_search_over_a_joined_cloud_but_its_self_graph(self, monkeypatch):
        calls = []  # (query, reference, whether the call is a self graph)

        def spy(query, reference, k, exclude_self=None):
            calls.append((query.copy(), reference.copy(), query is reference))
            return knn(query, reference, k, exclude_self)

        for module in (G, L, M):
            monkeypatch.setattr(module, "knn", spy)
        spcnet_forward(Tensor(cloud(TINY.partial_count, 22)), init_params(TINY, 13), TINY)
        joined = [reference for _, reference, own in calls if own]
        assert len(joined) == TINY.scm_count
        for query, reference, own in calls:
            if not own:
                assert not any(np.array_equal(reference, j) for j in joined)

    def test_interpolation_tables_hold_the_support_clouds_nearest(self, monkeypatch):
        tables = []

        def spy(query_coords, support_coords, support_feats, neighbors):
            tables.append((query_coords.data, support_coords.data, neighbors))
            return interpolate_up(query_coords, support_coords, support_feats, neighbors)

        interpolate_up = L.interpolate_up
        monkeypatch.setattr(L, "interpolate_up", spy)
        spcnet_forward(Tensor(cloud(TINY.partial_count, 24)), init_params(TINY, 15), TINY)
        assert len(tables) == 2 * TINY.scm_count
        for query, support, neighbors in tables:
            searched = knn(query, support, min(3, support.shape[0]), exclude_self=False)
            np.testing.assert_array_equal(neighbors, searched.neighbors)

    @pytest.mark.parametrize("kind", ["adapt", "edge"])
    def test_interpolations_query_only_the_predicted_rows(self, monkeypatch, kind):
        cfg = replace(TINY, conv_kind=kind)
        queries = []

        def spy(query_coords, support_coords, support_feats, neighbors):
            queries.append(query_coords.data)
            return interpolate_up(query_coords, support_coords, support_feats, neighbors)

        interpolate_up = L.interpolate_up
        monkeypatch.setattr(L, "interpolate_up", spy)
        out = spcnet_forward(Tensor(cloud(cfg.partial_count, 25)), init_params(cfg, 16), cfg)
        assert len(queries) == 2 * cfg.scm_count
        # stage i refines stage i's prediction: those rows alone are queried
        for i, stage in enumerate(out.stages[:-1]):
            np.testing.assert_array_equal(queries[2 * i], stage.data)
            np.testing.assert_array_equal(queries[2 * i + 1], stage.data)

    @pytest.mark.parametrize("kind", ["adapt", "edge"])
    def test_tables_read_off_the_graph_change_no_bit(self, monkeypatch, kind):
        cfg = replace(TINY, conv_kind=kind)
        params = init_params(cfg, 14)
        partial = Tensor(np.round(cloud(cfg.partial_count, 23) * 2) / 2)  # ties, duplicates
        graph_pool = L.graph_pool

        def searched(coords, features, pool_n, k, params, prefix, out_width, kind, graph=None):
            return graph_pool(coords, features, pool_n, k, params, prefix, out_width, kind)

        derived = spcnet_forward(partial, params, cfg).stages
        monkeypatch.setattr(L, "graph_pool", searched)
        for a, b in zip(derived, spcnet_forward(partial, params, cfg).stages):
            np.testing.assert_array_equal(a.data, b.data)


class TestSpcnetForward:
    def test_published_stage_counts_at_full_resolution(self):
        # 2048-point shapes at ratio 0.5, rate 4, upsample (4, 4, 1)
        cfg = ModelConfig(width_scale=0.03125, knn_k=8)
        params = init_params(cfg, 10)
        out = spcnet_forward(Tensor(cloud(1024, 19)), params, cfg)
        assert out.counts() == [64, 256, 1024, 1024]
        assert out.stages[0].shape[0] == 64
        assert out.stages[1].shape[0] == 256
        assert out.stages[2].shape[0] == 1024
        assert out.final.shape[0] == 1024

    def test_single_stage_config(self):
        cfg = ModelConfig(
            points_per_shape=16, scm_count=1, upsample_factors=(1,),
            width_scale=0.0625, knn_k=3,
        )
        params = init_params(cfg, 11)
        out = spcnet_forward(Tensor(cloud(8, 20)), params, cfg)
        assert out.counts() == [8, 8]

    def test_wrong_input_count_rejected(self):
        params = init_params(TINY, 12)
        with pytest.raises(ValueError, match="partial cloud of 32"):
            spcnet_forward(Tensor(cloud(20, 21)), params, TINY)

    def test_deterministic(self):
        params = init_params(TINY, 13)
        pts = cloud(32, 22)
        a = spcnet_forward(Tensor(pts), params, TINY)
        b = spcnet_forward(Tensor(pts), params, TINY)
        for sa, sb in zip(a.stages, b.stages):
            np.testing.assert_array_equal(sa.data, sb.data)

    def test_rps_sampling_needs_rng_and_is_seeded(self):
        cfg = ModelConfig(
            points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
            upsample_factors=(2, 2, 1), sampling_kind="rps",
        )
        params = init_params(cfg, 14)
        pts = cloud(32, 23)
        with pytest.raises(ValueError, match="rng"):
            spcnet_forward(Tensor(pts), params, cfg)
        a = spcnet_forward(Tensor(pts), params, cfg, rng=Rng(3))
        b = spcnet_forward(Tensor(pts), params, cfg, rng=Rng(3))
        np.testing.assert_array_equal(a.final.data, b.final.data)

    def test_zeroed_fold_heads_replicate_coarse_end_to_end(self):
        params = init_params(TINY, 15)
        zero_fold_heads(params, TINY)
        out = spcnet_forward(Tensor(cloud(32, 24)), params, TINY)
        coarse, mid, fine = (s.data for s in out.stages[:3])
        np.testing.assert_array_equal(mid, np.tile(coarse, (2, 1)))
        np.testing.assert_array_equal(fine, np.tile(np.tile(coarse, (2, 1)), (2, 1)))
        np.testing.assert_array_equal(out.final.data, fine)

    def test_partial_substitution_keeps_counts(self):
        for sub in ("pnk-pn", "pnkk-pn"):
            cfg = ModelConfig(
                points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
                upsample_factors=(2, 2, 1), partial_substitution=sub,
            )
            params = init_params(cfg, 16)
            out = spcnet_forward(Tensor(cloud(32, 25)), params, cfg)
            assert out.counts() == cfg.stage_counts()

    def test_no_aggregation_variant(self):
        cfg = ModelConfig(
            points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
            upsample_factors=(2, 2, 1), use_aggregation=False,
        )
        params = init_params(cfg, 17)
        assert not any(".agg." in name for name in params)
        out = spcnet_forward(Tensor(cloud(32, 26)), params, cfg)
        assert out.counts() == cfg.stage_counts()

    def test_edge_conv_variant(self):
        cfg = ModelConfig(
            points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
            upsample_factors=(2, 2, 1), conv_kind="edge",
        )
        params = init_params(cfg, 18)
        assert any(name.endswith(".theta") for name in params)
        out = spcnet_forward(Tensor(cloud(32, 27)), params, cfg)
        assert out.counts() == cfg.stage_counts()

    def test_vmlp_variants_run(self):
        for kind in ("pointnet_mlp", "one_subnet"):
            cfg = ModelConfig(
                points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
                upsample_factors=(2, 2, 1), vmlp_kind=kind,
            )
            params = init_params(cfg, 19)
            out = spcnet_forward(Tensor(cloud(32, 28)), params, cfg)
            assert out.counts() == cfg.stage_counts()

    def test_gradient_reaches_input_cloud(self):
        params = init_params(TINY, 20)
        pts = Tensor(cloud(32, 29), requires_grad=True)
        out = spcnet_forward(pts, params, TINY)
        T.backward(out.final.sum())
        assert pts.grad is not None
        assert np.abs(pts.grad).sum() > 0
