"""Losses, cycle arithmetic, the training loop, and evaluation."""
import hashlib
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spcnet.geometry as G
import spcnet.training as tr
from spcnet.data import generate_shapes
from spcnet.geometry import fps, viewpoint_split
from spcnet.gradcheck import finite_diff_check
from spcnet.model import ModelConfig, StageOutputs, init_params, spcnet_forward
from spcnet.optim import zero_grads
from spcnet.tensor import Tensor, backward
from spcnet.training import (
    LossWeights,
    TrainConfig,
    chamfer,
    cycle_total_loss,
    evaluate,
    nested_targets,
    stepwise_loss,
    train,
)

TINY = ModelConfig(
    points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
    upsample_factors=(2, 2, 1),
)


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


class TestChamfer:
    def test_identical_clouds_exactly_zero(self):
        pts = cloud(20, 0)
        assert chamfer(Tensor(pts), Tensor(pts)).item() == 0.0

    def test_single_pair_unit_distance(self):
        a = Tensor(np.array([[0.0, 0.0, 0.0]]))
        b = Tensor(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer(a, b).item() == 2.0

    def test_matches_naive_double_loop(self):
        a = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        b = np.array([[1.0, 0, 0]])
        # term A: mean(min d2) = (1 + 1)/2; term B: min over a of d2 = 1
        assert chamfer(Tensor(a), Tensor(b)).item() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-1, 1, (9, 3)), rng.uniform(-1, 1, (13, 3))
        term_a = np.mean([min(np.sum((p - q) ** 2) for q in b) for p in a])
        term_b = np.mean([min(np.sum((p - q) ** 2) for q in a) for p in b])
        assert chamfer(Tensor(a), Tensor(b)).item() == pytest.approx(term_a + term_b, rel=1e-13)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (int(rng.integers(1, 24)), 3))
        b = rng.uniform(-1, 1, (int(rng.integers(1, 24)), 3))
        ab = chamfer(Tensor(a), Tensor(b)).item()
        ba = chamfer(Tensor(b), Tensor(a)).item()
        assert ab == ba
        assert ab >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, (12, 3))
        base = chamfer(Tensor(a), Tensor(b)).item()
        shuffled = chamfer(Tensor(a[rng.permutation(10)]), Tensor(b[rng.permutation(12)])).item()
        assert shuffled == pytest.approx(base, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        params = {
            "a": Tensor(rng.uniform(-1, 1, (16, 3)), requires_grad=True),
            "b": Tensor(rng.uniform(-1, 1, (20, 3)), requires_grad=True),
        }
        err = finite_diff_check(lambda p: chamfer(p["a"], p["b"]), params)
        assert err < 1e-5

    def test_same_tensor_on_both_sides(self):
        params = {"x": Tensor(cloud(12, 8), requires_grad=True)}
        assert finite_diff_check(lambda p: chamfer(p["x"], p["x"]), params) < 1e-5
        np.testing.assert_array_equal(params["x"].grad, 0.0)

    def test_only_first_cloud_tracked_matches_both_tracked(self):
        a, b = cloud(15, 9), cloud(11, 10)
        both = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        backward(chamfer(*both) * 0.7)
        alone = Tensor(a, requires_grad=True)
        backward(chamfer(alone, Tensor(b)) * 0.7)
        np.testing.assert_array_equal(alone.grad, both[0].grad)

    def test_one_tape_node(self):
        a, b = Tensor(cloud(5, 11), requires_grad=True), Tensor(cloud(6, 12))
        assert chamfer(a, b)._parents == (a, b)

    def test_blocks_and_lattice_ties_match_full_matrix_argmin(self, monkeypatch):
        axis = np.arange(5.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        # cell centres and edge midpoints sit at equal distance from several
        # lattice points
        a = np.vstack([lattice[:64] + 0.5, lattice[:40] + [0.5, 0.0, 0.0]])
        b = lattice
        diff = a[:, None, :] - b[None, :, :]
        full = np.sum(diff * diff, axis=-1)
        assert (full == full.min(axis=1, keepdims=True)).sum(axis=1).min() >= 2
        assert (full == full.min(axis=0, keepdims=True)).sum(axis=0).max() >= 2
        whole = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        backward(chamfer(*whole))
        monkeypatch.setattr(G, "_BLOCK_BYTES", 8 * 30 * len(b))  # several blocks of the 32-row floor
        assert len(G.row_blocks(len(a), 8 * len(b))) >= 3
        assert len(G.row_blocks(len(b), 8 * len(a))) >= 3
        idx_ab, idx_ba = full.argmin(axis=1), full.argmin(axis=0)
        np.testing.assert_array_equal(G.nearest_index(a, b), idx_ab)
        np.testing.assert_array_equal(G.nearest_index(b, a), idx_ba)
        da, db = a - b[idx_ab], b - a[idx_ba]
        expected = (da * da).sum(axis=1).sum() * (1.0 / len(a)) + (
            (db * db).sum(axis=1).sum() * (1.0 / len(b))
        )
        blocked = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        value = chamfer(*blocked)
        assert value.item() == expected
        backward(value)
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            chamfer(Tensor(np.empty((0, 3))), Tensor(cloud(3, 7)))


class TestNestedTargets:
    def test_nested_targets_counts_and_subsets(self):
        pts = cloud(32, 12)
        targets = nested_targets(pts, [8, 16, 32, 32])
        assert [t.shape[0] for t in targets] == [8, 16, 32, 32]
        as_set = lambda arr: {tuple(p) for p in arr}
        assert as_set(targets[0]) <= as_set(targets[1]) <= as_set(targets[2])
        np.testing.assert_array_equal(targets[2], pts)
        np.testing.assert_array_equal(targets[3], pts)

    def test_count_above_the_missing_part_rejected(self):
        with pytest.raises(ValueError) as info:
            nested_targets(cloud(8, 12), [4, 16])
        assert str(info.value) == "nested_targets: stage count 16 exceeds missing part size 8"


def synth_outputs(clouds):
    return StageOutputs(stages=[Tensor(c) for c in clouds])


class TestStepwiseLoss:
    def test_exact_predictions_give_zero(self):
        pts = cloud(32, 13)
        targets = nested_targets(pts, [8, 16, 32, 32])
        outputs = synth_outputs(targets)
        assert stepwise_loss(outputs, targets, LossWeights()).item() == 0.0

    def test_alpha_masking(self):
        pts = cloud(32, 14)
        targets = nested_targets(pts, [8, 16, 32, 32])
        preds = [t + 0.05 for t in targets]
        outputs = synth_outputs(preds)
        weights = LossWeights(alpha=(1.0, 0.0, 0.0, 0.0))
        expected = chamfer(Tensor(preds[0]), Tensor(targets[0])).item()
        assert stepwise_loss(outputs, targets, weights).item() == pytest.approx(expected, rel=1e-15)

    def test_unit_weights_sum_terms(self):
        pts = cloud(32, 15)
        targets = nested_targets(pts, [8, 16, 32, 32])
        rng = np.random.default_rng(16)
        preds = [t + rng.uniform(-0.1, 0.1, t.shape) for t in targets]
        outputs = synth_outputs(preds)
        per_term = [chamfer(Tensor(p), Tensor(t)).item() for p, t in zip(preds, targets)]
        total = stepwise_loss(outputs, targets, LossWeights()).item()
        assert total == pytest.approx(sum(per_term), rel=1e-12)

    def test_count_mismatch_rejected(self):
        outputs = synth_outputs([cloud(8, 17)])
        with pytest.raises(ValueError, match="stage"):
            stepwise_loss(outputs, [cloud(9, 18)], LossWeights())

    def test_target_count_must_match_stage_count(self):
        with pytest.raises(ValueError) as info:
            stepwise_loss(synth_outputs([cloud(8, 17), cloud(8, 18)]), [cloud(8, 19)], LossWeights())
        assert str(info.value) == "stepwise_loss: 2 stages but 1 targets"

    def test_more_stages_than_weights_rejected(self):
        clouds = [cloud(4, 20 + i) for i in range(5)]
        with pytest.raises(ValueError) as info:
            stepwise_loss(synth_outputs(clouds), clouds, LossWeights())
        assert str(info.value) == "stepwise_loss: 5 stages exceed the 4 stage weights"

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            LossWeights(beta=(-1.0, 0.5))


def ideal_completer(target_chain):
    """Stub network returning the exact per-stage targets."""

    def forward(_cloud):
        return StageOutputs(stages=[Tensor(t) for t in target_chain])

    return forward


def noisy_completer(target_chain, scale, seed):
    rng = np.random.default_rng(seed)

    def forward(_cloud):
        return StageOutputs(
            stages=[Tensor(t + rng.uniform(-scale, scale, t.shape)) for t in target_chain]
        )

    return forward


class TestCycleTotalLoss:
    def setup_method(self):
        self.p_n = cloud(32, 19)
        self.p_m = cloud(32, 20)
        self.chain_m = nested_targets(self.p_m, [8, 16, 32, 32])
        self.chain_n = nested_targets(self.p_n, [8, 16, 32, 32])

    def test_ideal_network_gives_zero_total(self):
        total, components = cycle_total_loss(
            ideal_completer(self.chain_m), ideal_completer(self.chain_n),
            self.p_n, self.p_m, LossWeights(), "4L",
        )
        assert total.item() == 0.0
        assert all(v == 0.0 for v in components.values())

    def test_one_loss_mode_is_direct_missing_loss_alone(self):
        fwd = noisy_completer(self.chain_m, 0.05, 21)
        total, components = cycle_total_loss(
            fwd, ideal_completer(self.chain_n), self.p_n, self.p_m, LossWeights(), "1L",
        )
        assert list(components) == ["loss1"]
        assert total.item() == components["loss1"]

    def test_two_loss_mode_is_beta1_times_direct_sum(self):
        weights = LossWeights(beta=(0.7, 0.5))
        fwd = noisy_completer(self.chain_m, 0.05, 22)
        rev = noisy_completer(self.chain_n, 0.05, 23)
        total, components = cycle_total_loss(fwd, rev, self.p_n, self.p_m, weights, "2L")
        assert total.item() == 0.7 * (components["loss1"] + components["loss2"])

    def test_beta2_zero_matches_two_loss_bitwise(self):
        weights = LossWeights(beta=(0.7, 0.0))

        def make_pair(seed):
            return (
                noisy_completer(self.chain_m, 0.05, seed),
                noisy_completer(self.chain_n, 0.05, seed + 50),
            )

        fwd, rev = make_pair(24)
        total_4l, _ = cycle_total_loss(fwd, rev, self.p_n, self.p_m, weights, "4L")
        fwd, rev = make_pair(24)
        total_2l, _ = cycle_total_loss(
            fwd, rev, self.p_n, self.p_m, LossWeights(beta=(0.7, 0.5)), "2L"
        )
        assert total_4l.item() == total_2l.item()

    def test_four_loss_breakdown_sums_to_total(self):
        weights = LossWeights(beta=(1.0, 0.5))
        fwd = noisy_completer(self.chain_m, 0.05, 25)
        rev = noisy_completer(self.chain_n, 0.05, 26)
        total, c = cycle_total_loss(fwd, rev, self.p_n, self.p_m, weights, "4L")
        recombined = 1.0 * (c["loss1"] + c["loss2"]) + 0.5 * (c["loss3"] + c["loss4"])
        assert total.item() == pytest.approx(recombined, abs=1e-12)
        assert set(c) == {"loss1", "loss2", "loss3", "loss4"}

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="loss mode"):
            cycle_total_loss(
                ideal_completer(self.chain_m), ideal_completer(self.chain_n),
                self.p_n, self.p_m, LossWeights(), "3L",
            )

    def test_cycle_consumes_first_pass_outputs(self):
        calls = []

        def tracking(chain, name):
            def forward(cloud_in):
                calls.append((name, cloud_in.data.copy()))
                return StageOutputs(stages=[Tensor(t + 0.01) for t in chain])

            return forward

        cycle_total_loss(
            tracking(self.chain_m, "fwd"), tracking(self.chain_n, "rev"),
            self.p_n, self.p_m, LossWeights(), "4L",
        )
        names = [c[0] for c in calls]
        assert names == ["fwd", "rev", "fwd", "rev"]
        np.testing.assert_array_equal(calls[2][1], self.chain_n[-1] + 0.01)
        np.testing.assert_array_equal(calls[3][1], self.chain_m[-1] + 0.01)


class TestTrainConfig:
    def test_epoch_and_batch_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)

    @pytest.mark.parametrize("fields, message", [
        (dict(epochs=1.5), "config key epochs: expected an integer, got 1.5"),
        (dict(epochs=True), "config key epochs: expected an integer, got true"),
        (dict(epochs=1, batch_size=1.5), "config key batch_size: expected an integer, got 1.5"),
        (dict(epochs=1, seed=0.5), "config key seed: expected an integer, got 0.5"),
        (dict(epochs=1, lr="0.1"), 'config key lr: expected a number, got "0.1"'),
        (dict(epochs=1, lr_decay="step"),
         "lr_decay must be one of ('none', 'cosine'), got 'step'"),
    ], ids=["epochs-float", "epochs-bool", "batch-float", "seed-float", "lr-str", "lr_decay-step"])
    def test_value_of_wrong_type_rejected(self, fields, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**fields)
        assert str(info.value) == message

    def test_integer_lr_widens_to_float(self):
        assert TrainConfig(epochs=1, lr=1).lr == 1.0
        assert isinstance(TrainConfig(epochs=1, lr=1).lr, float)


def tiny_dataset(count=2, points=64, seed=0):
    return generate_shapes(["sphere", "cube"], count, points, seed)


class TestTrain:
    def test_deterministic_repeat_runs(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=7)
        a = train(dataset, TINY, cfg)
        b = train(dataset, TINY, cfg)
        assert a.trace_lines() == b.trace_lines()
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_trace_format_one_loss(self):
        result = train(tiny_dataset(), TINY, TrainConfig(epochs=2, batch_size=2, seed=1))
        lines = result.trace_lines()
        assert len(lines) == 2
        assert lines[0].startswith("1,")
        parts = lines[0].split(",")
        assert len(parts) == 3  # epoch, loss1, total
        assert float(parts[1]) == float(parts[2])

    def test_trace_format_four_loss(self):
        from dataclasses import replace

        cfg = replace(TINY, loss_mode="4L")
        result = train(tiny_dataset(), cfg, TrainConfig(epochs=1, batch_size=2, seed=2))
        parts = result.trace_lines()[0].split(",")
        assert len(parts) == 6  # epoch, loss1..loss4, total

    def test_parameters_change(self):
        from spcnet.model import init_params

        result = train(tiny_dataset(), TINY, TrainConfig(epochs=1, batch_size=2, lr=1e-2, seed=3))
        fresh = init_params(TINY, 3)
        assert any(
            not np.array_equal(result.params[n].data, fresh[n].data) for n in fresh
        )

    def test_empty_dataset_rejected(self):
        from spcnet.data import Dataset

        with pytest.raises(ValueError, match="empty"):
            train(Dataset(shapes=[]), TINY, TrainConfig(epochs=1))

    def test_shared_regime_at_half_ratio(self):
        cfg = ModelConfig(
            points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
            upsample_factors=(2, 2, 1), loss_mode="4L",
        )
        result = train(tiny_dataset(), cfg, TrainConfig(epochs=1, batch_size=2, seed=4))
        assert result.reverse_params is None

    def test_joint_regime_trains_two_parameter_sets(self):
        cfg = ModelConfig(
            points_per_shape=128, missing_ratio=0.25, width_scale=0.0625, knn_k=4,
            down_rate=2, upsample_factors=(2, 2, 1), loss_mode="4L",
        )
        dataset = tiny_dataset(points=128, seed=5)
        result = train(dataset, cfg, TrainConfig(epochs=1, batch_size=2, lr=1e-3, seed=5))
        assert result.reverse_params is not None
        assert result.reverse_config.missing_ratio == 0.75
        from spcnet.model import init_params

        fresh_fwd = init_params(cfg, 5)
        fresh_rev = init_params(cfg.reversed_ratio(), 6)
        assert any(
            not np.array_equal(result.params[n].data, fresh_fwd[n].data) for n in fresh_fwd
        )
        assert any(
            not np.array_equal(result.reverse_params[n].data, fresh_rev[n].data)
            for n in fresh_rev
        )

    def test_one_progress_line_per_epoch(self, caplog):
        cfg = ModelConfig(
            points_per_shape=128, missing_ratio=0.25, width_scale=0.0625, knn_k=4,
            down_rate=2, upsample_factors=(2, 2, 1), loss_mode="4L",
        )
        dataset = tiny_dataset(points=128, seed=5)
        train_cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=5)
        quiet = train(dataset, cfg, train_cfg)
        with caplog.at_level(logging.INFO, logger="spcnet.training"):
            result = train(dataset, cfg, train_cfg)
        records = [r for r in caplog.records if r.name == "spcnet.training"]
        assert [r.args[0] for r in records] == [1, 2]
        assert all(r.levelno == logging.INFO and r.args[1] > 0.0 for r in records)
        assert [r.args[2] for r in records] == [1e-3, 1e-3]
        assert records[0].getMessage().startswith("epoch 1: ")
        # the last step's gradients stay on both parameter sets
        grads = [p.grad for p in result.params.values()]
        grads += [p.grad for p in result.reverse_params.values()]
        expected = np.sqrt(sum(float((g * g).sum()) for g in grads))
        assert records[-1].args[3] == pytest.approx(expected, rel=1e-12)
        # logging changes nothing the run produces
        assert result.trace_lines() == quiet.trace_lines()
        for name in quiet.params:
            np.testing.assert_array_equal(result.params[name].data, quiet.params[name].data)


class TestFrozenTrainingBits:
    # sha256 of the trace lines, then per trained network (forward first) the
    # Adam step and each parameter's name, values and Adam moments (float64
    # bytes), after two epochs over three shapes in batches of two, so each
    # epoch ends on a short batch.  Re-frozen when the fused conv's forward
    # became per-centre and per-reference products, which round an adaptive
    # conv's responses otherwise; 4L at 0.25 also takes the cosine decay.
    # run -> (model-config fields, points per shape, lr decay, networks)
    RUNS = {
        "1L-0.5": (dict(loss_mode="1L"), 64, "none", 1),
        "2L-0.25": (dict(loss_mode="2L", missing_ratio=0.25), 128, "none", 2),
        "4L-0.25": (dict(loss_mode="4L", missing_ratio=0.25), 128, "cosine", 2),
        "4L-0.5": (dict(loss_mode="4L"), 64, "none", 1),
    }
    DIGESTS = {
        "1L-0.5": "09d55c62a984d292f6fc1f58040a4915a701ea92db6550b51581045f178abbf5",
        "2L-0.25": "fc3d35bd4eec8c0e56a3b34aacdffa4cefe5405361881b713fde6f551c0ea824",
        "4L-0.25": "d1b579ccb56352aa7c7e0418123bd43c38b186c4d006f604e6da5a1098eb7c51",
        "4L-0.5": "53642f783b4298a33f23829f554d52374a536e576c21e48ec8a398a7928116ca",
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_training_bits_are_frozen(self, run):
        fields, points, lr_decay, networks = self.RUNS[run]
        cfg = replace(TINY, points_per_shape=points, **fields)
        result = train(
            tiny_dataset(count=3, points=points, seed=11), cfg,
            TrainConfig(epochs=2, batch_size=2, lr=1e-3, seed=3, lr_decay=lr_decay),
        )
        trained = [(result.params, result.adam)]
        if result.reverse_params is not None:
            trained.append((result.reverse_params, result.reverse_adam))
        assert len(trained) == networks
        digest = hashlib.sha256("\n".join(result.trace_lines()).encode())
        for params, adam in trained:
            digest.update(str(adam.t).encode())
            for name, p in params.items():
                digest.update(name.encode())
                for array in (p.data, adam.m[name], adam.v[name]):
                    digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.DIGESTS[run]


class TestLeanTape:
    """A step holds one shape's tape at a time, with the gradients of the
    summed batch loss."""

    @staticmethod
    def traced_peak(dataset, batch_size):
        tracemalloc.start()
        try:
            train(dataset, TINY, TrainConfig(epochs=1, batch_size=batch_size, seed=8))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_batch_size(self):
        dataset = tiny_dataset(count=8)  # 8 shapes of 64 points
        assert len(dataset.shapes) == 8
        ratio = self.traced_peak(dataset, 8) / self.traced_peak(dataset, 1)
        assert ratio < 1.5

    @pytest.mark.parametrize("loss_mode", ["1L", "4L"])
    def test_per_shape_backward_matches_summed_loss(self, loss_mode):
        cfg = replace(TINY, loss_mode=loss_mode)
        params = init_params(cfg, 9)
        splits = [
            viewpoint_split(points, corner, cfg.missing_ratio)
            for (_, points), corner in zip(tiny_dataset(count=4).shapes, tr.CUBE_CORNERS[[0, 5, 3, 6]])
        ]

        def forward(cloud):
            return spcnet_forward(cloud, params, cfg)

        def loss(p_n, p_m):
            return cycle_total_loss(forward, forward, p_n, p_m, LossWeights(), loss_mode)[0]

        scale = 1.0 / len(splits)
        zero_grads(params)
        for p_n, p_m in splits:
            backward(loss(p_n, p_m) * scale)
        per_shape = {n: p.grad.copy() for n, p in params.items()}

        zero_grads(params)
        total = None
        for p_n, p_m in splits:
            value = loss(p_n, p_m)
            total = value if total is None else total + value
        backward(total * scale)
        for name, p in params.items():
            np.testing.assert_array_equal(per_shape[name], p.grad, err_msg=name)


class TestEvaluate:
    def test_perfect_oracle_reports_zero(self, monkeypatch):
        dataset = tiny_dataset()

        def oracle_forward(p_partial, params, config, rng=None):
            # recover the true missing part from the enclosing loop's shape
            from spcnet.geometry import viewpoint_split

            for _, pts in dataset.shapes:
                p_n, p_m = viewpoint_split(pts, (1.0, 1.0, 1.0), config.missing_ratio)
                if p_n.shape == p_partial.data.shape and np.array_equal(p_n, p_partial.data):
                    chain = nested_targets(p_m, config.stage_counts())
                    return StageOutputs(stages=[Tensor(t) for t in chain])
            raise AssertionError("unknown input cloud")

        monkeypatch.setattr(tr, "spcnet_forward", oracle_forward)
        report = evaluate({}, TINY, dataset, viewpoint=(1.0, 1.0, 1.0))
        assert all(v == (0.0,) for _, _, v in [(c, n, vals) for c, n, vals in report.per_category])
        assert report.overall == (0.0,)

    def test_overall_is_count_weighted_category_mean(self):
        from spcnet.model import init_params

        dataset = generate_shapes(["sphere", "cube", "torus"], 5, 64, 3)
        params = init_params(TINY, 21)
        report = evaluate(params, TINY, dataset)
        total = sum(n for _, n, _ in report.per_category)
        recomputed = sum(n * v[0] for _, n, v in report.per_category) / total
        assert report.overall[0] == pytest.approx(recomputed, abs=1e-12)

    def test_stagewise_columns(self):
        from spcnet.model import init_params

        params = init_params(TINY, 22)
        report = evaluate(params, TINY, tiny_dataset(), stagewise=True)
        assert report.columns == ("cd_coarse", "cd_mid", "cd_fine", "cd_final")
        csv = report.to_csv()
        assert csv.splitlines()[0] == "category,count,cd_coarse,cd_mid,cd_fine,cd_final"
        assert csv.splitlines()[-1].startswith("overall,")

    def test_empty_dataset_rejected(self):
        from spcnet.data import Dataset

        with pytest.raises(ValueError, match="evaluate: dataset is empty"):
            evaluate({}, TINY, Dataset(shapes=[]))

    def test_dataset_count_mismatch_rejected(self):
        from spcnet.model import init_params

        params = init_params(TINY, 23)
        with pytest.raises(ValueError, match="points per"):
            evaluate(params, TINY, tiny_dataset(points=32, seed=9))


class TestFrozenEvaluationBits:
    # sha256 of evaluate's CSV, whole-shape and stagewise, for init parameters
    # at a viewpoint other than the default.  Frozen from the evaluate loop
    # that split, completed and scored each shape inline.
    # run -> (model-config fields, evaluate seed)
    RUNS = {
        "fps": (dict(), 0),
        "rps-seed4": (dict(sampling_kind="rps"), 4),
        "missing-0.25": (dict(missing_ratio=0.25), 0),
    }
    DIGESTS = {
        ("fps", False):
            "d782b1a1a87eff8e86811e479ec4dc76f420a1f95e1615e01feaaa13cb06cc9b",
        ("fps", True):
            "432f098d084bd8a578d0b0daf20d162dff8541d5036e1d1a77403e3b661333b8",
        ("rps-seed4", False):
            "4de4c7c99e2840bfb5eb3d59e3233912d95a52428b4db48729462f588144e5e1",
        ("rps-seed4", True):
            "04b472f59ddb7b2eff7e35a3f0e710842d9155868326c55c2aab0f2052e15e67",
        ("missing-0.25", False):
            "5818c477f075f1e34233ef3793c76f8ae081016b4d1dfa0354e42775647ffa75",
        ("missing-0.25", True):
            "f83ee241cd8db30a56e50abfddc92732dd519a97f9d20672ae78beeba8f90a90",
    }

    @pytest.mark.parametrize("stagewise", [False, True], ids=["whole", "stagewise"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_evaluation_bits_are_frozen(self, run, stagewise):
        fields, seed = self.RUNS[run]
        cfg = replace(TINY, **fields)
        dataset = generate_shapes(["sphere", "cube", "torus"], 4, 64, 12)
        report = evaluate(
            init_params(cfg, 13), cfg, dataset,
            viewpoint=(0.5, -1.0, 2.0), stagewise=stagewise, seed=seed,
        )
        digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
        assert digest == self.DIGESTS[run, stagewise]
