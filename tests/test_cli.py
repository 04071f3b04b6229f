"""Command surface: exit codes, file outputs, determinism."""
import hashlib
import io
import json
import struct
from contextlib import redirect_stderr
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spcnet.training
from spcnet.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from spcnet.cli import main
from spcnet.data import generate_dataset, read_xyz, write_xyz
from spcnet.model import ModelConfig, config_value, init_params
from test_checkpoint import mutated

TINY_OVERRIDES = {
    "points_per_shape": 64,
    "width_scale": 0.0625,
    "knn_k": 4,
    "down_rate": 2,
    "upsample_factors": [2, 2, 1],
}


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main([
        "gen-data", "--out", str(out), "--shapes", "sphere,cube",
        "--count", "4", "--points", "64", "--seed", "3",
    ]) == 0
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_OVERRIDES))
    return path


@pytest.fixture
def trained(tmp_path, data_dir, config_file):
    ckpt = tmp_path / "model.spcn"
    code = main([
        "train", "--data", str(data_dir), "--out", str(ckpt),
        "--epochs", "2", "--seed", "1", "--config", str(config_file),
        "--batch-size", "4", "--lr", "0.001",
        "--trace", str(tmp_path / "trace.csv"),
    ])
    assert code == 0
    return ckpt


class TestGenData:
    def test_writes_files_and_manifest(self, data_dir):
        assert (data_dir / "manifest.json").exists()
        assert len(list(data_dir.glob("*.xyz"))) == 4

    def test_unknown_shape_kind_fails(self, tmp_path):
        code = main([
            "gen-data", "--out", str(tmp_path / "x"), "--shapes", "klein-bottle",
            "--count", "1", "--points", "32",
        ])
        assert code == 1

    def test_empty_kind_list_fails_with_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        capsys.readouterr()
        assert main([
            "gen-data", "--out", str(out), "--shapes", ",", "--count", "1", "--points", "32",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no shape kinds given (known: ")
        assert "sphere" in err and err.count("\n") == 1
        assert not out.exists()


class TestTrain:
    def test_checkpoint_and_trace_written(self, trained, tmp_path):
        assert trained.exists()
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(trace) == 2
        assert trace[0].startswith("1,")

    def test_deterministic_outputs(self, tmp_path, data_dir, config_file):
        outs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.spcn"
            main([
                "train", "--data", str(data_dir), "--out", str(ckpt),
                "--epochs", "1", "--seed", "9", "--config", str(config_file),
                "--trace", str(tmp_path / f"{name}.trace"),
            ])
            outs.append(ckpt.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "a.trace").read_text() == (tmp_path / "b.trace").read_text()

    def test_omitted_train_flags_take_the_config_defaults(self, tmp_path, data_dir, config_file):
        outs = []
        for name, flags in (
            ("omitted", []),
            ("spelled", ["--batch-size", "24", "--lr", "1e-4", "--lr-decay", "none", "--seed", "0"]),
        ):
            ckpt = tmp_path / f"{name}.spcn"
            assert main([
                "train", "--data", str(data_dir), "--out", str(ckpt),
                "--epochs", "1", "--config", str(config_file),
                "--trace", str(tmp_path / f"{name}.trace"), *flags,
            ]) == 0
            outs.append(ckpt.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "omitted.trace").read_text() == (tmp_path / "spelled.trace").read_text()

    def test_asymmetric_checkpoint_bits_are_frozen(self, tmp_path, capsys):
        # sha256 of the forward and reverse checkpoints of a two-network 4L
        # run (two epochs, a short last batch), re-frozen when the fused conv's
        # forward became per-centre and per-reference products
        data = tmp_path / "data"
        assert main([
            "gen-data", "--out", str(data), "--shapes", "sphere,cube",
            "--count", "3", "--points", "128", "--seed", "3",
        ]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_OVERRIDES, "points_per_shape": 128}))
        ckpt, rev = tmp_path / "m.spcn", tmp_path / "m.rev.spcn"
        capsys.readouterr()
        assert main([
            "train", "--data", str(data), "--out", str(ckpt), "--epochs", "2",
            "--seed", "2", "--config", str(config), "--missing-ratio", "0.25",
            "--loss-mode", "4L", "--batch-size", "2", "--lr", "0.001",
            "--trace", str(tmp_path / "trace.csv"),
        ]) == 0
        assert capsys.readouterr().out == f"saved checkpoint(s): {ckpt}, {rev}\n"
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (ckpt, rev)]
        assert digests == [
            "109f49059a94ed1e7b58c4197dd244815c7fd29154656c72db1acce5b213d923",
            "5f4be7357a2df32a967daad65804972e41f40fe9b0d9b7f2a5ad37bee650ab4b",
        ]

    def test_loss_mode_flag(self, tmp_path, data_dir, config_file):
        ckpt = tmp_path / "m2.spcn"
        assert main([
            "train", "--data", str(data_dir), "--out", str(ckpt),
            "--epochs", "1", "--seed", "1", "--config", str(config_file),
            "--loss-mode", "2l",
        ]) == 0
        assert load_checkpoint(ckpt).config.loss_mode == "2L"

    @pytest.mark.parametrize("flag", ["--points", "--width-scale", "--knn-k"])
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--variant", "no-agg"]])
    def test_removed_flag_is_usage_error(self, tmp_path, command, flag):
        assert main([
            *command, "--data", str(tmp_path), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", flag, "8",
        ]) == 2

    def test_non_finite_loss_fails_with_one_line_error(
        self, tmp_path, data_dir, config_file, monkeypatch, capsys
    ):
        init_params = spcnet.training.init_params

        def poisoned(config, seed):
            params = init_params(config, seed)
            params["coarse.dec.l1.b"].data[:] = np.nan
            return params

        monkeypatch.setattr(spcnet.training, "init_params", poisoned)
        capsys.readouterr()
        assert main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(config_file),
        ]) == 1
        assert capsys.readouterr().err == "error: epoch 1, shape 0: non-finite loss\n"
        assert not (tmp_path / "m.spcn").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.001"])
    def test_bad_learning_rate_fails_with_one_line_error(
        self, tmp_path, data_dir, config_file, lr, capsys
    ):
        capsys.readouterr()
        assert main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(config_file), "--lr", lr,
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"error: lr must be a positive finite number, got {float(lr)}\n"
        assert not (tmp_path / "m.spcn").exists()

    def test_train_flags_are_checked_before_data_is_read(self, tmp_path, capsys):
        capsys.readouterr()
        assert main([
            "train", "--data", str(tmp_path / "no-such-dir"), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--lr", "-1",
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: lr must be a positive finite number, got -1.0\n"

    def test_config_is_built_once_from_every_value(self, tmp_path, capsys):
        # the defaults do not divide 100 points, the scm1 variant does: the
        # variant and the point count apply before anything is checked
        data = tmp_path / "data"
        assert main([
            "gen-data", "--out", str(data), "--shapes", "sphere", "--count", "2",
            "--points", "100",
        ]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"width_scale": 0.0625, "knn_k": 4}))
        flags = ["--data", str(data), "--epochs", "1", "--config", str(config)]
        ckpt = tmp_path / "scm1.spcn"
        assert main(["ablate", "--variant", "scm1", "--out", str(ckpt), *flags]) == 0
        assert load_checkpoint(ckpt).config.points_per_shape == 100
        capsys.readouterr()
        assert main(["train", "--out", str(tmp_path / "m.spcn"), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: missing part of 50 points is not divisible by the upsample "
            "chain (4, 4, 1)\n"
        )
        assert not (tmp_path / "m.spcn").exists()

    def test_unknown_config_key_fails(self, tmp_path, data_dir):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_field": 1}))
        assert main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(bad),
        ]) == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"knn_k": "4"}, 'config key knn_k: expected an integer, got "4"'),
        ({"knn_k": 4.0}, "config key knn_k: expected an integer, got 4.0"),
        ({"knn_k": True}, "config key knn_k: expected an integer, got true"),
        ({"upsample_factors": 4}, "config key upsample_factors: expected a list of integers, got 4"),
        ({"upsample_factors": [2, "2", 1]},
         'config key upsample_factors: expected a list of integers, got [2, "2", 1]'),
        ({"use_aggregation": 1}, "config key use_aggregation: expected true or false, got 1"),
        ({"grid_r": "0.05"}, 'config key grid_r: expected a number, got "0.05"'),
        ({"conv_kind": None}, "config key conv_kind: expected a string, got null"),
        ([1, 2], "config must be a JSON object"),
        ({"down_rate": 0}, "down_rate must be >= 1, got 0"),
        ({"knn_k": 0}, "knn_k must be >= 1, got 0"),
        ({"width_scale": float("nan")}, "width_scale must be a positive finite number, got nan"),
        ({"width_scale": 0}, "width_scale must be a positive finite number, got 0.0"),
        ({"width_scale": -0.5}, "width_scale must be a positive finite number, got -0.5"),
        ({"width_scale": float("inf")}, "width_scale must be a positive finite number, got inf"),
        ({"grid_r": float("nan")}, "grid_r must be finite, got nan"),
        ({"grid_r": float("-inf")}, "grid_r must be finite, got -inf"),
    ])
    def test_config_value_of_wrong_type_fails_with_one_line_error(
        self, tmp_path, overrides, message, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(overrides))
        capsys.readouterr()
        assert main([
            "train", "--data", str(tmp_path), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(bad),
        ]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_bad_flag_value_names_no_file(self, tmp_path, config_file, capsys):
        capsys.readouterr()
        assert main([
            "train", "--data", str(tmp_path), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(config_file), "--missing-ratio", "1.5",
        ]) == 1
        assert capsys.readouterr().err == "error: missing_ratio must be in (0, 1), got 1.5\n"

    def test_bad_grid_count_is_reported_when_the_config_is_built(
        self, tmp_path, data_dir, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "grid_count": -4, "width_scale": 0.0625, "down_rate": 2, "upsample_factors": [2, 2, 1],
        }))
        capsys.readouterr()
        assert main([
            "train", "--data", str(data_dir), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(bad),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: grid_count must be a positive perfect square, got -4\n"
        )
        assert not (tmp_path / "m.spcn").exists()

    @pytest.mark.parametrize("text", ["", '{"knn_k": 8,}'])
    def test_malformed_config_file_named_in_one_line_error(self, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main([
            "train", "--data", str(tmp_path), "--out", str(tmp_path / "m.spcn"),
            "--epochs", "1", "--config", str(bad),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: ")
        assert err.count("\n") == 1

    def test_int_config_value_accepted_for_float_field(self, tmp_path, data_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_OVERRIDES, "grid_r": 1}))
        ckpt = tmp_path / "m.spcn"
        assert main([
            "train", "--data", str(data_dir), "--out", str(ckpt),
            "--epochs", "1", "--config", str(config),
        ]) == 0
        grid_r = load_checkpoint(ckpt).config.grid_r
        assert grid_r == 1.0 and isinstance(grid_r, float)


def data_command(command, tmp_path, config_file, out):
    """Arguments, all but ``--data``, of a ``train`` or ``eval`` run writing ``out``."""
    if command == "train":
        return ["train", "--out", str(out), "--epochs", "1", "--config", str(config_file)]
    ckpt = tmp_path / "m.spcn"
    config = ModelConfig(**{**TINY_OVERRIDES, "upsample_factors": (2, 2, 1)})
    save_checkpoint(Checkpoint(config=config, params=init_params(config, 0)), ckpt)
    return ["eval", "--ckpt", str(ckpt), "--report", str(out)]


class TestMalformedManifest:
    @pytest.mark.parametrize("manifest, message", [
        ({"shapes": []}, 'needs a non-empty "shapes" list'),
        ({"shapes": [{"file": "shape_0000.xyz"}]}, "shape 0 needs string category and file"),
        ({"shapes": [{"category": "sphere", "file": 3}]},
         "shape 0 needs string category and file"),
        ([1, 2], 'needs a non-empty "shapes" list'),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_one_line_error_and_nothing_written(
        self, tmp_path, data_dir, config_file, manifest, message, command, capsys
    ):
        manifest_path = data_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        argv = data_command(command, tmp_path, config_file, out)
        capsys.readouterr()
        assert main([*argv, "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == f"error: {manifest_path}: {message}\n"
        assert not out.exists()


class TestJsonPastTheParser:
    """JSON the parser gives up on, an integer too long to convert or nesting
    too deep, is a one-line error naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "text", ['{"knn_k": ' + "9" * 5000 + "}", "[" * 100000], ids=["long-int", "deep"]
    )
    @pytest.mark.parametrize("name", ["config", "manifest"])
    def test_one_line_error_naming_the_file(
        self, tmp_path, data_dir, config_file, text, name, capsys
    ):
        bad = config_file if name == "config" else data_dir / "manifest.json"
        bad.write_text(text)
        argv = data_command("train", tmp_path, config_file, tmp_path / "m.spcn")
        capsys.readouterr()
        assert main([*argv, "--data", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: ") and err.count("\n") == 1


class TestMiscountedFile:
    @pytest.mark.parametrize("index, rows, message", [
        (0, 0, "no points"),
        (1, 2, "2 points, but the first file has 64"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_or_miscounted_file_named(
        self, tmp_path, data_dir, config_file, index, rows, message, command, capsys
    ):
        bad = data_dir / f"shape_{index:04d}.xyz"
        write_xyz(np.zeros((rows, 3)), bad)
        out = tmp_path / "out"
        argv = data_command(command, tmp_path, config_file, out)
        capsys.readouterr()
        assert main([*argv, "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()


class Loaded(Exception):
    """Raised in place of training: every input was read and accepted."""


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    generate_dataset(root / "data", ["sphere", "cube"], 2, 64, 3)
    (root / "config.json").write_text(json.dumps(TINY_OVERRIDES))
    return root


def rule_abiding_object(blob: bytes) -> bool:
    """Whether ``blob`` is a JSON object of config fields whose values each
    keep their own field's rule."""
    try:
        given = json.loads(blob.decode("utf-8"))
        if not (isinstance(given, dict) and set(given) <= {f.name for f in fields(ModelConfig)}):
            return False
        for name, value in given.items():
            config_value(name, value)
    except ValueError:
        return False
    return True


class TestMutatedInputs:
    """Whatever bytes a dataset file or the --config file holds, ``train``
    reaches training or exits 1 with one ``error:`` line that names the
    file. Where every value of the mutated config keeps its own field's
    rule, a rule between fields may fail instead, with the message a flag,
    the dataset or the variant would give."""

    @pytest.mark.parametrize("name", ["data/shape_0001.xyz", "data/manifest.json", "config.json"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_train_reads_or_names_the_file(self, train_inputs, name, data):
        path = train_inputs / name
        good = path.read_bytes()
        bad = data.draw(mutated(good))
        path.write_bytes(bad)
        argv = ["train", "--data", str(train_inputs / "data"), "--epochs", "1",
                "--out", str(train_inputs / "m.spcn"), "--config", str(train_inputs / "config.json")]
        try:
            with mock.patch("spcnet.cli.train", side_effect=Loaded), \
                    redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        except Loaded:
            return
        finally:
            path.write_bytes(good)
        line = err.getvalue()
        assert code == 1 and line.startswith("error: ") and line.count("\n") == 1, line
        if name == "data/manifest.json":
            # the manifest, or a file it names
            assert str(path.parent) in line, line
        elif not (name == "config.json" and rule_abiding_object(bad)):
            assert str(path) in line, line


class TestNotUtf8:
    """A file that is not UTF-8 text is named in a one-line error."""

    @staticmethod
    def run(argv, bad, capsys):
        bad.write_bytes(b"\xff\xfe 0.1 0.2 0.3\n")
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text: invalid start byte at byte 0\n"
        )

    @pytest.mark.parametrize("name", ["shape_0001.xyz", "manifest.json"])
    def test_dataset_file(self, tmp_path, data_dir, config_file, name, capsys):
        out = tmp_path / "m.spcn"
        argv = data_command("train", tmp_path, config_file, out)
        self.run([*argv, "--data", str(data_dir)], data_dir / name, capsys)
        assert not out.exists()

    def test_config_file(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        argv = ["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.spcn"),
                "--epochs", "1", "--config", str(bad)]
        self.run(argv, bad, capsys)

    def test_complete_input(self, tmp_path, capsys):
        ckpt = tmp_path / "m.spcn"
        config = ModelConfig(**{**TINY_OVERRIDES, "upsample_factors": (2, 2, 1)})
        save_checkpoint(Checkpoint(config=config, params=init_params(config, 0)), ckpt)
        bad, out = tmp_path / "partial.xyz", tmp_path / "o.xyz"
        argv = ["complete", "--ckpt", str(ckpt), "--in", str(bad), "--out", str(out)]
        self.run(argv, bad, capsys)
        assert not out.exists()


class TestComplete:
    def test_output_contains_partial_verbatim_then_prediction(self, trained, tmp_path):
        ckpt = load_checkpoint(trained)
        rng = np.random.default_rng(0)
        partial = rng.uniform(-1, 1, (ckpt.config.partial_count, 3))
        src = tmp_path / "partial.xyz"
        write_xyz(partial, src)
        out = tmp_path / "completed.xyz"
        stages = tmp_path / "stages"
        assert main([
            "complete", "--ckpt", str(trained), "--in", str(src),
            "--out", str(out), "--emit-stages", str(stages),
        ]) == 0
        completed = read_xyz(out)
        assert completed.shape == (64, 3)
        parsed = read_xyz(src)
        np.testing.assert_array_equal(completed[: len(parsed)], parsed)
        for name in ("coarse", "mid", "fine", "final"):
            assert (stages / f"{name}.xyz").exists()
        assert read_xyz(stages / "final.xyz").shape == (32, 3)

    def test_wrong_input_size_fails(self, trained, tmp_path):
        src = tmp_path / "short.xyz"
        write_xyz(np.zeros((5, 3)), src)
        assert main([
            "complete", "--ckpt", str(trained), "--in", str(src),
            "--out", str(tmp_path / "o.xyz"),
        ]) == 1

    def test_non_finite_input_fails_with_one_line_error(self, trained, tmp_path, capsys):
        ckpt = load_checkpoint(trained)
        partial = np.random.default_rng(1).uniform(-1, 1, (ckpt.config.partial_count, 3))
        src = tmp_path / "partial.xyz"
        write_xyz(partial, src)
        lines = src.read_text().splitlines()
        lines[4] = "0.1 nan 0.2"
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "complete", "--ckpt", str(trained), "--in", str(src),
            "--out", str(tmp_path / "o.xyz"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {src}:5: non-finite coordinate\n"
        assert not (tmp_path / "o.xyz").exists()


class TestCheckpointLayout:
    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_missing_tensor_fails_with_one_line_error(
        self, command, tmp_path, data_dir, capsys
    ):
        config = ModelConfig(**TINY_OVERRIDES)
        params = init_params(config, 0)
        del params["scm1.agg.w"]
        ckpt = tmp_path / "m.spcn"
        save_checkpoint(Checkpoint(config=config, params=params), ckpt)
        src = tmp_path / "partial.xyz"
        write_xyz(np.random.default_rng(2).uniform(-1, 1, (config.partial_count, 3)), src)
        rest = {
            "complete": ["--in", str(src), "--out", str(tmp_path / "o.xyz")],
            "eval": ["--data", str(data_dir)],
        }[command]
        capsys.readouterr()
        assert main([command, "--ckpt", str(ckpt), *rest]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: missing tensor 'scm1.agg.w'\n"
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_unreadable_config_value_fails_with_one_line_error(
        self, command, trained, tmp_path, data_dir, capsys
    ):
        blob = trained.read_bytes()
        size = struct.unpack("<I", blob[8:12])[0]
        block = blob[12:12 + size].replace(b"knn_k=4", b"knn_k=four")
        trained.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + size:])
        rest = {
            "complete": ["--in", str(data_dir / "missing.xyz"), "--out", str(tmp_path / "o.xyz")],
            "eval": ["--data", str(data_dir)],
        }[command]
        capsys.readouterr()
        assert main([command, "--ckpt", str(trained), *rest]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {trained}: config key 'knn_k': cannot read 'four' as int\n"
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_config_block_not_utf8_fails_with_one_line_error(
        self, command, trained, tmp_path, data_dir, capsys
    ):
        blob = trained.read_bytes()
        size = struct.unpack("<I", blob[8:12])[0]
        block = blob[12:12 + size].replace(b"knn_k=4", b"knn_k=\xff")
        trained.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + size:])
        rest = {
            "complete": ["--in", str(data_dir / "shape_0000.xyz"), "--out", str(tmp_path / "o.xyz")],
            "eval": ["--data", str(data_dir)],
        }[command]
        bad = block.index(b"\xff")
        capsys.readouterr()
        assert main([command, "--ckpt", str(trained), *rest]) == 1
        assert capsys.readouterr().err == (
            f"error: {trained}: config block is not UTF-8 text: invalid start byte at byte {bad}\n"
        )
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_tensor_name_not_utf8_fails_with_one_line_error(
        self, command, trained, tmp_path, data_dir, capsys
    ):
        blob = trained.read_bytes()
        name = b"scm1.agg.w"
        at = blob.index(struct.pack("<I", len(name)) + name) + 4
        trained.write_bytes(blob[:at] + b"scm1.agg.\xff" + blob[at + len(name):])
        rest = {
            "complete": ["--in", str(data_dir / "shape_0000.xyz"), "--out", str(tmp_path / "o.xyz")],
            "eval": ["--data", str(data_dir)],
        }[command]
        capsys.readouterr()
        assert main([command, "--ckpt", str(trained), *rest]) == 1
        assert capsys.readouterr().err == (
            f"error: {trained}: tensor name at offset {at} is not UTF-8 text\n"
        )
        assert not (tmp_path / "o.xyz").exists()

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_non_finite_value_fails_with_one_line_error(
        self, command, trained, tmp_path, data_dir, capsys
    ):
        blob = bytearray(trained.read_bytes())
        name = b"scm1.agg.w"
        at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
        at += 4 + 8 * struct.unpack("<I", blob[at:at + 4])[0]
        blob[at:at + 4] = struct.pack("<f", np.inf)
        trained.write_bytes(bytes(blob))
        rest = {
            "complete": ["--in", str(data_dir / "shape_0000.xyz"), "--out", str(tmp_path / "o.xyz")],
            "eval": ["--data", str(data_dir), "--report", str(tmp_path / "r.csv")],
        }[command]
        capsys.readouterr()
        assert main([command, "--ckpt", str(trained), *rest]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {trained}: tensor 'scm1.agg.w' holds a non-finite value\n"
        assert not (tmp_path / "o.xyz").exists() and not (tmp_path / "r.csv").exists()


class TestEval:
    def test_csv_header_and_overall_row(self, trained, data_dir, tmp_path):
        report = tmp_path / "report.csv"
        assert main([
            "eval", "--ckpt", str(trained), "--data", str(data_dir),
            "--viewpoint", "1,1,1", "--report", str(report),
        ]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "category,count,cd_x1000"
        assert lines[-1].startswith("overall,4,")

    def test_stagewise_header(self, trained, data_dir, tmp_path):
        report = tmp_path / "stage.csv"
        assert main([
            "eval", "--ckpt", str(trained), "--data", str(data_dir),
            "--report", str(report), "--stagewise",
        ]) == 0
        header = report.read_text().splitlines()[0]
        assert header == "category,count,cd_coarse,cd_mid,cd_fine,cd_final"

    @pytest.mark.parametrize("flags, given", [
        ([], {}),
        (["--viewpoint", "0,-1,2", "--seed", "3"], {"viewpoint": (0.0, -1.0, 2.0), "seed": 3}),
    ], ids=["defaults", "given"])
    def test_passes_only_the_flags_given(self, trained, data_dir, flags, given, capsys):
        from spcnet.data import load_dataset
        from spcnet.training import evaluate

        capsys.readouterr()
        assert main(["eval", "--ckpt", str(trained), "--data", str(data_dir), *flags]) == 0
        ckpt = load_checkpoint(trained)
        expected = evaluate(ckpt.params, ckpt.config, load_dataset(data_dir), **given)
        assert capsys.readouterr().out == expected.to_csv()

    @pytest.mark.parametrize("viewpoint", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_viewpoint_is_usage_error(self, tmp_path, viewpoint, capsys):
        capsys.readouterr()
        assert main([
            "eval", "--ckpt", str(tmp_path / "m.spcn"), "--data", str(tmp_path),
            f"--viewpoint={viewpoint}", "--report", str(tmp_path / "r.csv"),
        ]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be finite" in errors[0]
        assert not (tmp_path / "r.csv").exists()

    def test_two_coordinate_viewpoint_is_usage_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert main([
            "eval", "--ckpt", str(tmp_path / "m.spcn"), "--data", str(tmp_path),
            "--viewpoint=1,1", "--report", str(tmp_path / "r.csv"),
        ]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "viewpoint needs 3 coordinates, got '1,1'" in errors[0]
        assert not (tmp_path / "r.csv").exists()

    def test_round_trip_preserves_report(self, trained, data_dir, tmp_path):
        import shutil

        copied = tmp_path / "copy.spcn"
        shutil.copy(trained, copied)
        reports = []
        for ckpt in (trained, copied):
            path = tmp_path / f"{ckpt.stem}.csv"
            main([
                "eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                "--report", str(path),
            ])
            reports.append(path.read_text())
        assert reports[0] == reports[1]


class TestAblate:
    def test_rps_variant_sets_sampling_kind(self, tmp_path, data_dir, config_file):
        ckpt = tmp_path / "rps.spcn"
        assert main([
            "ablate", "--variant", "rps", "--data", str(data_dir),
            "--out", str(ckpt), "--epochs", "1", "--seed", "2",
            "--config", str(config_file),
        ]) == 0
        assert load_checkpoint(ckpt).config.sampling_kind == "rps"

    def test_scm1_variant_counts(self, tmp_path, data_dir, config_file):
        ckpt = tmp_path / "scm1.spcn"
        assert main([
            "ablate", "--variant", "scm1", "--data", str(data_dir),
            "--out", str(ckpt), "--epochs", "1", "--seed", "2",
            "--config", str(config_file),
        ]) == 0
        config = load_checkpoint(ckpt).config
        assert config.scm_count == 1
        assert config.upsample_factors == (1,)

    def test_unknown_variant_is_usage_error(self, tmp_path, data_dir):
        code = main([
            "ablate", "--variant", "frobnicate", "--data", str(data_dir),
            "--out", str(tmp_path / "x.spcn"), "--epochs", "1",
        ])
        assert code == 2


class TestUsage:
    def test_unknown_flag_exit_2(self):
        assert main(["train", "--frobnicate"]) == 2

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2

    def test_runtime_failure_exit_1(self, tmp_path):
        assert main([
            "eval", "--ckpt", str(tmp_path / "missing.spcn"),
            "--data", str(tmp_path),
        ]) == 1
