"""Checkpoint binary format and round-trip guarantees."""
import re
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcnet.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from spcnet.model import ModelConfig, init_params, spcnet_forward
from spcnet.optim import AdamState
from spcnet.tensor import Tensor, no_grad

TINY = ModelConfig(
    points_per_shape=64, width_scale=0.0625, knn_k=4, down_rate=2,
    upsample_factors=(2, 2, 1),
)


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


def make_checkpoint(seed=0, with_adam=False):
    params = init_params(TINY, seed)
    adam = AdamState.for_params(params) if with_adam else None
    if with_adam:
        adam.t = 5
        for name in params:
            adam.m[name] += 0.25
    return Checkpoint(config=TINY, params=params, adam=adam, meta={"epochs": "3"})


class TestRoundTrip:
    def test_forward_outputs_preserved_within_storage_precision(self, tmp_path):
        ckpt = make_checkpoint(1)
        pts = cloud(32, 1)
        with no_grad():
            before = spcnet_forward(Tensor(pts), ckpt.params, TINY).final.data
        path = tmp_path / "model.spcn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == TINY
        assert loaded.meta == {"epochs": "3"}
        with no_grad():
            after = spcnet_forward(Tensor(pts), loaded.params, TINY).final.data
        # relative to the coordinate scale: single elements may sit near zero
        scale = max(np.abs(before).max(), 1.0)
        assert np.abs(after - before).max() / scale < 1e-6

    def test_save_load_save_is_stable(self, tmp_path):
        ckpt = make_checkpoint(2)
        p1, p2 = tmp_path / "a.spcn", tmp_path / "b.spcn"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_adam_state_round_trip(self, tmp_path):
        ckpt = make_checkpoint(3, with_adam=True)
        path = tmp_path / "m.spcn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.adam is not None
        assert loaded.adam.t == 5
        name = next(iter(ckpt.params))
        np.testing.assert_allclose(loaded.adam.m[name], 0.25, rtol=1e-6)

    def test_every_config_field_round_trips_with_its_type(self, tmp_path):
        config = ModelConfig(
            points_per_shape=96, missing_ratio=0.25, down_rate=2, scm_count=2,
            upsample_factors=(3, 1), grid_count=9, grid_r=0.125, knn_k=5,
            conv_kind="edge", vmlp_kind="one_subnet", use_aggregation=False,
            sampling_kind="rps", width_scale=0.0625, loss_mode="4L",
            partial_substitution="pnk-pn",
        )
        assert all(getattr(config, f.name) != f.default for f in fields(ModelConfig))
        path = tmp_path / "m.spcn"
        save_checkpoint(Checkpoint(config=config, params=init_params(config, 0)), path)
        loaded = load_checkpoint(path).config
        assert loaded == config
        for f in fields(ModelConfig):
            assert type(getattr(loaded, f.name)) is type(f.default), f.name
        assert all(type(u) is int for u in loaded.upsample_factors)

    def test_params_grad_enabled_after_load(self, tmp_path):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(4), path)
        loaded = load_checkpoint(path)
        assert all(p.requires_grad for p in loaded.params.values())


class TestAtomicSave:
    def test_failed_save_leaves_existing_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(8), path)
        before = path.read_bytes()
        ckpt = make_checkpoint(9)
        # written last, after every real tensor: float32 cannot hold it
        ckpt.params["zz.unstorable"] = SimpleNamespace(data=np.array([object()]))
        with pytest.raises(TypeError):
            save_checkpoint(ckpt, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.spcn"]


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spcn"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic.*offset 0"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.spcn"
        path.write_bytes(b"SPCN" + struct.pack("<I", 2) + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="version 2.*offset 4"):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        good = tmp_path / "good.spcn"
        save_checkpoint(make_checkpoint(5), good)
        blob = good.read_bytes()
        bad = tmp_path / "trunc.spcn"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="offset"):
            load_checkpoint(bad)

    # products of 2^64, 2^65 and (2^64 - 1)^2 values: a 64-bit integer
    # product wraps them to 0, 0 and 1
    @pytest.mark.parametrize("extents", [(2**32, 2**32), (2**62, 8), (2**64 - 1, 2**64 - 1)])
    def test_extents_past_two_to_the_64_read_as_truncated(self, tmp_path, extents):
        path = tmp_path / "huge.spcn"
        save_checkpoint(make_checkpoint(8), path)
        blob = path.read_bytes()
        name = b"coarse.enc.l0.w"
        at = blob.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
        assert struct.unpack("<I", blob[at:at + 4])[0] == 2
        path.write_bytes(blob[:at + 4] + struct.pack("<QQ", *extents) + blob[at + 20:])
        message = re.escape(f"{path}: truncated while reading values of coarse.enc.l0.w")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        good = tmp_path / "good.spcn"
        save_checkpoint(make_checkpoint(6), good)
        bad = tmp_path / "tail.spcn"
        bad.write_bytes(good.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(bad)

    def test_layout_is_little_endian_with_magic(self, tmp_path):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(7), path)
        blob = path.read_bytes()
        assert blob[:4] == b"SPCN"
        assert struct.unpack("<I", blob[4:8])[0] == 1
        config_len = struct.unpack("<I", blob[8:12])[0]
        config = blob[12:12 + config_len].decode("utf-8")
        assert "missing_ratio=0.5" in config
        assert "has_adam=False" in config


def rewrite_config_block(path, old: bytes, new: bytes) -> None:
    blob = path.read_bytes()
    size = struct.unpack("<I", blob[8:12])[0]
    block = blob[12:12 + size].replace(old, new)
    path.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + size:])


class TestLayoutErrors:
    """A load names the first tensor that does not match the layout the
    stored config registers."""

    def save(self, tmp_path, ckpt):
        path = tmp_path / "m.spcn"
        save_checkpoint(ckpt, path)
        return path

    def test_missing_tensor(self, tmp_path):
        ckpt = make_checkpoint(10)
        del ckpt.params["scm1.agg.w"]
        path = self.save(tmp_path, ckpt)
        with pytest.raises(CheckpointError, match="missing tensor 'scm1.agg.w'"):
            load_checkpoint(path)

    def test_unexpected_tensor(self, tmp_path):
        ckpt = make_checkpoint(11)
        ckpt.params["scm0.extra.w"] = Tensor(np.zeros((2, 2)))
        path = self.save(tmp_path, ckpt)
        with pytest.raises(CheckpointError, match="unexpected tensor 'scm0.extra.w'"):
            load_checkpoint(path)

    def test_misshapen_tensor(self, tmp_path):
        ckpt = make_checkpoint(12)
        expected = ckpt.params["scm1.agg.b"].shape
        ckpt.params["scm1.agg.b"] = Tensor(np.zeros(expected[0] + 1))
        path = self.save(tmp_path, ckpt)
        message = rf"tensor 'scm1.agg.b' is \({expected[0] + 1},\), not \({expected[0]},\)"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_missing_adam_moment(self, tmp_path):
        path = self.save(tmp_path, make_checkpoint(13))
        rewrite_config_block(path, b"has_adam=False", b"has_adam=True\nadam.t=5")
        first = next(iter(init_params(TINY, 0)))
        with pytest.raises(CheckpointError, match=f"missing tensor 'adam.m.{first}'"):
            load_checkpoint(path)

    def test_moments_without_has_adam_are_unexpected(self, tmp_path):
        path = self.save(tmp_path, make_checkpoint(14, with_adam=True))
        rewrite_config_block(path, b"has_adam=True\nadam.t=5", b"has_adam=False")
        first = next(iter(init_params(TINY, 0)))
        with pytest.raises(CheckpointError, match=f"unexpected tensor 'adam.m.{first}'"):
            load_checkpoint(path)


class TestConfigErrors:
    """A stored config that does not decode, or does not validate, is an
    error naming the file (and the key, when one value is unreadable)."""

    def saved(self, tmp_path, seed=15, with_adam=False):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(seed, with_adam=with_adam), path)
        return path

    @pytest.mark.parametrize("old, new, key, text, kind", [
        (b"knn_k=4", b"knn_k=four", "knn_k", "four", "int"),
        (b"missing_ratio=0.5", b"missing_ratio=half", "missing_ratio", "half", "float"),
        (b"upsample_factors=2,2,1", b"upsample_factors=2,x,1", "upsample_factors",
         "2,x,1", "tuple"),
        (b"use_aggregation=True", b"use_aggregation=yes", "use_aggregation", "yes", "bool"),
        (b"has_adam=False", b"has_adam=true", "has_adam", "true", "bool"),
    ])
    def test_unreadable_value_names_file_and_key(self, tmp_path, old, new, key, text, kind):
        path = self.saved(tmp_path)
        rewrite_config_block(path, old, new)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: config key {key!r}: cannot read {text!r} as {kind}"

    @pytest.mark.parametrize("old, new, message", [
        (b"knn_k=4\n", b"", "config key 'knn_k' is missing"),
        (b"has_adam=False\n", b"", "config key 'has_adam' is missing"),
        (b"knn_k=4\n", b"knn=4\n", "unknown config key 'knn'"),
        (b"has_adam=False\n", b"has_adam=False\ncolour=red\n", "unknown config key 'colour'"),
        # the Adam step is stored exactly when has_adam is True
        (b"has_adam=False\n", b"has_adam=True\n", "config key 'adam.t' is missing"),
        (b"has_adam=False\n", b"has_adam=False\nadam.t=5\n", "unknown config key 'adam.t'"),
    ])
    def test_missing_or_unknown_key_names_file_and_key(self, tmp_path, old, new, message):
        path = self.saved(tmp_path)
        rewrite_config_block(path, old, new)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unreadable_adam_step_names_file_and_key(self, tmp_path):
        path = self.saved(tmp_path, with_adam=True)
        rewrite_config_block(path, b"adam.t=5", b"adam.t=5.5")
        with pytest.raises(CheckpointError, match="config key 'adam.t': cannot read '5.5' as int"):
            load_checkpoint(path)

    def test_adam_state_without_its_step_is_rejected(self, tmp_path):
        # read as step 0, a resumed optimizer would restart its bias correction
        path = self.saved(tmp_path, with_adam=True)
        rewrite_config_block(path, b"adam.t=5\n", b"")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: config key 'adam.t' is missing"

    def test_invalid_config_is_prefixed_with_the_path(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_config_block(path, b"scm_count=3", b"scm_count=5")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: scm_count must be 1..3, got 5"

    @pytest.mark.parametrize("old, new, message", [
        (b"knn_k=4", b"knn_k=0", "knn_k must be >= 1, got 0"),
        (b"grid_r=0.05", b"grid_r=nan", "grid_r must be finite, got nan"),
        (b"width_scale=0.0625", b"width_scale=-0.0625",
         "width_scale must be a positive finite number, got -0.0625"),
    ])
    def test_value_out_of_range_is_prefixed_with_the_path(self, tmp_path, old, new, message):
        path = self.saved(tmp_path)
        rewrite_config_block(path, old, new)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"


def poke_value(path, name: str, value: float) -> None:
    """Overwrite the first stored float32 of tensor ``name`` in place."""
    blob = bytearray(path.read_bytes())
    encoded = name.encode()
    at = blob.index(struct.pack("<I", len(encoded)) + encoded) + 4 + len(encoded)
    rank = struct.unpack("<I", blob[at:at + 4])[0]
    at += 4 + 8 * rank
    blob[at:at + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


class TestNonFiniteValues:
    """Every stored value is finite: a save refuses what float32 cannot hold
    finitely, a load refuses a stored inf or nan, naming file and tensor."""

    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
    @pytest.mark.parametrize("where", ["param", "adam.v"])
    def test_save_refuses_and_leaves_existing_file(self, tmp_path, value, where):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(16), path)
        before = path.read_bytes()
        ckpt = make_checkpoint(17, with_adam=True)
        name = "scm1.agg.w"
        target = ckpt.params[name].data if where == "param" else ckpt.adam.v[name]
        target[0, 0] = value
        stored = name if where == "param" else f"adam.v.{name}"
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(ckpt, path)
        assert str(info.value) == (
            f"{path}: tensor {stored!r} holds a value that is not finite in float32"
        )
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.spcn"]

    def test_largest_float32_is_saved(self, tmp_path):
        ckpt = make_checkpoint(18)
        big = float(np.finfo(np.float32).max)
        ckpt.params["scm1.agg.w"].data[0, 0] = -big
        path = tmp_path / "m.spcn"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).params["scm1.agg.w"].data[0, 0] == -big

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("prefix", ["", "adam.m.", "adam.v."])
    def test_load_refuses_stored_non_finite_value(self, tmp_path, value, prefix):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(19, with_adam=True), path)
        name = f"{prefix}scm1.agg.w"
        poke_value(path, name, value)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: tensor {name!r} holds a non-finite value"


class TestRepeatedConfigKey:
    # each stored line followed by a second value for the same key
    @pytest.mark.parametrize("key, stored, repeat", [
        ("knn_k", "4", "7"),
        ("meta.epochs", "3", "9"),
        ("missing_ratio", "0.5", "0.25"),
        ("has_adam", "False", "False"),
    ])
    def test_repeat_names_file_and_key(self, tmp_path, key, stored, repeat):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(20), path)
        line = f"{key}={stored}\n".encode()
        rewrite_config_block(path, line, line + f"{key}={repeat}\n".encode())
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: config key {key!r} appears twice"


def record_header_spans(blob: bytes) -> list:
    """[start, end) of the file's prefix (magic to tensor count) and of each
    record's header (name length to its last extent): the bytes a load
    parses, as opposed to the values it copies."""
    at = 12 + struct.unpack("<I", blob[8:12])[0] + 4
    spans = [(0, at)]
    while at < len(blob):
        rank_at = at + 4 + struct.unpack("<I", blob[at:at + 4])[0]
        rank = struct.unpack("<I", blob[rank_at:rank_at + 4])[0]
        end = rank_at + 4 + 8 * rank
        spans.append((at, end))
        at = end + 4 * int(np.prod(struct.unpack(f"<{rank}Q", blob[rank_at + 4:end])))
    return spans


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.spcn"
    save_checkpoint(make_checkpoint(21, with_adam=True), path)
    blob = path.read_bytes()
    return path, blob, record_header_spans(blob)


@st.composite
def mutated(draw, blob: bytes, spans=()) -> bytes:
    """``blob`` truncated, with a bit flipped, or with 1 to 8 bytes overwritten
    or inserted, at a byte drawn from one of ``spans`` or from the whole."""
    start, end = draw(st.sampled_from([*spans, (0, len(blob))]))
    at = draw(st.integers(start, end - 1))
    kind = draw(st.sampled_from(["truncate", "flip", "overwrite", "insert"]))
    out = bytearray(blob)
    if kind == "truncate":
        del out[at:]
    elif kind == "flip":
        out[at] ^= 1 << draw(st.integers(0, 7))
    else:
        new = draw(st.binary(min_size=1, max_size=8))
        out[at:at + (len(new) if kind == "overwrite" else 0)] = new
    return bytes(out)


class TestMutatedFile:
    """Whatever bytes a file holds, a load returns a checkpoint or raises one
    CheckpointError line that names the file."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_loads_or_names_the_file(self, fuzz_target, data):
        path, blob, spans = fuzz_target
        # most draws land in a header: value bytes only load or are not finite
        path.write_bytes(data.draw(mutated(blob, spans)))
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)


class TestRepeatedTensorName:
    def test_second_copy_is_an_error_naming_file_tensor_and_offset(self, tmp_path):
        # a zeroed second copy of a parameter, appended as one more record
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(22), path)
        blob = path.read_bytes()
        name = b"coarse.enc.l0.w"
        head = blob.index(struct.pack("<I", len(name)) + name)
        at = head + 4 + len(name)
        rank = struct.unpack("<I", blob[at:at + 4])[0]
        shape = struct.unpack(f"<{rank}Q", blob[at + 4:at + 4 + 8 * rank])
        record = blob[head:at + 4 + 8 * rank] + bytes(4 * int(np.prod(shape)))
        count_at = 12 + struct.unpack("<I", blob[8:12])[0]
        count = struct.unpack("<I", blob[count_at:count_at + 4])[0]
        path.write_bytes(
            blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4:] + record
        )
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            f"{path}: tensor 'coarse.enc.l0.w' at offset {len(blob) + 4} appears twice"
        )


class TestMetaEntries:
    """A load splits the config block into lines and each line at its first
    "=": a save refuses a meta entry that would not read back as written."""

    @pytest.mark.parametrize("key, value", [
        ("note", "a\nb"),
        ("note", "1\r2"),
        ("note", "v\u2028w"),
        ("note", "ends\n"),
        ("a=b", "c"),
        ("two\nlines", "x"),
    ])
    def test_save_refuses_and_leaves_existing_file(self, tmp_path, key, value):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(23), path)
        before = path.read_bytes()
        ckpt = make_checkpoint(24)
        ckpt.meta[key] = value
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(ckpt, path)
        assert str(info.value) == (
            f"{path}: meta key {key!r}: a key may not hold '=', nor a key or value a line break"
        )
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.spcn"]

    def test_blank_lines_in_the_config_block_are_skipped(self, tmp_path):
        path = tmp_path / "m.spcn"
        save_checkpoint(make_checkpoint(26), path)
        plain = load_checkpoint(path)
        rewrite_config_block(path, b"has_adam=False\n", b"\nhas_adam=False\n\n")
        loaded = load_checkpoint(path)
        assert loaded.config == plain.config and loaded.meta == plain.meta
        for name, p in plain.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)

    def test_other_text_round_trips(self, tmp_path):
        path = tmp_path / "m.spcn"
        ckpt = make_checkpoint(25)
        ckpt.meta = {"formula": "a=b=c", "empty": "", "spaced": " x\ty ", "unicode": "ünï"}
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).meta == ckpt.meta
