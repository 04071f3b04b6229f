"""File formats and dataset generation/ingestion."""
import hashlib

import numpy as np
import pytest

from spcnet.data import (
    SHAPE_KINDS,
    Dataset,
    generate_dataset,
    generate_shapes,
    ingest_category_tree,
    load_dataset,
    read_xyz,
    resample_to,
    write_xyz,
)
from spcnet.rng import Rng


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


class TestXyz:
    def test_round_trip_precision(self, tmp_path):
        pts = cloud(100, 0)
        path = tmp_path / "cloud.xyz"
        write_xyz(pts, path)
        back = read_xyz(path)
        assert np.abs(back - pts).max() < 1e-8

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n1 2 3\n# another\n4 5 6\n\n")
        np.testing.assert_array_equal(read_xyz(path), [[1, 2, 3], [4, 5, 6]])

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n1.0 2.0\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_xyz(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 x\n")
        with pytest.raises(ValueError, match=r":1:.*numeric"):
            read_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_names_line(self, tmp_path, value):
        path = tmp_path / "bad.xyz"
        path.write_text(f"1 2 3\n1 {value} 3\n")
        with pytest.raises(ValueError, match=r":2: non-finite coordinate"):
            read_xyz(path)

    def test_extra_columns_rejected_by_default(self, tmp_path):
        path = tmp_path / "labelled.xyz"
        path.write_text("1 2 3 7\n")
        with pytest.raises(ValueError, match=r":1: expected 3 coordinates, got 4"):
            read_xyz(path)

    def test_extra_columns_ignored_when_allowed(self, tmp_path):
        path = tmp_path / "labelled.xyz"
        path.write_text("1 2 3 0.1 0.2 7\n4 5 6 0.3 0.4 8\n")
        np.testing.assert_array_equal(
            read_xyz(path, extra_columns=True), [[1, 2, 3], [4, 5, 6]]
        )

    def test_too_few_fields_rejected_when_extras_allowed(self, tmp_path):
        path = tmp_path / "short.xyz"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match=r":1:"):
            read_xyz(path, extra_columns=True)

    @pytest.mark.parametrize("text", [
        " 1e3\t-0.0 +.5 \n\n5e-324 0.1 -7\n",  # numpy's one-pass parse
        "1_0 2 3\n",  # float takes an underscore and other digits, numpy not
        "\u0661 2 3\n",
        "1\u00a02 3\n",  # and str.split a no-break space
    ])
    def test_values_are_the_line_loops(self, tmp_path, text):
        path = tmp_path / "c.xyz"
        path.write_text(text, encoding="utf-8")
        loop = [[float(v) for v in line.split()] for line in text.split("\n") if line.strip()]
        np.testing.assert_array_equal(read_xyz(path).view(np.uint64), np.array(loop).view(np.uint64))

    def test_comment_after_the_coordinates_names_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5 6 # note\n")
        with pytest.raises(ValueError, match=r":2: expected 3 coordinates, got 5"):
            read_xyz(path)


    def test_write_matches_per_row_text(self, tmp_path):
        # signed zeros, a subnormal and a huge value print as the f-string
        # per row printed them; an empty cloud writes an empty file
        pts = np.array([[0.0, -0.0, 5e-324], [1e300, -1e300, -2.5e-310], [1 / 3, -2.0, 1e-5]])
        for rows in (pts, np.empty((0, 3))):
            path = tmp_path / "c.xyz"
            write_xyz(rows, path)
            assert path.read_bytes() == "".join(
                f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in rows
            ).encode()


class TestFrozenBits:
    # sha256 of the generated coordinates (float64 bytes, signs included)
    # and of generated dataset files, frozen from samplers that drew one
    # value per call: at 2048 and 2049 points every array sampler takes
    # Rng.uniform_array's lane path, at 2 and 3 points its short loop.
    SIZES = (2, 3, 255, 256, 2048, 2049)
    SEEDS = (0, 9)
    SHAPE_DIGESTS = {
        "sphere": "f3cfaedcff0060abe2e6b57cfe9f55b0348fa2a1f6ef22db5d7a953b075d2ec0",
        "cube": "70162e29f67b1170cc4a78296b8299d64a52ec6453dc7376b84e9ede8933fc89",
        "cylinder": "2deb05228e98c8d011f7595dac7303006ff9f2f27402704f81cd1a5ffe6d6c22",
        "cone": "0f95a8a8f3321514956e4ec8376b0519a0b78c0688bb4f60a4bb315068e09923",
        "torus": "9fc58c9fb9db7235cb3a542a680e29d51d0a69d17f85b3312996163c14762bc4",
        "plane": "4c5da807b0eca104fb4120e7b0b350c332484376a314121eee95aec332c6f0de",
    }
    FILE_DIGESTS = {
        (12, 3, 1): "77e4d502670dbb480eb82bb65c1335efb15ef1e21177b1e0a1788896ba689bd6",
        (6, 2049, 4): "83eb94056707ac9985c2efc6d8bbbf318be2d872d7e0fef3647b6be2c12517db",
    }

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_shape_bits_are_frozen(self, kind):
        digest = hashlib.sha256()
        for seed in self.SEEDS:
            for n in self.SIZES:
                pts = generate_shapes([kind], 1, n, seed).shapes[0][1]
                digest.update(np.ascontiguousarray(pts, dtype="<f8").tobytes())
        assert digest.hexdigest() == self.SHAPE_DIGESTS[kind]

    @pytest.mark.parametrize("count, n, seed", sorted(FILE_DIGESTS))
    def test_dataset_files_are_frozen(self, tmp_path, count, n, seed):
        generate_dataset(tmp_path, SHAPE_KINDS, count, n, seed)
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.FILE_DIGESTS[count, n, seed]


class TestGenerate:
    def test_sphere_points_unit_distance_from_centroid(self):
        dataset = generate_shapes(["sphere"], 1, 256, 1)
        pts = dataset.shapes[0][1]
        centroid = pts.mean(axis=0)
        radii = np.linalg.norm(pts - centroid, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-9

    def test_all_kinds_in_unit_box(self):
        kinds = ["sphere", "cube", "cylinder", "cone", "torus", "plane"]
        dataset = generate_shapes(kinds, 6, 128, 2)
        for kind, pts in dataset.shapes:
            assert pts.shape == (128, 3)
            assert np.abs(pts).max() <= 1.0 + 1e-12, kind

    def test_deterministic_files_byte_for_byte(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_dataset(a_dir, ["sphere", "cube"], 4, 64, 7)
        generate_dataset(b_dir, ["sphere", "cube"], 4, 64, 7)
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_file_count_and_line_count(self, tmp_path):
        out = tmp_path / "data"
        generate_dataset(out, ["sphere"], 8, 256, 3)
        files = sorted(out.glob("*.xyz"))
        assert len(files) == 8
        assert all(len(f.read_text().splitlines()) == 256 for f in files)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            generate_shapes(["dodecahedron"], 1, 64, 0)

    def test_load_round_trip(self, tmp_path):
        out = tmp_path / "data"
        written = generate_dataset(out, ["torus", "plane"], 3, 64, 11)
        loaded = load_dataset(out)
        assert [c for c, _ in loaded.shapes] == [c for c, _ in written.shapes]
        for (_, a), (_, b) in zip(written.shapes, loaded.shapes):
            assert np.abs(a - b).max() < 1e-8

    @pytest.mark.parametrize("index, rows, message", [
        (0, 0, "no points"),
        (2, 0, "no points"),
        (1, 2, "2 points, but the first file has 64"),
    ])
    def test_empty_or_miscounted_file_named(self, tmp_path, index, rows, message):
        out = tmp_path / "data"
        generate_dataset(out, ["torus", "plane"], 3, 64, 11)
        bad = out / f"shape_{index:04d}.xyz"
        write_xyz(cloud(rows, 12), bad)
        with pytest.raises(ValueError) as info:
            load_dataset(out)
        assert str(info.value) == f"{bad}: {message}"

    def test_short_first_file_named_not_the_next(self, tmp_path):
        out = tmp_path / "data"
        generate_dataset(out, ["torus", "plane"], 3, 64, 11)
        first = out / "shape_0000.xyz"
        first.write_text("".join(first.read_text().splitlines(keepends=True)[:63]))
        with pytest.raises(ValueError) as info:
            load_dataset(out)
        assert str(info.value) == f"{first}: 63 points, but the manifest gives points_per_shape 64"


class TestIngest:
    def make_tree(self, tmp_path, with_labels=False, broken=False):
        root = tmp_path / "raw"
        for category, seed in (("chair", 20), ("table", 21)):
            d = root / category
            d.mkdir(parents=True)
            for i in range(2):
                pts = cloud(4000 if i == 0 else 100, seed + i)
                lines = []
                for p in pts:
                    extras = " 0.1 0.2 7" if with_labels else ""
                    lines.append(f"{p[0]} {p[1]} {p[2]}{extras}")
                (d / f"shape{i}.pts").write_text("\n".join(lines) + "\n")
        if broken:
            (root / "chair" / "bad.pts").write_text("not numbers at all\n")
        return root

    def test_resample_large_file_to_target(self, tmp_path):
        root = self.make_tree(tmp_path)
        dataset = ingest_category_tree(root, points_per_shape=2048, seed=0)
        assert all(pts.shape == (2048, 3) for _, pts in dataset.shapes)
        assert sorted({c for c, _ in dataset.shapes}) == ["chair", "table"]

    def test_trailing_labels_ignored(self, tmp_path):
        root = self.make_tree(tmp_path, with_labels=True)
        dataset = ingest_category_tree(root, points_per_shape=256, seed=0)
        assert all(pts.shape == (256, 3) for _, pts in dataset.shapes)

    def test_small_file_padded_with_fps_order(self):
        pts = cloud(10, 22)
        out = resample_to(pts, 25, Rng(0))
        assert out.shape == (25, 3)
        np.testing.assert_array_equal(out[:10], pts)

    def test_broken_file_skipped_with_warning(self, tmp_path, caplog):
        root = self.make_tree(tmp_path, broken=True)
        with caplog.at_level("WARNING"):
            dataset = ingest_category_tree(root, points_per_shape=128, seed=0)
        assert len(dataset.shapes) == 4
        assert any("bad.pts" in message for message in caplog.text.splitlines())

    def test_non_finite_file_skipped_with_warning(self, tmp_path, caplog):
        root = self.make_tree(tmp_path)
        (root / "chair" / "nan.pts").write_text("0 0 0\n1 nan 1\n2 2 2\n")
        with caplog.at_level("WARNING"):
            dataset = ingest_category_tree(root, points_per_shape=128, seed=0)
        assert len(dataset.shapes) == 4
        assert all(np.isfinite(pts).all() for _, pts in dataset.shapes)
        assert any(
            "nan.pts" in message and "non-finite coordinate" in message
            for message in caplog.text.splitlines()
        )

    def test_empty_tree_fatal(self, tmp_path):
        root = tmp_path / "empty"
        (root / "nothing").mkdir(parents=True)
        with pytest.raises(ValueError, match="no usable shapes"):
            ingest_category_tree(root)

    def test_normalized_output(self, tmp_path):
        root = self.make_tree(tmp_path)
        dataset = ingest_category_tree(root, points_per_shape=128, seed=0)
        for _, pts in dataset.shapes:
            assert np.abs(pts).max() == pytest.approx(1.0)
            np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=1e-12)
