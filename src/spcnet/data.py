"""Point-cloud file I/O, procedural dataset generation, and ingestion.

The .xyz format is one point per line, "x y z" whitespace-separated with
9 significant digits, '#' lines ignored.  Procedural shapes stand in for a
real scan benchmark at desk scale: closed analytic surfaces sampled uniformly
by area, centered at the origin, scaled into [-1, 1]^3 by their bounding
geometry.
"""
from __future__ import annotations

import io
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import fps, normalize_cloud
from .rng import Rng

log = logging.getLogger(__name__)

SHAPE_KINDS = ("sphere", "cube", "cylinder", "cone", "torus", "plane")


# ---------------------------------------------------------------------------
# .xyz files
# ---------------------------------------------------------------------------

def write_xyz(cloud: np.ndarray, path) -> None:
    cloud = np.asarray(cloud, dtype=np.float64)
    with open(path, "w", newline="\n") as fh:
        fh.write(("%.9g %.9g %.9g\n" * len(cloud)) % tuple(cloud.ravel().tolist()))


def read_text(path) -> str:
    """A UTF-8 text file's contents; other bytes are an error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(path):
    """A JSON file's value; text that does not parse (a syntax error, an
    integer too long to convert, nesting too deep) is an error naming the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def read_xyz(path, extra_columns: bool = False) -> np.ndarray:
    """Parse one point per line; blank and '#' lines are skipped.

    A line holds exactly the three coordinates, or with ``extra_columns``
    at least three fields, of which the extras (labels, normals) are
    ignored.  Every coordinate must be a finite number; errors name the line.
    """
    contents = read_text(path)
    plain = _read_plain_xyz(contents)
    if plain is not None:
        return plain
    points = []
    for lineno, line in enumerate(contents.split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 3 or (len(fields) > 3 and not extra_columns):
            raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(fields)}")
        try:
            point = [float(v) for v in fields[:3]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric coordinate") from None
        if not all(map(math.isfinite, point)):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate")
        points.append(point)
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def _read_plain_xyz(text: str) -> np.ndarray | None:
    """The points of ``text`` read by numpy in one pass, when every line is
    blank or three finite numbers; None wherever ``read_xyz``'s line loop
    might read otherwise or fail.  Both parse with Python's correctly
    rounded conversion; ASCII only, since ``float`` also takes other digits
    and ``str.split`` other spaces, and no comments, underscores or extra
    columns, which numpy rejects here."""
    if not text.isascii() or not text.strip():
        return None
    try:
        points = np.loadtxt(io.StringIO(text), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if points.shape[1] != 3 or not np.isfinite(points).all():
        return None
    return points


# ---------------------------------------------------------------------------
# procedural surface samplers
# ---------------------------------------------------------------------------

def _span(u: np.ndarray, lo, hi) -> np.ndarray:
    """Unit draws mapped to [lo, hi), rounding as ``Rng.uniform`` does.  Each
    sampler draws its per-shape scalars first, then one [rows, d] array of
    unit draws holding, row by row, the d values each point takes in turn."""
    return lo + (hi - lo) * u


def _ring(r: np.ndarray, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _sphere(rng: Rng, n: int) -> np.ndarray:
    # Antipodal pairs keep the sample centroid at the origin to rounding.
    u = rng.uniform_array((n - n // 2, 2))
    z = _span(u[:, 0], -1.0, 1.0)
    d = _ring(np.sqrt(np.maximum(0.0, 1.0 - z * z)), _span(u[:, 1], 0.0, 2.0 * math.pi), z)
    half = n // 2
    return np.concatenate([d[:half], -d[:half], d[half:]])


def _cube(rng: Rng, n: int) -> np.ndarray:
    ext = np.array([rng.uniform(0.5, 1.0) for _ in range(3)])
    areas = np.array([ext[1] * ext[2], ext[0] * ext[2], ext[0] * ext[1]])
    areas = np.repeat(areas, 2)  # +/- face per axis
    cumulative = np.cumsum(areas / areas.sum())
    u = rng.uniform_array((n, 4))
    face = np.minimum(np.searchsorted(cumulative, u[:, 0], side="right"), 5)
    axis, sign = np.divmod(face, 2)
    pts = _span(u[:, 1:], -ext, ext)
    pts[np.arange(n), axis] = np.where(sign == 0, ext[axis], -ext[axis])
    return pts / ext.max()


def _cylinder(rng: Rng, n: int) -> np.ndarray:
    radius = rng.uniform(0.4, 0.9)
    half_h = rng.uniform(0.5, 1.0)
    lateral = 2.0 * math.pi * radius * 2.0 * half_h
    cap = math.pi * radius * radius
    u = rng.uniform_array((n, 3))
    side = _span(u[:, 0], 0.0, lateral + 2.0 * cap)
    on_wall = side < lateral
    r = np.where(on_wall, radius, radius * np.sqrt(u[:, 2]))
    z = np.where(on_wall, _span(u[:, 2], -half_h, half_h),
                 np.where(side < lateral + cap, half_h, -half_h))
    return _ring(r, _span(u[:, 1], 0.0, 2.0 * math.pi), z) / max(radius, half_h)


def _cone(rng: Rng, n: int) -> np.ndarray:
    radius = rng.uniform(0.5, 0.9)
    half_h = rng.uniform(0.5, 1.0)
    slant = math.sqrt(radius * radius + 4.0 * half_h * half_h)
    lateral = math.pi * radius * slant
    base = math.pi * radius * radius
    u = rng.uniform_array((n, 3))
    on_slant = _span(u[:, 1], 0.0, lateral + base) < lateral
    t = np.sqrt(u[:, 2])  # area-uniform along the slant, and over the base
    z = np.where(on_slant, half_h - 2.0 * half_h * t, -half_h)
    return _ring(radius * t, _span(u[:, 0], 0.0, 2.0 * math.pi), z) / max(radius, half_h)


def _torus(rng: Rng, n: int) -> np.ndarray:
    major = rng.uniform(0.55, 0.75)
    minor = rng.uniform(0.15, 0.9 * major / 2.0)
    pts = np.empty((n, 3))
    for i in range(n):
        # rejection keeps the sampling uniform by area over the tube
        while True:
            psi = rng.uniform(0.0, 2.0 * math.pi)
            if rng.uniform() <= (major + minor * math.cos(psi)) / (major + minor):
                break
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ring = major + minor * math.cos(psi)
        pts[i] = (ring * math.cos(theta), ring * math.sin(theta), minor * math.sin(psi))
    return pts / (major + minor)


def _plane(rng: Rng, n: int) -> np.ndarray:
    a = rng.uniform(0.5, 1.0)
    b = rng.uniform(0.5, 1.0)
    u = rng.uniform_array((n, 2))
    return np.stack([_span(u[:, 0], -a, a), _span(u[:, 1], -b, b), np.zeros(n)], axis=1) / max(a, b)


_GENERATORS = {
    "sphere": _sphere,
    "cube": _cube,
    "cylinder": _cylinder,
    "cone": _cone,
    "torus": _torus,
    "plane": _plane,
}


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    shapes: list = field(default_factory=list)  # (category, [n, 3] cloud)


def generate_shapes(kinds, count: int, points_per_shape: int, seed: int) -> Dataset:
    """Deterministic procedural dataset, cycling through the requested kinds."""
    kinds = list(kinds)
    if not kinds:
        raise ValueError(f"no shape kinds given (known: {SHAPE_KINDS})")
    for kind in kinds:
        if kind not in _GENERATORS:
            raise ValueError(f"unknown shape kind {kind!r} (known: {SHAPE_KINDS})")
    if count < 1 or points_per_shape < 2:
        raise ValueError("need at least one shape and two points per shape")
    master = Rng(seed)
    shapes = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        shapes.append((kind, _GENERATORS[kind](master.spawn(), points_per_shape)))
    return Dataset(shapes=shapes)


def generate_dataset(out_dir, kinds, count: int, points_per_shape: int, seed: int) -> Dataset:
    """Generate and write a procedural dataset: one .xyz per shape + manifest."""
    dataset = generate_shapes(kinds, count, points_per_shape, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (kind, cloud) in enumerate(dataset.shapes):
        entries.append({"file": f"shape_{i:04d}.xyz", "category": kind})
        write_xyz(cloud, out_dir / entries[-1]["file"])
    manifest = {
        "generator": "procedural",
        "seed": seed,
        "points_per_shape": points_per_shape,
        "shapes": entries,
    }
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return dataset


def load_dataset(data_dir) -> Dataset:
    """Load a directory: a generated dataset when a manifest is present,
    otherwise category subfolders of raw point files."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if manifest_path.exists():
        manifest = read_json(manifest_path)
        entries = manifest.get("shapes") if isinstance(manifest, dict) else None
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"{manifest_path}: needs a non-empty \"shapes\" list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or not all(
                isinstance(entry.get(key), str) for key in ("category", "file")
            ):
                raise ValueError(f"{manifest_path}: shape {i} needs string category and file")
        # later files are held to the first, and the first to the manifest
        declared = manifest.get("points_per_shape")
        shapes = []
        for entry in entries:
            path = data_dir / entry["file"]
            points = read_xyz(path)
            if not len(points):
                raise ValueError(f"{path}: no points")
            if not shapes and type(declared) is int and len(points) != declared:
                raise ValueError(
                    f"{path}: {len(points)} points, but the manifest gives points_per_shape {declared}"
                )
            if shapes and len(points) != len(shapes[0][1]):
                raise ValueError(
                    f"{path}: {len(points)} points, but the first file has {len(shapes[0][1])}"
                )
            shapes.append((entry["category"], points))
        return Dataset(shapes=shapes)
    return ingest_category_tree(data_dir)


def resample_to(points: np.ndarray, target: int, rng: Rng) -> np.ndarray:
    """Exactly ``target`` points: a uniform draw without replacement when the
    cloud is large enough, otherwise all points plus duplicates taken in
    farthest-point order."""
    n = points.shape[0]
    if n >= target:
        idx = sorted(rng.sample_indices(n, target))
        return points[idx]
    order = fps(points, n)
    return points[np.concatenate([np.arange(n), order[np.arange(target - n) % n]])]


def ingest_category_tree(root, points_per_shape: int = 2048, seed: int = 0) -> Dataset:
    """Ingest a benchmark-style directory of category subfolders holding
    ASCII point files; each shape is resampled to a uniform count and
    normalized.  Unreadable files are skipped with a warning."""
    root = Path(root)
    rng = Rng(seed)
    shapes = []
    for category_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for file_path in sorted(category_dir.iterdir()):
            if not file_path.is_file():
                continue
            try:
                points = read_xyz(file_path, extra_columns=True)
                if points.shape[0] < 2:
                    raise ValueError("fewer than 2 points")
                points = resample_to(points, points_per_shape, rng)
                points = normalize_cloud(points)
            except (ValueError, OSError) as exc:
                log.warning("skipping %s: %s", file_path, exc)
                continue
            shapes.append((category_dir.name, points))
    if not shapes:
        raise ValueError(f"no usable shapes under {root}")
    return Dataset(shapes=shapes)
