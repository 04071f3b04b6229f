"""Point-cloud sampling, neighbor search, and partial-shape generation.

Clouds are plain ``float64`` arrays of shape [n, 3]; row order is meaningful
(indices act as stable identities within a pipeline pass).  Every tie in a
distance comparison breaks to the lowest index so that vectorized code and
the brute-force references in the tests agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng


# Blocked kernels (distances here, per-edge arrays in ``layers``) take rows
# in blocks whose arrays are each about this many bytes.
_BLOCK_BYTES = 2 << 20


def row_blocks(rows: int, row_bytes: int) -> list:
    """Slices over ``rows`` rows of ``row_bytes`` each, about ``_BLOCK_BYTES``
    per slice."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(i, min(rows, i + step)) for i in range(0, rows, step)]


def _columns(cloud: np.ndarray) -> np.ndarray:
    """[3, n] contiguous coordinate columns of an [n, 3] cloud."""
    return np.ascontiguousarray(np.asarray(cloud, dtype=np.float64).T)


def _sq_dists(query_cols: np.ndarray, ref_cols: np.ndarray) -> np.ndarray:
    """[q, r] squared distances between clouds given as coordinate columns.

    Summed one coordinate at a time as ``(dx² + dy²) + dz²``: the order
    ``np.sum`` takes over the last axis of a [q, r, 3] difference array, so
    the values match that formula bit for bit without building it.
    """
    d2 = np.subtract.outer(query_cols[0], ref_cols[0])
    d2 *= d2
    step = np.empty_like(d2)
    for qc, rc in zip(query_cols[1:], ref_cols[1:]):
        np.subtract.outer(qc, rc, out=step)
        step *= step
        d2 += step
    return d2


def _distance_blocks(query: np.ndarray, reference: np.ndarray):
    """Yield (first query row, [rows, r] squared distances) over the
    ``row_blocks`` of the query rows; the reference cloud must be non-empty."""
    query_cols, ref_cols = _columns(query), _columns(reference)
    for rows in row_blocks(query_cols.shape[1], 8 * ref_cols.shape[1]):
        yield rows.start, _sq_dists(query_cols[:, rows], ref_cols)


def fps(cloud: np.ndarray, n: int) -> np.ndarray:
    """Greedy max-min (farthest point) sampling; indices in selection order.

    Starts from the point nearest the cloud centroid; each later pick
    maximizes the squared distance to the already-selected set.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    total = cloud.shape[0]
    if not 1 <= n <= total:
        raise ValueError(f"fps: target count {n} outside [1, {total}]")
    cols = _columns(cloud)
    centroid = cloud.mean(axis=0)
    start = int(np.argmin(_sq_dists(centroid[:, None], cols)))
    selected = np.empty(n, dtype=np.intp)
    selected[0] = start
    dmin = _sq_dists(cols[:, start:start + 1], cols)[0]
    diff, d2 = np.empty_like(cols), np.empty_like(dmin)
    for i in range(1, n):
        nxt = int(np.argmax(dmin))
        selected[i] = nxt
        # _sq_dists to one point, in fewer calls: (dx² + dy²) + dz²
        np.subtract(cols, cols[:, nxt:nxt + 1], out=diff)
        diff *= diff
        np.add(diff[0], diff[1], out=d2)
        d2 += diff[2]
        np.minimum(dmin, d2, out=dmin)
    return selected


def rps(cloud: np.ndarray, n: int, rng: Rng) -> np.ndarray:
    """Uniform sample of n distinct indices (partial Fisher-Yates)."""
    total = np.asarray(cloud).shape[0]
    if not 1 <= n <= total:
        raise ValueError(f"rps: target count {n} outside [1, {total}]")
    return np.asarray(rng.sample_indices(total, n), dtype=np.intp)


@dataclass
class NeighborGraph:
    """k nearest neighbors per point, nearest first, ties by lowest index."""

    neighbors: np.ndarray  # [n, k] indices into the reference cloud


def knn(
    query: np.ndarray, reference: np.ndarray, k: int, exclude_self: bool | None = None
) -> NeighborGraph:
    """Euclidean k-nearest-neighbor graph.

    ``exclude_self`` defaults to whether ``query is reference``: querying a
    cloud against itself skips each point's own index (so k tops out at
    |reference| - 1); pass an explicit flag when the arrays are copies.
    """
    self_query = (query is reference) if exclude_self is None else exclude_self
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    limit = reference.shape[0] - (1 if self_query else 0)
    if not 1 <= k <= limit:
        raise ValueError(f"knn: k={k} exceeds available neighbors ({limit})")
    neighbors = np.empty((query.shape[0], k), dtype=np.intp)
    for start, d2 in _distance_blocks(query, reference):
        if self_query:
            # as fill_diagonal on the full matrix: entry (i, i) for i < min(q, r)
            rows = np.arange(min(d2.shape[0], d2.shape[1] - start))
            d2[rows, start + rows] = np.inf
        neighbors[start:start + d2.shape[0]] = _k_smallest(d2, k)
    return NeighborGraph(neighbors=neighbors)


def _k_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """[rows, k] column indices of each row's k smallest entries, ordered by
    (value, index): the first k columns of a stable argsort."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 <= kth
    # exactly k entries at or below the k-th value: those are the k smallest;
    # more means a tie at the boundary, fewer a NaN row
    exact = np.count_nonzero(below, axis=1) == k
    out = np.empty((d2.shape[0], k), dtype=np.intp)
    rows = np.flatnonzero(exact)
    cols = np.nonzero(below[rows])[1].reshape(-1, k)
    order = np.argsort(d2[rows[:, None], cols], axis=1, kind="stable")
    out[rows] = np.take_along_axis(cols, order, axis=1)
    rest = np.flatnonzero(~exact)
    out[rest] = np.argsort(d2[rest], axis=1, kind="stable")[:, :k]
    return out


def nearest_index(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Index of each query point's single nearest reference point (the
    lowest index among equally near ones)."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] == 0:
        raise ValueError("nearest_index: reference cloud is empty")
    nearest = np.empty(query.shape[0], dtype=np.intp)
    for start, d2 in _distance_blocks(query, reference):
        nearest[start:start + d2.shape[0]] = d2.argmin(axis=1)
    return nearest


def viewpoint_split_indices(
    cloud: np.ndarray, viewpoint, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index sets (kept, missing): the round(ratio*n) points nearest the
    viewpoint become the missing part; both sides keep original order."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"viewpoint_split: ratio {ratio} outside [0, 1]")
    n = cloud.shape[0]
    m = int(round(ratio * n))
    vp = np.asarray(viewpoint, dtype=np.float64)
    if not np.isfinite(vp).all():
        raise ValueError(f"viewpoint_split: viewpoint {vp.tolist()} is not finite")
    d2 = np.sum((cloud - vp) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    missing = np.sort(order[:m])
    kept = np.sort(order[m:])
    return kept.astype(np.intp), missing.astype(np.intp)


def viewpoint_split(
    cloud: np.ndarray, viewpoint, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a cloud into (P_N, P_M) around a viewpoint at the given ratio."""
    kept, missing = viewpoint_split_indices(cloud, viewpoint, ratio)
    cloud = np.asarray(cloud, dtype=np.float64)
    return cloud[kept], cloud[missing]


def normalize_cloud(cloud: np.ndarray) -> np.ndarray:
    """Center the centroid at the origin and scale so max |coordinate| is 1."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] < 2:
        raise ValueError("normalize_cloud: need at least 2 points")
    centered = cloud - cloud.mean(axis=0)
    extent = np.abs(centered).max()
    if extent == 0.0:
        raise ValueError("normalize_cloud: all points identical")
    return centered / extent
