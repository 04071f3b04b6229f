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


def pairwise_sq_dists(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """[q, r] squared Euclidean distances between two clouds."""
    diff = query[:, None, :] - reference[None, :, :]
    return np.sum(diff * diff, axis=-1)


def fps(cloud: np.ndarray, n: int) -> np.ndarray:
    """Greedy max-min (farthest point) sampling; indices in selection order.

    Starts from the point nearest the cloud centroid; each later pick
    maximizes the squared distance to the already-selected set.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    total = cloud.shape[0]
    if not 1 <= n <= total:
        raise ValueError(f"fps: target count {n} outside [1, {total}]")
    centroid = cloud.mean(axis=0)
    start = int(np.argmin(np.sum((cloud - centroid) ** 2, axis=1)))
    selected = np.empty(n, dtype=np.intp)
    selected[0] = start
    dmin = np.sum((cloud - cloud[start]) ** 2, axis=1)
    for i in range(1, n):
        nxt = int(np.argmax(dmin))
        selected[i] = nxt
        np.minimum(dmin, np.sum((cloud - cloud[nxt]) ** 2, axis=1), out=dmin)
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
    d2 = pairwise_sq_dists(query, reference)
    if self_query:
        np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return NeighborGraph(neighbors=order[:, :k].astype(np.intp))


def nearest_index(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Index of each query point's single nearest reference point."""
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape[0] == 0:
        raise ValueError("nearest_index: reference cloud is empty")
    return np.argmin(pairwise_sq_dists(query, reference), axis=1).astype(np.intp)


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
