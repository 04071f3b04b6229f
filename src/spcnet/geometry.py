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


# Every blocked kernel (the distances here; the fused graph conv's forward
# and backward in ``layers``) takes its rows by one rule, ``row_blocks``:
# blocks of about this many bytes, counted at the bytes per row each caller
# gives: every array the distance kernels hold at once here
# (``_PAIR_BYTES`` per pair), and the conv's scratch per row there.
_BLOCK_BYTES = 2 << 20
# Rows that take more than one block go in whole multiples of this many
# rows, the last block the rest, whatever the block budget: each conv block
# projects its rows' owners in one product, and BLAS rounds a product's
# rows by where they fall in its row tiles (at 33 features and 42
# projection columns, blocks of 33 rows moved the last bits).  Measured on
# a 2-vCPU Xeon with one BLAS thread: per row, products of 8 rows cost
# 1.3-2.7x the whole projection's, and of 32 rows 0.67-0.97x at the
# benchmark's widths and 1.33x at a paper-scale pool2 (1.06x at 64 rows,
# 0.91x at 128).
_MIN_BLOCK_ROWS = 32


def row_blocks(rows: int, row_bytes: int) -> list:
    """Slices over ``rows`` rows of ``row_bytes`` each: one slice if they
    fit in ``_BLOCK_BYTES``, else slices of about ``_BLOCK_BYTES`` in whole
    multiples of ``_MIN_BLOCK_ROWS`` rows, with the rest last.

    A lone last row joins the slice before it (a one-row product takes
    BLAS's matrix-vector kernel, which rounds otherwise).
    """
    step = max(1, _BLOCK_BYTES // row_bytes)
    if step < rows:
        step = max(_MIN_BLOCK_ROWS, step - step % _MIN_BLOCK_ROWS)
    cuts = list(range(0, rows, step)) + [rows]
    if len(cuts) > 2 and rows - cuts[-2] == 1:
        del cuts[-2]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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


def fps(cloud: np.ndarray, n: int, graph: NeighborGraph | None = None) -> np.ndarray:
    """Greedy max-min (farthest point) sampling; indices in selection order.

    Starts from the point nearest the cloud centroid; each later pick
    maximizes the squared distance to the already-selected set.

    ``graph``, the cloud's ``knn`` graph on itself, gives the same picks in
    less time: where a pick p's distance to the set is at most its distance
    to its last neighbour, every point outside p's row is at least that far
    from p and no nearer the set than p is, so only the row's distances can
    fall.  A non-finite cloud ignores the graph.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    total = cloud.shape[0]
    if not 1 <= n <= total:
        raise ValueError(f"fps: target count {n} outside [1, {total}]")
    if graph is not None and graph.neighbors.shape[0] != total:
        raise ValueError(f"fps: graph covers {graph.neighbors.shape[0]} of {total} points")
    cols = _columns(cloud)
    centroid = cloud.mean(axis=0)
    start = int(np.argmin(_sq_dists(centroid[:, None], cols)))
    selected = np.empty(n, dtype=np.intp)
    selected[0] = start
    dmin = _sq_dists(cols[:, start:start + 1], cols)[0]
    diff, d2 = np.empty_like(cols), np.empty_like(dmin)
    local = graph is not None and graph.neighbors.shape[1] > 0 and np.isfinite(cols).all()
    if local:
        rows = graph.neighbors
        # each point's squared distances to its row, in the full update's steps
        near = cols[:, rows] - cols[:, :, None]
        near *= near
        near = (near[0] + near[1]) + near[2]
    for i in range(1, n):
        nxt = dmin.argmax()
        selected[i] = nxt
        if local and dmin[nxt] <= near[nxt, -1]:
            row = rows[nxt]
            dmin[row] = np.minimum(dmin[row], near[nxt])
            dmin[nxt] = 0.0
            continue
        _lower_to_point(dmin, cols, nxt, diff, d2)
    return selected


def _lower_to_point(dmin, cols, p, diff, d2):
    """Lower ``dmin`` to each point's squared distance to point ``p``:
    ``_sq_dists`` to one point, in fewer calls, (dx² + dy²) + dz², with
    ``diff`` and ``d2`` as scratch."""
    np.subtract(cols, cols[:, p:p + 1], out=diff)
    diff *= diff
    np.add(diff[0], diff[1], out=d2)
    d2 += diff[2]
    np.minimum(dmin, d2, out=dmin)


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
    Such a search ranks k + 1 references and drops row i's reference i, or
    its last one where k + 1 others rank first (copies of lower index, or a
    NaN row's index order): the k nearest of the other points either way.
    """
    self_query = (query is reference) if exclude_self is None else exclude_self
    query = np.asarray(query, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    limit = reference.shape[0] - (1 if self_query else 0)
    if not 1 <= k <= limit:
        raise ValueError(f"knn: k={k} outside [1, {limit}]")
    width = k + (1 if self_query else 0)
    table = _search(query, reference, lambda d2: _k_smallest(d2, width), width)
    if self_query:
        drop = table == np.arange(query.shape[0])[:, None]
        drop[:, -1] |= ~drop.any(axis=1)
        table = table[~drop].reshape(-1, k)
    return NeighborGraph(neighbors=table)


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
    return _search(query, reference, lambda d2: d2.argmin(axis=1)[:, None], 1)[:, 0]


# The cell grid (cell lists: Bentley, Stanat & Williams, IPL 1977) runs on
# calls of at least this many query-reference pairs; smaller ones, and any
# call with a non-finite coordinate, take the brute kernel.
_GRID_MIN_PAIRS = 1 << 17
# Reference points per occupied cell the grid aims at: k, and at least this.
_CELL_POINTS_MIN = 8
# Cells in a grid at most (so at most this many along an axis).
_GRID_MAX_CELLS = 1 << 16
# The 27 cell offsets of a 3×3×3 block.
_BLOCK_OFFSETS = np.array(np.meshgrid(*[(-1, 0, 1)] * 3, indexing="ij")).reshape(3, -1)
# Bytes a distance kernel holds per query-reference pair: the distance, a
# coordinate step and the pick's copies, so that a block of rows stays
# within a core's cache.
_PAIR_BYTES = 32


def _search(query, reference, pick, k):
    """[q, k] neighbour table: ``pick`` ([rows, c] squared distances to [rows,
    k] columns, ranked by (distance, column)) over each query row's reference
    points.

    The grid answers each row from the candidates in its query's 3×3×3
    block of cells and keeps the answer where it is certified exact; the
    brute kernel answers the rest, and whole calls that are small or not
    finite.
    """
    query_cols, ref_cols = _columns(query), _columns(reference)
    q, r = query_cols.shape[1], ref_cols.shape[1]
    out = np.empty((q, k), dtype=np.intp)
    rest = np.arange(q)
    if q * r >= _GRID_MIN_PAIRS and np.isfinite(query_cols).all() and np.isfinite(ref_cols).all():
        rest = _grid_search(query_cols, ref_cols, pick, k, out)
    _brute(query_cols, ref_cols, pick, rest, out)
    return out


def _brute(query_cols, ref_cols, pick, rows, out):
    """Fill ``out[rows]`` with ``pick`` over each row's squared distances to
    every reference point, a ``row_blocks`` block of rows at a time."""
    for block in row_blocks(rows.size, _PAIR_BYTES * ref_cols.shape[1]):
        idx = rows[block]
        out[idx] = pick(_sq_dists(query_cols[:, idx], ref_cols))


def _grid_search(query_cols, ref_cols, pick, k, out):
    """Fill the certified rows of ``out`` from a cell grid over the
    reference cloud; returns the other rows.

    Each query takes the reference points of its 3×3×3 block of cells in
    ascending index order, so ``pick`` ranks them as the brute kernel
    would.  Its row is certified when the k-th distance is below the
    squared gap from the query to the nearest block face that has
    reference points beyond it, less a margin for rounding: every point
    outside the block is then strictly farther.  A query outside the
    reference box sits in its nearest border cell and is covered by the
    same rule.  Where the blocks hold no candidates, or half of all pairs
    or more, every row is returned.
    """
    q, r = query_cols.shape[1], ref_cols.shape[1]
    grid = _grid(ref_cols, k)
    if grid is None:
        return np.arange(q)
    lo, side, dims, scale = grid
    cell_ids = np.ravel_multi_index(_cells(ref_cols, lo, side, dims), dims)
    query_cell = _cells(query_cols, lo, side, dims)
    cells, cell_of_query = np.unique(np.ravel_multi_index(query_cell, dims), return_inverse=True)

    # each occupied query cell's block as 27 runs of the reference points
    # sorted by cell (ascending index within a cell)
    counts = np.bincount(cell_ids, minlength=int(np.prod(dims)))
    block = np.array(np.unravel_index(cells, dims))[:, :, None] + _BLOCK_OFFSETS[:, None, :]
    inside = ((block >= 0) & (block < dims[:, None, None])).all(axis=0)
    block_ids = np.ravel_multi_index(np.where(inside, block, 0), dims).ravel()
    run_len = np.where(inside.ravel(), counts[block_ids], 0)
    sizes = run_len.reshape(cells.size, -1).sum(axis=1)
    pairs = int(sizes[cell_of_query].sum())
    if pairs == 0 or 2 * pairs >= q * r:
        return np.arange(q)

    # the blocks' candidates, one cell after another, ascending within a
    # cell: sorted keys cell * (r + 1) + index.  A reference point lies in
    # at most 27 blocks, so this holds at most 27 r entries.
    run_end = np.cumsum(run_len)
    by_cell = np.argsort(cell_ids, kind="stable")
    first = np.cumsum(counts) - counts
    at = np.arange(int(run_end[-1])) + np.repeat(first[block_ids] - (run_end - run_len), run_len)
    owner = np.repeat(np.arange(cells.size), sizes)
    keys = np.sort(owner * (r + 1) + by_cell[at])
    # candidate indices with a last entry r: the index of an infinitely far
    # point, padding every block to its slice's width
    candidates = np.append(keys - owner * (r + 1), r)
    begins = np.cumsum(sizes) - sizes
    padded = np.concatenate([ref_cols, np.full((3, 1), np.inf)], axis=1)
    bound = _certified_bound(query_cols, query_cell, lo, side, dims, scale)

    # rows by the size of their block, so that each slice of rows pads to
    # little more than its own blocks; a slice's cells are a run of by_size
    by_size = np.argsort(sizes, kind="stable")
    rank = np.empty_like(by_size)
    rank[by_size] = np.arange(cells.size)
    order = np.argsort(rank[cell_of_query], kind="stable")
    undecided = []
    for rows in row_blocks(q, _PAIR_BYTES * max(int(sizes.max()), k)):
        idx = order[rows]
        slot = rank[cell_of_query[idx]]
        group = by_size[slot[0]: slot[-1] + 1]
        slot -= slot[0]
        width = np.arange(max(int(sizes[group[-1]]), k))
        table = candidates[np.where(
            width < sizes[group, None], begins[group, None] + width, candidates.size - 1
        )]
        # _sq_dists's (dx² + dy²) + dz² on the candidate pairs, gathering
        # one coordinate of the group's candidates at a time
        d2 = np.take(padded[0, table], slot, axis=0)
        np.subtract(query_cols[0, idx, None], d2, out=d2)
        d2 *= d2
        step = np.empty_like(d2)
        for axis in (1, 2):
            np.take(padded[axis, table], slot, axis=0, out=step)
            np.subtract(query_cols[axis, idx, None], step, out=step)
            step *= step
            d2 += step
        picked = pick(d2)
        kth = np.take_along_axis(d2, picked[:, -1:], axis=1)[:, 0]
        out[idx] = table[slot[:, None], picked]
        undecided.append(idx[~(kth < bound[idx])])
    return np.concatenate(undecided)


def _grid(ref_cols, k):
    """(lo, side, dims, scale) of the cell grid over a reference cloud:
    its low corner, cell side, cells per axis and largest coordinate
    magnitude; None where coordinates are too large for squares to stay
    finite."""
    scale = max(float(np.abs(ref_cols).max()), 2.0 ** -400)
    if scale > 2.0 ** 400:
        return None
    lo = ref_cols.min(axis=1)
    extent = ref_cols.max(axis=1) - lo
    side = _cell_side(ref_cols, lo, extent, k, scale)
    return lo, side, (extent // side).astype(np.intp) + 1, scale


def _cell_side(ref_cols, lo, extent, k, scale):
    """Side of the grid's cubic cells: about max(k, ``_CELL_POINTS_MIN``)
    reference points in an occupied cell.  The cloud is taken for a
    surface, whose occupied cells hold side² worth of points: first one
    spanning the box's widest side squared, then as many times denser as
    its occupied cells say."""
    target = max(_CELL_POINTS_MIN, k)
    r = ref_cols.shape[1]
    side = _fit_side(float(extent.max()) * np.sqrt(target / r), extent, scale)
    dims = (extent // side).astype(np.intp) + 1
    # with an inverse asked for, numpy sorts; without one it builds a hash
    # table, which raised the inference benchmark's peak RSS by about 1.4 MB
    ids = np.ravel_multi_index(_cells(ref_cols, lo, side, dims), dims)
    occupied = np.unique(ids, return_inverse=True)[0].size
    return _fit_side(side * float(np.sqrt(target * occupied / r)), extent, scale)


def _fit_side(side, extent, scale):
    """``side`` raised to at least 2^-30 of the coordinate scale, then
    doubled until the grid has at most ``_GRID_MAX_CELLS`` cells."""
    side = max(side, scale * 2.0 ** -30)
    while np.prod(extent // side + 1) > _GRID_MAX_CELLS:
        side *= 2.0
    return side


def _cells(cols, lo, side, dims):
    """[3, n] grid cell of each point, clipped to the grid."""
    cell = np.floor((cols - lo[:, None]) / side)
    return np.clip(cell, 0, dims[:, None] - 1).astype(np.intp)


def _certified_bound(query_cols, query_cell, lo, side, dims, scale):
    """[q] squared distance below which a query's block answer is exact: the
    gap to the nearest block face with reference cells beyond it (none
    beyond the grid's border), less a margin over the rounding of cells,
    gaps and distances."""
    gap = np.full(query_cols.shape[1], np.inf)
    for axis in range(3):
        x, c = query_cols[axis], query_cell[axis]
        below = np.where(c - 1 > 0, x - (lo[axis] + (c - 1) * side), np.inf)
        above = np.where(c + 2 < dims[axis], (lo[axis] + (c + 2) * side) - x, np.inf)
        np.minimum(gap, np.minimum(below, above), out=gap)
    margin = 2.0 ** -40 * np.maximum(scale, np.abs(query_cols).max(axis=0))
    gap = np.maximum(gap - margin, 0.0) * (1.0 - 2.0 ** -30)
    return gap * gap


def viewpoint_split(
    cloud: np.ndarray, viewpoint, ratio: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split a cloud into (P_N, P_M) around a viewpoint at the given ratio:
    the round(ratio*n) points nearest the viewpoint become the missing part
    P_M; both parts keep the cloud's order."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"viewpoint_split: ratio {ratio} outside [0, 1]")
    m = int(round(ratio * cloud.shape[0]))
    vp = np.asarray(viewpoint, dtype=np.float64)
    if not np.isfinite(vp).all():
        raise ValueError(f"viewpoint_split: viewpoint {vp.tolist()} is not finite")
    d2 = np.sum((cloud - vp) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    return cloud[np.sort(order[m:])], cloud[np.sort(order[:m])]


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
