"""Sampling and neighbor search against brute-force references."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spcnet import data, geometry
from spcnet.geometry import (
    _cells,
    _certified_bound,
    _columns,
    _grid,
    _sq_dists,
    fps,
    knn,
    nearest_index,
    normalize_cloud,
    rps,
    viewpoint_split,
)
from spcnet.rng import Rng


def cloud(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))


def fps_reference(points, n):
    """Naive O(n*N) greedy max-min scan with explicit loops."""
    centroid = points.mean(axis=0)
    best, best_d = 0, np.inf
    for i in range(points.shape[0]):
        d = np.sum((points[i] - centroid) ** 2)
        if d < best_d:
            best, best_d = i, d
    selected = [best]
    # distance from each point to its nearest selected point
    nearest = [np.sum((p - points[best]) ** 2) for p in points]
    for _ in range(n - 1):
        far_idx, far_d = 0, -np.inf
        for i, d in enumerate(nearest):
            if d > far_d:
                far_idx, far_d = i, d
        selected.append(far_idx)
        for i in range(points.shape[0]):
            nearest[i] = min(nearest[i], np.sum((points[i] - points[far_idx]) ** 2))
    return selected


def difference_sq_dists(query, reference):
    """The [q, r, 3] difference formula that ``_sq_dists`` must match."""
    diff = query[:, None, :] - reference[None, :, :]
    return np.sum(diff * diff, axis=-1)


def knn_reference(query, reference, k, exclude_self, first=0):
    """Brute-force (distance, index) ranking; with ``exclude_self`` row i
    skips column ``first + i``."""
    d2 = difference_sq_dists(query, reference)
    columns = np.arange(reference.shape[0])
    out = []
    for i, row in enumerate(d2):
        ranked = np.lexsort((columns, row))
        if exclude_self:
            ranked = ranked[ranked != first + i]
        out.append(ranked[:k])
    return np.array(out, dtype=np.intp).reshape(query.shape[0], k)


def reference_table(query, reference, k, exclude_self):
    """``knn_reference`` over blocks of 256 query rows, so large clouds
    need no [q, r, 3] array."""
    return np.concatenate([
        knn_reference(query[i:i + 256], reference, k, exclude_self, first=i)
        for i in range(0, query.shape[0], 256)
    ]).reshape(query.shape[0], k)


def nearest_reference(query, reference):
    """``argmin`` of the difference formula over blocks of 256 query rows."""
    return np.concatenate([
        difference_sq_dists(query[i:i + 256], reference).argmin(axis=1)
        for i in range(0, query.shape[0], 256)
    ])


class TestFps:
    def test_full_count_is_permutation(self):
        pts = cloud(20, 0)
        assert sorted(fps(pts, 20)) == list(range(20))

    def test_square_corners_second_pick_is_diagonal(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        # start lands on a corner (all are centroid-equidistant, tie -> index 0)
        idx = fps(pts, 2)
        assert idx[0] == 0
        assert idx[1] == 3  # the opposite corner at distance sqrt(2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_greedy_reference(self, seed):
        pts = cloud(200, seed)
        assert list(fps(pts, 50)) == fps_reference(pts, 50)

    @pytest.mark.parametrize("size, count", [(300, 290), (257, 257), (400, 399)])
    def test_matches_reference_close_to_cloud_size(self, size, count):
        pts = cloud(size, size)
        assert list(fps(pts, count)) == fps_reference(pts, count)

    def test_out_of_range_counts(self):
        pts = cloud(5, 1)
        with pytest.raises(ValueError):
            fps(pts, 0)
        with pytest.raises(ValueError):
            fps(pts, 6)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_distinct_and_mindist_non_increasing(self, seed, n_total):
        pts = cloud(n_total, seed)
        n_pick = max(2, n_total // 2)
        idx = fps(pts, n_pick)
        assert len(set(idx)) == n_pick
        picked = pts[idx]
        min_dists = []
        for m in range(2, n_pick + 1):
            sub = picked[:m]
            d2 = ((sub[:, None] - sub[None, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            min_dists.append(d2.min())
        assert all(a >= b - 1e-12 for a, b in zip(min_dists, min_dists[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_two_approximation_of_kcenter_radius(self, seed):
        rng = np.random.default_rng(seed)
        n_total = int(rng.integers(5, 13))
        n_pick = int(rng.integers(2, 5))
        pts = rng.uniform(-1, 1, (n_total, 3))

        def covering_radius(center_idx):
            d2 = ((pts[:, None] - pts[center_idx][None, :]) ** 2).sum(-1)
            return np.sqrt(d2.min(axis=1).max())

        optimal = min(
            covering_radius(list(combo))
            for combo in itertools.combinations(range(n_total), n_pick)
        )
        achieved = covering_radius(list(fps(pts, n_pick)))
        assert achieved <= 2.0 * optimal + 1e-12

    @pytest.mark.parametrize("kind", data.SHAPE_KINDS)
    @pytest.mark.parametrize("k", [16, 3])
    def test_self_graph_gives_the_same_picks(self, kind, k):
        (_, pts), = data.generate_shapes([kind], 1, 1024, 8).shapes
        graph = knn(pts, pts, k)
        for count in (512, 64, 1024):
            np.testing.assert_array_equal(fps(pts, count, graph), fps(pts, count))

    def test_self_graph_spares_most_full_updates(self, monkeypatch):
        # a pick whose distance to the set is within its last neighbour's
        # updates only its own row; on a 1024-point shape with 16 neighbours
        # about 4 in 5 picks do
        full = []
        update = geometry._lower_to_point
        monkeypatch.setattr(
            geometry, "_lower_to_point", lambda *args: full.append(1) or update(*args)
        )
        for kind in data.SHAPE_KINDS:
            (_, pts), = data.generate_shapes([kind], 1, 1024, 8).shapes
            graph = knn(pts, pts, 16)
            full.clear()
            fps(pts, 512, graph)
            assert len(full) < 511 / 4, kind

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_self_graph_with_coincident_points(self, k):
        # copies of a point hold each other in their rows at distance zero
        pts = cloud(60, 9)[np.arange(180) % 60]
        pts[150:] = pts[5]
        graph = knn(pts, pts, k)
        for count in (30, 60, 180):
            np.testing.assert_array_equal(fps(pts, count, graph), fps(pts, count))

    def test_self_graph_of_a_non_finite_cloud(self):
        pts = cloud(80, 10)
        pts[[7, 30], 1] = np.nan
        np.testing.assert_array_equal(fps(pts, 40, knn(pts, pts, 4)), fps(pts, 40))

    def test_graph_of_another_size_rejected(self):
        pts = cloud(30, 11)
        with pytest.raises(ValueError, match="graph covers 20"):
            fps(pts, 10, knn(pts[:20], pts[:20], 4))


class TestRps:
    def test_full_count_is_permutation(self):
        assert sorted(rps(cloud(12, 2), 12, Rng(0))) == list(range(12))

    def test_same_seed_identical(self):
        pts = cloud(30, 3)
        np.testing.assert_array_equal(rps(pts, 10, Rng(5)), rps(pts, 10, Rng(5)))

    @pytest.mark.parametrize("n", [0, 13])
    def test_count_outside_cloud_rejected(self, n):
        with pytest.raises(ValueError, match=rf"rps: target count {n} outside \[1, 12\]"):
            rps(cloud(12, 2), n, Rng(0))

    def test_selection_frequency_is_uniform(self):
        # 10^4 draws of 5 from 10: each index expected 5000, sd ~ 50
        pts = cloud(10, 4)
        rng = Rng(99)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[rps(pts, 5, rng)] += 1
        assert np.all(np.abs(counts - 5000) <= 300)


class TestKnn:
    def test_collinear_tie_breaks_to_lower_index(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        graph = knn(pts, pts, 1)
        assert graph.neighbors[1, 0] == 0  # equidistant endpoints, lower wins

    def test_exhaustive_self_query(self):
        pts = cloud(10, 5)
        graph = knn(pts, pts, 9)
        d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        for i in range(10):
            expected = sorted((j for j in range(10) if j != i), key=lambda j: (d2[i, j], j))
            assert list(graph.neighbors[i]) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        pts = cloud(128, seed)
        graph = knn(pts, pts, 8)
        for i in range(128):
            dists = sorted(
                ((np.sum((pts[i] - pts[j]) ** 2), j) for j in range(128) if j != i)
            )
            assert list(graph.neighbors[i]) == [j for _, j in dists[:8]]

    def test_cross_query_keeps_self(self):
        pts = cloud(6, 6)
        graph = knn(pts, pts.copy(), 1)
        np.testing.assert_array_equal(graph.neighbors[:, 0], np.arange(6))

    def test_k_too_large(self):
        pts = cloud(4, 7)
        with pytest.raises(ValueError):
            knn(pts, pts, 4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_names_the_range(self, k):
        pts = cloud(4, 7)
        with pytest.raises(ValueError, match=rf"knn: k={k} outside \[1, 3\]"):
            knn(pts, pts, k)

    # 1100 rows against 1100 take 35 query blocks (of 32 rows, the floor),
    # 3000 against 200 ten (of 320 rows, about 2 MB of pair arrays), 200
    # against 3000 seven; the clouds share their first rows, so row i's own
    # point is column i
    @pytest.mark.parametrize("q, r, exclude_self", [
        (1100, 1100, True), (3000, 200, False), (3000, 200, True), (200, 3000, True),
    ])
    def test_many_blocks_match_brute_force(self, q, r, exclude_self):
        pts = cloud(max(q, r), 20)
        query, reference = pts[:q], pts[:r]
        graph = knn(query, reference, 16, exclude_self=exclude_self)
        np.testing.assert_array_equal(
            graph.neighbors, knn_reference(query, reference, 16, exclude_self)
        )

    def test_ties_at_kth_distance_break_to_lowest_index(self):
        # a rounded lattice: many points share each distance
        pts = np.round(cloud(1500, 22) * 3.0) / 3.0
        d2 = difference_sq_dists(pts, pts)
        np.fill_diagonal(d2, np.inf)
        kth = np.sort(d2, axis=1)[:, 11:12]
        assert np.mean(np.sum(d2 <= kth, axis=1) > 12) > 0.5  # most rows tie
        np.testing.assert_array_equal(
            knn(pts, pts, 12).neighbors, knn_reference(pts, pts, 12, True)
        )

    def test_copy_with_explicit_exclude_self(self):
        pts = cloud(600, 23)
        np.testing.assert_array_equal(
            knn(pts, pts.copy(), 8, exclude_self=True).neighbors,
            knn_reference(pts, pts, 8, True),
        )


class TestPairwiseSqDists:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_difference_formula(self, seed):
        rng = np.random.default_rng(seed)
        # coordinates over six decades, so a different summation order
        # would change the last bits of many entries
        query = rng.uniform(-1, 1, (300, 3)) * 10.0 ** rng.uniform(-3, 3, (300, 3))
        reference = rng.uniform(-1, 1, (500, 3)) * 10.0 ** rng.uniform(-3, 3, (500, 3))
        assert np.array_equal(
            _sq_dists(_columns(query), _columns(reference)),
            difference_sq_dists(query, reference),
        )


class TestNearestIndex:
    def test_self_query_is_identity(self):
        pts = cloud(9, 8)
        np.testing.assert_array_equal(nearest_index(pts, pts), np.arange(9))

    def test_single_reference(self):
        np.testing.assert_array_equal(
            nearest_index(cloud(7, 9), cloud(1, 10)), np.zeros(7, dtype=int)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_double_loop(self, seed):
        q, r = cloud(64, seed), cloud(16, seed + 100)
        result = nearest_index(q, r)
        for i in range(64):
            best, best_d = 0, np.inf
            for j in range(16):
                d = np.sum((q[i] - r[j]) ** 2)
                if d < best_d:
                    best, best_d = j, d
            assert result[i] == best

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            nearest_index(cloud(3, 11), np.empty((0, 3)))

    def test_many_blocks_keep_first_minimum(self):
        # 3000 rows against 200 take ten query blocks; rounding to a
        # lattice repeats reference points, so many rows have tied minima
        query = np.round(cloud(3000, 25) * 2.0) / 2.0
        reference = np.round(cloud(200, 26) * 2.0) / 2.0
        d2 = difference_sq_dists(query, reference)
        assert np.mean(np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1) > 0.5
        np.testing.assert_array_equal(nearest_index(query, reference), d2.argmin(axis=1))


def with_fallback(call):
    """(call's result, the query rows its search sent to the brute kernel)."""
    sent = []
    brute = geometry._brute

    def counting(query_cols, ref_cols, pick, rows, out):
        sent.append(rows)
        brute(query_cols, ref_cols, pick, rows, out)

    geometry._brute = counting
    try:
        result = call()
    finally:
        geometry._brute = brute
    return result, np.concatenate(sent)


def check_knn(query, reference, k, exclude_self=False):
    """Assert knn's table equals the reference ranking; returns the rows
    sent to the brute kernel."""
    graph, sent = with_fallback(lambda: knn(query, reference, k, exclude_self=exclude_self))
    np.testing.assert_array_equal(graph.neighbors, reference_table(query, reference, k, exclude_self))
    return sent


def check_nearest(query, reference):
    """Assert nearest_index equals argmin; returns the rows sent to the
    brute kernel."""
    nearest, sent = with_fallback(lambda: nearest_index(query, reference))
    np.testing.assert_array_equal(nearest, nearest_reference(query, reference))
    return sent


class TestCellGrid:
    """Exactness of the pruned search where it runs.  Each case also counts
    the rows sent to the brute kernel: where the grid can decide rows it
    must, so the case cannot pass on the brute kernel alone, and where no
    block can settle a row every row must go there."""

    @pytest.mark.parametrize("kind", data.SHAPE_KINDS)
    def test_generated_shapes(self, kind):
        pts = data.generate_shapes([kind], 1, 2048, 7).shapes[0][1]
        subset = pts[fps(pts, 512)]
        cases = [
            check_knn(pts, pts, 16, exclude_self=True),
            check_knn(pts, subset, 3),
            check_knn(pts, subset, 1),
            check_knn(subset, pts, 1),
            check_nearest(pts, subset),
            check_nearest(subset, pts),
        ]
        for sent, rows in zip(cases, [2048, 2048, 2048, 512, 2048, 512]):
            assert sent.size < rows // 10

    def test_replica_clusters(self):
        # 16 copies of each seed within 1e-4, like a fold's output
        seeds = data.generate_shapes(["sphere"], 1, 128, 8).shapes[0][1]
        pts = np.repeat(seeds, 16, axis=0)
        pts += np.random.default_rng(8).uniform(-1e-4, 1e-4, pts.shape)
        assert check_knn(pts, pts, 16, exclude_self=True).size < 2048
        assert check_knn(seeds[::2], pts, 3).size < 64
        assert check_nearest(seeds, pts).size < 128
        assert check_nearest(pts[::-1], pts).size < 2048

    def test_rounded_lattice_ties_across_cell_faces(self):
        # on a lattice of step 1/4 most rows tie at the k-th distance, and
        # the tied points of a row lie in more than one cell
        pts = np.round(cloud(2048, 40) * 4.0) / 4.0
        d2 = difference_sq_dists(pts[:256], pts)
        d2[np.arange(256), np.arange(256)] = np.inf
        tied = d2 == np.sort(d2, axis=1)[:, 11:12]
        cols = _columns(pts)
        lo, side, dims, _ = _grid(cols, 12)
        cell = np.ravel_multi_index(_cells(cols, lo, side, dims), dims)
        spread = [np.unique(cell[row]).size > 1 for row in tied]
        assert np.mean(tied.sum(axis=1) > 1) > 0.5 and np.mean(spread) > 0.5
        assert check_knn(pts, pts, 12, exclude_self=True).size < 2048
        half_steps = np.round(cloud(1024, 41) * 8.0) / 8.0
        assert check_nearest(half_steps, pts).size < 1024

    def test_exact_duplicates(self):
        base = cloud(1024, 42)
        pts = np.concatenate([base, base[np.random.default_rng(42).permutation(1024)]])
        assert check_knn(pts, pts, 8, exclude_self=True).size < 2048
        assert check_nearest(pts, pts).size < 2048

    def test_queries_outside_the_reference_box(self):
        reference = cloud(2048, 43)
        # pushed 5 % past the faces, and far out
        query = np.concatenate([reference[:1024] * 1.05, reference[1024:1100] * 20.0])
        outside = ((query < reference.min(axis=0)) | (query > reference.max(axis=0))).any(axis=1)
        for sent in (check_knn(query, reference, 8), check_nearest(query, reference)):
            assert np.isin(np.flatnonzero(outside), sent, invert=True).any()

    def test_queries_whose_blocks_are_empty(self):
        # beyond the empty corner of a sphere's box every query's block is
        # empty, so the brute kernel answers all rows; with exclude_self
        # their own columns are those of other points
        sphere = data.generate_shapes(["sphere"], 1, 2048, 3).shapes[0][1]
        far = np.random.default_rng(3).uniform(9.0, 10.0, (512, 3))
        assert check_knn(far, sphere, 3, exclude_self=True).size == 512
        assert check_nearest(far, sphere).size == 512

    def test_certificate_gap_counts_only_faces_with_cells_beyond(self):
        # a 5×5×5 grid of unit cells from the origin: a block's face is a
        # border when no cell lies beyond it (block cells c - 1 <= 0 below,
        # c + 1 >= 4 above); a query outside the grid is in its border cell
        lo, dims = np.zeros(3), np.array([5, 5, 5])
        query = np.array([
            [2.1, 2.5, 2.5],  # lower x face 1.1 away
            [2.5, 2.5, 2.9],  # upper z face 1.1 away
            [0.5, 0.5, 0.5],  # only the upper faces, 1.5 away
            [1.2, 1.5, 1.5],  # cell 1: the lower faces are borders
            [3.8, 3.5, 3.5],  # cell 3: the upper faces are borders
            [-3.0, 2.5, 2.5],  # outside: upper x face 5 away, y and z 1.5
            [9.0, 4.5, 4.5],  # outside: lower x face 6 away, y and z 1.5
        ])
        cols = _columns(query)
        bound = _certified_bound(cols, _cells(cols, lo, 1.0, dims), lo, 1.0, dims, 1.0)
        gap = np.array([1.1, 1.1, 1.5, 1.5, 1.5, 1.5, 1.5])
        # strictly below the squared gap, by a margin for rounding only
        assert np.all(bound < gap ** 2)
        np.testing.assert_allclose(bound, gap ** 2, rtol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_queries_between_clusters(self, seed):
        # tight clusters with empty cells between them: a query's nearest
        # points often lie beyond its block, next to a border of the grid
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-1.0, 1.0, (6, 3))
        reference = np.repeat(centres, 200, axis=0) + rng.normal(0.0, 0.05, (1200, 3))
        query = rng.uniform(-1.2, 1.2, (1024, 3))
        sent = [check_knn(query, reference, k) for k in (1, 4)]
        sent.append(check_nearest(query, reference))
        assert all(rows.size < 1024 for rows in sent)

    def test_coordinates_past_two_to_the_400(self):
        # squares of such coordinates could overflow the grid's bounds, so
        # the whole call takes the brute kernel
        pts = cloud(512, 51) * 1e125
        assert _grid(_columns(pts), 8) is None
        assert check_knn(pts, pts, 8, exclude_self=True).size == 512
        assert check_knn(pts[::2], pts, 3).size == 256
        assert check_nearest(pts[::-1], pts).size == 512

    def test_k_is_n_minus_one(self):
        # every row needs the whole cloud, so every block would be it: the
        # grid hands the call to the brute kernel
        pts = cloud(600, 44)
        assert check_knn(pts, pts, 599, exclude_self=True).size == 600

    def test_flat_cloud(self):
        pts = cloud(2048, 45)
        pts[:, 2] = 0.25
        assert check_knn(pts, pts, 16, exclude_self=True).size < 2048
        off_plane = cloud(1024, 46) * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.3]
        assert check_knn(off_plane, pts, 3).size < 1024
        assert check_nearest(off_plane, pts).size < 1024

    def test_identical_points(self):
        # a cloud of one point: every block is the whole cloud
        same = np.tile([0.3, -0.2, 0.7], (700, 1))
        assert check_knn(same, same, 5, exclude_self=True).size == 700
        # the same point 548 times within a spread cloud: its rows tie at
        # distance 0 and rank by index
        pts = np.concatenate([cloud(1500, 47), same[:548]])
        sent = check_knn(pts, pts, 8, exclude_self=True)
        assert np.isin(np.arange(1500, 2048), sent, invert=True).all()
        assert check_nearest(pts, pts).size < 2048

    @pytest.mark.parametrize("n, copies, k", [(40, 10, 5), (2048, 24, 16)])
    def test_k_plus_one_coincident_copies(self, n, copies, k):
        # copies of one point at rows 0, 2, 4, ...: the later copies' k + 1
        # nearest are all lower-index copies, which come before the row itself
        pts = cloud(n, 50)
        pts[:2 * copies:2] = pts[0]
        sent = check_knn(pts, pts, k, exclude_self=True)
        assert n * n < geometry._GRID_MIN_PAIRS or sent.size < n

    def test_one_point_per_cell(self, monkeypatch):
        # with one point per cell asked for, a jittered 16³ lattice puts
        # each point in a cell of its own
        monkeypatch.setattr(geometry, "_CELL_POINTS_MIN", 1)
        axis = np.arange(16) / 15.0
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        lattice += np.random.default_rng(48).uniform(-0.002, 0.002, lattice.shape)
        cols = _columns(lattice)
        lo, side, dims, _ = _grid(cols, 1)
        cells = np.ravel_multi_index(_cells(cols, lo, side, dims), dims)
        assert np.bincount(cells).max() == 1
        near = lattice[::3] + np.random.default_rng(49).uniform(-0.01, 0.01, (1366, 3))
        assert check_nearest(near, lattice).size < 1366
        assert check_knn(near, lattice, 1).size < 1366

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1024, 1400),
        st.integers(160, 400),
        st.integers(1, 8),
        st.booleans(),
        st.sampled_from([None, 8.0, 64.0]),
        st.integers(-3, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_references(self, seed, r, q, k, exclude_self, lattice, decade):
        # the query rows are the reference's first rows, so exclude_self
        # skips each point itself; coordinates are rounded to a lattice
        # (ties), scaled and moved off the origin
        pts = cloud(r, seed)
        if lattice is not None:
            pts = np.round(pts * lattice) / lattice
        pts = pts * 10.0 ** decade + 3.0 * 10.0 ** decade
        query = pts[:q]
        assert check_knn(query, pts, k, exclude_self).size < q
        assert check_nearest(query, pts).size < q


class TestNonFinite:
    """NaN coordinates keep their meaning at sizes where the cell grid would
    otherwise run: ``nearest_index`` answers as ``argmin`` and ``knn`` as a
    stable argsort."""

    @pytest.mark.parametrize("q, r", [(5, 7), (2048, 2048)])
    def test_nan_reference_row_is_every_querys_nearest(self, q, r):
        # argmin's first NaN: this is why chamfer turns NaN and training
        # stops loudly rather than matching around the bad point
        reference = cloud(r, 30)
        reference[r // 3] = np.nan
        np.testing.assert_array_equal(
            nearest_index(cloud(q, 31), reference), np.full(q, r // 3)
        )

    @pytest.mark.parametrize("q, r", [(5, 7), (2048, 2048)])
    def test_nan_query_row_gives_zero(self, q, r):
        query, reference = cloud(q, 32), cloud(r, 33)
        query[q // 2, 1] = np.nan
        expected = nearest_reference(query, reference)
        assert expected[q // 2] == 0
        np.testing.assert_array_equal(nearest_index(query, reference), expected)

    @pytest.mark.parametrize("q, r, k", [(5, 7, 5), (2048, 2048, 16)])
    def test_knn_takes_finite_references_first(self, q, r, k):
        # a stable argsort puts NaN distances last, so with r - 2 >= k
        # finite references no row names a NaN one
        query, reference = cloud(q, 34), cloud(r, 35)
        bad = [1, r - 2]
        reference[bad, 0] = np.nan
        table = knn(query, reference, k).neighbors
        assert not np.isin(table, bad).any()
        np.testing.assert_array_equal(table, reference_table(query, reference, k, False))

    @pytest.mark.parametrize("n, k", [(7, 3), (2048, 16)])
    def test_nan_row_of_a_self_query_never_names_itself(self, n, k):
        # every distance of a NaN row is NaN, so it ranks the other points
        # by index; the finite rows rank the NaN point last
        pts = cloud(n, 36)
        pts[4, 2] = np.nan
        table = knn(pts, pts, k).neighbors
        assert not (table == np.arange(n)[:, None]).any()
        np.testing.assert_array_equal(table[4], np.setdiff1d(np.arange(k + 1), 4)[:k])
        np.testing.assert_array_equal(table, reference_table(pts, pts, k, True))


def split_indices(pts, viewpoint, ratio):
    """``viewpoint_split``'s (kept, missing) parts as row indices of ``pts``,
    whose rows must be distinct."""
    rows = {tuple(row): i for i, row in enumerate(pts)}
    return tuple(
        np.array([rows[tuple(row)] for row in part], dtype=np.intp)
        for part in viewpoint_split(pts, viewpoint, ratio)
    )


class TestViewpointSplit:
    def test_half_split_counts(self):
        pts = cloud(2048, 12)
        kept, missing = viewpoint_split(pts, (1.0, 1.0, 1.0), 0.5)
        assert kept.shape == (1024, 3) and missing.shape == (1024, 3)

    def test_zero_ratio(self):
        pts = cloud(10, 13)
        kept, missing = viewpoint_split(pts, (1.0, 1.0, 1.0), 0.0)
        assert missing.shape[0] == 0
        np.testing.assert_array_equal(kept, pts)

    def test_collinear_forced_selection(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        kept, missing = viewpoint_split(pts, (-1.0, 0.0, 0.0), 0.5)
        np.testing.assert_array_equal(missing, pts[:2])
        np.testing.assert_array_equal(kept, pts[2:])

    def test_order_preserved_within_parts(self):
        pts = cloud(40, 14)
        kept_idx, missing_idx = split_indices(pts, (1.0, 1.0, 1.0), 0.3)
        assert np.all(np.diff(kept_idx) > 0)
        assert np.all(np.diff(missing_idx) > 0)

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 60),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, seed, n, ratio):
        pts = cloud(n, seed)
        kept_idx, missing_idx = split_indices(pts, (1.0, 1.0, 1.0), ratio)
        assert len(kept_idx) + len(missing_idx) == n
        assert set(kept_idx).isdisjoint(missing_idx)
        assert set(kept_idx) | set(missing_idx) == set(range(n))

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            viewpoint_split(cloud(4, 15), (1, 1, 1), 1.5)

    @pytest.mark.parametrize("viewpoint", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf)])
    def test_non_finite_viewpoint(self, viewpoint):
        with pytest.raises(ValueError, match="not finite"):
            viewpoint_split(cloud(4, 16), viewpoint, 0.5)


class TestNormalizeCloud:
    def test_idempotent(self):
        pts = normalize_cloud(cloud(30, 16))
        again = normalize_cloud(pts)
        np.testing.assert_allclose(again, pts, atol=1e-12)

    def test_translation_invariant(self):
        pts = cloud(30, 17)
        np.testing.assert_allclose(
            normalize_cloud(pts + 5.0), normalize_cloud(pts), atol=1e-12
        )

    def test_centered_and_scaled(self):
        out = normalize_cloud(cloud(50, 18) * 3.0 + 1.0)
        assert np.abs(out).max() == pytest.approx(1.0, abs=0.0)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_degenerate_cloud_rejected(self):
        with pytest.raises(ValueError):
            normalize_cloud(np.ones((5, 3)))
        with pytest.raises(ValueError):
            normalize_cloud(np.ones((1, 3)))


def test_row_blocks_take_whole_multiples_of_the_row_floor(monkeypatch):
    def sizes(rows):
        return [b.stop - b.start for b in geometry.row_blocks(rows, 8)]

    assert geometry._MIN_BLOCK_ROWS == 32
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 8)  # a one-row budget
    assert sizes(65) == [32, 33]  # a lone last row joins the block before
    assert sizes(33) == [33]
    assert sizes(64) == [32, 32]
    assert sizes(0) == []
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 8 * 70)  # whole multiples of the floor
    assert sizes(100) == [64, 36]
    assert sizes(70) == [70]
    monkeypatch.setattr(geometry, "_BLOCK_BYTES", 1 << 62)  # unbounded
    assert sizes(1000) == [1000]


@pytest.mark.parametrize("kernel", ["knn", "fps", "interp", "nearest"])
def test_kernel_speed_at_2048_points(benchmark, kernel):
    """Micro-benchmark of one kernel call at the paper's resolution; records
    time only.  ``interp`` is an interpolation's 3-NN search of 1024 points
    against a 1024-point fps subset; ``nearest`` is one of Chamfer's
    nearest-point searches at ``evaluate``, 2048 points against 2048."""
    pts = cloud(2048, 24)
    support = pts[fps(pts, 1024)]
    other = cloud(2048, 25)
    call = {
        "knn": lambda: knn(pts, pts, 16),
        "fps": lambda: fps(pts, 1024),
        "interp": lambda: knn(pts[1024:], support, 3, exclude_self=False),
        "nearest": lambda: nearest_index(pts, other),
    }[kernel]
    benchmark.pedantic(call, rounds=3, iterations=1)
