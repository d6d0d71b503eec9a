import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from clmds import (ClmdsConfig, Clustering, DistanceMatrix, FeatureSet, HierarchySpec,
                   ValidationError, best_quadruple, candidate_vertices, clmds_embed,
                   euclidean_distances, select_anchors, simplex_volume_sq)
from clmds import anchors
from clmds.kmedoids import farthest_point_sample


def coord_volume_sq(pts):
    """Oracle: squared 3-simplex volume from coordinates via the Gram matrix."""
    e = np.asarray(pts[1:], dtype=float) - pts[0]
    g = e @ e.T
    return np.linalg.det(g) / 36.0


def test_regular_tetrahedron_volume():
    d4 = np.ones((4, 4)) - np.eye(4)
    assert simplex_volume_sq(d4) == pytest.approx(1.0 / 72.0, rel=1e-12)


def test_coplanar_square_is_degenerate():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    d = euclidean_distances(FeatureSet(pts)).d
    assert abs(simplex_volume_sq(d)) < 1e-12


def test_identical_points_zero():
    assert simplex_volume_sq(np.zeros((4, 4))) == 0.0


def test_matches_coordinate_oracle_random_quadruples():
    rng = np.random.default_rng(0)
    for dim in range(3, 11):
        for _ in range(20):
            pts = rng.normal(size=(4, dim))
            d = euclidean_distances(FeatureSet(pts)).d
            expected = coord_volume_sq(pts)
            assert simplex_volume_sq(d) == pytest.approx(expected, rel=1e-9)


def test_malformed_submatrix_rejected():
    with pytest.raises(ValidationError):
        simplex_volume_sq(np.zeros((3, 3)))
    bad = np.ones((4, 4)) - np.eye(4)
    bad[0, 1] = 2.0
    with pytest.raises(ValidationError):
        simplex_volume_sq(bad)


@pytest.mark.parametrize("cluster, medoid, message", [
    ([], 0, "empty cluster"), ([1, 2, 3], 0, "medoid must belong to the cluster")])
def test_candidates_need_a_cluster_holding_its_medoid(cluster, medoid, message):
    D = euclidean_distances(FeatureSet(np.random.default_rng(1).normal(size=(5, 3))))
    with pytest.raises(ValidationError, match=message):
        candidate_vertices(D, np.array(cluster, dtype=int), medoid)


def test_small_cluster_candidates_pass_through():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10, 3))
    D = euclidean_distances(FeatureSet(pts))
    cand = candidate_vertices(D, np.arange(10), 0)
    assert np.array_equal(cand, np.arange(10))


def test_collinear_percentile_pruning():
    # a 100-point cluster takes the first row of the table, p = 50
    pos = np.arange(100.0)
    d = np.abs(pos[:, None] - pos[None, :])
    from clmds import validate_distance_matrix
    D = validate_distance_matrix(d)
    cand = candidate_vertices(D, np.arange(100), 0)
    assert np.array_equal(cand, np.flatnonzero(pos >= np.percentile(pos, 50.0)))
    assert cand.size == 50


def test_percentile_row_follows_cluster_size():
    # a 200-point cluster takes the second row, p = 80; its medoid sits at
    # position 199, so the members nearest to 0 are the farthest
    pos = np.arange(200.0)
    from clmds import validate_distance_matrix
    D = validate_distance_matrix(np.abs(pos[:, None] - pos[None, :]))
    cand = candidate_vertices(D, np.arange(200), 199)
    assert np.array_equal(cand, np.arange(40))


def test_tiny_clusters_use_all_members():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    D = euclidean_distances(FeatureSet(pts))
    c = Clustering(np.zeros(3, dtype=int), np.array([0]))
    anchors = select_anchors(D, c)
    assert np.array_equal(anchors[0], [0, 1, 2])


def test_cube_corners_match_brute_force():
    pts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    D = euclidean_distances(FeatureSet(pts))
    c = Clustering(np.zeros(8, dtype=int), np.array([0]))
    anchors = select_anchors(D, c)[0]
    best_v, best_set = -1.0, None
    for quad in combinations(range(8), 4):
        v = coord_volume_sq(pts[list(quad)])
        if v > best_v + 1e-15:
            best_v, best_set = v, quad
    got_v = coord_volume_sq(pts[anchors])
    assert got_v == pytest.approx(best_v, rel=1e-9)
    assert np.array_equal(anchors, best_set)  # lexicographic tie rule


def test_off_plane_point_always_selected():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 1.0]])
    D = euclidean_distances(FeatureSet(pts))
    c = Clustering(np.zeros(5, dtype=int), np.array([0]))
    anchors = select_anchors(D, c)[0]
    assert 4 in anchors.tolist()


def test_anchor_count_is_min_4_cluster_size():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 4))
    D = euclidean_distances(FeatureSet(pts))
    assignment = np.array([0] * 2 + [1] * 3 + [2] * 25)
    medoids = np.array([0, 2, 5])
    c = Clustering(assignment, medoids)
    anchors = select_anchors(D, c)
    for k in range(3):
        assert anchors[k].shape[0] == min(4, c.members(k).size)
        assert set(anchors[k].tolist()) <= set(c.members(k).tolist())


def curved_sheet(rng, n, dims=12):
    """Points on a smooth 2-d sheet bent through R^dims: thin tetrahedra."""
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    freq = rng.uniform(0.5, 2.0, size=(2, dims))
    phase = rng.uniform(0.0, np.pi, size=dims)
    return np.sin(uv @ freq + phase)


@pytest.mark.parametrize("family, sizes", [("gaussian-3d", (5, 9, 14, 22, 40)),
                                           ("sheet-12d", (6, 11, 19, 30))])
def test_best_quadruple_matches_brute_force(family, sizes):
    rng = np.random.default_rng(21)
    for n in sizes:
        pts = rng.normal(size=(n, 3)) if family == "gaussian-3d" else curved_sheet(rng, n)
        D = euclidean_distances(FeatureSet(pts))
        quads = list(combinations(range(n), 4))
        vols = np.array([max(simplex_volume_sq(D.d[np.ix_(q, q)]), 0.0) for q in quads])
        order = np.argsort(-vols, kind="stable")
        top, second = vols[order[0]], vols[order[1]]
        got = best_quadruple(D, np.arange(n))
        if top - second > 1e-9 * top:
            assert tuple(got.tolist()) == quads[order[0]]
        else:
            got_v = simplex_volume_sq(D.d[np.ix_(got, got)])
            assert got_v == pytest.approx(top, rel=1e-9)


def test_best_quadruple_planar_pool_returns_four_distinct():
    pts = np.random.default_rng(4).normal(size=(15, 2))
    D = euclidean_distances(FeatureSet(pts))
    got = best_quadruple(D, np.arange(15))
    assert got.size == 4 and np.unique(got).size == 4


def test_best_quadruple_keeps_one_anchor_per_location():
    locations = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    pts = locations[np.arange(12) % 3]  # three locations, four copies each
    D = euclidean_distances(FeatureSet(pts))
    assert np.array_equal(best_quadruple(D, np.arange(12)), [0, 1, 2])


def test_best_quadruple_reduces_a_large_pool_by_farthest_point_sampling():
    pts = np.random.default_rng(5).normal(size=(130, 3))
    D = euclidean_distances(FeatureSet(pts))
    pool = np.arange(10, 140) % 130
    kept = np.sort(np.arange(130)[farthest_point_sample(D.d, anchors.MAX_POOL)])
    assert np.array_equal(best_quadruple(D, pool), best_quadruple(D, kept))


def test_anchor_search_pool_is_bounded_when_every_distance_ties(monkeypatch):
    # one-hot rows: every pair sits at sqrt(2), so the percentile cut keeps
    # all but the medoid of a 298-member cluster
    sizes = []
    triple_blocks = anchors._triple_blocks

    def recording(n, size):
        sizes.append(n)
        return triple_blocks(n, size)
    monkeypatch.setattr(anchors, "_triple_blocks", recording)
    D = euclidean_distances(FeatureSet(np.eye(300)))
    cfg = ClmdsConfig(hierarchy=HierarchySpec((3, 1)), iter_med=2)
    clmds_embed(D, cfg)
    assert sizes and max(sizes) <= anchors.MAX_POOL


def _triple_table(n: int) -> tuple[np.ndarray, ...]:
    """Every index triple j < k < l of range(n), in lexicographic order.

    Returns the row gathers (j, k, l), the flat indices (jk, jl, kl) into
    an n x n matrix, and start[i], the position of the first triple with
    j >= i; the triples of range(i, n) are the suffix from start[i].
    """
    k_pair, l_pair = np.triu_indices(n, 1)  # pairs k < l, lexicographic
    # the pairs with k > j are a suffix of the pair table
    pair_start = np.searchsorted(k_pair, np.arange(n), side="right")
    counts = k_pair.size - pair_start
    j = np.repeat(np.arange(n), counts)
    offsets = np.cumsum(counts) - counts
    pos = np.arange(j.size) - offsets[j] + pair_start[j]
    k, l = k_pair[pos], l_pair[pos]
    start = np.append(offsets, j.size)
    return j, k, l, j * n + k, j * n + l, k * n + l, start


def per_origin_best_quadruple(D, candidates) -> np.ndarray:
    """Oracle: the quadruple search as it was before it ran in blocks, word
    for word. It held all n^3 / 6 triples, and each origin took all of
    its triples at once."""
    candidates = np.sort(np.asarray(candidates, dtype=int))
    if candidates.size <= 4:
        return candidates
    d = D.block(candidates, candidates)
    # no copy of a lower-indexed candidate
    keep = np.flatnonzero(~np.tril(d == 0, k=-1).any(axis=1))
    if keep.size > anchors.MAX_POOL:
        keep = keep[np.sort(farthest_point_sample(d[np.ix_(keep, keep)], anchors.MAX_POOL))]
    candidates, d = candidates[keep], d[np.ix_(keep, keep)]
    n = candidates.size
    if n <= 4:
        return candidates
    j, k, l, jk, jl, kl, start = _triple_table(n)
    sq = d ** 2
    flat = sq.ravel()
    # all volumes <= 0 clamp to zero and the first quadruple wins
    best_det, best = 0.0, [0, 1, 2, 3]
    for a in range(n - 3):
        s = slice(start[a + 1], None)  # the triples after origin a
        row = sq[a]
        gjj, gkk, gll = row[j[s]], row[k[s]], row[l[s]]
        gjk = 0.5 * (gjj + gkk - flat[jk[s]])
        gjl = 0.5 * (gjj + gll - flat[jl[s]])
        gkl = 0.5 * (gkk + gll - flat[kl[s]])
        det = (gjj * (gkk * gll - gkl * gkl) - gjk * (gjk * gll - gkl * gjl)
               + gjl * (gjk * gkl - gkk * gjl))
        i = int(np.argmax(det))  # first maximizer: lexicographic within a
        if det[i] > best_det:  # strict: an earlier origin keeps a tie
            t = start[a + 1] + i
            best_det, best = det[i], [a, j[t], k[t], l[t]]
    return candidates[best]


def oracle_pools(rng):
    """(name, points) of the pools the blocked search is checked on: random
    2-d and 3-d points, integer lattices (many tied volumes), pools with
    duplicates, zero-volume pools and pools of MAX_POOL points."""
    for i in range(300):
        n = int(rng.integers(5, 31))
        family = ("random-2d", "random-3d", "lattice", "duplicates", "zero-volume")[i % 5]
        if family == "random-2d":
            pts = rng.normal(size=(n, 2))
        elif family == "random-3d":
            pts = rng.normal(size=(n, 3))
        elif family == "lattice":
            pts = rng.integers(0, 3, size=(n, 3)).astype(float)
        elif family == "duplicates":
            base = rng.normal(size=(max(2, n // 3), 3))
            pts = base[rng.integers(0, base.shape[0], size=n)]
        else:  # collinear or coplanar lattice points: every volume is exactly 0
            pts = rng.integers(0, 4, size=(n, 3)).astype(float)
            pts[:, 2 - i % 2:] = 0.0
        yield family, pts
    for family in ("random-3d", "lattice"):
        n = anchors.MAX_POOL
        pts = (rng.normal(size=(n, 3)) if family == "random-3d"
               else rng.integers(0, 5, size=(n, 3)).astype(float))
        yield family, pts


def test_the_blocked_search_picks_what_the_per_origin_search_picks(monkeypatch):
    # each pool runs with the default block and with blocks of a few to a
    # few dozen per pool, so that origins meet many block boundaries
    rng = np.random.default_rng(29)
    default, seen = anchors._TRIPLE_BLOCK, {}
    for i, (family, pts) in enumerate(oracle_pools(rng)):
        D = euclidean_distances(FeatureSet(pts))
        pool = np.arange(pts.shape[0])
        want = per_origin_best_quadruple(D, pool)
        triples = comb(pts.shape[0], 3)
        for size in (default, max(1, triples // (2 + i % 25))):
            monkeypatch.setattr(anchors, "_TRIPLE_BLOCK", size)
            got = best_quadruple(D, pool)
            assert np.array_equal(got, want), (i, family, size)
        seen[family] = seen.get(family, 0) + 1
    assert sum(seen.values()) >= 300 and len(seen) == 5


def test_triple_blocks_are_the_lexicographic_triples_cut_in_order():
    for n, size in ((4, 1), (7, 3), (12, 50), (30, 1 << 14)):
        blocks = list(anchors._triple_blocks(n, size))
        assert all(0 < j.size <= size for j, _, _ in blocks)
        got = np.concatenate([np.stack(b, axis=1) for b in blocks])
        assert np.array_equal(got, np.array(list(combinations(range(n), 3))))


def test_a_nan_volume_never_wins():
    # point 5 is 1e155 from every other point: its squared distances
    # overflow, and every quadruple holding it has a NaN volume. The search
    # then picks what it picks without point 5, here (0, 2, 3, 4). In the
    # per-origin search a NaN cost its origin the whole turn, so every origin
    # lost and it fell back to (0, 1, 2, 3), of a fifth of that volume.
    pts = np.array([[0, 0, 5], [0, 0, 0], [1, 0, 0], [0, 0.2, 0], [1, 1, 0.5]])
    d = np.full((6, 6), 1e155)
    d[:5, :5] = euclidean_distances(FeatureSet(pts)).d
    np.fill_diagonal(d, 0.0)
    D = DistanceMatrix(d)
    got = best_quadruple(D, np.arange(6))
    assert got.tolist() == [0, 2, 3, 4]
    assert np.array_equal(got, best_quadruple(DistanceMatrix(d[:5, :5]), np.arange(5)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert per_origin_best_quadruple(D, np.arange(6)).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [67, anchors.MAX_POOL])
def test_anchor_search_memory_does_not_grow_with_the_cube_of_the_pool(n):
    # 5.7 and 19.4 MiB when it held every triple at once
    D = euclidean_distances(FeatureSet(np.random.default_rng(n).normal(size=(n, 3))))
    best_quadruple(D, np.arange(n))  # lazy imports and caches, outside the traced call
    tracemalloc.start()
    try:
        best_quadruple(D, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20
