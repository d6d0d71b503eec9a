from itertools import combinations

import numpy as np
import pytest

from clmds import (ClmdsConfig, Clustering, FeatureSet, HierarchySpec,
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
    triple_table = anchors._triple_table

    def recording(n):
        sizes.append(n)
        return triple_table(n)
    monkeypatch.setattr(anchors, "_triple_table", recording)
    D = euclidean_distances(FeatureSet(np.eye(300)))
    cfg = ClmdsConfig(hierarchy=HierarchySpec((3, 1)), iter_med=2)
    clmds_embed(D, cfg)
    assert sizes and max(sizes) <= anchors.MAX_POOL
