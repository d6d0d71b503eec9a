from itertools import combinations

import numpy as np
import pytest

from clmds import (Clustering, FeatureSet, KmedoidsConfig, ValidationError,
                   euclidean_distances, kmedoids_best, kmedoids_once,
                   relative_incoherence, select_initial_medoids, validate_distance_matrix)


def line_matrix(positions):
    p = np.asarray(positions, dtype=float)
    return validate_distance_matrix(np.abs(p[:, None] - p[None, :]))


def brute_force_irel(D, k):
    """Minimum incoherence over every medoid k-subset with nearest assignment."""
    n = D.n_points
    best = np.inf
    for meds in combinations(range(n), k):
        meds = np.array(meds)
        assignment = np.argmin(D.d[:, meds], axis=1)
        if len(set(assignment.tolist())) < k or np.any(assignment[meds] != np.arange(k)):
            continue
        best = min(best, relative_incoherence(D, Clustering(assignment, meds)))
    return best


def test_fps_selects_extremes_on_a_line():
    D = line_matrix([0.0, 1.0, 10.0])
    meds = select_initial_medoids(D, KmedoidsConfig(k=2, n_iso=2))
    assert set(meds.tolist()) == {0, 2}


def test_k_equals_n_returns_all_indices():
    D = line_matrix([0.0, 1.0, 2.0, 5.0])
    meds = select_initial_medoids(D, KmedoidsConfig(k=4, n_iso=4))
    assert sorted(meds.tolist()) == [0, 1, 2, 3]


def test_random_init_reproducible_under_seed():
    D = line_matrix(np.arange(10.0))
    cfg = KmedoidsConfig(k=3, n_iso=0, seed=42)
    a = select_initial_medoids(D, cfg)
    b = select_initial_medoids(D, cfg)
    assert np.array_equal(a, b)


def test_two_blobs_recovered_with_exhaustive_medoid_check():
    rng = np.random.default_rng(7)
    pts = np.vstack([rng.normal(0, 0.2, (4, 2)), rng.normal(10, 0.2, (4, 2))])
    D = euclidean_distances(FeatureSet(pts))
    c = kmedoids_once(D, [0, 4])
    assert set(c.members(0).tolist()) == {0, 1, 2, 3}
    assert set(c.members(1).tolist()) == {4, 5, 6, 7}
    # medoid is the blob member with minimal intra-blob distance sum
    for k, blob in enumerate([[0, 1, 2, 3], [4, 5, 6, 7]]):
        sums = [D.d[np.ix_([m], blob)].sum() for m in blob]
        assert c.medoids[k] == blob[int(np.argmin(sums))]


def test_k1_medoid_is_one_median():
    rng = np.random.default_rng(8)
    D = euclidean_distances(FeatureSet(rng.normal(size=(9, 3))))
    c = kmedoids_once(D, [3])
    assert c.medoids[0] == int(np.argmin(D.d.sum(axis=1)))


def test_degenerate_zero_matrix_is_stable():
    D = validate_distance_matrix(np.zeros((5, 5)))
    c = kmedoids_once(D, [0, 1])
    assert c.n_clusters == 2
    assert np.all(np.bincount(c.assignment, minlength=2) > 0)


def test_incoherence_singletons_zero():
    D = line_matrix([0.0, 5.0, 9.0])
    c = Clustering(np.array([0, 1, 2]), np.array([0, 1, 2]))
    assert relative_incoherence(D, c) == 0.0


def test_incoherence_hand_values():
    D = line_matrix([0.0, 1.0])
    c = Clustering(np.array([0, 0]), np.array([0]))
    assert relative_incoherence(D, c) == pytest.approx(0.5)
    D2 = line_matrix([0.0, 1.0, 10.0, 11.0])
    c2 = Clustering(np.array([0, 0, 1, 1]), np.array([0, 2]))
    assert relative_incoherence(D2, c2) == pytest.approx(1.0)


def test_best_single_restart_matches_once():
    D = line_matrix(np.arange(6.0))
    cfg = KmedoidsConfig(k=2, iter_med=1, seed=3)
    best = kmedoids_best(D, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
    init = select_initial_medoids(D, cfg, rng=rng)
    once = kmedoids_once(D, init)
    assert np.array_equal(best.assignment, once.assignment)
    assert np.array_equal(best.medoids, once.medoids)


def test_three_blobs_reach_brute_force_optimum():
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.normal(c, 0.1, (4, 2)) for c in [(0, 0), (5, 0), (0, 5)]])
    D = euclidean_distances(FeatureSet(pts))
    c = kmedoids_best(D, KmedoidsConfig(k=3, iter_med=20, seed=0))
    assert relative_incoherence(D, c) == pytest.approx(brute_force_irel(D, 3), abs=1e-12)


def test_determinism_of_best():
    rng = np.random.default_rng(12)
    D = euclidean_distances(FeatureSet(rng.normal(size=(15, 4))))
    cfg = KmedoidsConfig(k=4, iter_med=10, seed=99)
    a = kmedoids_best(D, cfg)
    b = kmedoids_best(D, cfg)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.medoids, b.medoids)


def test_monotone_descent_and_local_optimality():
    rng = np.random.default_rng(13)
    D = euclidean_distances(FeatureSet(rng.normal(size=(20, 3))))
    c = kmedoids_once(D, [0, 1, 2])
    # local optimality: no within-cluster medoid swap lowers the distance sum
    for k in range(3):
        members = c.members(k)
        cur = D.d[members, c.medoids[k]].sum()
        for m in members:
            assert D.d[members, m].sum() >= cur - 1e-12


def test_k_too_large_errors():
    D = line_matrix([0.0, 1.0])
    with pytest.raises(ValidationError):
        kmedoids_best(D, KmedoidsConfig(k=3))


def test_custom_initial_medoids_override():
    D = line_matrix([0.0, 1.0, 10.0, 11.0])
    c = kmedoids_best(D, KmedoidsConfig(k=2, iter_med=5, seed=0), initial_medoids=[0, 2])
    assert set(c.medoids.tolist()) <= {0, 1, 2, 3}
    assert c.n_clusters == 2
