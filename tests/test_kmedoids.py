from itertools import combinations

import numpy as np
import pytest

import clmds.kmedoids as kmedoids_mod
from clmds import (Clustering, FeatureSet, KmedoidsConfig, ValidationError,
                   euclidean_distances, kmedoids_best, kmedoids_once,
                   relative_incoherence, validate_distance_matrix)
from clmds.kmedoids import farthest_point_sample


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


def per_restart_initial_medoids(d, cfg, rng):
    """A restart's initial medoids, recomputed from scratch: n_iso farthest
    point picks, then k - n_iso distinct draws from the other points."""
    chosen = [int(np.argmax(d.sum(axis=1)))] if cfg.n_iso else []
    while len(chosen) < cfg.n_iso:
        min_dist = d[:, chosen].min(axis=1)
        min_dist[chosen] = -np.inf
        chosen.append(int(np.argmax(min_dist)))
    pool = np.setdiff1d(np.arange(d.shape[0]), chosen)
    drawn = rng.choice(pool, size=cfg.k - cfg.n_iso, replace=False)
    return np.array(chosen + list(drawn), dtype=int)


def recorded_initial_medoids(monkeypatch, D, cfg):
    """The initial medoids of every restart of kmedoids_best(D, cfg)."""
    seen = []
    real_once = kmedoids_mod.kmedoids_once

    def recording_once(D, initial_medoids, max_swaps):
        seen.append(np.array(initial_medoids))
        return real_once(D, initial_medoids, max_swaps)

    monkeypatch.setattr(kmedoids_mod, "kmedoids_once", recording_once)
    kmedoids_best(D, cfg)
    monkeypatch.undo()
    return seen


def test_fps_selects_extremes_on_a_line():
    D = line_matrix([0.0, 1.0, 10.0])
    assert set(farthest_point_sample(D.d, 2)) == {0, 2}


def test_k_equals_n_returns_all_indices():
    # every medoid a farthest-point pick: each restart draws none from an empty pool
    D = line_matrix([0.0, 1.0, 2.0, 5.0])
    c = kmedoids_best(D, KmedoidsConfig(k=4, n_iso=4, iter_med=3))
    assert sorted(c.medoids.tolist()) == [0, 1, 2, 3]
    assert np.array_equal(c.assignment[c.medoids], np.arange(4))


def test_random_init_reproducible_under_seed(monkeypatch):
    D = line_matrix(np.arange(10.0))
    cfg = KmedoidsConfig(k=3, n_iso=0, iter_med=5, seed=42)
    a = recorded_initial_medoids(monkeypatch, D, cfg)
    b = recorded_initial_medoids(monkeypatch, D, cfg)
    expected = [per_restart_initial_medoids(D.d, cfg, np.random.default_rng(child))
                for child in np.random.SeedSequence(cfg.seed).spawn(cfg.iter_med)]
    assert len(a) == len(b) == 5
    assert all(np.array_equal(x, y) and np.array_equal(x, z)
               for x, y, z in zip(a, b, expected))


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
    once = kmedoids_once(D, per_restart_initial_medoids(D.d, cfg, rng))
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
    c = kmedoids_once(D, [0, 2])
    assert np.array_equal(c.medoids, [0, 2])
    assert np.array_equal(c.assignment, [0, 0, 1, 1])


def reference_kmedoids_once(d, initial_medoids, max_swaps=1000):
    """The loop before incremental updates: every medoid recomputed on every
    iteration, assignment by a column gather, empty clusters reseeded."""
    def assign(medoids):
        a = np.argmin(d[:, medoids], axis=1)
        a[medoids] = np.arange(medoids.shape[0])
        return a

    def repair_empty(medoids, assignment):
        k = medoids.shape[0]
        counts = np.bincount(assignment, minlength=k)
        for kk in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.setdiff1d(np.flatnonzero(assignment == donor), medoids)
            medoids[kk] = members[int(np.argmax(d[members, medoids[donor]]))]
            assignment = assign(medoids)
            counts = np.bincount(assignment, minlength=k)
        return assignment

    medoids = np.array(initial_medoids, dtype=int)
    for _ in range(max_swaps):
        assignment = repair_empty(medoids, assign(medoids))
        new = medoids.copy()
        for k in range(medoids.shape[0]):
            members = np.flatnonzero(assignment == k)
            sums = d[np.ix_(members, members)].sum(axis=1)
            new[k] = members[int(np.argmin(sums))]
        if np.array_equal(new, medoids):
            break
        medoids = new
    return repair_empty(medoids, assign(medoids)), medoids


@pytest.mark.parametrize("duplicated", [False, True])
def test_incremental_updates_match_full_updates(duplicated):
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = int(rng.integers(8, 120))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        if duplicated:  # exact distance ties, zero distances included
            pts = np.round(pts[rng.integers(0, max(2, n // 3), size=n)], 1)
        D = euclidean_distances(FeatureSet(pts))
        k = int(rng.integers(1, min(n, 12) + 1))
        init = rng.choice(n, size=k, replace=False)
        max_swaps = 1000 if trial % 4 else int(rng.integers(1, 4))
        c = kmedoids_once(D, init, max_swaps)
        ref_assignment, ref_medoids = reference_kmedoids_once(D.d, init, max_swaps)
        assert np.array_equal(c.assignment, ref_assignment)
        assert np.array_equal(c.medoids, ref_medoids)


def test_restarts_draw_the_same_initial_medoids(monkeypatch):
    # the farthest-point picks and the pool are computed once per call, and
    # every restart must still start where a per-restart selection started
    rng = np.random.default_rng(3)
    D = euclidean_distances(FeatureSet(rng.normal(size=(80, 3))))
    cfg = KmedoidsConfig(k=7, n_iso=3, iter_med=20, seed=11)
    seen = recorded_initial_medoids(monkeypatch, D, cfg)
    expected = [per_restart_initial_medoids(D.d, cfg, np.random.default_rng(child))
                for child in np.random.SeedSequence(cfg.seed).spawn(cfg.iter_med)]
    assert len(seen) == 20
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
