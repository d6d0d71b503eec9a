import re
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import clmds.kmedoids as kmedoids_mod
from clmds import core
from clmds import (Clustering, FeatureSet, KmedoidsConfig, ValidationError,
                   euclidean_distances, gen_s_curve, kmedoids_best, kmedoids_once,
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

    def recording_once(D, starts):
        seen.extend(np.array(starts))
        return real_once(D, starts)

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
    c, = kmedoids_once(D, [[0, 4]])
    assert set(c.members(0).tolist()) == {0, 1, 2, 3}
    assert set(c.members(1).tolist()) == {4, 5, 6, 7}
    # medoid is the blob member with minimal intra-blob distance sum
    for k, blob in enumerate([[0, 1, 2, 3], [4, 5, 6, 7]]):
        sums = [D.d[np.ix_([m], blob)].sum() for m in blob]
        assert c.medoids[k] == blob[int(np.argmin(sums))]


def test_k1_medoid_is_one_median():
    rng = np.random.default_rng(8)
    D = euclidean_distances(FeatureSet(rng.normal(size=(9, 3))))
    c, = kmedoids_once(D, [[3]])
    assert c.medoids[0] == int(np.argmin(D.d.sum(axis=1)))


def test_degenerate_zero_matrix_is_stable():
    D = validate_distance_matrix(np.zeros((5, 5)))
    c, = kmedoids_once(D, [[0, 1]])
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
    once, = kmedoids_once(D, [per_restart_initial_medoids(D.d, cfg, rng)])
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
    c, = kmedoids_once(D, [[0, 1, 2]])
    # local optimality: no within-cluster medoid swap lowers the distance sum
    for k in range(3):
        members = c.members(k)
        cur = D.d[members, c.medoids[k]].sum()
        for m in members:
            assert D.d[members, m].sum() >= cur - 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda D: KmedoidsConfig(k=0), "k must be positive"),
    (lambda D: relative_incoherence(D, Clustering(np.zeros(3, dtype=int), np.array([0]))),
     "clustering size does not match distance matrix"),
])
def test_a_bad_k_or_clustering_is_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call(line_matrix([0.0, 1.0]))


def test_k_too_large_errors():
    D = line_matrix([0.0, 1.0])
    with pytest.raises(ValidationError):
        kmedoids_best(D, KmedoidsConfig(k=3))


def test_custom_initial_medoids_override():
    D = line_matrix([0.0, 1.0, 10.0, 11.0])
    c, = kmedoids_once(D, [[0, 2]])
    assert np.array_equal(c.medoids, [0, 2])
    assert np.array_equal(c.assignment, [0, 0, 1, 1])


def test_one_partition_has_one_labelling():
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(10):
        n, k = int(rng.integers(30, 80)), int(rng.integers(2, 8))
        D = euclidean_distances(FeatureSet(rng.normal(size=(n, 2))))
        s = rng.choice(n, size=k, replace=False)
        got = kmedoids_once(D, [s, s[::-1], np.roll(s, 1)])
        for c in got:
            assert np.all(np.diff(c.medoids) > 0)
            assert np.array_equal(c.assignment[c.medoids], np.arange(k))
            assert np.array_equal(c.assignment, got[0].assignment)
            assert np.array_equal(c.medoids, got[0].medoids)
        # restarts from other medoids that reach one partition tie bitwise
        restarts = kmedoids_once(D, [rng.choice(n, size=k, replace=False) for _ in range(20)])
        by_set = {}
        for c in restarts:
            by_set.setdefault(np.sort(c.medoids).tobytes(), []).append(relative_incoherence(D, c))
        for irels in by_set.values():
            assert len(set(irels)) == 1
            ties += len(irels) > 1
    assert ties >= 5


def reference_kmedoids_once(d, initial_medoids, max_swaps=1000):
    """The loop before incremental updates: every medoid recomputed on every
    iteration, assignment by a column gather, empty clusters reseeded.

    Returns the assignment, the medoids and the number of updates made.
    """
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
    iterations = 0
    for iterations in range(1, max_swaps + 1):
        assignment = repair_empty(medoids, assign(medoids))
        new = medoids.copy()
        for k in range(medoids.shape[0]):
            members = np.flatnonzero(assignment == k)
            sums = d[np.ix_(members, members)].sum(axis=1)
            new[k] = members[int(np.argmin(sums))]
        if np.array_equal(new, medoids):
            break
        medoids = new
    return repair_empty(medoids, assign(medoids)), medoids, iterations


@pytest.mark.parametrize("duplicated", [False, True])
def test_incremental_updates_match_full_updates(monkeypatch, duplicated):
    # Stacks of 1-8 starts run in lockstep; every row must end bitwise where
    # the full-update loop ends from it alone, whatever iteration it stops at.
    rng = np.random.default_rng(31)
    stop_spread = 0
    for trial in range(40):
        n = int(rng.integers(8, 120))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        if duplicated:  # exact distance ties, zero distances included
            pts = np.round(pts[rng.integers(0, max(2, n // 3), size=n)], 1)
        D = euclidean_distances(FeatureSet(pts))
        k = int(rng.integers(1, min(n, 12) + 1))
        starts = np.array([rng.choice(n, size=k, replace=False)
                           for _ in range(int(rng.integers(1, 9)))])
        max_swaps = 1000 if trial % 4 else int(rng.integers(1, 4))
        monkeypatch.setattr(kmedoids_mod, "_MAX_SWAPS", max_swaps)
        got = kmedoids_once(D, starts)
        assert len(got) == len(starts)
        iterations = set()
        for c, init in zip(got, starts):
            ref_assignment, ref_medoids, it = reference_kmedoids_once(D.d, np.sort(init),
                                                                      max_swaps)
            ref = kmedoids_mod._canonical(Clustering(ref_assignment, ref_medoids))
            assert np.array_equal(c.assignment, ref.assignment)
            assert np.array_equal(c.medoids, ref.medoids)
            iterations.add(it)
        stop_spread += len(iterations) > 1
    assert stop_spread >= 10  # rows of one stack leave it at different iterations


def test_the_order_of_a_start_row_does_not_matter():
    # exact distance ties send a point to the medoid listed first; with each
    # row sorted, that is the same medoid in any order of the row (113 of
    # these 200 pairs ended in different clusterings before)
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(8, 120))
        pts = rng.normal(size=(n, int(rng.integers(1, 4))))
        pts = np.round(pts[rng.integers(0, max(2, n // 3), size=n)], 1)
        D = euclidean_distances(FeatureSet(pts))
        s = rng.choice(n, size=int(rng.integers(2, min(n, 12) + 1)), replace=False)
        a, b = kmedoids_once(D, [s, s[::-1]])
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.medoids, b.medoids)


def test_stacked_medoid_equals_per_row_calls():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(60, 3))
    pts[10:20] = pts[0]  # zero distances and exact ties between rows' sums
    d = euclidean_distances(FeatureSet(pts)).d
    for length in (1, 2, 5, 9, 17, 40):
        members = np.sort(np.array([rng.choice(60, size=length, replace=False)
                                    for _ in range(7)]), axis=1)
        stacked = kmedoids_mod.medoid(d, members)
        assert stacked.shape == (7,)
        assert [int(m) for m in stacked] == [int(kmedoids_mod.medoid(d, row))
                                             for row in members]
        sums = [d[np.ix_(row, row)].sum(axis=1) for row in members]
        assert [int(m) for m in stacked] == [int(row[np.argmin(s)])
                                             for row, s in zip(members, sums)]


def test_lockstep_gathers_stay_within_the_element_budget(monkeypatch):
    # Two far-apart blobs of 300 points and k=2: every start with one medoid
    # in each blob splits the points 300/300 on its first assignment, so 60
    # such starts hold 120 clusters of one size, 10.8M distances in one
    # gather without a budget. Each gather must stay within it, also when the
    # rows split into 2 thread groups that share it, and each row must still
    # end where it ends alone.
    rng = np.random.default_rng(23)
    pts = np.vstack([rng.normal(0, 1, (300, 2)), rng.normal(100, 1, (300, 2))])
    D = euclidean_distances(FeatureSet(pts))
    starts = np.array([[rng.integers(0, 300), rng.integers(300, 600)] for _ in range(60)]
                      + [rng.choice(300, size=2, replace=False) for _ in range(10)])
    alone = [kmedoids_once(D, [row])[0] for row in starts]
    real_medoid = kmedoids_mod.medoid
    monkeypatch.setattr(kmedoids_mod, "_THREAD_MIN_ELEMENTS", 0)
    for groups in (1, 2):
        monkeypatch.setattr(core, "_WORKERS", groups)
        blocks = []

        def recording_medoid(d, members):
            blocks.append(np.asarray(members).shape)
            return real_medoid(d, members)

        monkeypatch.setattr(kmedoids_mod, "medoid", recording_medoid)
        got = kmedoids_once(D, starts)
        budget = kmedoids_mod._GATHER_ELEMENTS // groups
        assert max(g * length * length for g, length in blocks) <= budget
        assert (budget // 300 ** 2, 300) in blocks  # equal sizes still share gathers
        for c, one in zip(got, alone):
            assert np.array_equal(c.assignment, one.assignment)
            assert np.array_equal(c.medoids, one.medoids)


def test_lockstep_scratch_is_a_few_bytes_per_restart_and_point(monkeypatch):
    # Beyond the (k, n) row buffer, the (k, n) copy argmin makes of it and
    # the int64 labels of the R clusterings returned, the lockstep holds
    # per restart and point a label byte or two, one sort order and the
    # previous labels: 10-12 bytes here, against 40 at the parent (int64
    # label stacks and sort keys, two orders alive at once). The gathers
    # are kept small so that only the per-restart scratch shows.
    n, k, restarts = 400, 40, 200
    D = euclidean_distances(gen_s_curve(n, seed=0))
    rng = np.random.default_rng(0)
    starts = np.array([rng.choice(n, size=k, replace=False) for _ in range(restarts)])
    monkeypatch.setattr(kmedoids_mod, "_GATHER_ELEMENTS", 1 << 12)
    monkeypatch.setattr(core, "_WORKERS", 1)
    kmedoids_once(D, starts[:2])  # lazy imports and caches, outside the traced call
    tracemalloc.start()
    try:
        kmedoids_once(D, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * k * n * 8 - restarts * n * 8 <= 16 * restarts * n


def test_starts_must_be_a_stack_of_distinct_in_range_medoids():
    D = line_matrix(np.arange(6.0))
    for bad, match in (([0, 1], "(R, k)"), ([[0, 0]], "distinct"), ([[0, 6]], "range"),
                       ([[1, 2], [3, 3]], "distinct")):
        with pytest.raises(ValidationError, match=re.escape(match)):
            kmedoids_once(D, bad)


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


def test_the_worker_count_changes_no_bit(monkeypatch):
    # The rows split into 1, 2 and 3 contiguous thread groups (the gate
    # forced down); rows that stop at different iterations must end with the
    # same labels and medoids as in one group.
    monkeypatch.setattr(kmedoids_mod, "_THREAD_MIN_ELEMENTS", 0)
    real_assign = kmedoids_mod._assign
    threads = set()

    def recording_assign(d, medoids):
        threads.add(threading.current_thread().name)
        return real_assign(d, medoids)

    monkeypatch.setattr(kmedoids_mod, "_assign", recording_assign)
    rng = np.random.default_rng(41)
    stop_spread = 0
    for _ in range(12):
        n = int(rng.integers(30, 150))
        D = euclidean_distances(FeatureSet(rng.normal(size=(n, 3))))
        k = int(rng.integers(2, 9))
        starts = np.array([rng.choice(n, size=k, replace=False) for _ in range(7)])
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(core, "_WORKERS", workers)
            threads.clear()
            runs.append(kmedoids_once(D, starts))
            assert len(threads) == workers
        for run in runs[1:]:
            assert all(np.array_equal(a.assignment, b.assignment)
                       and np.array_equal(a.medoids, b.medoids) for a, b in zip(run, runs[0]))
        stop_spread += len({reference_kmedoids_once(D.d, row)[2] for row in starts}) > 1
    assert stop_spread >= 6


def test_kmedoids_best_calls_kmedoids_once_once_on_the_main_thread(monkeypatch):
    # perfbench traces kmedoids_once by name in one span stack, and counts its
    # calls: the split into thread groups must stay inside that one call
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(kmedoids_mod, "_THREAD_MIN_ELEMENTS", 0)
    calls = []
    real_once = kmedoids_mod.kmedoids_once

    def recording_once(D, starts):
        calls.append(threading.current_thread() is threading.main_thread())
        return real_once(D, starts)

    monkeypatch.setattr(kmedoids_mod, "kmedoids_once", recording_once)
    rng = np.random.default_rng(9)
    D = euclidean_distances(FeatureSet(rng.normal(size=(60, 3))))
    for _ in range(2):
        kmedoids_best(D, KmedoidsConfig(k=5, iter_med=12))
    assert calls == [True, True]
