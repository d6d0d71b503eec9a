import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from clmds import (FeatureSet, MdsConfig, ValidationError, euclidean_distances, mds_embed,
                   stress, validate_distance_matrix)
from clmds import core, mds
from clmds.mds import (_EPS_DIST, _classical_start, _smacof, _smacof_starts, _weight_matrix,
                       relative_stress_weights)


def planar_problem(m, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(m, 2))
    return pts, euclidean_distances(FeatureSet(pts))


def test_stress_zero_for_exact_embedding():
    pts, D = planar_problem(10)
    assert stress(D, pts) == pytest.approx(0.0, abs=1e-20)


def test_stress_two_points_collapsed():
    D = validate_distance_matrix([[0, 1], [1, 0]])
    assert stress(D, np.zeros((2, 2))) == pytest.approx(1.0)


def test_stress_equilateral_triangle():
    pts = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    D = euclidean_distances(FeatureSet(pts))
    assert stress(D, pts) == pytest.approx(0.0, abs=1e-20)


def test_stress_invariant_under_rigid_motion():
    rng = np.random.default_rng(2)
    pts, D = planar_problem(12, seed=2)
    coords = rng.uniform(-1, 1, size=(12, 2))
    s0 = stress(D, coords)
    for _ in range(5):
        ang = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = coords @ rot.T + rng.uniform(-3, 3, size=2)
        assert stress(D, moved) == pytest.approx(s0, rel=1e-9)


def test_embed_recovers_planar_data():
    pts, D = planar_problem(20, seed=3)
    coords, sig = mds_embed(D)
    wm = _weight_matrix(D, None)
    iu = np.triu_indices(20, k=1)
    norm = np.sum(wm[iu] * D.d[iu] ** 2)
    assert sig / norm < 1e-6


def test_single_point():
    D = validate_distance_matrix(np.zeros((1, 1)))
    coords, sig = mds_embed(D)
    assert np.array_equal(coords, np.zeros((1, 2)))
    assert sig == 0.0


def test_two_points_exact():
    D = validate_distance_matrix([[0, 3], [3, 0]])
    coords, sig = mds_embed(D)
    assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(3.0, abs=1e-9)
    assert sig == pytest.approx(0.0, abs=1e-18)


def test_output_centered():
    _, D = planar_problem(15, seed=4)
    coords, _ = mds_embed(D)
    assert np.max(np.abs(coords.mean(axis=0))) < 1e-9


def test_monotone_stress_descent():
    rng = np.random.default_rng(5)
    _, D = planar_problem(18, seed=5)
    wm = _weight_matrix(D, None)
    iu = np.triu_indices(18, k=1)
    x = rng.uniform(-1, 1, size=(18, 2))
    from scipy.spatial.distance import cdist
    prev = np.sum(wm[iu] * (D.d[iu] - cdist(x, x)[iu]) ** 2)
    # re-run the update manually, one step at a time
    for _ in range(50):
        x, sig = _smacof(D.d, wm, x, 1, 1e-16, 1.0)
        assert sig <= prev + 1e-12
        prev = sig


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "relative"])
def test_stress_never_rises_over_sixty_updates(weighted):
    # max_iter=j runs j updates; the stress must not rise with j on either
    # update path, and no run may end on the stop that holds back an update
    # which raised it
    _, D = planar_problem(25, seed=14)
    noisy = validate_distance_matrix(D.d * (1.0 + 0.15 * np.sin(np.add.outer(
        np.arange(25), np.arange(25)))))
    wm = _weight_matrix(noisy, relative_stress_weights(noisy.d) if weighted else None)
    x0 = np.random.default_rng(4).uniform(-1, 1, size=(25, 2))
    runs = [_smacof_starts(noisy.d, wm, [x0], j, 1e-16, None if weighted else 1.0)
            for j in range(1, 61)]
    sigs = [sigs[0] for _, sigs, _, _ in runs]
    assert all(b <= a for a, b in zip(sigs, sigs[1:]))
    assert sigs[-1] < sigs[1] < sigs[0]
    assert [(iters, stops) for _, _, iters, stops in runs] == [
        ([j], ["max_iter"]) for j in range(1, 61)]


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "relative"])
def test_doubling_the_distances_doubles_the_embedding(weighted):
    # the first update forgets each start's scale, the classical start and
    # three random ones alike, so every later iterate scales exactly
    _, D = planar_problem(30, seed=15)
    noisy = validate_distance_matrix(D.d * (1.0 + 0.1 * np.cos(np.add.outer(
        np.arange(30), np.arange(30)))))
    double = validate_distance_matrix(2.0 * noisy.d)
    cfg = MdsConfig(n_init=4, seed=5)
    a, sa = mds_embed(noisy, relative_stress_weights(noisy.d) if weighted else None, cfg)
    b, sb = mds_embed(double, relative_stress_weights(double.d) if weighted else None, cfg)
    assert np.array_equal(b, 2.0 * a)
    assert sb == (sa if weighted else 4.0 * sa)


def test_weighted_path_matches_uniform_when_weights_equal():
    # all-ones weights, from one start, through the pseudo-inverse update
    # (uniform_w=None) and through the uniform fast path (uniform_w=1.0)
    _, D = planar_problem(10, seed=6)
    noisy = validate_distance_matrix(D.d * (1.0 + 0.2 * np.cos(np.add.outer(
        np.arange(10), np.arange(10)))))
    wm = _weight_matrix(noisy, None)
    x0 = np.random.default_rng(1).uniform(-1, 1, size=(10, 2))
    a, sa = _smacof(noisy.d, wm, x0, 100, 1e-12, 1.0)
    b, sb = _smacof(noisy.d, wm, x0, 100, 1e-12, None)
    assert sa > 1e-3
    assert np.allclose(a, b, rtol=0, atol=1e-9)
    assert sb == pytest.approx(sa, rel=1e-9)


def test_relative_stress_weights_rule():
    d = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    w = relative_stress_weights(d)
    # the duplicate pair (0, 2) gets the weight of the smallest positive d
    assert np.allclose(w, [[0.0, 0.25, 0.25], [0.25, 0.0, 1 / 16], [0.25, 1 / 16, 0.0]])
    assert np.array_equal(relative_stress_weights(np.zeros((3, 3))), 1.0 - np.eye(3))
    # a positive d far below the largest is floored too, so no weight overflows
    tiny = np.array([[0.0, 1e-300, 1.0], [1e-300, 0.0, 1.0], [1.0, 1.0, 0.0]])
    wt = relative_stress_weights(tiny)
    assert np.all(np.isfinite(wt))
    assert wt[0, 1] == pytest.approx(1e12)


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "relative"])
def test_weighted_path_stress_matches_direct_sum(weighted):
    # uniform and relative weights share one stress formula from fixed sums;
    # it must agree with the pair sum of stress()
    _, D = planar_problem(30, seed=9)
    noisy = validate_distance_matrix(D.d * (1.0 + 0.1 * np.sin(np.add.outer(
        np.arange(30), np.arange(30)))))
    w = relative_stress_weights(noisy.d) if weighted else None
    x, sig = mds_embed(noisy, w, MdsConfig(seed=3))
    assert sig > 0
    assert sig == pytest.approx(stress(noisy, x, w), rel=1e-10)


def test_zero_weight_rejection_and_disconnection():
    _, D = planar_problem(6, seed=7)
    with pytest.raises(ValidationError):
        mds_embed(D, np.zeros((6, 6)))
    w = np.zeros((6, 6))
    w[0, 1] = w[1, 0] = 1.0  # two components
    with pytest.raises(ValidationError):
        mds_embed(D, w)
    chain = np.eye(6, k=1) + np.eye(6, k=-1)  # connected, most pairs unweighted
    coords, _ = mds_embed(D, chain)
    assert np.all(np.isfinite(coords))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected(bad):
    # without the check an inf weight can keep SMACOF from returning, so the
    # inf case runs only calls that never iterate: stress() and 2 points
    _, D = planar_problem(8, seed=3)
    w = np.ones((8, 8))
    w[2, 5] = w[5, 2] = bad
    for call in (lambda: stress(D, np.zeros((8, 2)), w),
                 lambda: _weight_matrix(D, w),
                 lambda: mds_embed(D.submatrix([2, 5]), w[np.ix_([2, 5], [2, 5])])):
        with pytest.raises(ValidationError, match="finite"):
            call()
    if np.isnan(bad):  # at worst an error from the SVD, never a hang
        with pytest.raises(ValidationError, match="finite"):
            mds_embed(D, w)


def test_determinism_under_seed():
    _, D = planar_problem(14, seed=8)
    a, _ = mds_embed(D, cfg=MdsConfig(seed=123))
    b, _ = mds_embed(D, cfg=MdsConfig(seed=123))
    assert np.array_equal(a, b)


def _reference_b(d_in, wm, d_emb):
    """The Guttman B of one start as the single-start loop built it."""
    ratio = np.where(d_emb > _EPS_DIST, d_in / np.maximum(d_emb, _EPS_DIST), 0.0)
    b = -wm * ratio
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return b


def _reference_smacof(d_in, wm, x0, max_iter, eps, uniform_w):
    """One start run alone, written as plainly as possible.

    Returns the coordinates, the stress, the number of updates computed and
    how the run stopped.
    """
    m = d_in.shape[0]
    v = np.diag(wm.sum(axis=1)) - wm
    wd = wm * d_in
    sig_in = 0.5 * float(np.vdot(wd, d_in))

    def stress_of(x, d_emb):
        return sig_in - float(np.vdot(wd, d_emb)) + float(np.vdot(x, v @ x))

    if uniform_w is None:
        v_pinv = np.linalg.pinv(v)

        def update(bx):
            return v_pinv @ bx
    else:
        def update(bx):
            return bx / (m * uniform_w)
    x = x0 - x0.mean(axis=0)
    d_emb = cdist(x, x)
    sig = stress_of(x, d_emb)
    stop, it = "max_iter", max_iter
    for it in range(1, max_iter + 1):
        b = _reference_b(d_in, wm, d_emb)
        x_new = update(b @ x)
        x_new -= x_new.mean(axis=0)
        d_emb = cdist(x_new, x_new)
        new_sig = stress_of(x_new, d_emb)
        if new_sig > sig:
            stop = "increase"
            break
        done = sig - new_sig < eps * max(sig, _EPS_DIST)
        x, sig = x_new, new_sig
        if done:
            stop = "eps"
            break
    return x, max(sig, 0.0), it, stop


def _reference_starts(D, cfg):
    """mds_embed's starts: classical scaling when defined, then random."""
    rng = np.random.default_rng(cfg.seed)
    starts = [_classical_start(D.d)]
    while len([s for s in starts if s is not None]) < cfg.n_init:
        starts.append(rng.uniform(-1.0, 1.0, size=(D.n_points, 2)))
    return [s for s in starts if s is not None]


def test_starts_equal_single_start_runs(monkeypatch):
    # Bitwise, every start of a call ends where it ends alone, and
    # mds_embed keeps the first start of least stress. The (max_iter, eps)
    # pairs make starts of one call stop in different ways.
    # Every B is also byte-equal to the reference one, signs of zero
    # included, and the coincident-point start exercises the pass that
    # writes -0.0 where other points coincide.
    real_b = mds._guttman_b
    coincident_calls = []

    def checked_b(d_in, neg_wm, d, b, near):
        real_b(d_in, neg_wm, d, b, near)
        assert b.tobytes() == _reference_b(d_in, -neg_wm, d).tobytes()
        coincident_calls.append(np.count_nonzero(near) > d.shape[0])

    monkeypatch.setattr(mds, "_guttman_b", checked_b)
    rng = np.random.default_rng(21)
    stops_per_call = []
    for m in (3, 5, 8, 13, 21, 34, 47, 60):
        pts = rng.normal(size=(m, 3))
        pts[1] = pts[0]
        D = euclidean_distances(FeatureSet(pts))
        # points 0 and 1 coincide in this start, so d <= _EPS_DIST off the diagonal
        together = rng.uniform(-1.0, 1.0, size=(m, 2))
        together[1] = together[0]
        for w in (None, relative_stress_weights(D.d)):
            wm = _weight_matrix(D, w)
            off = wm[np.triu_indices(m, k=1)]
            # as in mds_embed: relative weights are uniform at m=3 here
            uniform_w = float(off[0]) if np.all(off == off[0]) else None
            for max_iter, eps in ((300, 1e-6), (40, 1e-5), (300, 1e-15)):
                cfg = MdsConfig(max_iter=max_iter, eps=eps, seed=m)
                starts = _reference_starts(D, cfg) + [together]
                ref = [_reference_smacof(D.d, wm, x0, max_iter, eps, uniform_w)
                       for x0 in starts]
                xs, sigs, iters, stops = _smacof_starts(D.d, wm, starts, max_iter, eps,
                                                        uniform_w)
                for k, (x, sig, it, stop) in enumerate(ref):
                    assert np.array_equal(xs[k], x), (m, w is None, max_iter, k)
                    assert sigs[k] == sig, (m, w is None, max_iter, k)
                    assert (iters[k], stops[k]) == (it, stop), (m, w is None, max_iter, k)
                coords, sig = mds_embed(D, w, cfg)
                best = min(range(len(starts) - 1), key=lambda k: ref[k][1])
                assert np.array_equal(coords, ref[best][0] - ref[best][0].mean(axis=0))
                assert sig == ref[best][1]
                stops_per_call.append({stop for _, _, _, stop in ref})
    assert any({"max_iter", "eps"} <= stops for stops in stops_per_call)
    assert any("increase" in stops and len(stops) > 1 for stops in stops_per_call)
    assert any(coincident_calls) and not all(coincident_calls)


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "relative"])
def test_four_starts_hold_few_matrices(monkeypatch, weighted):
    # the starts run one after another, each into its own two (m, m) buffers
    # (16.3 and 14.4 matrices when the four ran as one (4, m, m) stack)
    monkeypatch.setattr(core, "_WORKERS", 1)
    m = 200
    D = euclidean_distances(FeatureSet(np.random.default_rng(2).normal(size=(m, 3))))
    w = relative_stress_weights(D.d) if weighted else None
    tracemalloc.start()
    try:
        mds_embed(D, w, MdsConfig(n_init=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * m * m * 8


def _split_problem(m, seed, weighted):
    """A distance matrix with two coincident points, its weights and the
    uniform weight (None on the relative path), and six starts: classical,
    four random and one in which points 0 and 1 coincide."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, 3))
    pts[1] = pts[0]
    D = euclidean_distances(FeatureSet(pts))
    wm = _weight_matrix(D, relative_stress_weights(D.d) if weighted else None)
    together = rng.uniform(-1.0, 1.0, size=(m, 2))
    together[1] = together[0]
    starts = ([_classical_start(D.d)] + [rng.uniform(-1.0, 1.0, size=(m, 2)) for _ in range(4)]
              + [together])
    return D, wm, None if weighted else 1.0, starts


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "relative"])
def test_the_worker_count_changes_no_bit(monkeypatch, weighted):
    # The starts split into 1, 2 and 3 contiguous thread groups; the
    # gate is forced down. Every start must end bitwise where it ends in one
    # group, with the same stress, update count and stop reason.
    monkeypatch.setattr(mds, "_THREAD_MIN_POINTS", 0)
    real_b = mds._guttman_b
    threads = set()

    def recording_b(*args):
        threads.add(threading.current_thread().name)
        real_b(*args)

    monkeypatch.setattr(mds, "_guttman_b", recording_b)
    stops = set()
    for m in (7, 19, 40):
        D, wm, uniform_w, starts = _split_problem(m, m, weighted)
        for max_iter, eps in ((300, 1e-6), (40, 1e-5), (300, 1e-15)):
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(core, "_WORKERS", workers)
                threads.clear()
                runs.append(_smacof_starts(D.d, wm, starts, max_iter, eps, uniform_w))
                assert len(threads) == workers
            xs, sigs, iters, how = runs[0]
            for other in runs[1:]:
                assert other[0].tobytes() == xs.tobytes(), (m, max_iter)
                assert other[1:] == (sigs, iters, how), (m, max_iter)
            stops.update(how)
    assert stops == {"eps", "increase", "max_iter"}


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_a_thread_group_reaches_the_caller(monkeypatch, where):
    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(mds, "_THREAD_MIN_POINTS", 0)
    caller = threading.current_thread()
    real_b = mds._guttman_b

    def failing_b(*args):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise FloatingPointError(where)
        real_b(*args)

    monkeypatch.setattr(mds, "_guttman_b", failing_b)
    D, wm, uniform_w, starts = _split_problem(12, 3, False)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=where):
        _smacof_starts(D.d, wm, starts, 300, 1e-6, uniform_w)
    assert threading.active_count() == before
