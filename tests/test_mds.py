import numpy as np
import pytest

from clmds import (FeatureSet, MdsConfig, ValidationError, euclidean_distances, mds_embed,
                   stress, validate_distance_matrix)
from clmds.mds import _smacof, _weight_matrix, relative_stress_weights


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


def test_weighted_path_stress_matches_direct_sum():
    _, D = planar_problem(30, seed=9)
    noisy = validate_distance_matrix(D.d * (1.0 + 0.1 * np.sin(np.add.outer(
        np.arange(30), np.arange(30)))))
    w = relative_stress_weights(noisy.d)
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


def test_determinism_under_seed():
    _, D = planar_problem(14, seed=8)
    a, _ = mds_embed(D, cfg=MdsConfig(seed=123))
    b, _ = mds_embed(D, cfg=MdsConfig(seed=123))
    assert np.array_equal(a, b)
