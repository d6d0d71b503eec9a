import numpy as np
import pytest

from clmds import (Clustering, ClmdsResult, HolesSpec, ValidationError,
                   gen_holes_dataset, gen_s_curve, voronoi_containment)


def test_s_curve_shape_and_ranges():
    fs = gen_s_curve(500, seed=0)
    assert fs.vectors.shape == (500, 3)
    x, u, z = fs.vectors.T
    assert np.all(np.abs(x) <= 1.0)
    assert np.all((u >= 0.0) & (u <= 2.0))
    assert np.all((z >= -2.0) & (z <= 2.0))
    # both lobes of the S are populated
    assert np.any(z < -1.0) and np.any(z > 1.0)


def test_s_curve_lies_on_the_parametric_surface():
    fs = gen_s_curve(200, seed=1)
    x, _, z = fs.vectors.T
    # x = sin t, |z| = 1 - cos t  =>  x^2 + (1 - |z|)^2 = 1
    assert np.allclose(x ** 2 + (1.0 - np.abs(z)) ** 2, 1.0, atol=1e-12)


def test_s_curve_deterministic():
    a = gen_s_curve(50, seed=7)
    b = gen_s_curve(50, seed=7)
    assert np.array_equal(a.vectors, b.vectors)
    c = gen_s_curve(50, seed=8)
    assert not np.array_equal(a.vectors, c.vectors)


def test_holes_geometry_constraints():
    spec = HolesSpec(n_points=300, n_holes=8, hole_radius=0.08, seed=3)
    feats, truth, centers = gen_holes_dataset(spec)
    assert feats.vectors.shape == (300, 8)
    assert truth.shape == (300, 2)
    assert centers.shape == (8, 2)
    # centers inside the square with margin, pairwise non-overlapping
    assert np.all((centers >= 0.08) & (centers <= 0.92))
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.linalg.norm(centers[i] - centers[j]) >= 0.16 - 1e-12
    # no point inside a hole
    for p in truth:
        assert np.min(np.linalg.norm(centers - p, axis=1)) >= 0.08
    # features are exactly the distances to the centers
    for i in (0, 150, 299):
        expected = np.linalg.norm(centers - truth[i], axis=1)
        assert np.allclose(feats.vectors[i], expected)


def test_holes_deterministic():
    spec = HolesSpec(n_points=100, n_holes=5, seed=11)
    a = gen_holes_dataset(spec)
    b = gen_holes_dataset(spec)
    assert np.array_equal(a[0].vectors, b[0].vectors)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_s_curve_needs_a_point():
    with pytest.raises(ValidationError, match="n must be a positive integer, got 0"):
        gen_s_curve(0)


def test_holes_spec_validation():
    with pytest.raises(ValidationError):
        HolesSpec(n_points=0, n_holes=3)
    with pytest.raises(ValidationError):
        HolesSpec(n_points=10, n_holes=3, hole_radius=0.6)
    with pytest.raises(ValidationError):
        HolesSpec(n_points=10, n_holes=50, hole_radius=0.2)  # area too large
    for radius in (np.nan, 0.0, -0.1):
        with pytest.raises(ValidationError, match="hole radius"):
            HolesSpec(n_points=10, n_holes=3, hole_radius=radius)


def _result_with(coords, assignment, medoids):
    c = Clustering(np.asarray(assignment), np.asarray(medoids))
    n = c.n_points
    return ClmdsResult(coords=np.asarray(coords, dtype=float), clustering=c,
                       per_level=[], sparse_indices=np.arange(n),
                       estimated_mask=np.zeros(n, dtype=bool))


def test_containment_perfect_and_partial():
    coords = np.array([[0, 0], [0.1, 0], [5, 5], [5.1, 5]], dtype=float)
    r = _result_with(coords, [0, 0, 1, 1], [0, 2])
    assert voronoi_containment(r) == 1.0
    # move one member of cluster 0 next to the other medoid
    coords2 = coords.copy()
    coords2[1] = [5.2, 5.0]
    r2 = _result_with(coords2, [0, 0, 1, 1], [0, 2])
    assert voronoi_containment(r2) == 0.75


def test_containment_tie_goes_to_lower_cluster():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]], dtype=float)
    # point 2 is equidistant from both medoids but assigned to cluster 1
    r = _result_with(coords, [0, 1, 1], [0, 1])
    assert voronoi_containment(r) == pytest.approx(2.0 / 3.0)


def test_containment_needs_two_clusters():
    r = _result_with([[0.0, 0.0]], [0], [0])
    with pytest.raises(ValidationError):
        voronoi_containment(r)
