import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from clmds import (DegenerateGeometryError, PerspectiveDivideError, Transform2D,
                   ValidationError, apply_transform, choose_best_transform,
                   classify_transform, convex_hull_2d, fit_affine, fit_homography,
                   fit_similarity, translation)
from clmds.transforms import least_squares_affine

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.column_stack([np.cos(np.arange(5) * 2 * np.pi / 5),
                            np.sin(np.arange(5) * 2 * np.pi / 5)])


def test_hull_square_with_interior_points():
    pts = np.vstack([SQUARE, [[0.5, 0.5], [0.25, 0.75]]])
    hull = convex_hull_2d(pts)
    assert sorted(hull.tolist()) == [0, 1, 2, 3]
    # CCW orientation
    h = pts[hull]
    area2 = np.sum(h[:, 0] * np.roll(h[:, 1], -1) - np.roll(h[:, 0], -1) * h[:, 1])
    assert area2 > 0


def test_hull_drops_boundary_collinear():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 0], [2, 1]], dtype=float)
    hull = convex_hull_2d(pts)
    assert sorted(hull.tolist()) == [0, 1, 2, 3]


def test_hull_collinear_returns_extremes():
    pts = np.array([[0, 0], [1, 1], [3, 3], [2, 2]], dtype=float)
    hull = convex_hull_2d(pts)
    assert set(hull.tolist()) == {0, 2}


def test_classify_three_anchors_affine():
    plan = classify_transform(SQUARE[:3], SQUARE[:3] + 1.0)
    assert plan.kind == "affine"
    assert np.array_equal(plan.order, [0, 1, 2])


def test_classify_degenerate_local_quad_affine():
    loc = np.array([[0, 0], [1, 0], [2, 0], [0, 1]], dtype=float)  # 3 collinear
    plan = classify_transform(loc, SQUARE)
    assert plan.kind == "affine"


def test_classify_convex_pair_homography():
    glo = SQUARE * 2.0 + np.array([3.0, -1.0])
    plan = classify_transform(SQUARE, glo)
    assert plan.kind == "homography"
    assert plan.order[0] == int(np.min(plan.order))


def test_classify_reflected_global_quad_affine():
    # reflection flips orientation; global quad traverses CW in local order
    glo = SQUARE.copy()
    glo[:, 0] *= -1
    plan = classify_transform(SQUARE, glo)
    assert plan.kind == "affine"


def test_classify_crossed_global_quad_affine():
    glo = SQUARE[[0, 1, 3, 2]]  # bow-tie ordering
    plan = classify_transform(SQUARE, glo)
    assert plan.kind == "affine"


def test_affine_generate_and_recover():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = np.eye(3)
        m[:2, :2] = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m[:2, :2])) < 0.1:
            m[:2, :2] = rng.normal(size=(2, 2))
        m[:2, 2] = rng.normal(size=2)
        truth = Transform2D("affine", m)
        src = rng.normal(size=(6, 2))
        dst = apply_transform(truth, src)
        fitted = fit_affine(src, dst)
        assert np.allclose(fitted.matrix, m, atol=1e-9)
    # the same fit from 4-d sources, as the out-of-sample estimation uses it
    m = np.zeros((3, 5))
    m[:2] = rng.normal(size=(2, 5))
    m[2, -1] = 1.0
    src = rng.normal(size=(9, 4))
    fitted, rank = least_squares_affine(src, src @ m[:2, :4].T + m[:2, 4])
    assert rank == 5
    assert np.allclose(fitted, m, atol=1e-9)


@pytest.mark.parametrize("call, message", [
    (lambda: Transform2D("shear", np.eye(3)), "unknown transform kind 'shear'"),
    (lambda: convex_hull_2d(SQUARE[:2]), "convex hull needs at least 3 points"),
    (lambda: classify_transform(SQUARE, SQUARE[:3]), "anchor lists must have matching shapes"),
    (lambda: choose_best_transform(SQUARE, SQUARE, SQUARE[:3]),
     "anchor lists must have matching shapes"),
    (lambda: classify_transform(SQUARE[:0], SQUARE[:0]), r"1 to 4 anchors .* shape \(0, 2\)"),
    (lambda: classify_transform(PENTAGON, PENTAGON), r"1 to 4 anchors .* shape \(5, 2\)"),
    (lambda: choose_best_transform(SQUARE, SQUARE[:0], SQUARE[:0]),
     r"1 to 4 anchors .* shape \(0, 2\)"),
    (lambda: choose_best_transform(PENTAGON, PENTAGON, PENTAGON),
     r"1 to 4 anchors .* shape \(5, 2\)"),
    (lambda: fit_affine(SQUARE[:2], SQUARE[:2]), "affine fit needs at least 3 correspondences"),
])
def test_malformed_transform_inputs_are_refused(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_homography_of_a_collinear_quadrilateral_raises():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateGeometryError, match="collinear quadrilateral vertices"):
        fit_homography(line, SQUARE)


def test_similarity_of_coincident_sources_is_a_translation():
    # no rotation or scale is defined: the first source goes to the first target
    t = fit_similarity(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([[4.0, 6.0], [0.0, 0.0]]))
    assert np.array_equal(t.matrix, translation([3.0, 4.0]).matrix)


def test_affine_collinear_rejected():
    src = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
    with pytest.raises(DegenerateGeometryError):
        fit_affine(src, src + 1.0)


def test_homography_square_to_square_is_affine_map():
    glo = SQUARE * 3.0 + 1.0
    h = fit_homography(SQUARE, glo)
    assert np.allclose(apply_transform(h, SQUARE), glo, atol=1e-9)


def test_homography_displaced_vertex_exact():
    glo = SQUARE.copy()
    glo[2] = [1.4, 1.7]  # still convex, no longer a parallelogram
    h = fit_homography(SQUARE, glo)
    assert h.kind == "homography"
    assert np.allclose(apply_transform(h, SQUARE), glo, atol=1e-9)
    # genuinely projective: bottom row is not (0, 0, const)
    m = h.matrix / h.matrix[2, 2]
    assert np.max(np.abs(m[2, :2])) > 1e-6


def test_homography_roundtrip_random_convex_quads():
    rng = np.random.default_rng(4)
    count = 0
    while count < 15:
        jl = SQUARE + rng.uniform(-0.2, 0.2, size=(4, 2))
        jg = SQUARE * rng.uniform(0.5, 2.0) + rng.uniform(-0.3, 0.3, size=(4, 2))
        if convex_hull_2d(jl).shape[0] < 4 or convex_hull_2d(jg).shape[0] < 4:
            continue
        h = fit_homography(jl, jg)
        assert np.allclose(apply_transform(h, jl), jg, atol=1e-8)
        count += 1


def test_homography_nonconvex_rejected():
    glo = SQUARE.copy()
    glo[3] = [0.4, 0.4]  # reflex vertex: s or t goes non-positive
    with pytest.raises(DegenerateGeometryError):
        fit_homography(SQUARE, glo)


def test_apply_identity_and_translation():
    pts = np.random.default_rng(5).normal(size=(7, 2))
    ident = Transform2D("affine", np.eye(3))
    assert np.array_equal(apply_transform(ident, pts), pts)
    t = translation([2.0, -3.0])
    assert np.allclose(apply_transform(t, pts), pts + [2.0, -3.0])
    single = apply_transform(t, np.array([1.0, 1.0]))
    assert single.shape == (2,)
    assert np.allclose(single, [3.0, -2.0])


def test_apply_divide_failure():
    m = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]])
    h = Transform2D("homography", m)  # w = x + 1, vanishes at x = -1
    with pytest.raises(PerspectiveDivideError):
        apply_transform(h, np.array([[-1.0, 0.5]]))


def test_similarity_two_point_exact():
    src = np.array([[0.0, 0.0], [1.0, 0.0]])
    dst = np.array([[1.0, 1.0], [1.0, 3.0]])  # rotate 90deg, scale 2, shift
    s = fit_similarity(src, dst)
    assert np.allclose(apply_transform(s, src), dst, atol=1e-12)
    # conformal: equal diagonal, antisymmetric off-diagonal
    m = s.matrix
    assert m[0, 0] == pytest.approx(m[1, 1])
    assert m[0, 1] == pytest.approx(-m[1, 0])


def test_choose_best_translation_and_similarity_paths():
    cluster = np.array([[0.0, 0.0], [0.5, 0.5]])
    t, mapped = choose_best_transform(cluster, np.array([[0.0, 0.0]]),
                                      np.array([[2.0, 2.0]]))
    assert np.allclose(mapped, cluster + 2.0)
    t2, mapped2 = choose_best_transform(cluster, cluster,
                                        np.array([[1.0, 0.0], [2.0, 1.0]]))
    assert np.allclose(mapped2[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(mapped2[1], [2.0, 1.0], atol=1e-12)


def test_choose_best_exact_affine_case_ties_to_affine():
    # anchor targets exactly affine-reachable: residues tie at zero
    glo = SQUARE @ np.array([[2.0, 0.3], [-0.1, 1.5]]).T + [1.0, 2.0]
    cluster = np.random.default_rng(6).uniform(0, 1, size=(10, 2))
    t, mapped = choose_best_transform(cluster, SQUARE, glo)
    assert t.kind == "affine"
    assert np.allclose(apply_transform(t, SQUARE), glo, atol=1e-9)


def test_choose_best_projective_case_picks_homography():
    glo = SQUARE.copy()
    glo[2] = [1.5, 2.0]
    cluster = np.random.default_rng(7).uniform(0.1, 0.9, size=(25, 2))
    t, mapped = choose_best_transform(cluster, SQUARE, glo)
    assert t.kind == "homography"
    assert np.allclose(apply_transform(t, SQUARE), glo, atol=1e-8)
    assert np.all(np.isfinite(mapped))


def test_choose_best_keeps_affine_when_homography_bends_the_cluster():
    # the homography passes through all four anchors, the least-squares
    # affine does not, yet pulling one corner inwards bends the cluster more
    glo = SQUARE.copy()
    glo[2] = [0.7, 0.7]
    cluster = np.random.default_rng(9).uniform(0, 1, size=(30, 2))
    homog = fit_homography(SQUARE, glo)
    affine = fit_affine(SQUARE, glo)
    assert np.allclose(apply_transform(homog, SQUARE), glo, atol=1e-12)
    assert np.sum((apply_transform(affine, SQUARE) - glo) ** 2) > 1e-3

    def distortion(t):
        return np.sum((pdist(apply_transform(t, cluster)) - pdist(cluster)) ** 2)

    assert distortion(homog) > distortion(affine)
    t, mapped = choose_best_transform(cluster, SQUARE, glo)
    assert t.kind == "affine"
    assert np.allclose(t.matrix, affine.matrix, atol=1e-12)
    assert np.allclose(mapped, apply_transform(affine, cluster), atol=1e-12)


def test_choose_best_falls_back_to_affine_when_a_point_maps_to_infinity():
    # the homography of this convex quad sends w = 0.25 x + 0.5 y + 0.5 to
    # zero on a line through (0, -1): a cluster point there cannot be divided
    glo = np.array([[0.0, 0.0], [2.0, 0.0], [1.2, 0.8], [0.0, 1.0]])
    homog = fit_homography(SQUARE, glo)
    assert classify_transform(SQUARE, glo).kind == "homography"
    cluster = np.vstack([SQUARE, [[0.5, 0.5], [0.0, -1.0]]])
    with pytest.raises(PerspectiveDivideError):
        apply_transform(homog, cluster)
    t, mapped = choose_best_transform(cluster, SQUARE, glo)
    affine = fit_affine(SQUARE, glo)
    assert t.kind == "affine"
    assert np.array_equal(t.matrix, affine.matrix)
    assert np.array_equal(mapped, apply_transform(affine, cluster))


def test_choose_best_reflected_square_falls_back_to_affine():
    glo = SQUARE.copy()
    glo[:, 0] *= -1
    cluster = np.random.default_rng(8).uniform(0, 1, size=(5, 2))
    t, mapped = choose_best_transform(cluster, SQUARE, glo)
    assert t.kind == "affine"
    assert np.allclose(apply_transform(t, SQUARE), glo, atol=1e-9)


def test_transform2d_invariants():
    with pytest.raises(ValidationError):
        Transform2D("affine", np.eye(2))
    with pytest.raises(DegenerateGeometryError):
        Transform2D("affine", np.zeros((3, 3)))
    bad = np.eye(3)
    bad[2, 0] = 0.5
    with pytest.raises(ValidationError):
        Transform2D("affine", bad)
    Transform2D("homography", bad)  # fine for a homography


# Property tests of the stitch ladder. Anchors and cluster points lie on a
# small integer lattice, so coincident anchors come up often, and half of
# the local anchor sets are drawn on one line.
_lattice_point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _stitch_case(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        base, step = draw(_lattice_point), draw(_lattice_point)
        t = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        loc = np.array(base, dtype=float) + np.outer(t, step)
    else:
        loc = np.array(draw(st.lists(_lattice_point, min_size=n, max_size=n)), dtype=float)
    glo = np.array(draw(st.lists(_lattice_point, min_size=n, max_size=n)), dtype=float)
    glo *= draw(st.sampled_from([0.25, 1.0, 7.0]))
    rest = draw(st.lists(_lattice_point, max_size=6))
    cluster = np.vstack([loc, np.array(rest, dtype=float).reshape(-1, 2)])
    return cluster, loc, glo


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_stitch_case())
def test_stitch_ladder_maps_any_anchor_set(case):
    cluster, loc, glo = case
    t, mapped = choose_best_transform(cluster, loc, glo)
    assert np.all(np.isfinite(mapped))
    assert np.array_equal(mapped, apply_transform(t, cluster))
    # one anchor, or two anchors distinct in both frames, are interpolated;
    # coincident global anchors clamp the similarity's scale to stay invertible
    distinct = loc.shape[0] == 2 and np.any(loc[0] != loc[1]) and np.any(glo[0] != glo[1])
    if loc.shape[0] == 1 or distinct:
        assert np.allclose(apply_transform(t, loc), glo, rtol=0, atol=1e-10)
