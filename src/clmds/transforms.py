"""Local-to-global stitching: pathology checks, affine and homography fits.

Each cluster is stitched through 1 to 4 anchors; `classify_transform`
refuses any other count. All maps are 3x3 operators on homogeneous
coordinates. Homographies are built through canonical quadrilaterals and
a linear fractional transform; an affine least-squares fit is always
available as fallback, and anchor sets too small or degenerate for an
affine get a similarity or a translation (`choose_best_transform`).
Homography and affine are judged on data neither was fitted to: the one
that changes the cluster's own pairwise distances least wins. A 4-point
homography interpolates its anchors, so an anchor residue would always
favour it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidationError, pairwise_distances

COLLINEAR_REL_TOL = 1e-9  # cross-product tolerance, relative to bbox scale^2
DIVIDE_TOL = 1e-12
DISTORTION_TIE_RTOL = 1e-9  # relative; closer distortions tie (to the affine)


class DegenerateGeometryError(ValueError):
    """Raised when a fit is impossible (collinear/coincident anchors)."""


class PerspectiveDivideError(ValueError):
    """Raised when a homography sends a point (near) to infinity."""


@dataclass(frozen=True)
class Transform2D:
    kind: str  # "affine" | "homography"
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValidationError("transform matrix must be 3x3")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise DegenerateGeometryError("transform matrix is singular")
        if self.kind == "affine" and np.max(np.abs(m[2] - (0, 0, 1))) > 1e-12:
            raise ValidationError("affine transform must have bottom row (0, 0, 1)")
        if self.kind not in ("affine", "homography"):
            raise ValidationError(f"unknown transform kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class TransformPlan:
    kind: str           # "affine" | "homography"
    order: np.ndarray   # positions into the anchor arrays, in fitting order


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _collinear_tol(points: np.ndarray) -> float:
    span = points.max(axis=0) - points.min(axis=0)
    scale = max(float(span.max()), 1e-300)
    return COLLINEAR_REL_TOL * scale * scale


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Strict convex hull (monotone chain), vertices CCW as point indices.

    Boundary-collinear points are dropped. Fully collinear input returns
    the two extreme points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise ValidationError("convex hull needs at least 3 points")
    tol = _collinear_tol(pts)
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def half(indices):
        chain = []
        for i in indices:
            while len(chain) > 1 and _cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= tol:
                chain.pop()
            chain.append(i)
        return chain

    lower = half(order)
    upper = half(order[::-1])
    if len(lower) == 2 and len(upper) == 2:  # all collinear
        return np.array(lower, dtype=int)
    return np.array(lower[:-1] + upper[:-1], dtype=int)


def classify_transform(local_anchors: np.ndarray, global_anchors: np.ndarray) -> TransformPlan:
    """Decide affine vs. homography and the effective anchor order.

    This is the entry of the stitching ladder: the two anchor lists must
    hold the same 1 to 4 points of the plane, in corresponding order.
    Fewer than 4 anchors, a degenerate local quadrilateral (the hull is
    reduced to its convex-hull vertices), or a global quadrilateral that is
    not strictly convex CCW in the corresponding order all force an affine.
    """
    loc = np.asarray(local_anchors, dtype=float)
    glo = np.asarray(global_anchors, dtype=float)
    if loc.shape != glo.shape:
        raise ValidationError("anchor lists must have matching shapes")
    if loc.ndim != 2 or loc.shape[1] != 2 or not 1 <= loc.shape[0] <= 4:
        raise ValidationError(f"stitching takes 1 to 4 anchors of the plane, got an array "
                              f"of shape {loc.shape}")
    n = loc.shape[0]
    if n < 4:
        return TransformPlan("affine", np.arange(n))
    hull = convex_hull_2d(loc)
    if hull.shape[0] < 4:
        return TransformPlan("affine", np.sort(hull))
    start = int(np.argmin(hull))
    order = np.roll(hull, -start)
    g = glo[order]
    tol = _collinear_tol(glo)
    crosses = [_cross(g[i], g[(i + 1) % 4], g[(i + 2) % 4]) for i in range(4)]
    if all(cr > tol for cr in crosses):
        return TransformPlan("homography", order)
    return TransformPlan("affine", np.arange(4))


def least_squares_affine(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, int]:
    """The least-squares affine map from the q-vectors src to the points dst
    of the plane, as a 3x(q+1) homogeneous matrix for `project`, and the
    rank of the [src, 1] design; minimum-norm when that is below q+1.
    `fit_affine` and the out-of-sample estimation fit through it."""
    a = np.column_stack([src, np.ones(src.shape[0])])
    sol, _, rank, _ = np.linalg.lstsq(a, dst, rcond=None)
    m = np.zeros((3, a.shape[1]))
    m[:2] = sol.T
    m[2, -1] = 1.0
    return m, int(rank)


def fit_affine(src: np.ndarray, dst: np.ndarray) -> Transform2D:
    """Least-squares affine taking src points to dst points."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape[0] < 3:
        raise ValidationError("affine fit needs at least 3 correspondences")
    m, rank = least_squares_affine(src, dst)
    if rank < 3:
        raise DegenerateGeometryError("collinear source points in affine fit")
    return Transform2D("affine", m)


def _affine_to_canonical(quad: np.ndarray) -> np.ndarray:
    """Exact affine sending quad[0], quad[1], quad[2] to (1,0), (0,0), (0,1)."""
    s = np.column_stack([quad[:3], np.ones(3)])
    targets = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    try:
        sol = np.linalg.solve(s, targets)
    except np.linalg.LinAlgError as exc:
        raise DegenerateGeometryError("collinear quadrilateral vertices") from exc
    m = np.eye(3)
    m[:2, :2] = sol[:2].T
    m[:2, 2] = sol[2]
    return m


def fit_homography(local_quad: np.ndarray, global_quad: np.ndarray) -> Transform2D:
    """Homography from the canonical-quadrilateral construction.

    Both quads must be strictly convex and correspondence-ordered; the
    four vertices map exactly (checked to 1e-9 after perspective divide).
    """
    loc = np.asarray(local_quad, dtype=float)
    glo = np.asarray(global_quad, dtype=float)
    al = _affine_to_canonical(loc)
    ag = _affine_to_canonical(glo)
    a, b = al[:2] @ np.append(loc[3], 1.0)
    c, d = ag[:2] @ np.append(glo[3], 1.0)
    s = a + b - 1.0
    t = c + d - 1.0
    if s <= 0 or t <= 0:
        raise DegenerateGeometryError("non-convex canonical quadrilateral (s or t <= 0)")
    f = np.array([
        [b * c * s, 0.0, 0.0],
        [0.0, a * d * s, 0.0],
        [b * (c * s - a * t), a * (d * s - b * t), a * b * t],
    ])
    h = np.linalg.solve(ag, f @ al)
    tr = Transform2D("homography", h)
    err = np.max(np.abs(apply_transform(tr, loc) - glo))
    if err > 1e-9 * max(1.0, float(np.max(np.abs(glo)))):
        raise DegenerateGeometryError(f"homography correspondence error {err:g}")
    return tr


def project(matrix: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points mapped by a 3x(q+1) homogeneous matrix, and those sent to infinity.

    Appends a 1 to each q-vector, multiplies, and divides by the third row.
    `far` marks the rows whose |w| < DIVIDE_TOL; those come back undivided.
    A single point gives a single row and a scalar flag.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    h = matrix @ np.column_stack([pts, np.ones(pts.shape[0])]).T
    far = np.abs(h[2]) < DIVIDE_TOL
    out = (h[:2] / np.where(far, 1.0, h[2])).T
    return (out[0], far[0]) if single else (out, far)


def apply_transform(T: Transform2D, points: np.ndarray) -> np.ndarray:
    """Homogeneous multiply followed by the perspective divide."""
    out, far = project(T.matrix, points)
    if np.any(far):
        raise PerspectiveDivideError("point maps to infinity under homography")
    return out


def fit_similarity(src: np.ndarray, dst: np.ndarray) -> Transform2D:
    """Rotation + scale + translation fixing two correspondences exactly.
    Coincident sources are refused: `choose_best_transform` translates them."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    zl = complex(*src[0]), complex(*src[1])
    zg = complex(*dst[0]), complex(*dst[1])
    denom = zl[1] - zl[0]
    if abs(denom) < 1e-300:
        raise DegenerateGeometryError("coincident source points in similarity fit")
    alpha = (zg[1] - zg[0]) / denom
    if abs(alpha) < 1e-6:  # coincident global anchors; keep invertible
        alpha = complex(1e-6, 0.0)
    beta = zg[0] - alpha * zl[0]
    m = np.array([
        [alpha.real, -alpha.imag, beta.real],
        [alpha.imag, alpha.real, beta.imag],
        [0.0, 0.0, 1.0],
    ])
    return Transform2D("affine", m)


def translation(offset) -> Transform2D:
    m = np.eye(3)
    m[:2, 2] = offset
    return Transform2D("affine", m)


def _pair_distances(x: np.ndarray) -> np.ndarray:
    """The distances of the pairs i < j of x's rows, in row order."""
    return pairwise_distances(x, x)[np.triu_indices(x.shape[0], k=1)]


def _distortion(mapped: np.ndarray, d_local: np.ndarray) -> float:
    """Squared change of the cluster's pairwise distances under a map."""
    return float(np.sum((_pair_distances(mapped) - d_local) ** 2))


def choose_best_transform(cluster_local: np.ndarray,
                          anchors_local: np.ndarray,
                          anchors_global: np.ndarray) -> tuple[Transform2D, np.ndarray]:
    """Map a cluster into the enclosing frame through its 1 to 4 anchors.

    Returns the transform and the mapped cluster. `classify_transform`
    refuses any other anchor lists. One fallback ladder serves every anchor
    count:

    1. 3-4 anchors whose local hull keeps at least 3 vertices get the
       classified transform. A homography competes with the 4-anchor
       least-squares affine: the map whose image of the cluster changes its
       local pairwise distances least (sum of squared differences) is kept,
       ties within a relative DISTORTION_TIE_RTOL going to the affine. The
       anchors cannot decide, as the homography passes through all four. A
       failed homography fit or divide on any cluster point forces the affine;
    2. 1-2 anchors, a hull reduced to a segment, or a fit that raises
       DegenerateGeometryError (collinear or coincident anchors in either
       frame) get a similarity through the two farthest anchors;
    3. when all anchors coincide locally, a translation by the difference
       of the anchor means.
    """
    cluster_local = np.asarray(cluster_local, dtype=float)
    loc = np.asarray(anchors_local, dtype=float)
    glo = np.asarray(anchors_global, dtype=float)
    plan = classify_transform(loc, glo)
    if plan.order.shape[0] >= 3:
        try:
            fit = np.sort(plan.order)  # an affine's order, or all 4 anchors of a homography
            affine = fit_affine(loc[fit], glo[fit])
            mapped_a = apply_transform(affine, cluster_local)
            if plan.kind != "homography":
                return affine, mapped_a
            try:
                homog = fit_homography(loc[plan.order], glo[plan.order])
                mapped_h = apply_transform(homog, cluster_local)
            except (DegenerateGeometryError, PerspectiveDivideError):
                return affine, mapped_a
            d_local = _pair_distances(cluster_local)
            r_a = _distortion(mapped_a, d_local)
            if _distortion(mapped_h, d_local) < r_a * (1.0 - DISTORTION_TIE_RTOL):
                return homog, mapped_h
            return affine, mapped_a
        except DegenerateGeometryError:
            pass
    d = pairwise_distances(loc, loc)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    if d[i, j] > 0:
        t = fit_similarity(loc[[i, j]], glo[[i, j]])
    else:
        t = translation(glo.mean(axis=0) - loc.mean(axis=0))
    return t, apply_transform(t, cluster_local)
