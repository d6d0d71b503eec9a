"""Synthetic datasets and the Voronoi-containment quality metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClmdsResult, FeatureSet, ValidationError, _check_integers, pairwise_distances

_MAX_ATTEMPTS = 10000


@dataclass(frozen=True)
class HolesSpec:
    n_points: int
    n_holes: int
    hole_radius: float = 0.08
    seed: int = 0

    def __post_init__(self):
        _check_integers(n_points=self.n_points, n_holes=self.n_holes, seed=self.seed)
        if self.n_points < 1 or self.n_holes < 1:
            raise ValidationError("n_points and n_holes must be positive")
        if not (0 < self.hole_radius <= 0.5):  # NaN fails too
            raise ValidationError("hole radius must lie in (0, 0.5]")
        if self.n_holes * np.pi * self.hole_radius ** 2 >= 0.5:
            raise ValidationError("total hole area must stay below half the unit square")


def gen_s_curve(n: int, seed: int = 0) -> FeatureSet:
    """S-shaped 3-d manifold sample: (sin t, u, sign(t)(cos t - 1))."""
    _check_integers(n=n, seed=seed)
    if n < 1:
        raise ValidationError("n must be positive")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, size=n)
    u = rng.uniform(0.0, 2.0, size=n)
    pts = np.column_stack([np.sin(t), u, np.sign(t) * (np.cos(t) - 1.0)])
    return FeatureSet(pts)


def gen_holes_dataset(spec: HolesSpec) -> tuple[FeatureSet, np.ndarray, np.ndarray]:
    """Uniform points in the unit square avoiding circular holes.

    Each point is described by its vector of distances to the hole
    centers. Returns (features, ground-truth positions, hole centers).
    """
    rng = np.random.default_rng(spec.seed)
    r = spec.hole_radius
    centers = np.empty((0, 2))
    for _ in range(_MAX_ATTEMPTS):
        c = rng.uniform(r, 1.0 - r, size=2)
        if centers.shape[0] == 0 or np.min(np.linalg.norm(centers - c, axis=1)) >= 2 * r:
            centers = np.vstack([centers, c])
        if centers.shape[0] == spec.n_holes:
            break
    else:
        raise ValidationError("could not place non-overlapping holes")
    points = []
    attempts = 0
    while len(points) < spec.n_points:
        attempts += 1
        if attempts > _MAX_ATTEMPTS * max(1, spec.n_points):
            raise ValidationError("rejection sampling failed; holes too large")
        p = rng.uniform(0.0, 1.0, size=2)
        if np.min(np.linalg.norm(centers - p, axis=1)) >= r:
            points.append(p)
    points = np.array(points)
    feats = pairwise_distances(points, centers)
    return FeatureSet(feats), points, centers


def voronoi_containment(result: ClmdsResult) -> float:
    """Fraction of points whose nearest embedded medoid is their own cluster.

    Ties between equidistant medoids go to the lower cluster index.
    """
    c = result.clustering
    if c.n_clusters < 2:
        raise ValidationError("containment needs at least 2 clusters")
    med_xy = result.coords[c.medoids]
    nearest = np.argmin(pairwise_distances(result.coords, med_xy), axis=1)
    return float(np.mean(nearest == c.assignment))
