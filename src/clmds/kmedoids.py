"""k-medoids clustering on a precomputed distance matrix.

Initialization mixes farthest point sampling (to seed the most isolated
points) with uniform random picks, and the best of several restarts is
kept according to the relative intra-cluster incoherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Clustering, DistanceMatrix, ValidationError


@dataclass(frozen=True)
class KmedoidsConfig:
    k: int
    n_iso: int = 1  # farthest-point picks among the initial medoids; 0: all random
    iter_med: int = 100
    max_swaps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be positive")
        if self.n_iso < 0 or self.n_iso > self.k:
            raise ValidationError("n_iso must satisfy 0 <= n_iso <= k")
        if self.iter_med < 1 or self.max_swaps < 1:
            raise ValidationError("iter_med and max_swaps must be positive")


def farthest_point_sample(d: np.ndarray, n: int) -> list[int]:
    """Pick n indices by farthest point sampling.

    The first pick maximizes total distance to all points; each following
    pick maximizes the minimum distance to those already chosen. Ties go
    to the lowest index.
    """
    chosen = [int(np.argmax(d.sum(axis=1)))]
    while len(chosen) < n:
        min_dist = d[:, chosen].min(axis=1)
        min_dist[chosen] = -np.inf
        chosen.append(int(np.argmax(min_dist)))
    return chosen


def _assign(d: np.ndarray, medoids: np.ndarray) -> np.ndarray:
    # rows d[medoids] stand for the columns d[:, medoids]: DistanceMatrix
    # admits only exactly symmetric arrays, and a contiguous row gather is
    # the cheaper one
    a = np.argmin(d[medoids], axis=0)
    # argmin breaks ties by lowest cluster index; a medoid always stays in
    # its own cluster, so with distinct medoids no cluster is ever empty
    a[medoids] = np.arange(medoids.shape[0])
    return a


def _members_by_cluster(assignment: np.ndarray, k: int):
    """Point indices grouped by cluster, and each group's bounds.

    Cluster c's members, in increasing index order, are
    order[bounds[c]:bounds[c + 1]].
    """
    order = np.argsort(assignment, kind="stable")
    bounds = np.zeros(k + 1, dtype=int)
    np.cumsum(np.bincount(assignment, minlength=k), out=bounds[1:])
    return order, bounds


def kmedoids_once(D: DistanceMatrix, initial_medoids, max_swaps: int = 1000) -> Clustering:
    """Run the alternating assignment / medoid-update loop to convergence.

    Each update recomputes the medoid only of clusters whose membership
    changed since the previous update (all of them the first time): an
    unchanged cluster would get the same argmin. The result equals a full
    update every iteration (see `_assign`).
    """
    d = D.d
    medoids = np.array(initial_medoids, dtype=int)
    if len(set(medoids.tolist())) != len(medoids):
        raise ValidationError("initial medoids must be distinct")
    if np.any(medoids < 0) or np.any(medoids >= d.shape[0]):
        raise ValidationError("initial medoid index out of range")
    assignment = _assign(d, medoids)
    changed = np.ones(medoids.shape[0], dtype=bool)
    for _ in range(max_swaps):
        new = medoids.copy()
        order, bounds = _members_by_cluster(assignment, medoids.shape[0])
        for k in np.flatnonzero(changed):
            members = order[bounds[k]:bounds[k + 1]]
            sums = d[members[:, None], members].sum(axis=1)
            new[k] = members[int(np.argmin(sums))]  # ties: lowest point index
        if np.array_equal(new, medoids):
            break
        medoids = new
        previous, assignment = assignment, _assign(d, medoids)
        moved = assignment != previous
        changed[:] = False
        changed[previous[moved]] = True
        changed[assignment[moved]] = True
    return Clustering(assignment, medoids)


def relative_incoherence(D: DistanceMatrix, c: Clustering) -> float:
    """Sum over clusters of the mean member-to-medoid distance."""
    if c.n_points != D.n_points:
        raise ValidationError("clustering size does not match distance matrix")
    order, bounds = _members_by_cluster(c.assignment, c.n_clusters)
    to_medoid = D.d[order, c.medoids[c.assignment[order]]]
    total = 0.0
    for k in range(c.n_clusters):
        total += to_medoid[bounds[k]:bounds[k + 1]].sum() / (bounds[k + 1] - bounds[k])
    return total


def kmedoids_best(D: DistanceMatrix, cfg: KmedoidsConfig) -> Clustering:
    """Best clustering over iter_med restarts, by minimal incoherence.

    Ties between restarts go to the earliest one.
    """
    n = D.n_points
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds number of points {n}")
    # initial medoids: the n_iso farthest-point picks, which no restart
    # changes, then k - n_iso drawn from the other points by each restart
    chosen = farthest_point_sample(D.d, cfg.n_iso) if cfg.n_iso else []
    pool = np.setdiff1d(np.arange(n), chosen)
    best = None
    best_irel = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.iter_med):
        drawn = np.random.default_rng(child).choice(pool, size=cfg.k - len(chosen),
                                                    replace=False)
        c = kmedoids_once(D, chosen + drawn.tolist(), cfg.max_swaps)
        irel = relative_incoherence(D, c)
        if irel < best_irel:
            best, best_irel = c, irel
    return best
