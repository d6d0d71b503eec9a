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


def select_initial_medoids(D: DistanceMatrix, cfg: KmedoidsConfig,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial medoids: n_iso by farthest point sampling, the rest random."""
    n = D.n_points
    if cfg.k > n:
        raise ValidationError(f"k={cfg.k} exceeds number of points {n}")
    chosen = farthest_point_sample(D.d, cfg.n_iso) if cfg.n_iso else []
    n_rand = cfg.k - len(chosen)
    if n_rand:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        pool = np.setdiff1d(np.arange(n), chosen)
        chosen = chosen + list(rng.choice(pool, size=n_rand, replace=False))
    return np.array(chosen, dtype=int)


def _assign(d: np.ndarray, medoids: np.ndarray) -> np.ndarray:
    # argmin breaks ties by lowest cluster index; a medoid always stays
    # in its own cluster (relevant only under exact distance ties)
    a = np.argmin(d[:, medoids], axis=1)
    a[medoids] = np.arange(medoids.shape[0])
    return a


def _repair_empty(d: np.ndarray, medoids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Reseed each empty cluster from the largest one, then reassign."""
    k = medoids.shape[0]
    counts = np.bincount(assignment, minlength=k)
    for kk in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.setdiff1d(np.flatnonzero(assignment == donor), medoids)
        far = members[int(np.argmax(d[members, medoids[donor]]))]
        medoids[kk] = far
        assignment = _assign(d, medoids)
        counts = np.bincount(assignment, minlength=k)
    return assignment


def kmedoids_once(D: DistanceMatrix, initial_medoids, max_swaps: int = 1000) -> Clustering:
    """Run the alternating assignment / medoid-update loop to convergence."""
    d = D.d
    medoids = np.array(initial_medoids, dtype=int)
    if len(set(medoids.tolist())) != len(medoids):
        raise ValidationError("initial medoids must be distinct")
    if np.any(medoids < 0) or np.any(medoids >= d.shape[0]):
        raise ValidationError("initial medoid index out of range")
    for _ in range(max_swaps):
        assignment = _assign(d, medoids)
        assignment = _repair_empty(d, medoids, assignment)
        new = medoids.copy()
        for k in range(medoids.shape[0]):
            members = np.flatnonzero(assignment == k)
            sums = d[np.ix_(members, members)].sum(axis=1)
            new[k] = members[int(np.argmin(sums))]  # ties: lowest point index
        if np.array_equal(new, medoids):
            break
        medoids = new
    assignment = _assign(d, medoids)
    assignment = _repair_empty(d, medoids, assignment)
    return Clustering(assignment, medoids)


def relative_incoherence(D: DistanceMatrix, c: Clustering) -> float:
    """Sum over clusters of the mean member-to-medoid distance."""
    if c.n_points != D.n_points:
        raise ValidationError("clustering size does not match distance matrix")
    total = 0.0
    for k in range(c.n_clusters):
        members = c.members(k)
        total += D.d[members, c.medoids[k]].sum() / members.shape[0]
    return total


def kmedoids_best(D: DistanceMatrix, cfg: KmedoidsConfig,
                  initial_medoids=None) -> Clustering:
    """Best clustering over iter_med restarts, by minimal incoherence.

    Ties between restarts go to the earliest one. If explicit initial
    medoids are given, a single run from them is performed instead.
    """
    if cfg.k > D.n_points:
        raise ValidationError(f"k={cfg.k} exceeds number of points {D.n_points}")
    if initial_medoids is not None:
        return kmedoids_once(D, initial_medoids, cfg.max_swaps)
    best = None
    best_irel = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.iter_med):
        rng = np.random.default_rng(child)
        init = select_initial_medoids(D, cfg, rng=rng)
        c = kmedoids_once(D, init, cfg.max_swaps)
        irel = relative_incoherence(D, c)
        if irel < best_irel:
            best, best_irel = c, irel
    return best
