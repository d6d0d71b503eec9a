"""k-medoids clustering on a precomputed distance matrix.

Initialization mixes farthest point sampling (to seed the most isolated
points) with uniform random picks, and the best of several restarts is
kept according to the relative intra-cluster incoherence.

The restarts run in lockstep: one `kmedoids_once` call takes every
restart's initial medoids as one (R, k) stack. Each iteration updates the
medoids of every changed cluster of every restart still running together,
in (G, L, L) gathers per cluster size L, with G L^2 kept within
_GATHER_ELEMENTS so that memory does not grow with the restart count when
many restarts hold equal-size clusters; clusters are never padded to a
common size, since padding would change the summation order and so the
bits. Assignment stays per restart (`_assign`): an argmin over the
stacked (R, k, n) rows was measured not faster. Every restart ends with
exactly the clustering it would reach alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Clustering, DistanceMatrix, ValidationError

# the most distances one lockstep medoid gather holds (32 MiB of float64),
# unless a single cluster's L x L block is larger
_GATHER_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class KmedoidsConfig:
    k: int
    n_iso: int = 1  # farthest-point picks among the initial medoids; 0: all random
    iter_med: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be positive")
        if self.n_iso < 0 or self.n_iso > self.k:
            raise ValidationError("n_iso must satisfy 0 <= n_iso <= k")
        if self.iter_med < 1:
            raise ValidationError("iter_med must be positive")


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


def medoid(d: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The member with the least summed distance to the others, for each
    row of members, an (..., L) array of point indices.

    Rows come in increasing order, so ties go to the lowest index. Each row
    sums its own L x L block along the last axis, so a stack of rows gives
    bitwise what each row gives alone.
    """
    members = np.asarray(members)
    sums = d[members[..., :, None], members[..., None, :]].sum(axis=-1)
    return np.take_along_axis(members, np.argmin(sums, axis=-1)[..., None], axis=-1)[..., 0]


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
    """Point indices grouped by cluster, and each group's bounds, for every
    row of assignment, an (..., n) array.

    Cluster c's members of a row, in increasing index order, are
    order[..., bounds[..., c]:bounds[..., c + 1]].
    """
    # labels in the smallest unsigned type that holds k: a stable sort of
    # 8- or 16-bit keys is a radix sort, and a stable order is unique
    order = np.argsort(assignment.astype(np.min_scalar_type(k)), axis=-1, kind="stable")
    rows = assignment.reshape(-1, assignment.shape[-1])
    counts = np.bincount((rows + k * np.arange(rows.shape[0])[:, None]).ravel(),
                         minlength=k * rows.shape[0])
    bounds = np.zeros(assignment.shape[:-1] + (k + 1,), dtype=int)
    np.cumsum(counts.reshape(assignment.shape[:-1] + (k,)), axis=-1, out=bounds[..., 1:])
    return order, bounds


def kmedoids_once(D: DistanceMatrix, starts, max_swaps: int = 1000) -> list[Clustering]:
    """Run the alternating assignment / medoid-update loop to convergence
    from every row of starts, an (R, k) array of initial medoids.

    Returns one Clustering per row, each exactly what that row gives run
    alone. The rows run in lockstep, and a row leaves the stack once its
    medoids stop changing. Each update recomputes the medoid only of
    clusters whose membership changed since the previous update (all of
    them the first time): an unchanged cluster would get the same argmin.
    The result equals a full update every iteration (see `_assign`).
    """
    d = D.d
    medoids = np.array(starts, dtype=int)
    if medoids.ndim != 2 or medoids.shape[1] < 1:
        raise ValidationError("starts must be an (R, k) array of initial medoids")
    if np.any(np.diff(np.sort(medoids, axis=1), axis=1) == 0):
        raise ValidationError("initial medoids must be distinct")
    if np.any(medoids < 0) or np.any(medoids >= d.shape[0]):
        raise ValidationError("initial medoid index out of range")
    k = medoids.shape[1]
    out: list[Clustering | None] = [None] * medoids.shape[0]
    live = np.arange(medoids.shape[0])  # the row of starts each stack row holds
    assignment = np.stack([_assign(d, m) for m in medoids])
    changed = np.ones(medoids.shape, dtype=bool)
    for _ in range(max_swaps):
        order, bounds = _members_by_cluster(assignment, k)
        new = medoids.copy()
        rows, clusters = np.nonzero(changed)
        first = bounds[rows, clusters]
        size = bounds[rows, clusters + 1] - first
        for length in np.unique(size):
            same = np.flatnonzero(size == length)
            # at most _GATHER_ELEMENTS distances per gather, one block at least
            per = max(1, _GATHER_ELEMENTS // (int(length) * int(length)))
            for at in np.split(same, range(per, same.shape[0], per)):
                members = order[rows[at, None], first[at, None] + np.arange(length)]
                new[rows[at], clusters[at]] = medoid(d, members)
        done = np.all(new == medoids, axis=1)
        for i in np.flatnonzero(done):
            out[live[i]] = Clustering(assignment[i].copy(), medoids[i].copy())
        if done.all():
            break
        medoids, live, previous = new[~done], live[~done], assignment[~done]
        assignment = np.stack([_assign(d, m) for m in medoids])
        rows, points = np.nonzero(assignment != previous)
        changed = np.zeros(medoids.shape, dtype=bool)
        changed[rows, previous[rows, points]] = True
        changed[rows, assignment[rows, points]] = True
    else:  # max_swaps reached: the rows still in the stack end where they are
        for i, row in enumerate(live):
            out[row] = Clustering(assignment[i].copy(), medoids[i].copy())
    return out


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
    starts = [chosen + np.random.default_rng(child).choice(
                  pool, size=cfg.k - len(chosen), replace=False).tolist()
              for child in np.random.SeedSequence(cfg.seed).spawn(cfg.iter_med)]
    best = None
    best_irel = np.inf
    for c in kmedoids_once(D, starts):
        irel = relative_incoherence(D, c)
        if irel < best_irel:
            best, best_irel = c, irel
    return best
