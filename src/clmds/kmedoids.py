"""k-medoids clustering on a precomputed distance matrix.

Initialization mixes farthest point sampling (to seed the most isolated
points) with uniform random picks, and the best of several restarts is
kept according to the relative intra-cluster incoherence. Every
clustering is returned in one canonical labelling, medoids in increasing
index order, so restarts that reach one partition tie exactly and the
earliest wins.

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

Beyond one (k, n) row buffer per call, the state of a restart is a few
bytes per point: its labels in the smallest unsigned type that holds k,
rewritten in place, the previous labels and one sort order. Arrays made
anew each iteration above glibc's mmap threshold (128 KiB at first) are
fresh mappings that fault every page. With int64 label stacks and sort
keys, the finest k-medoids of s-curve dataset 3 (k=100, 2000 points)
took 5.7-6.2 K minor faults in a fresh process; with these, 3.0-3.4 K.

From k n = _THREAD_MIN_ELEMENTS on, the stack splits into one contiguous
group of rows per usable core (`core._run_groups`, as the starts of an
MDS call), each in lockstep on its own thread with an equal share of
_GATHER_ELEMENTS, so the output does not depend on the number of cores.
100 restarts on 2000 s-curve points with k=100 then take 0.50 s on 2
cores against 0.92 s on one (1 BLAS thread); at 1000 points and k=40 two
threads were no faster (0.31 s against 0.28 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core
from .core import Clustering, DistanceMatrix, ValidationError, _check_counts, _run_groups

# the most distances the lockstep medoid gathers of one call hold at once
# (32 MiB with their int64 flat indices), unless a single cluster's L x L
# block is larger
_GATHER_ELEMENTS = 1 << 21
# the fewest distances per assignment (k n) at which a call's rows split
# across threads: below it the stages are too short to overlap
_THREAD_MIN_ELEMENTS = 1 << 17
_MAX_SWAPS = 1000  # the most assignments per row; no restart seen took more than 24


@dataclass(frozen=True)
class KmedoidsConfig:
    k: int
    n_iso: int = 1  # farthest-point picks among the initial medoids; 0: all random
    iter_med: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_counts(1, k=self.k, iter_med=self.iter_med)
        _check_counts(0, n_iso=self.n_iso, seed=self.seed)
        if self.n_iso > self.k:
            raise ValidationError("n_iso must satisfy 0 <= n_iso <= k")


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
    # one gather by flat index: the same block as d[members[..., :, None],
    # members[..., None, :]], taken faster
    sums = d.ravel().take(members[..., :, None] * d.shape[1] + members[..., None, :]).sum(axis=-1)
    return np.take_along_axis(members, np.argmin(sums, axis=-1)[..., None], axis=-1)[..., 0]


def _assign(rows: np.ndarray, medoids: np.ndarray) -> np.ndarray:
    """Each point's cluster, given rows = d[medoids].

    The rows stand for the columns d[:, medoids]: DistanceMatrix admits
    only exactly symmetric arrays, and a contiguous row gather is the
    cheaper one.
    """
    a = np.argmin(rows, axis=0)
    # argmin breaks ties by lowest cluster index; a medoid always stays in
    # its own cluster, so with distinct medoids no cluster is ever empty
    a[medoids] = np.arange(medoids.shape[0])
    return a


def _assign_rows(d: np.ndarray, medoids: np.ndarray, gathered: np.ndarray, labels: np.ndarray):
    """labels[i] = `_assign` under the medoids of row i, for every row of
    medoids, each row of d gathered into the (k, n) buffer gathered. The
    medoids are in range, so mode "clip" takes the same rows, without
    take's temporary copy."""
    for i, m in enumerate(medoids):
        labels[i] = _assign(np.take(d, m, axis=0, out=gathered, mode="clip"), m)


def _members_by_cluster(assignment: np.ndarray, k: int):
    """Point indices grouped by cluster, and each group's bounds, for every
    row of assignment, an (..., n) array.

    Cluster c's members of a row, in increasing index order, are
    order[..., bounds[..., c]:bounds[..., c + 1]].
    """
    # labels in the smallest unsigned type that holds k: a stable sort of
    # 8- or 16-bit keys is a radix sort, and a stable order is unique
    order = np.argsort(assignment.astype(np.min_scalar_type(k), copy=False), axis=-1,
                       kind="stable")
    rows = assignment.reshape(-1, assignment.shape[-1])
    bounds = np.zeros((rows.shape[0], k + 1), dtype=int)
    for row, b in zip(rows, bounds):  # one row at a time: no (R, n) keys
        np.cumsum(np.bincount(row, minlength=k), out=b[1:])
    return order, bounds.reshape(assignment.shape[:-1] + (k + 1,))


def kmedoids_once(D: DistanceMatrix, starts) -> list[Clustering]:
    """Run the alternating assignment / medoid-update loop to convergence
    from every row of starts, an (R, k) array of initial medoids.

    Returns one Clustering per row, each exactly what that row gives run
    alone with its medoids sorted, relabelled by `_canonical`; so a row's
    order does not matter, also where distances tie. The rows run in lockstep
    (`_lockstep`). From k n = _THREAD_MIN_ELEMENTS on, `_run_groups` cuts
    them into one contiguous group per usable core, each group in lockstep
    on its own thread with an equal share of the gather budget.
    """
    d = D.d
    medoids = np.array(starts, dtype=int)
    if medoids.ndim != 2 or medoids.shape[1] < 1:
        raise ValidationError("starts must be an (R, k) array of initial medoids")
    # `_assign` gives a tied point to the medoid listed first: in index
    # order, the result is a function of each row's set of medoids
    medoids.sort(axis=1)
    if np.any(np.diff(medoids, axis=1) == 0):
        raise ValidationError("initial medoids must be distinct")
    if np.any(medoids < 0) or np.any(medoids >= d.shape[0]):
        raise ValidationError("initial medoid index out of range")
    big = medoids.shape[1] * d.shape[0] >= _THREAD_MIN_ELEMENTS
    groups = max(1, min(core._WORKERS, medoids.shape[0])) if big else 1
    run = partial(_lockstep, d, budget=_GATHER_ELEMENTS // groups)
    return _run_groups(run, medoids, groups)


def _canonical(labels: np.ndarray, medoids: np.ndarray) -> Clustering:
    """The clustering of labels under medoids, with its medoids in
    increasing index order and its labels renumbered to match, so that one
    partition has one labelling. Both arrays are copied."""
    order = np.argsort(medoids)
    return Clustering(np.argsort(order)[labels], medoids[order])


def _lockstep(d: np.ndarray, medoids: np.ndarray, budget: int) -> list[Clustering]:
    """`kmedoids_once` on one thread, with medoid gathers of at most budget
    distances (one cluster's block at least).

    A row leaves the stack once its medoids stop changing. Each update
    recomputes the medoid only of clusters whose membership changed since
    the previous update (all of them the first time): an unchanged cluster
    would get the same argmin. The result equals a full update every
    iteration (see `_assign`).
    """
    k = medoids.shape[1]
    # one buffer for every row gather of `_assign`: a new k x n array per
    # restart and iteration is a fresh mmap, and so a page fault per 4 KiB,
    # wherever the allocator maps arrays of that size (s-curve k=100 took
    # 0.2-0.3 M faults and ~0.3 s more that way)
    gathered = np.empty((k, d.shape[0]))
    # and one stack of labels, a byte or two per point, rewritten in place:
    # 50 restarts of 2000 points stay below glibc's 128 KiB mmap threshold
    labels = np.empty((medoids.shape[0], d.shape[0]), dtype=np.min_scalar_type(k))

    out: list[Clustering | None] = [None] * medoids.shape[0]
    live = np.arange(medoids.shape[0])  # the row of starts each stack row holds
    _assign_rows(d, medoids, gathered, labels)
    changed = np.ones(medoids.shape, dtype=bool)
    for _ in range(_MAX_SWAPS):
        order, bounds = _members_by_cluster(labels, k)
        new = medoids.copy()
        rows, clusters = np.nonzero(changed)
        first = bounds[rows, clusters]
        size = bounds[rows, clusters + 1] - first
        for length in np.unique(size):
            same = np.flatnonzero(size == length)
            # at most budget distances per gather, one block at least
            per = max(1, budget // (int(length) * int(length)))
            for at in np.split(same, range(per, same.shape[0], per)):
                members = order[rows[at, None], first[at, None] + np.arange(length)]
                new[rows[at], clusters[at]] = medoid(d, members)
        del order  # before the next one is made
        done = np.all(new == medoids, axis=1)
        for i in np.flatnonzero(done):
            out[live[i]] = _canonical(labels[i], medoids[i])
        if done.all():
            break
        medoids, live, previous = new[~done], live[~done], labels[~done]
        labels = labels[:medoids.shape[0]]  # the rows still running, rewritten in place
        _assign_rows(d, medoids, gathered, labels)
        rows, points = np.nonzero(labels != previous)
        changed = np.zeros(medoids.shape, dtype=bool)
        changed[rows, previous[rows, points]] = True
        changed[rows, labels[rows, points]] = True
    else:  # _MAX_SWAPS reached: the rows still in the stack end where they are
        for i, row in enumerate(live):
            out[row] = _canonical(labels[i], medoids[i])
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

    Ties between restarts go to the earliest one. Restarts that reach one
    partition carry one labelling, so they tie bitwise whatever the order
    of their initial medoids.
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
