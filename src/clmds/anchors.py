"""Anchor selection: maximal-volume tetrahedra from pairwise distances."""

from __future__ import annotations

import numpy as np

from .core import Clustering, DistanceMatrix, ValidationError
from .kmedoids import farthest_point_sample

MAX_EXHAUSTIVE = 70  # cluster size above which candidate vertices are pruned
# Largest pool the quadruple search takes (O(n^4) time); candidate_vertices
# yields at most this many for up to 2000 members. Its memory is O(n^2) plus
# one block of triples: 2.6 MiB traced at n = 100.
MAX_POOL = 100
# the most triples j < k < l the quadruple search builds at once
_TRIPLE_BLOCK = 1 << 14

# Cayley-Menger normalization for a 3-simplex: 1 / (2^3 * (3!)^2)
_CM_FACTOR = 1.0 / 288.0


# Rows (size bound, p): a cluster larger than MAX_EXHAUSTIVE keeps the members
# whose distance to the medoid reaches the p-th percentile, p from the first
# row with size <= bound. Every row keeps at least 29 members (n = 141, p = 80).
PERCENTILE_RANKS = ((140, 50.0), (350, 80.0), (1000, 90.0), (np.inf, 95.0))


def simplex_volume_sq(D4: np.ndarray) -> float:
    """Squared tetrahedron volume from a 4x4 distance submatrix.

    Entries are squared inside the bordered determinant. The value can be
    slightly negative for non-Euclidean dissimilarities; callers clamp.
    """
    D4 = np.asarray(D4, dtype=float)
    if D4.shape != (4, 4):
        raise ValidationError("expected a 4x4 distance submatrix")
    if np.max(np.abs(D4 - D4.T)) > 1e-9 or np.max(np.abs(np.diag(D4))) > 1e-12:
        raise ValidationError("submatrix must be symmetric with zero diagonal")
    b = np.ones((5, 5))
    b[0, 0] = 0.0
    b[1:, 1:] = D4 ** 2
    return _CM_FACTOR * float(np.linalg.det(b))


def _triple_blocks(n: int, size: int):
    """Every index triple j < k < l of range(n), in lexicographic order, as
    consecutive blocks (j, k, l) of at most size triples each. Only the
    table of pairs k < l is held whole."""
    k_pair, l_pair = np.triu_indices(n, 1)  # pairs k < l, lexicographic
    # the pairs with k > j are a suffix of the pair table
    pair_start = np.searchsorted(k_pair, np.arange(n), side="right")
    counts = k_pair.size - pair_start
    offsets = np.cumsum(counts) - counts  # the first triple of each j
    total = int(counts.sum())
    for lo in range(0, total, size):
        t = np.arange(lo, min(lo + size, total))
        j = np.searchsorted(offsets, t, side="right") - 1
        pos = t - offsets[j] + pair_start[j]
        yield j, k_pair[pos], l_pair[pos]


def candidate_vertices(D: DistanceMatrix, cluster, medoid: int) -> np.ndarray:
    """Cluster members eligible as tetrahedron vertices.

    Small clusters are returned whole; larger ones are pruned to members at
    or beyond the p-th percentile of distance to the medoid (see
    PERCENTILE_RANKS).
    """
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValidationError("empty cluster")
    if medoid not in cluster:
        raise ValidationError("medoid must belong to the cluster")
    if cluster.size <= MAX_EXHAUSTIVE:
        return np.sort(cluster)
    p = next(p for bound, p in PERCENTILE_RANKS if cluster.size <= bound)
    dists = D.d[cluster, medoid]
    return np.sort(cluster[dists >= np.percentile(dists, p)])


def best_quadruple(D, candidates) -> np.ndarray:
    """Maximal-volume 4-subset of candidates (<=4 candidates pass through).

    D is any distance source with `block(rows, cols)`; the search reads
    only the block among the candidates.

    Before the search, each candidate at zero distance from a lower-indexed
    one is dropped, so that a pool of at most 3 distinct locations, where
    every volume is zero, keeps one anchor per location instead of the
    lexicographically first quadruple (possibly 4 copies of one point).
    A pool still above MAX_POOL keeps its MAX_POOL farthest-point picks.

    The squared volume of a quadruple (a, j, k, l) is det G / 36, where
    G is the 3x3 Gram matrix of its edges from a, taken from squared
    distances alone: G_jk = (d_aj^2 + d_ak^2 - d_jk^2) / 2. This equals the
    Cayley-Menger value of `simplex_volume_sq`. The triples j < k < l are
    built in lexicographic blocks of at most _TRIPLE_BLOCK, and each block
    is visited by every origin a with its triples j > a; the best is kept
    with its origin, so that ties go to the lexicographically smallest
    sorted index tuple. Negative values (non-Euclidean dissimilarities,
    rounding) clamp to zero and rank below any positive volume. A NaN
    volume, which only a squared distance that overflows makes, never wins.
    """
    candidates = np.sort(np.asarray(candidates, dtype=int))
    if candidates.size <= 4:
        return candidates
    d = D.block(candidates, candidates)
    # no copy of a lower-indexed candidate
    keep = np.flatnonzero(~np.tril(d == 0, k=-1).any(axis=1))
    if keep.size > MAX_POOL:
        keep = keep[np.sort(farthest_point_sample(d[np.ix_(keep, keep)], MAX_POOL))]
    candidates, d = candidates[keep], d[np.ix_(keep, keep)]
    if candidates.size <= 4:
        return candidates
    return candidates[_max_volume_quadruple(d)]


# a squared distance above 1.8e308 overflows, and the volumes it enters are NaN
@np.errstate(over="ignore", invalid="ignore")
def _max_volume_quadruple(d: np.ndarray) -> list[int]:
    """The positions (a, j, k, l) in d of the quadruple `best_quadruple` picks."""
    sq = d ** 2
    # all volumes <= 0 clamp to zero and the first quadruple wins
    best_det, best = 0.0, [0, 1, 2, 3]
    for j, k, l in _triple_blocks(d.shape[0], _TRIPLE_BLOCK):
        sjk, sjl, skl = sq[j, k], sq[j, l], sq[k, l]  # the same for every origin
        # origin a takes the block's triples with j > a, a suffix
        for a, first in enumerate(np.searchsorted(j, np.arange(j[-1]), side="right")):
            s = slice(first, None)
            row = sq[a]
            gjj, gkk, gll = row[j[s]], row[k[s]], row[l[s]]
            gjk = 0.5 * (gjj + gkk - sjk[s])
            gjl = 0.5 * (gjj + gll - sjl[s])
            gkl = 0.5 * (gkk + gll - skl[s])
            det = (gjj * (gkk * gll - gkl * gkl) - gjk * (gjk * gll - gkl * gjl)
                   + gjl * (gjk * gkl - gkk * gjl))
            i = int(np.argmax(det))  # first maximizer: lexicographic within a
            if np.isnan(det[i]):  # argmax takes a NaN for the largest
                det[np.isnan(det)] = -np.inf
                i = int(np.argmax(det))
            # a tie between origins goes to the earlier one; blocks come in
            # order, so within an origin an earlier block keeps a tie
            if det[i] > best_det or (det[i] == best_det and a < best[0]):
                t = first + i
                best_det, best = det[i], [a, j[t], k[t], l[t]]
    return best


def select_anchors(D: DistanceMatrix, c: Clustering) -> list[np.ndarray]:
    """Up to four anchor indices per cluster, by maximal tetrahedron volume.

    A cluster of at most 4 members is its own anchor set (see
    `best_quadruple`).
    """
    return [best_quadruple(D, candidate_vertices(D, c.members(k), int(c.medoids[k])))
            for k in range(c.n_clusters)]
