"""Anchor selection: maximal-volume tetrahedra from pairwise distances."""

from __future__ import annotations

import numpy as np

from .core import Clustering, DistanceMatrix, ValidationError
from .kmedoids import farthest_point_sample

MAX_EXHAUSTIVE = 70  # cluster size above which candidate vertices are pruned
# Largest pool the quadruple search takes (O(n^4) time, O(n^3) memory);
# candidate_vertices yields at most this many for up to 2000 members.
MAX_POOL = 100

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


def _triple_table(n: int) -> tuple[np.ndarray, ...]:
    """Every index triple j < k < l of range(n), in lexicographic order.

    Returns the row gathers (j, k, l), the flat indices (jk, jl, kl) into
    an n x n matrix, and start[i], the position of the first triple with
    j >= i; the triples of range(i, n) are the suffix from start[i].
    """
    k_pair, l_pair = np.triu_indices(n, 1)  # pairs k < l, lexicographic
    # the pairs with k > j are a suffix of the pair table
    pair_start = np.searchsorted(k_pair, np.arange(n), side="right")
    counts = k_pair.size - pair_start
    j = np.repeat(np.arange(n), counts)
    offsets = np.cumsum(counts) - counts
    pos = np.arange(j.size) - offsets[j] + pair_start[j]
    k, l = k_pair[pos], l_pair[pos]
    start = np.append(offsets, j.size)
    return j, k, l, j * n + k, j * n + l, k * n + l, start


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
    Cayley-Menger value of `simplex_volume_sq`. The search visits each
    origin a in turn with all later triples j < k < l, so quadruples come
    in lexicographic order of the sorted index tuple: ties go to the
    lexicographically smallest one. Negative values (non-Euclidean
    dissimilarities, rounding) clamp to zero and rank below any positive
    volume.
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
    n = candidates.size
    if n <= 4:
        return candidates
    j, k, l, jk, jl, kl, start = _triple_table(n)
    sq = d ** 2
    flat = sq.ravel()
    # all volumes <= 0 clamp to zero and the first quadruple wins
    best_det, best = 0.0, [0, 1, 2, 3]
    for a in range(n - 3):
        s = slice(start[a + 1], None)  # the triples after origin a
        row = sq[a]
        gjj, gkk, gll = row[j[s]], row[k[s]], row[l[s]]
        gjk = 0.5 * (gjj + gkk - flat[jk[s]])
        gjl = 0.5 * (gjj + gll - flat[jl[s]])
        gkl = 0.5 * (gkk + gll - flat[kl[s]])
        det = (gjj * (gkk * gll - gkl * gkl) - gjk * (gjk * gll - gkl * gjl)
               + gjl * (gjk * gkl - gkk * gjl))
        i = int(np.argmax(det))  # first maximizer: lexicographic within a
        if det[i] > best_det:  # strict: an earlier origin keeps a tie
            t = start[a + 1] + i
            best_det, best = det[i], [a, j[t], k[t], l[t]]
    return candidates[best]


def select_anchors(D: DistanceMatrix, c: Clustering) -> list[np.ndarray]:
    """Up to four anchor indices per cluster, by maximal tetrahedron volume.

    A cluster of at most 4 members is its own anchor set (see
    `best_quadruple`).
    """
    return [best_quadruple(D, candidate_vertices(D, c.members(k), int(c.medoids[k])))
            for k in range(c.n_clusters)]
