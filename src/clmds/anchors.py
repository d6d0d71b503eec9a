"""Anchor selection: maximal-volume tetrahedra from pairwise distances."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Clustering, DistanceMatrix, ValidationError

MAX_EXHAUSTIVE = 70  # cluster size above which candidate vertices are pruned

# Cayley-Menger normalization for a 3-simplex: 1 / (2^3 * (3!)^2)
_CM_FACTOR = 1.0 / 288.0

_DET_CHUNK = 65536


@dataclass(frozen=True)
class AnchorConfig:
    """Percentile table mapping cluster-size upper bounds to percentile p.

    Clusters larger than MAX_EXHAUSTIVE keep only members whose distance
    to the medoid reaches the p-th percentile for the first matching size
    bound.
    """

    percentile_ranks: tuple[tuple[float, float], ...] = (
        (140, 50.0), (350, 80.0), (1000, 90.0), (np.inf, 95.0))

    def __post_init__(self):
        for _, p in self.percentile_ranks:
            if not (0 <= p <= 100):
                raise ValidationError("percentile must lie in [0, 100]")

    def percentile_for(self, size: int) -> float:
        for bound, p in self.percentile_ranks:
            if size <= bound:
                return p
        return self.percentile_ranks[-1][1]


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


def _volumes_sq_batch(d: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Squared volumes for many vertex quadruples, via batched determinants."""
    out = np.empty(quads.shape[0])
    for lo in range(0, quads.shape[0], _DET_CHUNK):
        q = quads[lo:lo + _DET_CHUNK]
        b = np.ones((q.shape[0], 5, 5))
        b[:, 0, 0] = 0.0
        b[:, 1:, 1:] = d[q[:, :, None], q[:, None, :]] ** 2
        out[lo:lo + _DET_CHUNK] = _CM_FACTOR * np.linalg.det(b)
    return out


def candidate_vertices(D: DistanceMatrix, cluster, medoid: int,
                       cfg: AnchorConfig | None = None) -> np.ndarray:
    """Cluster members eligible as tetrahedron vertices.

    Small clusters are returned whole; larger ones are pruned to members at
    or beyond the p-th percentile of distance to the medoid, keeping at
    least 4 candidates.
    """
    if cfg is None:
        cfg = AnchorConfig()
    cluster = np.asarray(cluster, dtype=int)
    if cluster.size == 0:
        raise ValidationError("empty cluster")
    if medoid not in cluster:
        raise ValidationError("medoid must belong to the cluster")
    if cluster.size <= MAX_EXHAUSTIVE:
        return np.sort(cluster)
    dists = D.d[cluster, medoid]
    thr = np.percentile(dists, cfg.percentile_for(cluster.size))
    keep = dists >= thr
    if keep.sum() < 4:
        thr = np.sort(dists)[-4]
        keep = dists >= thr
    return np.sort(cluster[keep])


def best_quadruple(D: DistanceMatrix, candidates) -> np.ndarray:
    """Maximal-volume 4-subset of candidates (<=4 candidates pass through).

    Before the search, each candidate at zero distance from a lower-indexed
    one is dropped, so that a pool of at most 3 distinct locations, where
    every volume is zero, keeps one anchor per location instead of the
    lexicographically first quadruple (possibly 4 copies of one point).
    Ties break lexicographically on the sorted index tuple; negative
    Cayley-Menger values clamp to zero and rank below any positive volume.
    """
    candidates = np.sort(np.asarray(candidates, dtype=int))
    if candidates.size > 4:
        copies = np.tril(D.d[np.ix_(candidates, candidates)] == 0, k=-1).any(axis=1)
        candidates = candidates[~copies]
    if candidates.size <= 4:
        return candidates
    quads = np.array(list(combinations(candidates.tolist(), 4)), dtype=int)
    vols = np.maximum(_volumes_sq_batch(D.d, quads), 0.0)
    # combinations() emits tuples in lexicographic order, so the first
    # argmax is the lexicographically smallest maximizer
    return quads[int(np.argmax(vols))]


def select_anchors(D: DistanceMatrix, c: Clustering,
                   cfg: AnchorConfig | None = None) -> list[np.ndarray]:
    """Up to four anchor indices per cluster, by maximal tetrahedron volume."""
    if cfg is None:
        cfg = AnchorConfig()
    anchors = []
    for k in range(c.n_clusters):
        members = c.members(k)
        if members.size <= 4:
            anchors.append(members.copy())
            continue
        cand = candidate_vertices(D, members, int(c.medoids[k]), cfg)
        anchors.append(best_quadruple(D, cand))
    return anchors
