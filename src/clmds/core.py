"""Shared data model: feature sets, distance matrices, clusterings, results."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

SYMMETRY_TOL = 1e-9
DIAGONAL_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


@dataclass(frozen=True)
class FeatureSet:
    """N points in R^n, one descriptor vector per row."""

    vectors: np.ndarray
    ids: list[str] | None = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValidationError("feature set must be a non-empty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("feature set contains non-finite entries")
        if self.ids is not None and len(self.ids) != v.shape[0]:
            raise ValidationError("ids length does not match number of rows")
        object.__setattr__(self, "vectors", v)

    @property
    def n_points(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_dims(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class DistanceMatrix:
    """Validated symmetric dissimilarity matrix with zero diagonal."""

    d: np.ndarray

    @property
    def n_points(self) -> int:
        return self.d.shape[0]

    def submatrix(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        return self.d[np.ix_(idx, idx)]


def validate_distance_matrix(raw) -> DistanceMatrix:
    """Validate a raw square matrix as a dissimilarity matrix.

    Small asymmetries (below 1e-9) are repaired by averaging; anything
    larger is an error, as are negative, non-finite or non-zero-diagonal
    entries.
    """
    d = np.asarray(raw, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance matrix must be square")
    if not np.all(np.isfinite(d)):
        raise ValidationError("distance matrix contains non-finite entries")
    asym = np.max(np.abs(d - d.T)) if d.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValidationError(f"distance matrix asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
    if asym > 0.0:
        d = 0.5 * (d + d.T)
    if np.any(d < 0):
        raise ValidationError("distance matrix has negative entries")
    if np.max(np.abs(np.diag(d)), initial=0.0) > DIAGONAL_TOL:
        raise ValidationError("distance matrix diagonal is not zero")
    d = d.copy()
    np.fill_diagonal(d, 0.0)
    d.flags.writeable = False
    return DistanceMatrix(d)


def euclidean_distances(fs: FeatureSet) -> DistanceMatrix:
    """Pairwise Euclidean distances of a feature set, exactly symmetric."""
    d = cdist(fs.vectors, fs.vectors)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    d.flags.writeable = False
    return DistanceMatrix(d)


@dataclass(frozen=True)
class Clustering:
    """Cluster assignment plus one medoid index per cluster."""

    assignment: np.ndarray
    medoids: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        m = np.asarray(self.medoids, dtype=int)
        k = m.shape[0]
        if a.ndim != 1 or m.ndim != 1 or k < 1:
            raise ValidationError("malformed clustering arrays")
        if np.any(a < 0) or np.any(a >= k):
            raise ValidationError("assignment index out of range")
        if np.any(m < 0) or np.any(m >= a.shape[0]):
            raise ValidationError("medoid index out of range")
        counts = np.bincount(a, minlength=k)
        if np.any(counts == 0):
            raise ValidationError("empty cluster")
        if np.any(a[m] != np.arange(k)):
            raise ValidationError("medoid not assigned to its own cluster")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "medoids", m)

    @property
    def n_clusters(self) -> int:
        return self.medoids.shape[0]

    @property
    def n_points(self) -> int:
        return self.assignment.shape[0]

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == k)


@dataclass(frozen=True)
class HierarchySpec:
    """Strictly decreasing list of cluster counts ending in 1."""

    levels: tuple[int, ...]

    def __post_init__(self):
        lv = tuple(int(x) for x in self.levels)
        if len(lv) < 2:
            raise ValidationError("hierarchy needs at least two levels, e.g. [k, 1]")
        if lv[-1] != 1:
            raise ValidationError("hierarchy must end in 1")
        if any(a <= b for a, b in zip(lv, lv[1:])) or any(x < 1 for x in lv):
            raise ValidationError("hierarchy levels must be strictly decreasing positive integers")
        object.__setattr__(self, "levels", lv)


@dataclass(frozen=True)
class Stitch:
    """How one member cluster was mapped into the frame of its group.

    ``matrix`` is the 3x3 homogeneous transform, of ``kind`` "affine" or
    "homography". It was fitted on the anchors ``anchor_indices``, whose
    rows are ``anchors_local`` in the cluster's local MDS and
    ``anchors_global`` in the group's anchor MDS.
    """

    group: int
    kind: str
    matrix: np.ndarray
    anchor_indices: np.ndarray
    anchors_local: np.ndarray
    anchors_global: np.ndarray

    @property
    def n_anchors(self) -> int:
        return int(self.anchor_indices.shape[0])


@dataclass
class LevelArtifacts:
    """Everything recorded for one hierarchy level.

    ``anchors`` holds one index array per cluster of this level's clustering.
    ``anchor_coords`` maps anchor point index -> embedded (x, y) at this level
    (absent for the finest level, which has no joint anchor embedding).
    ``stitches`` holds one Stitch per member cluster stitched into this level.
    ``anchor_stress`` sums the relative stress (pair weights d^-2) of this
    level's anchor MDS runs.
    """

    clustering: Clustering
    anchors: list[np.ndarray] | None = None
    anchor_coords: dict[int, tuple[float, float]] | None = None
    stitches: list[Stitch] | None = None
    local_stresses: list[float] | None = None
    anchor_stress: float | None = None


@dataclass
class ClmdsResult:
    """Final embedding plus all per-level bookkeeping."""

    coords: np.ndarray
    clustering: Clustering
    per_level: list[LevelArtifacts]
    sparse_indices: np.ndarray
    estimated_mask: np.ndarray
    local_coords: list[np.ndarray] = field(default_factory=list)
    cluster_transforms: list[np.ndarray] = field(default_factory=list)
    incoherence: float = 0.0
    estimation_available: bool = True
    fallback_clusters: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]


def _parse_delimited(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
    if not rows:
        raise ValidationError(f"no data rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"ragged rows in {path}")
    return np.array(rows, dtype=float)


def load_distance_matrix(path) -> DistanceMatrix:
    """Load a distance matrix from delimited text ('#' lines ignored)."""
    return validate_distance_matrix(_parse_delimited(path))


def load_feature_set(path) -> FeatureSet:
    """Load a feature set from delimited text, one point per line."""
    return FeatureSet(_parse_delimited(path))
