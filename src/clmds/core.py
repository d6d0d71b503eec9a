"""Shared data model: feature sets, distance matrices, clusterings, results."""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-9
DIAGONAL_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


def _is_integer(x) -> bool:
    """Whether x is a Python or numpy integer; a bool is not one (int()
    would truncate 2.7 to 2 and read True as 1)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_counts(least: int, **counts):
    """Refuse, by name, each of counts that is not an integer of at least
    least: 1 for a count, 0 for a seed."""
    for name, x in counts.items():
        if not _is_integer(x) or x < least:
            kind = "positive" if least == 1 else "non-negative"
            raise ValidationError(f"{name} must be a {kind} integer, got {x!r}")


@dataclass(frozen=True)
class FeatureSet:
    """N points in R^n, one descriptor vector per row."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValidationError("feature set must be a non-empty 2-d array")
        if not np.all(np.isfinite(v)):
            raise ValidationError("feature set contains non-finite entries")
        object.__setattr__(self, "vectors", v)

    @property
    def n_points(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """Exactly symmetric square dissimilarity matrix: finite, non-negative
    entries and a zero diagonal, checked one row block at a time."""

    d: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.d)  # k-medoids gathers from d.ravel()
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        if d.shape[0] < 1:
            raise ValidationError("distance matrix has no points")
        blocks = _row_blocks(*d.shape)
        if not all(np.isfinite(d[s]).all() for s in blocks):
            raise ValidationError("distance matrix contains non-finite entries")
        # k-medoids reads rows for columns, which is exact only on an exactly
        # symmetric matrix
        if not all(np.array_equal(d[s, s.start:], d[s.start:, s].T) for s in blocks):
            raise ValidationError("distance matrix is not exactly symmetric; "
                                  "build it with validate_distance_matrix")
        if any((d[s] < 0).any() for s in blocks):
            raise ValidationError("distance matrix has negative entries")
        if np.diagonal(d).any():
            raise ValidationError("distance matrix diagonal is not zero")
        object.__setattr__(self, "d", d)

    @property
    def n_points(self) -> int:
        return self.d.shape[0]

    def block(self, rows, cols) -> np.ndarray:
        """The distances from the points rows to the points cols."""
        return self.d[np.ix_(rows, cols)]

    def submatrix(self, idx) -> DistanceMatrix:
        """The distances among the points idx, in that order; self when idx
        is every point in order."""
        idx = np.asarray(idx, dtype=int)
        if np.array_equal(idx, np.arange(self.n_points)):
            return self
        return DistanceMatrix(self.d[np.ix_(idx, idx)])


def validate_distance_matrix(raw) -> DistanceMatrix:
    """Validate a raw square matrix as a dissimilarity matrix: non-finite
    entries and an asymmetry above 1e-9 are refused, a smaller one averaged
    out and a diagonal within 1e-12 above zero zeroed; `DistanceMatrix` then
    refuses negative entries and any other diagonal. The result is a
    read-only copy of raw, the only one made."""
    d = np.array(raw, dtype=float, order="C")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError("distance matrix must be square")
    asym = _asymmetry(d)
    if _has_non_finite(d, asym):
        raise ValidationError("distance matrix contains non-finite entries")
    if asym > SYMMETRY_TOL:
        raise ValidationError(f"distance matrix asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
    if asym > 0.0:
        _symmetrize(d)
    # a diagonal within DIAGONAL_TOL above zero is rounding; DistanceMatrix
    # refuses any negative entry first, and then any other diagonal
    diag = np.diagonal(d)
    if np.all((diag >= 0) & (diag <= DIAGONAL_TOL)):
        np.fill_diagonal(d, 0.0)
    d.flags.writeable = False
    return DistanceMatrix(d)


# the most entries one row block holds: checks and scratch of an n x n
# matrix go a block at a time, 1 MiB of float64, however large n is (at
# n = 3000, 2^16 to 2^18 entries per block build and check equally fast)
_BLOCK_ENTRIES = 1 << 17


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of an n_rows x n_cols array, each of at most
    _BLOCK_ENTRIES entries (one row at least), together all of its rows."""
    step = max(1, _BLOCK_ENTRIES // max(1, n_cols))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _symmetrize(a: np.ndarray):
    """Set a square array a to (a + a.T) / 2 in place, one row block of the
    upper triangle at a time: x + y = y + x, so both halves get one mean."""
    for s in _row_blocks(*a.shape):
        mean = 0.5 * (a[s, s.start:] + a[s.start:, s].T)
        a[s, s.start:] = mean
        a[s.start:, s] = mean.T


def _has_non_finite(a: np.ndarray, asym: float) -> bool:
    """Whether the square array a has a non-finite entry, given asym =
    `_asymmetry(a)`. A non-finite entry makes asym non-finite, and so does a
    difference of finite entries that overflows: only then is a swept, one
    row block at a time, to tell the two apart."""
    return not np.isfinite(asym) and not all(np.isfinite(a[s]).all()
                                             for s in _row_blocks(*a.shape))


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a.T| of a square array a, one row block of the upper triangle
    at a time (|x - y| = |y - x|). It is non-finite if an entry is, or on
    overflow; both come without a numpy warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.max([_max_abs(a[s, s.start:] - a[s.start:, s].T)
                       for s in _row_blocks(*a.shape)], initial=0.0)


def _max_abs(x: np.ndarray) -> float:
    """max |x|, taken in x: one row block of scratch, not two."""
    return np.max(np.abs(x, out=x))


# From this many entries a table of differences is cheaper as a matmul than as
# a broadcast subtraction, which costs less to set up but more per entry: they
# break even near 6400 entries on one core, and at 400 x 400 the matmul takes
# a third of the time (58 against 178 us, one BLAS thread).
_MATMUL_MIN_ENTRIES = 8192


def _squared_differences(u, v, out):
    """out[i, j] = (u[i] - v[j])^2, each difference rounded once."""
    if out.size < _MATMUL_MIN_ENTRIES:
        np.subtract(u[:, None], v, out=out)
    else:
        # [u_i, 1] . [1, -v_j]: both products are exact, and a sum of two
        # terms is rounded once however the BLAS orders or fuses it
        lhs = np.ones((u.size, 2))
        lhs[:, 0] = u
        rhs = np.ones((2, v.size))
        np.negative(v, out=rhs[1])
        np.matmul(lhs, rhs, out=out)
    np.square(out, out=out)


def pairwise_distances(a, b, out=None, work=None) -> np.ndarray:
    """Euclidean distances from every row of a to every row of b.

    a is (p, n) and b is (q, n), one point per row; the result is (p, q).
    The squared coordinate differences are summed one coordinate at a time,
    in order, and then rooted, as a plain loop over the pairs would; the
    tests check that the values equal ``cdist``'s bit for bit. With a is b
    the result is exactly symmetric with a zero diagonal, as (x - y)^2 and
    (y - x)^2 are the same number. ``out`` receives the result when given.
    ``work``, scratch of the result's shape, is used when n > 1; without it
    the rows go one block of at most _BLOCK_ENTRIES results at a time,
    through scratch of one block.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("points must be given as 2-d arrays, one point per row")
    if a.shape[1] != b.shape[1]:
        raise ValidationError("points of different dimension")
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    if work is not None:
        return _distances_into(a, b, out, work)
    for s in _row_blocks(*out.shape):
        rows = out[s]
        if work is None:  # the first block is the largest
            work = np.empty(rows.shape)
        _distances_into(a[s], b, rows, work[:rows.shape[0]])
    return out


def _distances_into(a, b, out, work) -> np.ndarray:
    _squared_differences(a[:, 0], b[:, 0], out)
    for k in range(1, a.shape[1]):
        _squared_differences(a[:, k], b[:, k], work)
        np.add(out, work, out=out)
    return np.sqrt(out, out=out)


def euclidean_distances(fs: FeatureSet) -> DistanceMatrix:
    """Pairwise Euclidean distances of a feature set, exactly symmetric."""
    d = pairwise_distances(fs.vectors, fs.vectors)
    d.flags.writeable = False
    return DistanceMatrix(d)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the cores this process may run on, taken once: the most threads that
# _run_groups is given work for
_WORKERS = _usable_cores()


def _run_groups(run, items, workers: int) -> list:
    """The results of run(group) over min(workers, len(items)) contiguous
    groups of items (one at least), one result per item, in item order.

    Group 0 runs on the calling thread, each other group on a thread of its
    own: numpy releases the GIL in its large ufunc, gather and BLAS calls, so
    the groups overlap there. Every thread is joined, also when a group
    raises; then the error of the lowest-numbered group that raised is
    raised here.
    """
    g = max(1, min(workers, len(items)))
    cuts = [len(items) * i // g for i in range(g + 1)]
    results, errors = [None] * g, [None] * g

    def call(i):
        try:
            results[i] = run(items[cuts[i]:cuts[i + 1]])
        except BaseException as exc:  # handed to the calling thread below
            errors[i] = exc

    threads = []
    try:
        for i in range(1, g):
            t = threading.Thread(target=call, args=(i,))
            t.start()
            threads.append(t)
        call(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [r for group in results for r in group]


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
        _check_counts(1, **{f"hierarchy level {i}": x for i, x in enumerate(self.levels)})
        lv = tuple(int(x) for x in self.levels)
        if len(lv) < 2:
            raise ValidationError("hierarchy needs at least two levels, e.g. [k, 1]")
        if lv[-1] != 1:
            raise ValidationError("hierarchy must end in 1")
        if any(a <= b for a, b in zip(lv, lv[1:])):
            raise ValidationError("hierarchy levels must be strictly decreasing")
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
    ``stitches`` holds one Stitch per member cluster stitched into this level;
    its ``anchors_global`` are its anchors' positions in this level's anchor
    MDS.
    ``anchor_stress`` sums the relative stress (pair weights d^-2) of this
    level's anchor MDS runs.
    """

    clustering: Clustering
    anchors: list[np.ndarray] | None = None
    stitches: list[Stitch] | None = None
    local_stresses: list[float] | None = None
    anchor_stress: float | None = None


@dataclass
class ClmdsResult:
    """Final embedding plus all per-level bookkeeping.

    ``timings`` holds the seconds of each stage of the run: "sparsify",
    "distances", "kmedoids", "local_mds", "anchors", "merge", "anchor_mds"
    and "stitching" (the last three summed over the hierarchy levels), and
    "estimate" when points were estimated. The stages cover the run, each
    ending where the next begins, so they add up to "total".
    """

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
    """The rows of a comma- or space-delimited text file ('#' comments ignored)."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
        try:
            rows = np.loadtxt((line.replace(",", " ") for line in fh), ndmin=2)
        except ValueError as exc:  # ragged rows or a token that is not a number
            raise ValidationError(f"malformed rows in {path}: {exc}") from None
    if rows.size == 0:
        raise ValidationError(f"no data rows in {path}")
    return rows


def load_distance_matrix(path) -> DistanceMatrix:
    """Load a distance matrix from delimited text ('#' lines ignored)."""
    return validate_distance_matrix(_parse_delimited(path))


def load_feature_set(path) -> FeatureSet:
    """Load a feature set from delimited text, one point per line."""
    return FeatureSet(_parse_delimited(path))
