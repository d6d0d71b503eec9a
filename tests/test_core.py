import re
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from clmds import (Clustering, DistanceMatrix, FeatureSet, HierarchySpec, KernelConfig,
                   ValidationError, euclidean_distances, kernel_matrix, kernel_to_distance,
                   load_distance_matrix, load_feature_set, validate_distance_matrix)
from clmds.cli import FeatureDistances
from clmds.core import _BLOCK_ENTRIES, _MATMUL_MIN_ENTRIES, _run_groups, pairwise_distances


def test_accepts_identical_points():
    dm = validate_distance_matrix(np.zeros((2, 2)))
    assert dm.n_points == 2
    assert np.all(dm.d == 0)


def test_accepts_two_point_metric():
    dm = validate_distance_matrix([[0, 1], [1, 0]])
    assert dm.d[0, 1] == 1.0


def test_rejects_asymmetry():
    with pytest.raises(ValidationError):
        validate_distance_matrix([[0, 1], [2, 0]])
    # finite entries whose difference overflows, without a warning
    with pytest.raises(ValidationError, match="asymmetry inf exceeds"):
        validate_distance_matrix([[0, 1e308], [-1e308, 0]])


def test_repairs_tiny_asymmetry():
    eps = 1e-10
    dm = validate_distance_matrix([[0, 1 + eps], [1 - eps, 0]])
    assert dm.d[0, 1] == dm.d[1, 0] == pytest.approx(1.0)


def test_rejects_non_square_negative_nonfinite_diag():
    with pytest.raises(ValidationError):
        validate_distance_matrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        validate_distance_matrix([[0, -1], [-1, 0]])
    with pytest.raises(ValidationError):
        validate_distance_matrix([[0, np.inf], [np.inf, 0]])
    with pytest.raises(ValidationError):
        validate_distance_matrix([[1e-3, 1], [1, 0]])
    with pytest.raises(ValidationError, match="no points"):
        validate_distance_matrix(np.zeros((0, 0)))


def test_euclidean_3_4_5():
    fs = FeatureSet([[0.0, 0.0], [3.0, 4.0]])
    dm = euclidean_distances(fs)
    assert dm.d[0, 1] == pytest.approx(5.0)


def test_euclidean_single_point():
    dm = euclidean_distances(FeatureSet([[1.0, 2.0, 3.0]]))
    assert dm.d.shape == (1, 1)
    assert dm.d[0, 0] == 0.0


def test_euclidean_unit_square():
    fs = FeatureSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    d = euclidean_distances(fs).d
    assert d[0, 1] == pytest.approx(1.0)
    assert d[0, 2] == pytest.approx(np.sqrt(2))


def test_euclidean_passes_validation_exactly():
    rng = np.random.default_rng(0)
    fs = FeatureSet(rng.normal(size=(40, 7)))
    dm = euclidean_distances(fs)
    validate_distance_matrix(dm.d)  # exact symmetry, zero diagonal


def test_pairwise_distances_equal_cdist_bit_for_bit():
    # scipy is the oracle: the same values, bit for bit, on 1-30 dimensions,
    # rectangular and square inputs with duplicate rows, and (m, 2) inputs
    # written to out= through work=, with tables below and above the size at
    # which the differences are taken by a matmul
    rng = np.random.default_rng(3)
    tables = set()
    for dim in range(1, 31):
        for size in (4, 24, 24, 150):
            p, q = rng.integers(1, size + 1, size=2)
            tables.add(bool(p * q >= _MATMUL_MIN_ENTRIES))
            a = rng.normal(size=(p, dim)) * 10.0 ** rng.uniform(-4, 4)
            b = rng.normal(size=(q, dim)) * 10.0 ** rng.uniform(-4, 4)
            b[: min(p, q) // 2] = a[: min(p, q) // 2]
            a[-1] = a[0]
            assert pairwise_distances(a, b).tobytes() == cdist(a, b).tobytes()
            d = pairwise_distances(a, a)
            assert d.tobytes() == cdist(a, a).tobytes()
            assert d[np.triu_indices(p, k=1)].tobytes() == pdist(a).tobytes()
            assert np.array_equal(d, d.T) and not np.any(np.diag(d))
    assert tables == {False, True}
    for m in (3, 20, 57, 160):
        x = rng.normal(size=(m, 2))
        x[1] = x[0]
        out, work = np.full((m, m), np.nan), np.full((m, m), np.nan)
        assert pairwise_distances(x, x, out=out, work=work) is out
        assert out.tobytes() == cdist(x, x).tobytes()
    with pytest.raises(ValidationError):
        pairwise_distances(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        pairwise_distances(np.zeros(3), np.zeros(3))


def test_triangle_inequality_on_sampled_triples():
    rng = np.random.default_rng(1)
    d = euclidean_distances(FeatureSet(rng.normal(size=(30, 5)))).d
    for _ in range(500):
        i, j, k = rng.integers(0, 30, size=3)
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_feature_set_validation():
    with pytest.raises(ValidationError):
        FeatureSet(np.empty((0, 3)))
    with pytest.raises(ValidationError):
        FeatureSet([[1.0, np.nan]])


def test_hierarchy_spec():
    HierarchySpec((12, 1))
    HierarchySpec((15, 7, 3, 1))
    with pytest.raises(ValidationError):
        HierarchySpec((1,))
    with pytest.raises(ValidationError):
        HierarchySpec((3, 3, 1))
    with pytest.raises(ValidationError):
        HierarchySpec((3, 2))
    assert HierarchySpec((np.int64(3), 1)).levels == (3, 1)
    # int() would make these (2, 1), (3, 1) and (3, 1)
    for levels, at, bad in [((2.7, 1), 0, 2.7), ((3, True), 1, True),
                            ((np.float64(3.0), 1), 0, np.float64(3.0)), (("3", 1), 0, "3"),
                            ((3, 0), 1, 0)]:
        with pytest.raises(ValidationError, match=re.escape(
                f"hierarchy level {at} must be a positive integer, got {bad!r}")):
            HierarchySpec(levels)


def test_loaders_accept_comments_and_both_delimiters(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# a header\n0, 1\n1, 0\n")
    dm = load_distance_matrix(p)
    assert dm.d[0, 1] == 1.0
    q = tmp_path / "f.txt"
    q.write_text("# features\n0 0\n3 4\n")
    fs = load_feature_set(q)
    assert fs.n_points == 2 and fs.vectors.shape[1] == 2
    # every value reads back exactly, as float() would parse it
    v = np.random.default_rng(4).normal(size=(50, 3))
    q.write_text("\n".join(",".join(f"{x:.17g}" for x in row) for row in v) + "\n")
    assert np.array_equal(load_feature_set(q).vectors, v)


@pytest.mark.parametrize("text, message", [
    ("", "no data rows"),
    ("# a header only\n\n", "no data rows"),
    ("0, 1\n1\n", "malformed rows"),
    ("0 1 2\n1, 0\n", "malformed rows"),
])
def test_loaders_reject_empty_and_ragged_files(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    for load in (load_distance_matrix, load_feature_set):
        with pytest.raises(ValidationError, match=message):
            load(p)


def test_distance_matrix_rejects_non_square_and_asymmetric():
    with pytest.raises(ValidationError, match="square"):
        DistanceMatrix(np.zeros((3, 4)))
    rng = np.random.default_rng(0)
    d = euclidean_distances(FeatureSet(rng.normal(size=(60, 3)))).d
    noisy = d * rng.uniform(0.7, 1.3, size=d.shape)  # +-30%, not symmetric
    with pytest.raises(ValidationError, match="validate_distance_matrix"):
        DistanceMatrix(noisy)
    # the smallest asymmetry is refused as well
    d = d.copy()
    d[0, 1] = np.nextafter(d[0, 1], np.inf)
    with pytest.raises(ValidationError):
        DistanceMatrix(d)


@pytest.mark.parametrize("raw, message", [
    ([[0, -1], [-1, 0]], "negative entries"),
    ([[1, 2], [2, 1]], "diagonal is not zero"),
    ([[0, np.inf], [np.inf, 0]], "non-finite entries"),
    ([[0, np.nan], [np.nan, 0]], "non-finite entries"),
    ([[0, np.inf], [1, 0]], "non-finite entries"),
])
def test_distance_matrix_rejects_negative_non_finite_and_non_zero_diagonal(raw, message):
    with pytest.raises(ValidationError, match=message):
        DistanceMatrix(np.array(raw))
    with pytest.raises(ValidationError, match=message):
        validate_distance_matrix(raw)
    # -0.0 is zero
    assert DistanceMatrix(np.array([[-0.0, 1.0], [1.0, 0.0]])).n_points == 2


@pytest.mark.parametrize("raw, message", [
    ([[2, -1], [-1, 0]], "negative entries"),  # negative and diagonal: negative first
    ([[-1e-13, 1], [1, 0]], "negative entries"),  # a negative diagonal within rounding
    ([[1e-13, -1], [-1, 0]], "negative entries"),
    ([[1e-13, 1], [1, 2e-12]], "diagonal is not zero"),
])
def test_validation_reports_negative_entries_before_the_diagonal(raw, message):
    with pytest.raises(ValidationError, match=message):
        validate_distance_matrix(raw)


def test_a_diagonal_within_rounding_of_zero_becomes_zero():
    # ... where DistanceMatrix takes only an exact zero
    raw = [[1e-13, 1], [1, 0]]
    with pytest.raises(ValidationError, match="diagonal is not zero"):
        DistanceMatrix(np.array(raw))
    dm = validate_distance_matrix(raw)
    assert dm.d[0, 0] == 0.0 and dm.d[0, 1] == 1.0


@pytest.mark.parametrize("assignment, medoids, message", [
    ([[0, 1]], [0], "malformed"),
    ([0, 1], [[0]], "malformed"),
    ([0, 0], [], "malformed"),
    ([0, 2, 1], [0, 1], "assignment index out of range"),
    ([0, -1, 1], [0, 2], "assignment index out of range"),
    ([0, 1, 1], [0, 3], "medoid index out of range"),
    ([0, 1, 1], [-1, 1], "medoid index out of range"),
    ([0, 0, 0], [0, 1], "empty cluster"),
    ([0, 1, 1], [1, 2], "medoid not assigned to its own cluster"),
])
def test_clustering_rejects_malformed_arrays(assignment, medoids, message):
    with pytest.raises(ValidationError, match=message):
        Clustering(np.array(assignment), np.array(medoids))


def test_submatrix_is_the_block():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(30, 4))
    k = kernel_matrix(FeatureSet(raw / np.linalg.norm(raw, axis=1, keepdims=True)))
    dm = kernel_to_distance(k)
    assert dm.submatrix(np.arange(30)) is dm
    assert dm.submatrix(list(range(30))) is dm
    for idx in (np.array([3, 7, 8, 21]), np.array([21, 3, 8]), np.arange(29)):
        sub = dm.submatrix(idx)
        assert isinstance(sub, DistanceMatrix)
        assert np.array_equal(sub.d, dm.d[np.ix_(idx, idx)])


def test_a_submatrix_is_read_only_as_every_built_matrix():
    # a write would leave an asymmetric DistanceMatrix, and k-medoids relies on
    # its exact symmetry
    fs = FeatureSet(np.random.default_rng(5).normal(size=(6, 3)))
    sub = euclidean_distances(fs).submatrix([0, 1, 2])
    assert not sub.d.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sub.d[0, 1] = 99.0
    assert np.array_equal(sub.d, sub.d.T)


def test_run_groups_keeps_the_order_and_raises_the_first_groups_error():
    caller = threading.current_thread()

    def on_caller(group):
        return [threading.current_thread() is caller for _ in group]

    where = _run_groups(on_caller, range(3), 3)
    assert where == [True, False, False]  # group 0 on the calling thread
    assert _run_groups(on_caller, range(5), 1) == [True] * 5  # one group: no thread
    # contiguous groups of sizes differing by one at most, results in item order
    assert _run_groups(lambda group: [(i, len(group)) for i in group], range(7), 3) == [
        (0, 2), (1, 2), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3)]
    # group 2 raises first in time, group 1 after it: group 1's error is
    # raised, and only once every thread is joined
    before = threading.active_count()
    raised = threading.Event()

    def second():
        raised.wait(10)
        raise KeyError("group 1")

    def third():
        raised.set()
        raise IndexError("group 2")

    with pytest.raises(KeyError, match="group 1"):
        _run_groups(lambda group: [part() for part in group], [lambda: 0, second, third], 3)
    assert threading.active_count() == before


def traced_peak(call) -> int:
    """The most bytes held at once while call() runs, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euclidean_build_holds_one_matrix():
    # the scratch of the coordinate sums is one row block, not a second n x n
    # array (2.0 matrices before)
    n = 1500
    fs = FeatureSet(np.random.default_rng(0).normal(size=(n, 12)))
    assert traced_peak(lambda: euclidean_distances(fs)) <= 1.1 * n * n * 8


def test_kernel_build_holds_one_matrix():
    # the kernel is clamped and powered in place, then converted to its
    # distances in place and checked there: the one array that is returned
    # (2.13 matrices while the distances were a copy, 4.0 before that)
    n = 1500
    fs = FeatureSet(np.random.default_rng(0).normal(size=(n, 12)))
    dist = FeatureDistances(fs, KernelConfig(zeta=2.0, normalize=True))
    assert traced_peak(lambda: dist.submatrix(np.arange(n))) <= 1.1 * n * n * 8


# a matrix of three row blocks, and a fault in its last row: below the
# diagonal, read through the first block's columns, or next to it, read
# within the last block
N_BLOCKED = int(np.sqrt(2.5 * _BLOCK_ENTRIES))


def blocked_distances():
    fs = FeatureSet(np.random.default_rng(5).normal(size=(N_BLOCKED, 3)))
    return euclidean_distances(fs).d.copy()


@pytest.mark.parametrize("col", [0, N_BLOCKED - 2])
@pytest.mark.parametrize("fault, message", [
    ("nan", "contains non-finite entries"),
    ("asymmetry", "asymmetry 2e-09 exceeds 1e-09"),
    ("negative", "has negative entries"),
    ("diagonal", "diagonal is not zero"),
])
def test_validation_finds_a_fault_in_the_last_row_block(fault, message, col):
    d, last = blocked_distances(), N_BLOCKED - 1
    assert d.size > 2 * _BLOCK_ENTRIES
    if fault == "nan":
        d[last, col] = np.nan
    elif fault == "asymmetry":
        d[last, col] += 2e-9
    elif fault == "negative":
        d[last, col] = d[col, last] = -1.0
    else:
        d[last, last] = 1e-11
    with pytest.raises(ValidationError, match=message):
        validate_distance_matrix(d)


@pytest.mark.parametrize("col", [0, N_BLOCKED - 2])
@pytest.mark.parametrize("fault, message", [
    ("inf", "contains non-finite entries"),
    ("negative", "has negative entries"),
    ("diagonal", "diagonal is not zero"),
])
def test_distance_matrix_finds_a_fault_in_the_last_row_block(fault, message, col):
    d, last = blocked_distances(), N_BLOCKED - 1
    if fault == "inf":
        d[last, col] = d[col, last] = np.inf
    elif fault == "negative":
        d[last, col] = d[col, last] = -1.0
    else:
        d[last, last] = 5e-324
    with pytest.raises(ValidationError, match=message):
        DistanceMatrix(d)


def _put_fault(a, kind, row):
    """Put a fault of one kind into row and row - 1 (row 1 for row 0) of a
    distance matrix or kernel a, within one row block."""
    col = row - 1 if row else 1
    if kind == "nan":
        a[row, col] = np.nan
    elif kind == "asymmetry":
        a[row, col] += 2e-9
    elif kind == "negative":  # out of [0, 1] in a kernel
        a[row, col] = a[col, row] = -1.0
    else:
        a[row, row] += 1e-11


@pytest.mark.parametrize("first, last, messages", [
    # validate_distance_matrix, DistanceMatrix, kernel_to_distance
    ("asymmetry", "nan", ["non-finite entries"] * 3),
    ("negative", "nan", ["non-finite entries"] * 3),  # a kernel's NaN comes before its range
    ("negative", "asymmetry", ["asymmetry 2e-09 exceeds 1e-09", "not exactly symmetric",
                               "kernel matrix must be symmetric"]),
    ("diagonal", "asymmetry", ["asymmetry 2e-09 exceeds 1e-09", "not exactly symmetric",
                               "kernel matrix must be symmetric"]),
    # a kernel's diagonal is checked before its range
    ("diagonal", "negative", ["negative entries"] * 2 + ["kernel matrix must have unit diagonal"]),
])
def test_faults_are_reported_by_kind_not_by_row_block(first, last, messages):
    # the later kind sits in the first row block, the earlier in the last
    fs = FeatureSet(np.random.default_rng(6).uniform(0.1, 1.0, size=(N_BLOCKED, 3)))
    d, k = blocked_distances(), kernel_matrix(fs, KernelConfig(normalize=True))
    for a in (d, k):
        _put_fault(a, first, 0)
        _put_fault(a, last, N_BLOCKED - 1)
    for build, a, message in zip((validate_distance_matrix, DistanceMatrix, kernel_to_distance),
                                 (d, d, k), messages):
        with pytest.raises(ValidationError, match=message):
            build(a)


@pytest.mark.parametrize("col", [0, N_BLOCKED - 2])
def test_exact_symmetry_check_finds_one_ulp_in_the_last_row_block(col):
    d, last = blocked_distances(), N_BLOCKED - 1
    DistanceMatrix(d)
    d[last, col] = np.nextafter(d[last, col], np.inf)
    with pytest.raises(ValidationError, match="not exactly symmetric"):
        DistanceMatrix(d)


@pytest.mark.parametrize("col", [0, N_BLOCKED - 2])
def test_tiny_asymmetry_in_the_last_row_block_is_averaged(col):
    d, last = blocked_distances(), N_BLOCKED - 1
    d[last, col] += 1e-12
    raw = d.copy()
    dm = validate_distance_matrix(d)
    assert np.array_equal(d, raw)  # the input is copied, not repaired
    mean = 0.5 * (raw[last, col] + raw[col, last])
    assert dm.d[last, col] == dm.d[col, last] == mean
    assert np.array_equal(dm.d, 0.5 * (raw + raw.T))
