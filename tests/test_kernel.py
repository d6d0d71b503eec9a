import numpy as np
import pytest

from clmds import (Clustering, FeatureSet, HolesSpec, KernelConfig, ValidationError,
                   gen_holes_dataset, kernel_matrix, kernel_to_distance,
                   medoid_weighted_distance)
from clmds.core import _BLOCK_ENTRIES


def unit_rows(a):
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_identical_vectors_similarity_one():
    fs = FeatureSet(unit_rows([[1, 1], [1, 1]]))
    k = kernel_matrix(fs)
    assert np.allclose(k, 1.0)


def test_orthogonal_vectors_similarity_zero():
    fs = FeatureSet([[1.0, 0.0], [0.0, 1.0]])
    k = kernel_matrix(fs)
    assert k[0, 1] == 0.0
    assert k[0, 0] == k[1, 1] == 1.0


def test_zeta_powers_known_angle():
    # 60 degrees: dot = 0.5, so K = 0.5^zeta
    fs = FeatureSet([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    for zeta in (1.0, 2.0, 4.0, 0.5):
        k = kernel_matrix(fs, KernelConfig(zeta=zeta))
        assert k[0, 1] == pytest.approx(0.5 ** zeta, rel=1e-12)


def test_negative_dot_clamped():
    fs = FeatureSet([[1.0, 0.0], [-1.0, 0.0]])
    k = kernel_matrix(fs, KernelConfig(zeta=0.5))
    assert k[0, 1] == 0.0


def test_non_unit_requires_normalize_flag():
    fs = FeatureSet([[2.0, 0.0], [0.0, 3.0]])
    with pytest.raises(ValidationError):
        kernel_matrix(fs)
    k = kernel_matrix(fs, KernelConfig(normalize=True))
    assert k[0, 1] == 0.0


def test_distance_endpoints_and_formula():
    k = np.array([[1.0, 0.36], [0.36, 1.0]])
    d = kernel_to_distance(k)
    assert d.d[0, 1] == pytest.approx(0.8)
    assert kernel_to_distance(np.eye(2) * 0 + 1.0).d[0, 1] == 0.0
    assert kernel_to_distance(np.eye(2)).d[0, 1] == 1.0


def _with_nan(k02=0.0, k20=0.0):
    """A 3x3 identity kernel but for K01 = K10 = NaN, K02 and K20."""
    k = np.eye(3)
    k[0, 1] = k[1, 0] = np.nan
    k[0, 2], k[2, 0] = k02, k20
    return k


@pytest.mark.parametrize("k, message", [
    ([[1.0, 2.0], [2.0, 1.0]], r"entries must lie in \[0, 1\]"),
    ([[0.9, 0.1], [0.1, 0.9]], "must have unit diagonal"),
    ([[1.0, 0.2], [0.5, 1.0]], "must be symmetric"),
    (np.zeros((0, 0)), "has no points"),
    (np.ones((2, 3)), "must be square"),
    # a NaN passed every check and hid the kernel's own fault: refused as a
    # non-finite distance, whatever else was wrong
    (_with_nan(), "kernel matrix contains non-finite entries"),
    (_with_nan(7.0, 7.0), "kernel matrix contains non-finite entries"),
    (_with_nan(0.5, 0.5 + 1e-6), "kernel matrix contains non-finite entries"),
], ids=["above-one", "diagonal", "asymmetric", "empty", "not-square", "nan", "nan-above-one",
        "nan-asymmetric"])
def test_distance_rejects_bad_kernels(k, message):
    # the kernel is checked before the clustering is read
    one = Clustering(np.array([0]), np.array([0]))
    for convert in (kernel_to_distance, lambda k: medoid_weighted_distance(k, one)):
        with pytest.raises(ValidationError, match=message):
            convert(np.array(k, dtype=float))


def test_medoid_weighting_needs_a_clustering_of_the_kernels_points():
    with pytest.raises(ValidationError, match="clustering size does not match kernel matrix"):
        medoid_weighted_distance(np.eye(3), Clustering(np.array([0, 0]), np.array([0])))


def test_medoid_weighting_same_cluster_unchanged():
    rng = np.random.default_rng(0)
    fs = FeatureSet(unit_rows(rng.normal(size=(6, 4)) + 3.0))
    k = kernel_matrix(fs)
    c = Clustering(np.zeros(6, dtype=int), np.array([0]))
    dw = medoid_weighted_distance(k, c)
    assert np.allclose(dw.d, kernel_to_distance(k).d)


@pytest.mark.parametrize("eta", [1, 2, 3])
def test_medoid_weighting_same_cluster_exact_when_diagonal_is_off_by_rounding(eta):
    # a diagonal within 1e-12 of 1 passes the kernel check; a same-cluster
    # pair must still read weight 1, not K(m, m)^eta
    rng = np.random.default_rng(1)
    k = kernel_matrix(FeatureSet(unit_rows(rng.normal(size=(9, 4)) + 2.0)))
    np.fill_diagonal(k, 1.0 - 1e-13)
    c = Clustering(np.arange(9) % 3, np.array([0, 1, 2]))
    dw = medoid_weighted_distance(k, c, KernelConfig(eta=eta)).d
    plain = kernel_to_distance(k).d
    same = c.assignment[:, None] == c.assignment[None, :]
    assert np.array_equal(dw[same], plain[same])


def test_medoid_weighting_inflates_cross_cluster():
    k = np.array([
        [1.0, 0.9, 0.5, 0.4],
        [0.9, 1.0, 0.4, 0.3],
        [0.5, 0.4, 1.0, 0.8],
        [0.4, 0.3, 0.8, 1.0],
    ])
    c = Clustering(np.array([0, 0, 1, 1]), np.array([0, 2]))
    dw = medoid_weighted_distance(k, c, KernelConfig(eta=2))
    km = k[0, 2] ** 2  # medoid-pair similarity raised to eta
    # hand check every pair
    assert dw.d[0, 1] == pytest.approx(np.sqrt(1 - 0.9))
    assert dw.d[2, 3] == pytest.approx(np.sqrt(1 - 0.8))
    assert dw.d[0, 3] == pytest.approx(np.sqrt(1 - 0.4 * km))
    assert dw.d[1, 2] == pytest.approx(np.sqrt(1 - 0.4 * km))
    # weighting never shrinks a cross-cluster distance
    plain = kernel_to_distance(k)
    assert np.all(dw.d >= plain.d - 1e-12)


def test_eta_one_with_unit_medoid_similarity_reduces_to_plain():
    k = np.array([[1.0, 0.2], [0.2, 1.0]])
    # single cluster: the only medoid pair is (m, m) with similarity 1
    c = Clustering(np.array([0, 0]), np.array([0]))
    dw = medoid_weighted_distance(k, c)
    assert np.allclose(dw.d, kernel_to_distance(k).d)


def test_config_validation():
    for zeta in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="zeta"):
            KernelConfig(zeta=zeta)
    with pytest.raises(ValidationError):
        KernelConfig(eta=0)
    with pytest.raises(ValidationError):
        KernelConfig(eta=1.5)


@pytest.mark.parametrize("n, holes, n_block", [(110, 4, 40), (300, 12, 60)])
def test_kernel_of_a_block_is_the_block_of_the_kernel(n, holes, n_block):
    # each dot product is summed in an order that depends on neither the
    # number of rows nor the pair's position, so taking a block first and
    # the kernel second changes no bit, and the kernel is exactly symmetric
    fs, _, _ = gen_holes_dataset(HolesSpec(n_points=n, n_holes=holes, seed=3))
    cfg = KernelConfig(zeta=2.0, normalize=True)
    full = kernel_matrix(fs, cfg)
    assert np.array_equal(full, full.T)
    rng = np.random.default_rng(0)
    for idx in (np.arange(n_block), np.sort(rng.choice(n, n_block, replace=False))):
        block = kernel_matrix(FeatureSet(fs.vectors[idx]), cfg)
        assert np.array_equal(block, full[np.ix_(idx, idx)])
        assert np.array_equal(block, block.T)


def test_kernel_to_distance_leaves_the_kernel_unchanged():
    fs, _, _ = gen_holes_dataset(HolesSpec(n_points=200, n_holes=4, seed=1))
    k = kernel_matrix(fs, KernelConfig(zeta=2.0, normalize=True))
    before = k.copy()
    d = kernel_to_distance(k)
    assert np.array_equal(k, before) and k.flags.writeable
    assert np.array_equal(d.d, np.sqrt(np.clip(1.0 - before, 0.0, None)))


@pytest.mark.parametrize("asymmetry", [0.0, 5e-10])
def test_in_place_conversion_gives_the_copying_calls_bits(asymmetry):
    # with a sub-tolerance asymmetry the conversion also averages k in place
    fs, _, _ = gen_holes_dataset(HolesSpec(n_points=300, n_holes=4, seed=2))
    k = kernel_matrix(fs, KernelConfig(zeta=2.0, normalize=True))
    k[7, 3] -= asymmetry
    want = kernel_to_distance(k).d
    got = kernel_to_distance(k, out=k)
    assert got.d is k and not k.flags.writeable
    assert got.d.tobytes() == want.tobytes()


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [lambda k: k.astype(np.float32), np.asfortranarray, read_only,
                                  lambda k: k.tolist()],
                         ids=["float32", "fortran", "read-only", "list"])
def test_in_place_conversion_refuses_an_array_it_cannot_overwrite(make):
    fs = FeatureSet(unit_rows(np.random.default_rng(3).normal(size=(6, 4)) + 2.0))
    bad = make(kernel_matrix(fs))
    before = np.array(bad)
    with pytest.raises(ValidationError, match="writeable, C-contiguous float64"):
        kernel_to_distance(bad, out=bad)
    assert np.array_equal(np.asarray(bad), before)


def test_in_place_conversion_writes_nothing_into_a_refused_kernel():
    fs = FeatureSet(unit_rows(np.random.default_rng(3).normal(size=(6, 4)) + 2.0))
    k = kernel_matrix(fs)
    with pytest.raises(ValidationError, match="out must be the kernel array itself"):
        kernel_to_distance(k, out=k.copy())
    k[5, 0] = k[0, 5] = 1.0 + 1e-11
    before = k.copy()
    with pytest.raises(ValidationError, match=r"kernel entries must lie in \[0, 1\]"):
        kernel_to_distance(k, out=k)
    assert np.array_equal(k, before) and k.flags.writeable


# a kernel of three row blocks, with its fault in the last row
N_BLOCKED = int(np.sqrt(2.5 * _BLOCK_ENTRIES))


@pytest.mark.parametrize("col", [0, N_BLOCKED - 2])
@pytest.mark.parametrize("fault, message", [
    ("asymmetry", "kernel matrix must be symmetric"),
    ("diagonal", "kernel matrix must have unit diagonal"),
    ("above one", r"kernel entries must lie in \[0, 1\]"),
    ("nan", "kernel matrix contains non-finite entries"),
])
def test_kernel_checks_find_a_fault_in_the_last_row_block(fault, message, col):
    fs = FeatureSet(np.random.default_rng(4).normal(size=(N_BLOCKED, 5)))
    k = kernel_matrix(fs, KernelConfig(normalize=True))
    assert k.size > 2 * _BLOCK_ENTRIES
    kernel_to_distance(k)
    last = N_BLOCKED - 1
    if fault == "asymmetry":
        k[last, col] += 2e-9
    elif fault == "diagonal":
        k[last, last] = 1.0 + 1e-11
    elif fault == "above one":
        k[last, col] = k[col, last] = 1.0 + 1e-11
    else:
        k[last, col] = k[col, last] = np.nan
    with pytest.raises(ValidationError, match=message):
        kernel_to_distance(k)


def test_a_sub_tolerance_kernel_asymmetry_is_averaged_before_the_root():
    # 5e-10 apart, below the kernel check's 1e-9; the root would make it
    # 2.1e-5 between d01 and d10
    near = 1.0 - 1e-12
    k = np.array([[1.0, near, 0.5], [near - 5e-10, 1.0, 0.5], [0.5, 0.5, 1.0]])
    raw = k.copy()
    want = np.sqrt(1.0 - 0.5 * (k[0, 1] + k[1, 0]))
    d = kernel_to_distance(k)
    assert np.array_equal(k, raw)  # k is read only
    assert d.d[0, 1] == d.d[1, 0] == want
    assert d.d[0, 2] == d.d[2, 0] == np.sqrt(0.5)
    w = medoid_weighted_distance(k, Clustering(np.array([0, 0, 1]), np.array([0, 2])))
    assert np.array_equal(k, raw)
    assert w.d[0, 1] == w.d[1, 0] == want  # same cluster: the plain distance

