import numpy as np
import pytest
from scipy.spatial.distance import cdist

from clmds import (ClmdsConfig, FeatureSet, HierarchySpec, KmedoidsConfig,
                   MdsConfig, ValidationError, clmds_embed,
                   euclidean_distances, hierarchy_merge, kernel_matrix,
                   kernel_to_distance, kmedoids_best, sparsify_select,
                   voronoi_containment)


def blobs(centers, per=12, spread=0.15, seed=0, dims=3):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(0, spread, (per, dims)) + c for c in centers])
    return FeatureSet(pts)


def three_blob_problem(seed=0):
    centers = [np.r_[0, 0, 0], np.r_[8, 0, 0], np.r_[0, 8, 0]]
    fs = blobs(centers, seed=seed)
    return fs, euclidean_distances(fs)


def test_sparsify_none_returns_everything():
    _, D = three_blob_problem()
    sel = sparsify_select(D, "none", None)
    assert np.array_equal(sel.sparse, np.arange(36))
    assert sel.complement.size == 0


def test_sparsify_random_and_determinism():
    _, D = three_blob_problem()
    a = sparsify_select(D, "random", 10, seed=5)
    b = sparsify_select(D, "random", 10, seed=5)
    assert np.array_equal(a.sparse, b.sparse)
    assert a.sparse.size == 10
    assert np.array_equal(np.sort(np.r_[a.sparse, a.complement]), np.arange(36))


def test_sparsify_cur_picks_largest_row_norms():
    _, D = three_blob_problem()
    sel = sparsify_select(D, "cur", 12)
    norms = np.linalg.norm(D.d, axis=1)
    expected = np.sort(np.lexsort((np.arange(36), -norms))[:12])
    assert np.array_equal(sel.sparse, expected)


def test_sparsify_explicit_list_and_errors():
    _, D = three_blob_problem()
    sel = sparsify_select(D, [5, 3, 8], None)
    assert np.array_equal(sel.sparse, [3, 5, 8])
    with pytest.raises(ValidationError):
        sparsify_select(D, [1, 1, 2], None)
    with pytest.raises(ValidationError):
        sparsify_select(D, [0, 99], None)
    with pytest.raises(ValidationError):
        sparsify_select(D, "random", 0)
    with pytest.raises(ValidationError):
        sparsify_select(D, "random", 2, n_min=3)


def test_hierarchy_merge_pairs_of_blobs():
    centers = [np.r_[0, 0], np.r_[1.5, 0], np.r_[20, 0], np.r_[21.5, 0]]
    fs = blobs(centers, per=6, spread=0.1, dims=2, seed=1)
    D = euclidean_distances(fs)
    c4 = kmedoids_best(D, KmedoidsConfig(k=4, iter_med=30, seed=0))
    c2 = hierarchy_merge(c4, D, 2)
    assert c2.n_clusters == 2
    # the two left blobs merge together, the two right blobs together
    left = set(c2.assignment[:12].tolist())
    right = set(c2.assignment[12:].tolist())
    assert len(left) == 1 and len(right) == 1 and left != right
    # merged medoid is an original medoid
    assert set(c2.medoids.tolist()) <= set(c4.medoids.tolist())
    with pytest.raises(ValidationError):
        hierarchy_merge(c4, D, 4)


def base_config(levels=(3, 1), **kw):
    return ClmdsConfig(hierarchy=HierarchySpec(levels),
                       kmedoids=KmedoidsConfig(k=levels[0], iter_med=20, seed=0),
                       mds=MdsConfig(n_init=2, max_iter=200, seed=0), **kw)


def test_three_blobs_full_pipeline():
    fs, D = three_blob_problem()
    res = clmds_embed(D, base_config())
    assert res.coords.shape == (36, 2)
    assert np.all(np.isfinite(res.coords))
    # clusters coincide with the blobs
    for b in range(3):
        assert len(set(res.clustering.assignment[12 * b:12 * (b + 1)].tolist())) == 1
    assert voronoi_containment(res) == 1.0
    assert res.incoherence > 0
    assert len(res.per_level) == 2
    assert res.per_level[0].clustering.n_clusters == 3
    assert res.per_level[1].clustering.n_clusters == 1
    assert len(res.per_level[1].stitches) == 3
    for a in res.per_level[0].anchors:
        assert a.shape[0] == 4


def test_stitching_consistent_with_composed_transforms():
    from clmds.transforms import Transform2D, apply_transform
    fs, D = three_blob_problem(seed=3)
    res = clmds_embed(D, base_config())
    c = res.clustering
    for k in range(3):
        members = c.members(k)
        m = res.cluster_transforms[k]
        kind = "affine" if np.max(np.abs(m[2] - (0, 0, 1))) <= 1e-12 else "homography"
        mapped = apply_transform(Transform2D(kind, m), res.local_coords[k])
        assert np.allclose(mapped, res.coords[members], atol=1e-8)


def test_multi_level_hierarchy_counts():
    centers = [np.r_[i * 6.0, (i % 2) * 6.0, 0] for i in range(6)]
    fs = blobs(centers, per=8, seed=4)
    D = euclidean_distances(fs)
    res = clmds_embed(D, base_config(levels=(6, 3, 1)))
    assert [la.clustering.n_clusters for la in res.per_level] == [6, 3, 1]
    assert res.per_level[1].anchors is not None
    assert res.per_level[2].anchors is None
    assert np.all(np.isfinite(res.coords))


def test_determinism_of_embedding():
    fs, D = three_blob_problem(seed=5)
    cfg = base_config(seed=9)
    a = clmds_embed(D, cfg)
    b = clmds_embed(D, cfg)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.clustering.assignment, b.clustering.assignment)


def test_tiny_clusters_stitch_by_translation_or_similarity():
    # 3 far singleton/pair groups force the 1- and 2-anchor stitch paths
    pts = np.array([[0.0, 0.0], [0.1, 0.0],
                    [50.0, 0.0],
                    [0.0, 50.0], [0.1, 50.0], [0.0, 50.1]])
    D = euclidean_distances(FeatureSet(pts))
    res = clmds_embed(D, base_config())
    assert np.all(np.isfinite(res.coords))
    sizes = sorted(np.bincount(res.clustering.assignment).tolist())
    assert sizes == [1, 2, 3]


@pytest.mark.parametrize("levels", [(4, 1), (6, 2, 1), (6, 3, 1)])
def test_duplicated_points_embed_finite(levels):
    # 3 distinct points x 20 copies: clusters of duplicates, so the anchor
    # MDS sees zero dissimilarities between distinct anchors, and a group
    # holding only copies of 2 locations has no tetrahedron of positive volume
    pts = np.repeat([[0.0, 0.0, 0.0], [3.0, 0.0, 1.0], [0.0, 2.0, 0.5]], 20, axis=0)
    D = euclidean_distances(FeatureSet(pts))
    res = clmds_embed(D, ClmdsConfig(hierarchy=HierarchySpec(levels), seed=0))
    assert res.coords.shape == (60, 2)
    assert np.all(np.isfinite(res.coords))
    assert all(np.isfinite(lv.anchor_stress) for lv in res.per_level[1:])
    # the three locations span a plane, so the embedding keeps their distances
    first = res.coords[::20]
    assert np.allclose(cdist(first, first), D.d[::20, ::20], rtol=1e-6, atol=0)


def test_kernel_weighted_anchor_distances_path():
    rng = np.random.default_rng(7)
    raw = np.vstack([rng.normal(c, 0.05, (10, 5)) for c in
                     [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)]])
    fs = FeatureSet(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    k = kernel_matrix(fs)
    D = kernel_to_distance(k)
    res = clmds_embed(D, base_config(kernel_similarity=k, kernel_eta=2))
    assert np.all(np.isfinite(res.coords))
    assert voronoi_containment(res) == 1.0


def test_sparse_with_features_estimates_everyone():
    fs, D = three_blob_problem(seed=8)
    cfg = base_config(sparsify="random", n_sparse=18, seed=2)
    res = clmds_embed(D, cfg, features=fs)
    assert res.coords.shape == (36, 2)
    assert np.all(np.isfinite(res.coords))
    assert res.estimation_available
    assert res.estimated_mask.sum() == 18
    assert np.array_equal(np.flatnonzero(~res.estimated_mask), res.sparse_indices)
    # estimated points keep the blob structure: assignment constant per blob
    for b in range(3):
        assert len(set(res.clustering.assignment[12 * b:12 * (b + 1)].tolist())) == 1
    assert voronoi_containment(res) == 1.0


def test_sparse_estimation_deterministic():
    fs, D = three_blob_problem(seed=9)
    cfg = base_config(sparsify="cur", n_sparse=20, seed=4)
    a = clmds_embed(D, cfg, features=fs)
    b = clmds_embed(D, cfg, features=fs)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.estimated_mask, b.estimated_mask)


def test_sparse_without_features_covers_subset_only():
    _, D = three_blob_problem(seed=10)
    cfg = base_config(sparsify="random", n_sparse=15, seed=1)
    res = clmds_embed(D, cfg)
    assert res.coords.shape == (15, 2)
    assert not res.estimation_available
    assert res.sparse_indices.shape == (15,)
    assert not np.any(res.estimated_mask)


def test_small_sparse_cluster_uses_fallback_placement():
    fs, D = three_blob_problem(seed=11)
    # explicit sparse list: blob 0 keeps 8 points, blobs 1 and 2 only 2 each
    sparse = list(range(8)) + [12, 13] + [24, 25]
    cfg = base_config(sparsify=sparse, seed=0)
    res = clmds_embed(D, cfg, features=fs)
    assert np.all(np.isfinite(res.coords))
    assert len(res.fallback_clusters) >= 1


def test_full_cluster_anchor_pool_runs():
    centers = [np.r_[i * 7.0, 0, 0] for i in range(4)]
    fs = blobs(centers, per=10, seed=12)
    D = euclidean_distances(fs)
    res = clmds_embed(D, base_config(levels=(4, 2, 1), anchor_pool="full_cluster"))
    assert np.all(np.isfinite(res.coords))
    with pytest.raises(ValidationError):
        base_config(anchor_pool="bogus")


def test_k_exceeding_n_errors():
    D = euclidean_distances(FeatureSet(np.random.default_rng(0).normal(size=(4, 2))))
    with pytest.raises(ValidationError):
        clmds_embed(D, base_config(levels=(8, 1)))


def test_timings_recorded():
    _, D = three_blob_problem(seed=13)
    res = clmds_embed(D, base_config())
    for key in ("kmedoids", "local_mds", "stitching", "total"):
        assert res.timings[key] >= 0.0
