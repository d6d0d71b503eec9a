from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from clmds import (ClmdsConfig, ClmdsResult, Clustering, DistanceMatrix, FeatureSet,
                   HierarchySpec, HolesSpec, KernelConfig, KmedoidsConfig, MdsConfig,
                   SparseSelection, ValidationError, clmds_embed, estimate_out_of_sample,
                   euclidean_distances, gen_holes_dataset, hierarchy_merge, kernel_matrix,
                   kernel_to_distance, kmedoids_best, medoid_weighted_distance,
                   select_anchors, sparsify_select, voronoi_containment)
from clmds import pipeline
from clmds.cli import FeatureDistances


def blobs(centers, per=12, spread=0.15, seed=0, dims=3):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(0, spread, (per, dims)) + c for c in centers])
    return FeatureSet(pts)


def three_blob_problem(seed=0):
    centers = [np.r_[0, 0, 0], np.r_[8, 0, 0], np.r_[0, 8, 0]]
    fs = blobs(centers, seed=seed)
    return fs, euclidean_distances(fs)


def six_blob_problem():
    centers = [np.r_[i * 6.0, (i % 2) * 6.0, 0] for i in range(6)]
    fs = blobs(centers, per=8, seed=4)
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
    # a distance matrix over fewer or more points than the clustering's 24
    for per in (3, 7):
        with pytest.raises(ValidationError):
            hierarchy_merge(c4, euclidean_distances(blobs(centers, per=per, dims=2)), 2)


def test_hierarchy_merge_caps_n_iso_at_the_target():
    # n_iso=5 is valid at the finest level (k=6); the merge to 3 picks 3
    _, D = six_blob_problem()
    km = KmedoidsConfig(k=6, n_iso=5, iter_med=20, seed=0)
    c6 = kmedoids_best(D, km)
    c3 = hierarchy_merge(c6, D, 3, km, seed=4)
    assert c3.n_clusters == 3
    capped = hierarchy_merge(c6, D, 3, replace(km, n_iso=3), seed=4)
    assert np.array_equal(c3.assignment, capped.assignment)
    assert np.array_equal(c3.medoids, capped.medoids)
    res = clmds_embed(D, ClmdsConfig(hierarchy=HierarchySpec((6, 3, 1)), kmedoids=km))
    assert [lv.clustering.n_clusters for lv in res.per_level] == [6, 3, 1]


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
    # one stitch per cluster, then two stitches composed per finest cluster
    # under either anchor pool
    runs = [(three_blob_problem(seed=3)[1], base_config())]
    D6 = six_blob_problem()[1]
    runs += [(D6, base_config(levels=(6, 3, 1), anchor_pool=pool))
             for pool in ("member_anchors", "full_cluster")]
    for D, cfg in runs:
        res = clmds_embed(D, cfg)
        c = res.clustering
        assert len(res.per_level) == len(cfg.hierarchy.levels)
        for k in range(c.n_clusters):
            members = c.members(k)
            m = res.cluster_transforms[k]
            kind = "affine" if np.max(np.abs(m[2] - (0, 0, 1))) <= 1e-12 else "homography"
            mapped = apply_transform(Transform2D(kind, m), res.local_coords[k])
            assert np.allclose(mapped, res.coords[members], atol=1e-8)


def test_multi_level_hierarchy_counts():
    _, D = six_blob_problem()
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
    res = clmds_embed(D, base_config(kernel_eta=2))
    assert np.all(np.isfinite(res.coords))
    assert voronoi_containment(res) == 1.0


def test_kernel_weighting_rejects_distances_that_are_not_kernel_induced():
    # the kernel is read back as 1 - d^2, which leaves [0, 1] for d > 1
    _, D = three_blob_problem()
    assert D.d.max() > 1.0
    with pytest.raises(ValidationError, match="kernel entries"):
        clmds_embed(D, base_config(kernel_eta=1))


def holes_kernel_problem(n=200, seed=1):
    fs, _, _ = gen_holes_dataset(HolesSpec(n_points=n, n_holes=6, seed=seed))
    return fs, kernel_to_distance(kernel_matrix(fs, KernelConfig(normalize=True)))


@pytest.mark.parametrize("levels", [(6, 1), (6, 3, 1)])
@pytest.mark.parametrize("pool", ["member_anchors", "full_cluster"])
def test_anchor_mds_reads_its_block_of_the_medoid_weighted_matrix(monkeypatch, levels, pool):
    # Each anchor MDS gets the union's block of the medoid-weighted matrix
    # over every point, bit for bit, but each weighting call sees only that
    # union and the finest medoids.
    _, D = holes_kernel_problem()
    eta = 2
    blocks, weighted = [], []
    real_mds, real_weighting = pipeline.mds_embed, pipeline.medoid_weighted_distance

    def embed(sub, w=None, cfg=None):
        if w is not None:
            blocks.append(sub.d)
        return real_mds(sub, w, cfg)

    def weighting(k, c, cfg=None):
        weighted.append(c.n_points)
        return real_weighting(k, c, cfg)

    monkeypatch.setattr(pipeline, "mds_embed", embed)
    monkeypatch.setattr(pipeline, "medoid_weighted_distance", weighting)
    res = clmds_embed(D, base_config(levels=levels, anchor_pool=pool, kernel_eta=eta))

    full = medoid_weighted_distance(1.0 - D.d ** 2, res.clustering, KernelConfig(eta=eta)).d
    # a group's union is its members' anchors in stitch order
    unions = [np.concatenate([s.anchor_indices for s in lv.stitches if s.group == g])
              for lv in res.per_level[1:] for g in range(lv.clustering.n_clusters)]
    assert len(blocks) == len(weighted) == len(unions) == sum(levels[1:])
    for block, size, union in zip(blocks, weighted, unions):
        assert block.tobytes() == full[np.ix_(union, union)].tobytes()
        assert size <= union.size + levels[0] < D.n_points


def test_kernel_weighting_checks_every_distance_before_k_medoids(monkeypatch):
    # one pair of points above d = 1, which no kernel in [0, 1] induces
    _, D = holes_kernel_problem()
    d = D.d.copy()
    d[3, 150] = d[150, 3] = 1.0 + 1e-6
    bad = DistanceMatrix(d)
    res = clmds_embed(bad, base_config(levels=(6, 3, 1)))
    assert np.all(np.isfinite(res.coords))

    def no_kmedoids(*args):
        raise AssertionError("k-medoids ran before the check")

    monkeypatch.setattr(pipeline, "kmedoids_best", no_kmedoids)
    with pytest.raises(ValidationError, match="kernel entries"):
        clmds_embed(bad, base_config(levels=(6, 3, 1), kernel_eta=1))


@st.composite
def degenerate_problems(draw):
    """A symmetric matrix of 4-30 points, with a 2- or 3-level hierarchy."""
    n = draw(st.integers(4, 30))
    kind = draw(st.sampled_from(["non_euclidean", "duplicated", "collinear", "two_valued"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "duplicated":  # copies of 1-4 locations
        locations = rng.normal(size=(draw(st.integers(1, 4)), 3))
        D = euclidean_distances(FeatureSet(locations[rng.integers(0, len(locations), n)]))
    elif kind == "collinear":
        D = euclidean_distances(FeatureSet(np.outer(rng.normal(size=n), [1.0, 2.0, -0.5])))
    else:  # non-Euclidean: random dissimilarities, or two values only
        d = (rng.uniform(0.1, 5.0, (n, n)) if kind == "non_euclidean"
             else rng.choice([1.0, 2.0], (n, n)))
        d = np.triu(d, 1)
        D = DistanceMatrix(d + d.T)
    k0 = draw(st.integers(2, min(n, 8)))
    middle = draw(st.lists(st.integers(2, k0 - 1), max_size=1)) if k0 > 2 else []
    return D, (k0, *middle, 1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(degenerate_problems(), st.sampled_from(["member_anchors", "full_cluster"]))
def test_degenerate_inputs_embed_finite_or_raise_validation_error(problem, pool):
    D, levels = problem
    cfg = ClmdsConfig(hierarchy=HierarchySpec(levels), anchor_pool=pool, seed=3,
                      kmedoids=KmedoidsConfig(k=levels[0], iter_med=5),
                      mds=MdsConfig(n_init=2, max_iter=100))
    try:
        res = clmds_embed(D, cfg)
    except ValidationError:
        return
    assert res.coords.shape == (D.n_points, 2)
    assert np.all(np.isfinite(res.coords))
    assert np.array_equal(clmds_embed(D, cfg).coords, res.coords)
    # nesting: each point joins the coarser cluster of its finer cluster's medoid
    for fine, coarse in zip(res.per_level, res.per_level[1:]):
        b = coarse.clustering.assignment
        assert np.array_equal(b, b[fine.clustering.medoids][fine.clustering.assignment])


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


def test_estimate_sent_to_infinity_lands_on_the_transformed_mean():
    # criterion 8's twins, but cluster 1 is stitched by a homography whose
    # w vanishes at the local coordinates of its first point
    rng = np.random.default_rng(80)
    n_dim = 4
    desc = np.vstack([rng.normal(0, 1, (10, n_dim)), rng.normal(8, 1, (10, n_dim))])
    maps = [(rng.normal(size=(2, n_dim)), rng.normal(size=2)) for _ in range(2)]
    local = [desc[:10] @ maps[0][0].T + maps[0][1],
             desc[10:] @ maps[1][0].T + maps[1][1]]
    fs = FeatureSet(np.vstack([desc, desc]))
    sel = SparseSelection(np.arange(20), np.arange(20, 40))
    p, q = 0.3, -0.2
    t1 = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0],
                   [p, q, -(p * local[1][0, 0] + q * local[1][0, 1])]])
    t = [np.array([[2.0, 0.5, 1.0], [-0.3, 1.5, -2.0], [0.0, 0.0, 1.0]]), t1]
    h = [tk @ np.column_stack([lk, np.ones(10)]).T for tk, lk in zip(t, local)]
    assert np.abs(h[1][2, 0]) < 1e-12 and np.all(np.abs(h[1][2, 1:]) > 1e-3)
    h[1][2, 0] = 1.0  # the sparse point itself is never read back
    coords = np.vstack([(hk[:2] / hk[2]).T for hk in h])
    sparse = ClmdsResult(coords=coords, clustering=Clustering(np.repeat([0, 1], 10),
                                                              np.array([0, 10])),
                         per_level=[], sparse_indices=np.arange(20),
                         estimated_mask=np.zeros(20, dtype=bool),
                         local_coords=local, cluster_transforms=t)
    full = estimate_out_of_sample(fs, sparse, sel)
    mean = t1 @ np.append(local[1].mean(axis=0), 1.0)
    assert np.array_equal(full.coords[30], mean[:2] / mean[2])
    twins = np.r_[20:30, 31:40]
    assert np.max(np.abs(full.coords[twins] - coords[twins - 20])) < 1e-9
    assert 1 in full.fallback_clusters


def test_full_cluster_anchor_pool_runs():
    centers = [np.r_[i * 7.0, 0, 0] for i in range(4)]
    fs = blobs(centers, per=10, seed=12)
    D = euclidean_distances(fs)
    for pool in ("full_cluster", "member_anchors"):
        res = clmds_embed(D, base_config(levels=(4, 2, 1), anchor_pool=pool))
        assert np.all(np.isfinite(res.coords))
        prev, level = res.per_level[0], res.per_level[1]
        if pool == "full_cluster":
            # picked from the whole merged cluster, as at the finest level
            expected = select_anchors(D, level.clustering)
            assert len(level.anchors) == len(expected)
            for got, want in zip(level.anchors, expected):
                assert np.array_equal(got, want)
        else:
            # drawn from the anchors of the clusters merged into it
            grouping = level.clustering.assignment[prev.clustering.medoids]
            for g, got in enumerate(level.anchors):
                pool_g = np.concatenate([prev.anchors[i] for i in np.flatnonzero(grouping == g)])
                assert got.size == 4 and set(got.tolist()) <= set(pool_g.tolist())
    with pytest.raises(ValidationError):
        base_config(anchor_pool="bogus")


def test_k_exceeding_n_errors():
    D = euclidean_distances(FeatureSet(np.random.default_rng(0).normal(size=(4, 2))))
    with pytest.raises(ValidationError):
        clmds_embed(D, base_config(levels=(8, 1)))


def test_timings_recorded():
    fs, D = three_blob_problem(seed=13)
    # every hierarchy merges at least once; (3, 2, 1) merges by k-medoids
    stages = ("sparsify", "distances", "kmedoids", "local_mds", "anchors",
              "anchor_mds", "merge", "stitching")
    sparse_stages = stages + ("estimate",)
    # a full matrix, and the CLI's feature input, whose distances are built
    # inside clmds_embed
    for dist in (D, FeatureDistances(fs)):
        for cfg, keys in ((base_config(), stages),
                          (base_config(levels=(3, 2, 1)), stages),
                          (base_config(sparsify="random", n_sparse=18, seed=2), sparse_stages)):
            res = clmds_embed(dist, cfg, features=fs)
            assert set(res.timings) == set(keys) | {"total"}
            assert all(res.timings[key] >= 0.0 for key in keys)
            # the stages are disjoint, so they cannot add up to more than the total
            assert sum(res.timings[key] for key in keys) <= res.timings["total"]


@pytest.mark.parametrize("levels", [(6, 1), (6, 3, 1)])
def test_calls_take_sub_seeds_in_spawn_order(monkeypatch, levels):
    # k-medoids, each local MDS, then per level the merge and each group's
    # anchor MDS take the spawned children of SeedSequence(seed) in order,
    # the merge to 1 included although it draws nothing. A local MDS runs
    # one start; an anchor MDS runs the configured n_init.
    _, D = six_blob_problem()
    cfg = base_config(levels=levels, seed=31)
    calls, in_merge = [], []
    real_km, real_mds, real_merge = (pipeline.kmedoids_best, pipeline.mds_embed,
                                     pipeline.hierarchy_merge)

    def km(D, km_cfg):
        if not in_merge:  # a merge's own k-medoids call reuses the merge's seed
            calls.append(("kmedoids", km_cfg.seed))
        return real_km(D, km_cfg)

    def embed(D, w=None, cfg=None):
        calls.append(("local" if w is None else "anchor", cfg.seed, cfg.n_init))
        return real_mds(D, w, cfg)

    def merge(previous, D, target, km_cfg=None, seed=0):
        calls.append(("merge", seed))
        in_merge.append(True)
        try:
            return real_merge(previous, D, target, km_cfg, seed)
        finally:
            in_merge.pop()

    monkeypatch.setattr(pipeline, "kmedoids_best", km)
    monkeypatch.setattr(pipeline, "mds_embed", embed)
    monkeypatch.setattr(pipeline, "hierarchy_merge", merge)
    clmds_embed(D, cfg)

    kinds = ["kmedoids"] + ["local"] * levels[0]
    for t in levels[1:]:
        kinds += ["merge"] + ["anchor"] * t
    spawned = [int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
               for child in np.random.SeedSequence(31).spawn(len(kinds))]
    assert [c[0] for c in calls] == kinds
    assert [c[1] for c in calls] == spawned
    assert [c[2] for c in calls if c[0] == "local"] == [1] * levels[0]
    assert [c[2] for c in calls if c[0] == "anchor"] == [cfg.mds.n_init] * sum(levels[1:])


@pytest.mark.parametrize("levels", [(6, 1), (6, 3, 1)])
def test_scaling_the_distances_scales_the_embedding(levels):
    # D -> 2D gives coords -> 2 coords and the same clusters. Only a power of
    # two scales every sum exactly: at x3 or x0.1 rounding can break a tie in
    # incoherence between k-medoids restarts, which permutes the labels.
    for seed in range(6):
        centers = [np.r_[i * 6.0, (i % 3) * 5.0, (i % 2) * 4.0] for i in range(6)]
        fs = blobs(centers, per=25, spread=0.6, seed=seed)
        D = euclidean_distances(fs)
        cfg = base_config(levels=levels, seed=seed)
        a = clmds_embed(D, cfg)
        b = clmds_embed(DistanceMatrix(2.0 * D.d), cfg)
        assert np.array_equal(a.clustering.assignment, b.clustering.assignment)
        scale = np.abs(a.coords).max()
        assert np.max(np.abs(b.coords - 2.0 * a.coords)) <= 1e-12 * 2.0 * scale
