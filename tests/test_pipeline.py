import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from clmds import (ClmdsConfig, ClmdsResult, Clustering, DistanceMatrix, FeatureDistances,
                   FeatureSet, HierarchySpec, HolesSpec, KernelConfig, KmedoidsConfig, MdsConfig,
                   SparseSelection, ValidationError, clmds_embed, estimate_out_of_sample,
                   euclidean_distances, gen_holes_dataset, gen_s_curve, hierarchy_merge,
                   kernel_matrix, kernel_to_distance, kmedoids_best,
                   medoid_weighted_distance, sparsify_select, voronoi_containment)
from clmds import cli, core, kernel, pipeline


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


def block_sources(n=400, seed=8):
    """A distance matrix and the CLI's feature inputs, Euclidean and kernel
    with normalize true and false, on n points."""
    raw = np.random.default_rng(seed).normal(size=(n, 5))
    raw[7] = raw[3]  # a duplicate: zero distances off the diagonal
    unit = FeatureSet(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    fs = FeatureSet(raw)
    return [euclidean_distances(fs), FeatureDistances(fs),
            FeatureDistances(fs, KernelConfig(zeta=2.0, normalize=True)),
            FeatureDistances(unit, KernelConfig(zeta=1.5))]


@pytest.mark.parametrize("source", range(4))
def test_block_equals_the_block_of_the_full_matrix(source):
    # rows x all of a matrix larger than one row block, and cross blocks in
    # any order with repeated and shared points, diagonal entries included
    dist = block_sources()[source]
    n = dist.n_points
    full = dist.submatrix(np.arange(n)).d
    everything = np.arange(n)
    rng = np.random.default_rng(1)
    for rows in (everything[:300], everything[300:], rng.choice(n, 40, replace=False)):
        assert dist.block(rows, everything).tobytes() == full[rows].tobytes()
    for rows, cols in ((rng.choice(n, 30), rng.choice(n, 50)), ([7, 3, 3, 9], [3, 9, 7])):
        assert dist.block(rows, cols).tobytes() == full[np.ix_(rows, cols)].tobytes()
    assert not np.any(np.diag(dist.block(everything, everything)))


def test_kernel_blocks_make_the_unit_rows_once(monkeypatch):
    # the constructor checks and makes them, and every block reuses them
    fs = FeatureSet(np.random.default_rng(8).normal(size=(60, 5)))
    cfg = KernelConfig(zeta=2.0, normalize=True)
    full = kernel_to_distance(kernel_matrix(fs, cfg)).d
    calls = []
    for module in (cli, kernel):
        real = module.unit_descriptors
        monkeypatch.setattr(module, "unit_descriptors",
                            lambda *args, real=real: calls.append(1) or real(*args))
    dist = FeatureDistances(fs, cfg)
    for start in range(0, 50, 10):
        rows = np.arange(start, start + 10)
        assert dist.block(rows, rows).tobytes() == full[np.ix_(rows, rows)].tobytes()
    assert len(calls) == 1


def test_sparsify_cur_takes_its_norms_in_row_blocks():
    # each norm is taken over its whole row, so the selection is the one of
    # the full matrix; and no n x n array is ever held
    n = 1500
    fs, _, _ = gen_holes_dataset(HolesSpec(n_points=n, n_holes=6, seed=2))
    dist = FeatureDistances(fs, KernelConfig(zeta=2.0, normalize=True))
    tracemalloc.start()
    try:
        sel = sparsify_select(dist, "cur", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    full = dist.submatrix(np.arange(n))
    assert np.array_equal(sel.sparse, sparsify_select(full, "cur", 200).sparse)
    norms = np.linalg.norm(full.d, axis=1)
    assert np.array_equal(sel.sparse, np.sort(np.lexsort((np.arange(n), -norms))[:200]))


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
    for items, n_min, message in (([], 1, "sparse set size 0 below"),
                                  ([], 0, "n_min must be a positive integer"),
                                  ([-1, 2], 1, "sparse selection index is negative")):
        with pytest.raises(ValidationError, match=message):
            sparsify_select(D, items, None, n_min=n_min)
    with pytest.raises(ValidationError, match="unknown sparsify mode 'bogus'"):
        sparsify_select(D, "bogus", 5)


def test_sparsify_rejects_non_integer_and_boolean_entries():
    # dtype=int would read these as [0, 2, 5] and [0, 1]
    _, D = three_blob_problem()
    for bad in ([0.9, 2.7, 5], [True, False], [np.True_, 3], [2.0, 5], np.array([1.5, 4.0])):
        with pytest.raises(ValidationError, match="integer point indices"):
            sparsify_select(D, bad, None)
    for good in ([np.int32(5), 3], np.array([8, 1]), range(4)):
        sel = sparsify_select(D, good, None)
        assert np.array_equal(sel.sparse, np.sort(np.asarray(list(good))))


def test_hierarchy_merge_pairs_of_blobs():
    centers = [np.r_[0, 0], np.r_[1.5, 0], np.r_[20, 0], np.r_[21.5, 0]]
    fs = blobs(centers, per=6, spread=0.1, dims=2, seed=1)
    D = euclidean_distances(fs)
    c4 = kmedoids_best(D, KmedoidsConfig(k=4, iter_med=30, seed=0))
    c2 = hierarchy_merge(c4, D, KmedoidsConfig(k=2))
    assert c2.n_clusters == 2
    # the two left blobs merge together, the two right blobs together
    left = set(c2.assignment[:12].tolist())
    right = set(c2.assignment[12:].tolist())
    assert len(left) == 1 and len(right) == 1 and left != right
    # merged medoid is an original medoid
    assert set(c2.medoids.tolist()) <= set(c4.medoids.tolist())
    with pytest.raises(ValidationError, match="below the current cluster count"):
        hierarchy_merge(c4, D, KmedoidsConfig(k=4))
    # a distance matrix over fewer or more points than the clustering's 24
    for per in (3, 7):
        with pytest.raises(ValidationError):
            hierarchy_merge(c4, euclidean_distances(blobs(centers, per=per, dims=2)),
                            KmedoidsConfig(k=2))


def test_hierarchy_merge_caps_n_iso_at_the_target():
    # n_iso=5 is valid at the finest level (k=6); the pipeline's merge to 3
    # picks 3, as the merge given n_iso=3 does
    _, D = six_blob_problem()
    km = KmedoidsConfig(k=6, n_iso=5, iter_med=20, seed=0)
    c6 = kmedoids_best(D, km)
    c3 = hierarchy_merge(c6, D, replace(km, k=3, n_iso=3, seed=4))
    assert c3.n_clusters == 3
    res = clmds_embed(D, ClmdsConfig(hierarchy=HierarchySpec((6, 3, 1)), n_iso=5, iter_med=20))
    assert [lv.clustering.n_clusters for lv in res.per_level] == [6, 3, 1]


def _merge_problem():
    # 30 s-curve clusters, whose medoids a single random k-medoids start
    # groups differently from seed to seed
    D = euclidean_distances(gen_s_curve(300, seed=2))
    return D, kmedoids_best(D, KmedoidsConfig(k=30, iter_med=5, seed=0))


def test_hierarchy_merge_runs_its_config_as_given():
    # k is the target, and the seed reaches k-medoids: from a single random
    # start, the merge differs from seed to seed
    D, c30 = _merge_problem()
    merges = {hierarchy_merge(c30, D, KmedoidsConfig(k=5, n_iso=0, iter_med=1, seed=s))
              .assignment.tobytes() for s in range(8)}
    assert len(merges) > 1
    for k in (12, 5, 1):
        level = hierarchy_merge(c30, D, KmedoidsConfig(k=k, seed=3))
        assert level.n_clusters == k
        assert set(level.medoids.tolist()) <= set(c30.medoids.tolist())


def test_hierarchy_merge_keeps_k_medoids_own_medoids():
    # the merged medoids are those of k-medoids on the previous medoids in
    # increasing point index, whatever order the previous level lists them in
    D, c30 = _merge_problem()
    meds = c30.medoids  # sorted: k-medoids gives them in increasing index
    km = KmedoidsConfig(k=6, iter_med=10, seed=7)
    direct = kmedoids_best(DistanceMatrix(D.d[np.ix_(meds, meds)]), km)
    level = hierarchy_merge(c30, D, km)
    assert np.array_equal(level.medoids, meds[direct.medoids])
    assert np.array_equal(level.assignment, direct.assignment[c30.assignment])
    perm = np.random.default_rng(1).permutation(30)  # relabel the previous clusters
    shuffled = Clustering(np.argsort(perm)[c30.assignment], meds[perm])
    again = hierarchy_merge(shuffled, D, km)
    assert np.array_equal(again.assignment, level.assignment)
    assert np.array_equal(again.medoids, level.medoids)


def test_hierarchy_merge_ties_go_to_the_lowest_index_of_unsorted_medoids():
    # Four clusters whose medoids (listed 7, 1, 5, 3) are all 1 apart: every
    # merged cluster's medoids tie on summed distance, and the lowest point
    # index must win, not the first listed. Deeper levels list merged
    # medoids by group, so they come unsorted there.
    medoids = np.array([7, 1, 5, 3])
    assignment = np.array([1, 1, 3, 3, 2, 2, 0, 0])  # point i joins the medoid nearest it
    d = np.full((8, 8), 2.0)
    d[np.ix_(medoids, medoids)] = 1.0
    for c, m in enumerate(medoids):
        d[m, assignment == c] = d[assignment == c, m] = 0.5
    np.fill_diagonal(d, 0.0)
    D = DistanceMatrix(d)
    previous = Clustering(assignment, medoids)
    for target in (1, 2, 3):
        for seed in range(5):
            level = hierarchy_merge(previous, D, KmedoidsConfig(k=target, seed=seed))
            grouping = level.assignment[medoids]
            assert [int(m) for m in level.medoids] == [int(medoids[grouping == g].min())
                                                       for g in range(target)]


def base_config(levels=(3, 1), **kw):
    return ClmdsConfig(hierarchy=HierarchySpec(levels), iter_med=20, mds_n_init=2,
                       mds_max_iter=200, **kw)


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
    runs = [(three_blob_problem(seed=3)[1], base_config()),
            (six_blob_problem()[1], base_config(levels=(6, 3, 1)))]
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


@pytest.mark.parametrize("sparsify", ["none", "random"])
def test_the_dense_matrix_is_gone_before_the_anchor_mds(monkeypatch, sparsify):
    # the n x n matrix serves the finest level only; every anchor MDS runs
    # after its last reference went
    fs, D = six_blob_problem()
    dense, freed = [], []

    class Source(FeatureDistances):
        def submatrix(self, idx):
            sub = super().submatrix(idx)
            dense.append(weakref.ref(sub.d))
            return sub

    real_mds = pipeline.mds_embed

    def embed(sub, w=None, cfg=None):
        if w is not None:
            freed.append([ref() is None for ref in dense])
        return real_mds(sub, w, cfg)

    monkeypatch.setattr(pipeline, "mds_embed", embed)
    cfg = base_config(levels=(6, 3, 1), sparsify=sparsify,
                      n_sparse=None if sparsify == "none" else 40)
    res = clmds_embed(Source(fs), cfg)
    assert len(dense) == 1
    assert freed == [[True]] * 4
    # the blocks that the coarser levels read give the matrix's embedding
    # (of the sparse points: the matrix carries no features to estimate from)
    assert np.array_equal(res.coords[res.sparse_indices], clmds_embed(D, cfg).coords)


def test_a_feature_embedding_holds_about_one_matrix(monkeypatch):
    # The n x n matrix is freed before the anchor MDS (m = 400 here) adds
    # its m x m arrays: 1.15 n x n matrices of float64 at the peak, against
    # 1.69 with both held at once. One worker: each k-medoids thread group
    # holds its own (k, n) buffers.
    n = 1500
    dist = FeatureDistances(gen_s_curve(n, seed=1))
    cfg = ClmdsConfig(hierarchy=HierarchySpec((100, 1)), iter_med=10)
    monkeypatch.setattr(core, "_WORKERS", 1)
    clmds_embed(dist, cfg)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        clmds_embed(dist, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def test_a_kernel_anchor_block_with_a_repeated_point_is_the_dense_gather(monkeypatch):
    # A cluster of 3 descriptors is its own anchor set, so its medoid is
    # both an anchor and a medoid in the weighted block: the block repeats
    # a point, and each repeat must read D 0 as the dense matrix's gather
    # does (a kernel build from the descriptors sets only its own diagonal).
    rng = np.random.default_rng(7)
    axes = np.eye(5)
    raw = np.vstack([rng.normal(axes[i], 0.05, (3 if i == 4 else 15, 5)) for i in range(5)])
    dist = FeatureDistances(FeatureSet(raw), KernelConfig(zeta=2.0, normalize=True))
    dense = dist.submatrix(np.arange(dist.n_points)).d
    blocks, anchor_ds = [], []
    real_block, real_mds = dist.block, pipeline.mds_embed

    def block(rows, cols):
        out = real_block(rows, cols)
        blocks.append((np.asarray(rows), np.asarray(cols), out))
        return out

    def embed(sub, w=None, cfg=None):
        if w is not None:
            anchor_ds.append(sub.d)
        return real_mds(sub, w, cfg)

    monkeypatch.setattr(dist, "block", block)
    monkeypatch.setattr(pipeline, "mds_embed", embed)
    eta = 2
    res = clmds_embed(dist, base_config(levels=(5, 1), kernel_eta=eta))
    assert sorted(np.bincount(res.clustering.assignment)) == [3, 15, 15, 15, 15]
    repeated = [(r, c, out) for r, c, out in blocks if np.unique(r).size < r.size]
    assert repeated
    for rows, cols, out in repeated:
        assert out.tobytes() == dense[np.ix_(rows, cols)].tobytes()
        # which a kernel build of the rows misses here (D 1.5e-8)
        assert out.tobytes() != dist.submatrix(rows).d.tobytes()
    full = medoid_weighted_distance(1.0 - dense ** 2, res.clustering, KernelConfig(eta=eta)).d
    union = np.concatenate([s.anchor_indices for s in res.per_level[1].stitches])
    assert len(anchor_ds) == 1
    assert anchor_ds[0].tobytes() == full[np.ix_(union, union)].tobytes()


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
def test_anchor_mds_reads_its_block_of_the_medoid_weighted_matrix(monkeypatch, levels):
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
    res = clmds_embed(D, base_config(levels=levels, kernel_eta=eta))

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
@given(degenerate_problems())
def test_degenerate_inputs_embed_finite_or_raise_validation_error(problem):
    D, levels = problem
    cfg = ClmdsConfig(hierarchy=HierarchySpec(levels), seed=3, iter_med=5, mds_n_init=2,
                      mds_max_iter=100)
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


def blobs_with_tiny_ones(seed):
    """2-4 blobs of 10-19 points and 1-3 tiny blobs of 1-3 points in 3-D
    (sigma 1, centres >= 30 apart), and the number of blobs."""
    rng = np.random.default_rng(seed)
    sizes = [*rng.integers(10, 20, rng.integers(2, 5)), *rng.integers(1, 4, rng.integers(1, 4))]
    centres = []
    while len(centres) < len(sizes):
        c = rng.uniform(0.0, 100.0, 3)
        if all(np.linalg.norm(c - o) >= 30.0 for o in centres):
            centres.append(c)
    x = np.vstack([c + rng.normal(size=(s, 3)) for c, s in zip(centres, sizes)])
    return x, len(sizes)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_tiny_clusters_embed_finite_or_raise_validation_error(seed):
    # k = the blob count, so the finest level mostly holds clusters of 1-3
    # points, which stitch through 1, 2 or 3 anchors
    x, k = blobs_with_tiny_ones(seed)
    D = euclidean_distances(FeatureSet(x))
    for levels in ((k, 1), (k, -(-k // 2), 1)):
        cfg = ClmdsConfig(hierarchy=HierarchySpec(levels), seed=3, iter_med=5, mds_n_init=2,
                          mds_max_iter=100)
        try:
            res = clmds_embed(D, cfg)
        except ValidationError:
            continue
        assert np.all(np.isfinite(res.coords))
        assert np.array_equal(clmds_embed(D, cfg).coords, res.coords)


def rigidly_moved_blobs(seed):
    """3-5 Gaussian blobs in 3-D (sigma <= 1, centres >= 20 apart), and
    their image under a random rotation plus translation."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 6))
    centres = []
    while len(centres) < k:
        c = rng.uniform(0.0, 60.0, 3)
        if all(np.linalg.norm(c - o) >= 20.0 for o in centres):
            centres.append(c)
    sigma = rng.uniform(0.1, 1.0)
    x = np.vstack([c + sigma * rng.normal(size=(int(rng.integers(8, 20)), 3))
                   for c in centres])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return k, x, x @ q.T + rng.normal(0.0, 10.0, 3)


def rigid_motion_embeddings(seed, levels):
    k, x, y = rigidly_moved_blobs(seed)
    levels = (k, *levels)
    cfg = ClmdsConfig(hierarchy=HierarchySpec(levels), seed=seed, iter_med=10, mds_n_init=2)
    return [clmds_embed(euclidean_distances(FeatureSet(p)), cfg) for p in (x, y)]


def assert_same_embedding_distances(a, b):
    da, db = cdist(a.coords, a.coords), cdist(b.coords, b.coords)
    assert np.max(np.abs(da - db)) <= 1e-6 * da.max()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1,), (2, 1)]))
def test_rigid_motion_keeps_clusters_and_embedding_distances(seed, levels):
    a, b = rigid_motion_embeddings(seed, levels)
    assert np.array_equal(a.clustering.assignment, b.clustering.assignment)
    assert_same_embedding_distances(a, b)


def test_rigid_motion_keeps_the_kmedoids_labels():
    # k-medoids restarts reach this partition from medoid lists in several
    # orders; only with one labelling per partition do they tie exactly, so
    # that rounding in D cannot pick another winner
    a, b = rigid_motion_embeddings(7, (2, 1))
    assert np.array_equal(a.clustering.assignment, b.clustering.assignment)
    assert_same_embedding_distances(a, b)


def test_sparse_with_features_estimates_everyone():
    fs, _ = three_blob_problem(seed=8)
    cfg = base_config(sparsify="random", n_sparse=18, seed=2)
    res = clmds_embed(FeatureDistances(fs), cfg)
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
    fs, _ = three_blob_problem(seed=9)
    cfg = base_config(sparsify="cur", n_sparse=20, seed=4)
    a = clmds_embed(FeatureDistances(fs), cfg)
    b = clmds_embed(FeatureDistances(fs), cfg)
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
    fs, _ = three_blob_problem(seed=11)
    # explicit sparse list: blob 0 keeps 8 points, blobs 1 and 2 only 2 each
    sparse = list(range(8)) + [12, 13] + [24, 25]
    cfg = base_config(sparsify=sparse, seed=0)
    res = clmds_embed(FeatureDistances(fs), cfg)
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


def test_merged_cluster_anchors_come_from_its_members_anchors():
    centers = [np.r_[i * 7.0, 0, 0] for i in range(4)]
    fs = blobs(centers, per=10, seed=12)
    D = euclidean_distances(fs)
    res = clmds_embed(D, base_config(levels=(4, 2, 1)))
    assert np.all(np.isfinite(res.coords))
    prev, level = res.per_level[0], res.per_level[1]
    grouping = level.clustering.assignment[prev.clustering.medoids]
    for g, got in enumerate(level.anchors):
        pool_g = np.concatenate([prev.anchors[i] for i in np.flatnonzero(grouping == g)])
        assert got.size == 4 and set(got.tolist()) <= set(pool_g.tolist())


def test_k_exceeding_n_errors():
    D = euclidean_distances(FeatureSet(np.random.default_rng(0).normal(size=(4, 2))))
    with pytest.raises(ValidationError):
        clmds_embed(D, base_config(levels=(8, 1)))


class _Unreadable:
    """A distance source of n points whose distances must not be read."""

    def __init__(self, n):
        self.n_points = n

    def submatrix(self, *idx):
        raise AssertionError("a distance was read")

    block = submatrix


@pytest.mark.parametrize("n, sparsify, n_sparse", [
    (20, "cur", 5), (20, "random", 5), (20, list(range(5)), None), (6, "none", None)])
def test_too_few_points_for_the_finest_level_are_refused_before_any_read(n, sparsify,
                                                                         n_sparse):
    # "cur" read every distance before this refusal, through block
    cfg = base_config(levels=(8, 1), sparsify=sparsify, n_sparse=n_sparse)
    size = n if sparsify == "none" else 5
    with pytest.raises(ValidationError,
                       match=f"sparse set size {size} below finest cluster count 8"):
        clmds_embed(_Unreadable(n), cfg)


def test_each_finest_transform_composes_the_stitches_of_its_clusters():
    centers = [np.r_[(i % 4) * 7.0, (i // 4) * 7.0, (i % 3) * 2.0] for i in range(12)]
    D = euclidean_distances(blobs(centers, per=8, seed=21))
    res = clmds_embed(D, base_config(levels=(12, 6, 3, 1)))
    medoids = res.clustering.medoids
    expected = [np.eye(3) for _ in medoids]
    for prev, level in zip(res.per_level, res.per_level[1:]):
        grouping = level.clustering.assignment[prev.clustering.medoids]
        # stitches go group by group, each group's members in increasing order
        order = np.concatenate([np.flatnonzero(grouping == g)
                                for g in range(level.clustering.n_clusters)])
        matrix_of = {int(i): s.matrix for i, s in zip(order, level.stitches)}
        for fc, m in enumerate(medoids):
            expected[fc] = matrix_of[int(prev.clustering.assignment[m])] @ expected[fc]
    for got, want in zip(res.cluster_transforms, expected):
        assert np.array_equal(got, want)


def test_timings_recorded():
    fs, D = three_blob_problem(seed=13)
    # every hierarchy merges at least once; (3, 2, 1) merges by k-medoids
    stages = ("sparsify", "distances", "kmedoids", "local_mds", "anchors",
              "anchor_mds", "merge", "stitching")
    # a full matrix, which carries no features and so estimates nothing, and
    # the CLI's feature input, whose distances are built inside clmds_embed
    for dist, sparse_stages in ((D, stages), (FeatureDistances(fs), stages + ("estimate",))):
        for cfg, keys in ((base_config(), stages),
                          (base_config(levels=(3, 2, 1)), stages),
                          (base_config(sparsify="random", n_sparse=18, seed=2), sparse_stages)):
            res = clmds_embed(dist, cfg)
            assert set(res.timings) == set(keys) | {"total"}
            assert all(res.timings[key] >= 0.0 for key in keys)
            # the stages are disjoint, so they cannot add up to more than the total
            assert sum(res.timings[key] for key in keys) <= res.timings["total"]


@pytest.mark.parametrize("problem, levels, sparse", [
    (three_blob_problem, (3, 1), {}),
    (six_blob_problem, (6, 3, 1), {}),
    (three_blob_problem, (3, 1), dict(sparsify="random", n_sparse=18, seed=2)),
], ids=["3-1", "6-3-1", "random-sparse"])
def test_the_stages_cover_the_run(monkeypatch, problem, levels, sparse):
    # a clock that advances one tick per read: a read outside the stage
    # clock, or work between two stages, would leave ticks unreported; only
    # the final read of total comes after the last stage
    ticks = iter(range(10_000))
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    fs, _ = problem()
    res = clmds_embed(FeatureDistances(fs), base_config(levels=levels, **sparse))
    assert res.estimated_mask.any() == bool(sparse)
    stages = sum(t for key, t in res.timings.items() if key != "total")
    assert res.timings["total"] - stages == 1.0


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

    def merge(previous, D, km_cfg):
        calls.append(("merge", km_cfg.seed))
        in_merge.append(True)
        try:
            return real_merge(previous, D, km_cfg)
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


def test_every_setting_reaches_the_calls_it_configures(monkeypatch):
    # no idle setting: each non-default value shows in the configs that
    # k-medoids, the merges and every MDS call receive
    _, D = six_blob_problem()
    cfg = ClmdsConfig(hierarchy=HierarchySpec((6, 3, 1)), n_iso=2, iter_med=7, mds_n_init=3,
                      mds_max_iter=150, mds_eps=1e-5, seed=5)
    km_cfgs, merge_cfgs, mds_cfgs = [], [], []
    real_km, real_mds, real_merge = (pipeline.kmedoids_best, pipeline.mds_embed,
                                     pipeline.hierarchy_merge)

    def km(D, km_cfg):
        km_cfgs.append(km_cfg)
        return real_km(D, km_cfg)

    def embed(D, w=None, cfg=None):
        mds_cfgs.append(("local" if w is None else "anchor", cfg))
        return real_mds(D, w, cfg)

    def merge(previous, D, km_cfg):
        merge_cfgs.append(km_cfg)
        return real_merge(previous, D, km_cfg)

    monkeypatch.setattr(pipeline, "kmedoids_best", km)
    monkeypatch.setattr(pipeline, "mds_embed", embed)
    monkeypatch.setattr(pipeline, "hierarchy_merge", merge)
    clmds_embed(D, cfg)

    # the finest level, then the merge to 3 (the merge to 1 picks its medoid
    # without k-medoids); each merge's own config, n_iso capped at its k
    assert [(c.k, c.n_iso, c.iter_med) for c in km_cfgs] == [(6, 2, 7), (3, 2, 7)]
    assert [(c.k, c.n_iso, c.iter_med) for c in merge_cfgs] == [(3, 2, 7), (1, 1, 7)]
    assert [(kind, c.n_init, c.max_iter, c.eps) for kind, c in mds_cfgs] == (
        [("local", 1, 150, 1e-5)] * 6 + [("anchor", 3, 150, 1e-5)] * 4)


def test_sub_configs_are_derived_not_passed():
    cfg = ClmdsConfig(hierarchy=HierarchySpec((6, 2, 1)), n_iso=3, iter_med=9, mds_n_init=2,
                      mds_max_iter=50, mds_eps=1e-4)
    assert cfg.kmedoids == KmedoidsConfig(k=6, n_iso=3, iter_med=9)
    assert cfg.mds == MdsConfig(n_init=2, max_iter=50, eps=1e-4)
    for kw in ({"kmedoids": KmedoidsConfig(k=6)}, {"mds": MdsConfig()}):
        with pytest.raises(TypeError):
            ClmdsConfig(hierarchy=HierarchySpec((6, 1)), **kw)
    # the sub-configs' own checks run at construction
    for kw in ({"n_iso": 7}, {"iter_med": 0}, {"mds_n_init": 0}, {"mds_max_iter": 0},
               {"mds_eps": 1.0}):
        with pytest.raises(ValidationError):
            ClmdsConfig(hierarchy=HierarchySpec((6, 1)), **kw)


@pytest.mark.parametrize("eta", [0, -2, 1.5])
def test_a_bad_kernel_eta_is_rejected_at_construction(eta):
    with pytest.raises(ValidationError, match="eta must be a positive integer"):
        ClmdsConfig(hierarchy=HierarchySpec((3, 1)), kernel_eta=eta)


_LEVELS = HierarchySpec((3, 1))
_COUNTS = {
    "seed": lambda: ClmdsConfig(_LEVELS, seed=1.5),
    "iter_med": lambda: ClmdsConfig(_LEVELS, iter_med=2.5),
    "mds_n_init": lambda: ClmdsConfig(_LEVELS, mds_n_init=1.5),
    "mds_max_iter": lambda: ClmdsConfig(_LEVELS, mds_max_iter=2.5),
    "n_sparse": lambda: ClmdsConfig(_LEVELS, sparsify="random", n_sparse=20.5),
    "n_iso": lambda: ClmdsConfig(_LEVELS, n_iso=True),
    "kernel_eta": lambda: ClmdsConfig(_LEVELS, kernel_eta=True),
    "eta": lambda: KernelConfig(eta=2.0),
    "k": lambda: KmedoidsConfig(k=2.5),
    "kmedoids-seed": lambda: KmedoidsConfig(k=3, seed=np.float64(1.0)),
    "n_init": lambda: MdsConfig(n_init=2.5),
    "mds-seed": lambda: MdsConfig(seed=True),
    "n_points": lambda: HolesSpec(n_points=2.5, n_holes=2),
    "n_holes": lambda: HolesSpec(n_points=20, n_holes=np.True_),
    "s-curve-n": lambda: gen_s_curve(2.5),
    "level": lambda: HierarchySpec((2.7, 1)),
    "sparse-list": lambda: sparsify_select(three_blob_problem()[1], [0.0, 2], None),
    "sparse-count": lambda: sparsify_select(three_blob_problem()[1], "random", 20.5),
}


@pytest.mark.parametrize("make", _COUNTS.values(), ids=_COUNTS.keys())
def test_counts_must_be_integers_and_not_bools(make):
    # unchecked, most escape as a numpy TypeError mid-run or are read as int(x)
    with pytest.raises(ValidationError, match="integer"):
        make()


_SEEDED = {
    "ClmdsConfig": lambda seed: ClmdsConfig(_LEVELS, seed=seed),
    "KmedoidsConfig": lambda seed: KmedoidsConfig(k=3, seed=seed),
    "MdsConfig": lambda seed: MdsConfig(seed=seed),
    "HolesSpec": lambda seed: HolesSpec(n_points=20, n_holes=2, seed=seed),
    "gen_s_curve": lambda seed: gen_s_curve(5, seed=seed),
    "sparsify_select": lambda seed: sparsify_select(three_blob_problem()[1], "random", 20,
                                                    seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("make", _SEEDED.values(), ids=_SEEDED.keys())
def test_every_seed_is_a_non_negative_integer(make, seed):
    # unchecked, -1 escapes as numpy's ValueError and 1.5 as a TypeError
    with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {seed}"):
        make(seed)


def test_numpy_integers_are_counts():
    i = np.int32
    cfg = ClmdsConfig(HierarchySpec((i(3), 1)), n_iso=i(1), iter_med=i(5), mds_n_init=i(1),
                      mds_max_iter=i(50), sparsify="random", n_sparse=np.uint8(20),
                      seed=np.int64(2), kernel_eta=i(2))
    assert cfg.kmedoids.k == 3 and cfg.mds.max_iter == 50
    assert HolesSpec(n_points=i(20), n_holes=i(2), seed=i(1)).n_points == 20
    assert gen_s_curve(i(5), seed=i(0)).n_points == 5


def test_sparse_selection_rejects_negative_repeated_and_shared_indices():
    for sparse, complement in ((np.arange(20), np.arange(-5, 0)), ([0, 0, 1], [2]),
                               (np.arange(20), np.arange(10, 40))):
        with pytest.raises(ValidationError):
            SparseSelection(np.array(sparse), np.array(complement))


@pytest.mark.parametrize("complement", [np.arange(20, 45), np.arange(25, 40)],
                         ids=["beyond-the-rows", "rows-left-out"])
def test_estimation_needs_the_selection_to_split_every_row(complement):
    fs, _ = three_blob_problem(seed=12)
    fs = FeatureSet(np.vstack([fs.vectors, fs.vectors[:4]]))  # 40 rows
    sparse = clmds_embed(euclidean_distances(FeatureSet(fs.vectors[:20])), base_config())
    assert estimate_out_of_sample(
        fs, sparse, SparseSelection(np.arange(20), np.arange(20, 40))).n_points == 40
    with pytest.raises(ValidationError, match="split the 40 feature rows"):
        estimate_out_of_sample(fs, sparse, SparseSelection(np.arange(20), complement))


@pytest.mark.parametrize("sparse", [np.arange(19), np.arange(1, 21)],
                         ids=["another-size", "same-size"])
def test_a_selection_other_than_the_results_is_refused(sparse):
    # the result's sparse coordinates would go to the wrong rows
    fs, _ = three_blob_problem(seed=12)
    result = clmds_embed(euclidean_distances(FeatureSet(fs.vectors[:20])), base_config())
    with pytest.raises(ValidationError, match="does not match the sparse result"):
        estimate_out_of_sample(fs, result, SparseSelection(sparse, np.setdiff1d(np.arange(36),
                                                                                sparse)))


def test_an_unknown_sparsify_mode_is_refused_at_construction():
    with pytest.raises(ValidationError, match="unknown sparsify mode 'bogus'"):
        base_config(sparsify="bogus")


@pytest.mark.parametrize("sparsify", ["none", [0, 3, 5, 8]], ids=["none", "list"])
def test_n_sparse_is_refused_where_nothing_reads_it(sparsify):
    # only random and cur take n_sparse; elsewhere it would be ignored
    with pytest.raises(ValidationError, match="n_sparse"):
        ClmdsConfig(HierarchySpec((3, 1)), sparsify=sparsify, n_sparse=5)
    with pytest.raises(ValidationError, match="n_sparse"):
        sparsify_select(three_blob_problem()[1], sparsify, 5)


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
