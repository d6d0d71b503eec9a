"""cl-MDS orchestration: clustering, local/global embeddings, stitching,
hierarchical merging, sparsification and out-of-sample estimation."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .anchors import best_quadruple, select_anchors
from .core import (Clustering, ClmdsResult, DistanceMatrix, FeatureSet, HierarchySpec,
                   LevelArtifacts, Stitch, ValidationError, _check_counts, _is_integer,
                   _row_blocks, pairwise_distances)
from .kernel import KernelConfig, medoid_weighted_distance
from .kmedoids import KmedoidsConfig, kmedoids_best, medoid, relative_incoherence
from .mds import MdsConfig, mds_embed, relative_stress_weights
from .transforms import choose_best_transform, least_squares_affine, project


@dataclass(frozen=True)
class SparseSelection:
    """A split of the points into the sparse set and its complement."""

    sparse: np.ndarray
    complement: np.ndarray

    def __post_init__(self):
        sp = np.sort(np.asarray(self.sparse, dtype=int))
        co = np.sort(np.asarray(self.complement, dtype=int))
        both = np.concatenate([sp, co])
        if np.any(both < 0):
            raise ValidationError("sparse selection index is negative")
        if np.unique(both).size != both.size:
            raise ValidationError("sparse set and complement have a repeated or shared index")
        object.__setattr__(self, "sparse", sp)
        object.__setattr__(self, "complement", co)


@dataclass(frozen=True)
class ClmdsConfig:
    """Settings of one cl-MDS run, each named as its `clmds embed` key.

    The finest level runs k-medoids with k = ``hierarchy.levels[0]``,
    ``iter_med`` restarts and ``n_iso`` farthest-point picks; each merge
    reuses them with its own k, n_iso capped at k. ``mds_n_init`` sets the
    starts of the anchor MDS only. The default 1 is the classical start
    alone (a random one where it is undefined): against 3 more random
    starts it won on 5 of 8 s-curve datasets, and a winning random start
    was better by at most 0.22% stress.
    A local MDS maps just its own cluster and always runs one start, the
    classical one when defined. Every k-medoids and MDS call gets its own
    sub-seed drawn from ``seed``. With ``kernel_eta`` set, D must be
    kernel-induced, and each anchor MDS reads its block of
    ``medoid_weighted_distance`` with that eta.
    """

    hierarchy: HierarchySpec
    n_iso: int = 1
    iter_med: int = 100
    mds_n_init: int = 1
    mds_max_iter: int = 300
    mds_eps: float = 1e-6
    sparsify: object = "none"  # "none" | "random" | "cur" | sequence of indices
    n_sparse: int | None = None
    seed: int = 0
    kernel_eta: int | None = None

    def __post_init__(self):
        _check_counts(0, seed=self.seed)
        self.kmedoids, self.mds  # their constructors check the values
        if self.kernel_eta is not None:
            KernelConfig(eta=self.kernel_eta)
        mode = self.sparsify if isinstance(self.sparsify, str) else "list"
        if mode not in ("none", "random", "cur", "list"):
            raise ValidationError(f"unknown sparsify mode {self.sparsify!r}")
        if mode in ("random", "cur"):  # its upper bound N is known only once the input is read
            _check_counts(1, n_sparse=self.n_sparse)

    @property
    def kmedoids(self) -> KmedoidsConfig:  # the finest level's; each call sets the seed
        return KmedoidsConfig(k=self.hierarchy.levels[0], n_iso=self.n_iso, iter_med=self.iter_med)

    @property
    def mds(self) -> MdsConfig:  # the anchor MDS's; each call sets the seed
        return MdsConfig(n_init=self.mds_n_init, max_iter=self.mds_max_iter, eps=self.mds_eps)


def sparsify_select(D: DistanceMatrix, sparsify, n_sparse: int | None,
                    seed: int = 0, n_min: int = 1) -> SparseSelection:
    """Select the sparse index set: all points ("none"), uniform random,
    CUR-style row norms, or an explicit user list. Its size is checked to
    reach n_min, the finest cluster count, here alone and before any
    distance is read; `SparseSelection` refuses a repeated or negative index."""
    _check_counts(0, seed=seed)
    _check_counts(1, n_min=n_min)
    n = D.n_points
    everything = np.arange(n)
    mode = sparsify if isinstance(sparsify, str) else "list"
    sp = everything  # mode "none"
    if mode == "list":
        items = list(sparsify)
        if not all(_is_integer(i) for i in items):  # dtype=int would truncate them
            raise ValidationError("explicit sparse list entries must be integer point indices")
        sp = np.asarray(items, dtype=int)
        if np.any(sp >= n):
            raise ValidationError("explicit sparse list index out of range")
    elif mode in ("random", "cur"):
        _check_counts(1, n_sparse=n_sparse)
        if n_sparse > n:
            raise ValidationError(f"n_sparse must be at most N = {n}, got {n_sparse}")
    elif mode != "none":
        raise ValidationError(f"unknown sparsify mode {sparsify!r}")
    size = n_sparse if mode in ("random", "cur") else sp.size
    if size < n_min:
        raise ValidationError(f"sparse set size {size} below finest cluster count {n_min}")
    if mode == "random":
        sp = np.random.default_rng(seed).choice(n, size=n_sparse, replace=False)
    elif mode == "cur":
        # each norm over its whole row, one block of rows at a time
        norms = np.concatenate([np.linalg.norm(D.block(everything[s], everything), axis=1)
                                for s in _row_blocks(n, n)])
        sp = np.lexsort((everything, -norms))[:n_sparse]  # descending norm, ties low index
    return SparseSelection(sp, np.setdiff1d(everything, sp))


def hierarchy_merge(previous: Clustering, D, target: int,
                    km_cfg: KmedoidsConfig | None = None, seed: int = 0) -> Clustering:
    """Merge a clustering down to `target` clusters by k-medoids on its medoids.

    D is any distance source with `n_points` and `block(rows, cols)`; the
    merge reads only the block among the previous medoids. Each merged
    cluster keeps, as its medoid, the previous medoid with the least summed
    distance to the other previous medoids it absorbs, taken from that
    block with the members in increasing point index, so that ties go to
    the lowest index (see `kmedoids.medoid`) also where the previous
    medoids are not sorted.
    """
    if target >= previous.n_clusters:
        raise ValidationError("merge target must be below the current cluster count")
    if previous.n_points != D.n_points:
        raise ValidationError(f"clustering of {previous.n_points} points does not match "
                              f"a distance matrix of {D.n_points}")
    medoids = previous.medoids
    among = DistanceMatrix(D.block(medoids, medoids))
    if target == 1:
        grouping = np.zeros(medoids.shape[0], dtype=int)
    else:
        km_cfg = km_cfg or KmedoidsConfig(k=target)
        # n_iso fits the finest level; a merge target may be below it
        km_cfg = replace(km_cfg, k=target, n_iso=min(km_cfg.n_iso, target), seed=seed)
        grouping = kmedoids_best(among, km_cfg).assignment
    by_index = np.argsort(medoids)  # rows of `among` in increasing point index
    picks = np.array([medoid(among.d, by_index[grouping[by_index] == g])
                      for g in range(target)], dtype=int)
    return Clustering(grouping[previous.assignment], medoids[picks])


@dataclass(frozen=True)
class _Subset:
    """The points idx of a distance source, numbered 0, 1, ..., read through its `block`."""

    source: object
    idx: np.ndarray

    @property
    def n_points(self) -> int:
        return self.idx.size

    def block(self, rows, cols) -> np.ndarray:
        return self.source.block(self.idx[rows], self.idx[cols])


def clmds_embed(source, cfg: ClmdsConfig) -> ClmdsResult:
    """Run the full pipeline on a distance source.

    source is any object with `n_points`, `submatrix(idx) -> DistanceMatrix`
    and `block(rows, cols) -> ndarray` that builds only the distances asked
    for, as `DistanceMatrix` and `FeatureDistances` do. The dense matrix of
    the points embedded (the sparse subset, or every point) is built once,
    through `submatrix`, and serves the finest level alone: k-medoids, the
    local MDS and the anchor search. It is dropped before the first merge;
    every coarser level reads the few distances it needs through `block`,
    which must equal the dense matrix's entries bit for bit, a repeated
    index included (0 between a point and itself). `sparsify_select` alone
    refuses fewer points than finest clusters, before any distance is read.
    Points left out are estimated when the source carries its `features`
    (`estimate_out_of_sample`); else the result covers the sparse subset
    only, `estimation_available` False. With `cfg.kernel_eta` set, a
    distance above 1 raises a ValidationError.

    One clock times the run: each stage ends with `done(stage)`, which adds
    the time since the previous stage ended to `timings[stage]`, so the
    stages cover the run and add up to `total`, read after the last stage.
    """
    timings = {}
    start = last = time.perf_counter()

    def done(stage):  # the time since the previous stage ended goes to this one
        nonlocal last
        now = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + (now - last)
        last = now

    sel = sparsify_select(source, cfg.sparsify, cfg.n_sparse, seed=cfg.seed,
                          n_min=cfg.hierarchy.levels[0])
    done("sparsify")
    result = _core_run(source, sel.sparse, cfg, done)
    result.estimation_available = not sel.complement.size or hasattr(source, "features")
    if sel.complement.size and result.estimation_available:
        result = estimate_out_of_sample(source, result, sel)
        done("estimate")
    timings["total"] = time.perf_counter() - start
    result.timings = timings
    return result


def _core_run(source, sparse: np.ndarray, cfg: ClmdsConfig, done) -> ClmdsResult:
    """cl-MDS of the points `sparse` of a distance source (see
    `clmds_embed`); indices in the result count within `sparse`, which it
    records as its `sparse_indices`. done(stage) is called as each stage
    ends; the result's `timings` are left to the caller."""
    n = sparse.size
    levels = cfg.hierarchy.levels
    # one sub-seed per call, in call order: k-medoids, each local MDS, then
    # per level the merge and each group's anchor MDS (spawn(1) per call)
    root = np.random.SeedSequence(cfg.seed)
    seeds = (int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
             for child in iter(lambda: root.spawn(1)[0], None))
    kernel = None if cfg.kernel_eta is None else KernelConfig(eta=cfg.kernel_eta)
    dense = source.submatrix(sparse)
    if kernel is not None and 1.0 - np.max(dense.d) ** 2 < -1e-12:  # d = sqrt(1 - k)
        raise ValidationError("kernel entries 1 - d^2 must lie in [0, 1]: "
                              "medoid weighting needs kernel-induced distances")
    done("distances")

    c0 = kmedoids_best(dense, replace(cfg.kmedoids, seed=next(seeds)))
    irel = relative_incoherence(dense, c0)
    done("kmedoids")

    # every point, in the frame of its cluster at the current level
    coords = np.empty((n, 2))
    local_coords, local_stresses = [], []
    for k in range(c0.n_clusters):
        members = c0.members(k)
        xy, sig = mds_embed(dense.submatrix(members),
                            cfg=replace(cfg.mds, n_init=1, seed=next(seeds)))
        coords[members] = xy
        local_coords.append(xy)
        local_stresses.append(sig)
    done("local_mds")

    anchors = select_anchors(dense, c0)
    done("anchors")
    # the coarser levels read only blocks among anchors and medoids: the
    # n x n matrix goes before the anchor MDS adds its m x m arrays
    del dense
    D = _Subset(source, sparse)

    per_level = [LevelArtifacts(clustering=c0, anchors=anchors,
                                local_stresses=local_stresses)]
    comp = [np.eye(3) for _ in range(c0.n_clusters)]

    prev = c0
    for target in levels[1:]:
        done("stitching")
        level = hierarchy_merge(prev, D, target, cfg.kmedoids, next(seeds))
        done("merge")
        grouping = level.assignment[prev.medoids]
        next_anchors, stitches, anchor_stresses = [], [], []
        for g in range(target):
            member_ids = np.flatnonzero(grouping == g)
            union = np.concatenate([anchors[i] for i in member_ids])
            done("stitching")
            # weighting is elementwise: the union plus the medoids gives its exact rows
            # (a medoid can be an anchor too: `block` gives such a repeat D 0)
            block = union if kernel is None else np.concatenate([union, c0.medoids])
            d = D.block(block, block)
            if kernel is None:
                sub = DistanceMatrix(d)
            else:
                local = Clustering(c0.assignment[block], np.arange(union.size, block.size))
                sub = medoid_weighted_distance(1.0 - d ** 2, local,
                                               kernel).submatrix(np.arange(union.size))
            axy, astress = mds_embed(sub, relative_stress_weights(sub.d),
                                     replace(cfg.mds, seed=next(seeds)))
            done("anchor_mds")
            anchor_stresses.append(astress)
            # each member's anchors are its contiguous rows of the union
            ends = np.cumsum([anchors[i].size for i in member_ids])
            for i, end in zip(member_ids, ends):
                a_idx = anchors[i]
                a_loc, a_glo = coords[a_idx], axy[end - a_idx.size:end]
                points = prev.members(i)
                tr, mapped = choose_best_transform(coords[points], a_loc, a_glo)
                coords[points] = mapped
                stitches.append(Stitch(group=g, kind=tr.kind, matrix=tr.matrix,
                                       anchor_indices=a_idx, anchors_local=a_loc,
                                       anchors_global=a_glo))
                for fc in np.flatnonzero(prev.assignment[c0.medoids] == i):  # finest clusters in i
                    comp[fc] = tr.matrix @ comp[fc]
            if target > 1:  # the top level has nothing left to stitch into
                next_anchors.append(best_quadruple(D, union))
        anchors = next_anchors or None
        per_level.append(LevelArtifacts(
            clustering=level, anchors=anchors, stitches=stitches,
            anchor_stress=float(np.sum(anchor_stresses)),
        ))
        prev = level
    done("stitching")

    if not np.all(np.isfinite(coords)):
        raise ValidationError("non-finite coordinates in embedding")
    return ClmdsResult(
        coords=coords, clustering=c0, per_level=per_level,
        sparse_indices=sparse, estimated_mask=np.zeros(n, dtype=bool),
        local_coords=local_coords, cluster_transforms=comp, incoherence=irel,
    )


def estimate_out_of_sample(source, sparse_result: ClmdsResult,
                           sparse_sel: SparseSelection) -> ClmdsResult:
    """Complete a sparse embedding to the full dataset.

    source is the distance source that clustered the sparse points, with its
    `features`, or a `FeatureSet`, read as the Euclidean distances of its
    rows. Each non-sparse point joins the cluster of its nearest medoid by
    these distances, ties to the lower cluster. Per cluster, an affine from
    the features to local 2-d coordinates, fitted on the sparse members and
    composed with the cluster's stitch, places it. Clusters with fewer than 3
    sparse members, and points that this map sends to infinity, go to the
    cluster's transformed mean local coordinate; their clusters are flagged.
    """
    euclidean = isinstance(source, FeatureSet)
    x = (source if euclidean else source.features).vectors
    n = x.shape[0]
    sp, comp_idx = sparse_sel.sparse, sparse_sel.complement
    if sp.size != sparse_result.n_points:
        raise ValidationError("sparse selection does not match the sparse result")
    if not np.array_equal(np.union1d(sp, comp_idx), np.arange(n)):  # the two are disjoint
        raise ValidationError(f"sparse set ({sp.size}) and complement ({comp_idx.size}) "
                              f"must split the {n} feature rows exactly")
    c = sparse_result.clustering
    med_orig = sp[c.medoids]
    dist = (pairwise_distances(x[comp_idx], x[med_orig]) if euclidean
            else source.block(comp_idx, med_orig))
    nearest = np.argmin(dist, axis=1)  # ties to the lower cluster
    assignment = np.empty(n, dtype=int)
    assignment[sp], assignment[comp_idx] = c.assignment, nearest
    coords = np.empty((n, 2))
    coords[sp] = sparse_result.coords
    fallback = []
    for k in np.unique(nearest):
        new_pts = comp_idx[nearest == k]
        t_k = sparse_result.cluster_transforms[k]
        members = c.members(k)
        y_loc = sparse_result.local_coords[k]
        a_tilde, _ = least_squares_affine(x[sp[members]], y_loc)
        coords[new_pts], far = project(t_k @ a_tilde, x[new_pts])
        far |= members.size < 3  # too few sparse members to fit the affine
        if np.any(far):
            coords[new_pts[far]] = project(t_k, y_loc.mean(axis=0))[0]
            fallback.append(int(k))

    return replace(
        sparse_result, coords=coords, clustering=Clustering(assignment, med_orig),
        sparse_indices=sp, estimated_mask=np.isin(np.arange(n), comp_idx),
        estimation_available=True, fallback_clusters=fallback,
        timings=dict(sparse_result.timings),
    )
