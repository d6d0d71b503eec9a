"""cl-MDS orchestration: clustering, local/global embeddings, stitching,
hierarchical merging, sparsification and out-of-sample estimation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .anchors import best_quadruple, select_anchors
from .core import (Clustering, ClmdsResult, DistanceMatrix, FeatureSet, HierarchySpec,
                   LevelArtifacts, Stitch, ValidationError, pairwise_distances)
from .kernel import KernelConfig, medoid_weighted_distance
from .kmedoids import KmedoidsConfig, kmedoids_best, relative_incoherence
from .mds import MdsConfig, mds_embed, relative_stress_weights
from .transforms import choose_best_transform, project


@dataclass(frozen=True)
class SparseSelection:
    sparse: np.ndarray
    complement: np.ndarray

    def __post_init__(self):
        sp = np.sort(np.asarray(self.sparse, dtype=int))
        co = np.sort(np.asarray(self.complement, dtype=int))
        object.__setattr__(self, "sparse", sp)
        object.__setattr__(self, "complement", co)


@dataclass(frozen=True)
class ClmdsConfig:
    """Settings of one cl-MDS run.

    The ``k`` and ``seed`` of ``kmedoids`` and the ``seed`` of ``mds`` are
    overridden: each level takes ``k`` from the hierarchy, and every
    k-medoids and MDS call gets its own sub-seed drawn from ``seed``.
    ``mds.n_init`` sets the starts of the anchor MDS only: a local MDS maps
    just its own cluster and runs one start, the classical one when defined.
    With ``kernel_eta`` set, D must be kernel-induced, and each anchor MDS
    reads its block of ``medoid_weighted_distance`` with that eta.
    """

    hierarchy: HierarchySpec
    kmedoids: KmedoidsConfig | None = None
    mds: MdsConfig = field(default_factory=MdsConfig)
    sparsify: object = "none"  # "none" | "random" | "cur" | sequence of indices
    n_sparse: int | None = None
    seed: int = 0
    anchor_pool: str = "member_anchors"  # or "full_cluster"
    kernel_eta: int | None = None

    def __post_init__(self):
        if self.kmedoids is None:
            object.__setattr__(self, "kmedoids", KmedoidsConfig(k=self.hierarchy.levels[0]))
        if self.anchor_pool not in ("member_anchors", "full_cluster"):
            raise ValidationError(f"unknown anchor pool {self.anchor_pool!r}")
        mode = self.sparsify if isinstance(self.sparsify, str) else "list"
        if mode not in ("none", "random", "cur", "list"):
            raise ValidationError(f"unknown sparsify mode {self.sparsify!r}")


def sparsify_select(D: DistanceMatrix, sparsify, n_sparse: int | None,
                    seed: int = 0, n_min: int = 1) -> SparseSelection:
    """Select the sparse index set: uniform random, CUR-style row norms,
    or an explicit user list."""
    n = D.n_points
    everything = np.arange(n)
    if not isinstance(sparsify, str):
        idx = np.asarray(list(sparsify), dtype=int)
        if idx.size != np.unique(idx).size:
            raise ValidationError("explicit sparse list has duplicates")
        if idx.size == 0 or np.any(idx < 0) or np.any(idx >= n):
            raise ValidationError("explicit sparse list index out of range")
        sp = np.sort(idx)
    else:
        if sparsify == "none":
            return SparseSelection(everything, np.empty(0, dtype=int))
        if n_sparse is None or n_sparse < 1 or n_sparse > n:
            raise ValidationError("n_sparse must lie in [1, N]")
        if sparsify == "random":
            rng = np.random.default_rng(seed)
            sp = np.sort(rng.choice(n, size=n_sparse, replace=False))
        elif sparsify == "cur":
            norms = np.linalg.norm(D.submatrix(everything).d, axis=1)
            order = np.lexsort((everything, -norms))  # descending norm, ties low index
            sp = np.sort(order[:n_sparse])
        else:
            raise ValidationError(f"unknown sparsify mode {sparsify!r}")
    if sp.size < n_min:
        raise ValidationError(f"sparse set size {sp.size} below finest cluster count {n_min}")
    return SparseSelection(sp, np.setdiff1d(everything, sp))


def hierarchy_merge(previous: Clustering, D: DistanceMatrix, target: int,
                    km_cfg: KmedoidsConfig | None = None, seed: int = 0) -> Clustering:
    """Merge a clustering down to `target` clusters by k-medoids on its medoids.

    Each merged cluster keeps, as its medoid, the previous medoid with the
    least summed distance to the other previous medoids it absorbs (the
    lowest index on ties).
    """
    if target >= previous.n_clusters:
        raise ValidationError("merge target must be below the current cluster count")
    if previous.n_points != D.n_points:
        raise ValidationError(f"clustering of {previous.n_points} points does not match "
                              f"a distance matrix of {D.n_points}")
    medoids = previous.medoids
    if target == 1:
        grouping = np.zeros(medoids.shape[0], dtype=int)
    else:
        km_cfg = km_cfg or KmedoidsConfig(k=target)
        # n_iso fits the finest level; a merge target may be below it
        km_cfg = replace(km_cfg, k=target, n_iso=min(km_cfg.n_iso, target), seed=seed)
        grouping = kmedoids_best(D.submatrix(medoids), km_cfg).assignment
    merged_medoids = np.empty(target, dtype=int)
    for g in range(target):
        meds = np.sort(medoids[grouping == g])
        merged_medoids[g] = meds[int(np.argmin(D.d[np.ix_(meds, meds)].sum(axis=1)))]
    return Clustering(grouping[previous.assignment], merged_medoids)


def clmds_embed(D: DistanceMatrix, cfg: ClmdsConfig,
                features: FeatureSet | None = None) -> ClmdsResult:
    """Run the full pipeline on a distance matrix.

    The pipeline embeds the sparse subset (every point when sparsify is
    "none") through `D.submatrix`, so D may be any object with `n_points`
    and `submatrix(idx) -> DistanceMatrix` that builds only the distances
    asked for; `sparsify="cur"` asks for every point. Points left out get
    estimated coordinates when descriptor vectors are supplied; otherwise
    the result covers the sparse subset only (estimation needs vectors).
    With `cfg.kernel_eta` set, a distance above 1 raises a ValidationError.
    """
    n = D.n_points
    if cfg.hierarchy.levels[0] > n:
        raise ValidationError("finest cluster count exceeds number of points")
    t0 = time.perf_counter()
    sel = sparsify_select(D, cfg.sparsify, cfg.n_sparse, seed=cfg.seed,
                          n_min=cfg.hierarchy.levels[0])
    t1 = time.perf_counter()
    sub = D.submatrix(sel.sparse)
    t2 = time.perf_counter()
    result = _core_run(sub, cfg)
    result.timings.update(sparsify=t1 - t0, distances=t2 - t1)
    if sel.complement.size:
        result.sparse_indices = sel.sparse
        result.estimation_available = features is not None
        if features is not None:
            t3 = time.perf_counter()
            result = estimate_out_of_sample(features, result, sel)
            result.timings["estimate"] = time.perf_counter() - t3
    result.timings["total"] = time.perf_counter() - t0
    return result


def _core_run(D: DistanceMatrix, cfg: ClmdsConfig) -> ClmdsResult:
    n = D.n_points
    levels = cfg.hierarchy.levels
    # one sub-seed per call, in call order: k-medoids, each local MDS, then
    # per level the merge and each group's anchor MDS (drawn even if unused)
    n_calls = 1 + levels[0] + sum(1 + t for t in levels[1:])
    seeds = (int(child.generate_state(1, dtype=np.uint64)[0] >> 1)
             for child in np.random.SeedSequence(cfg.seed).spawn(n_calls))
    timings = {}
    kernel = None if cfg.kernel_eta is None else KernelConfig(eta=cfg.kernel_eta)
    if kernel is not None and 1.0 - np.max(D.d) ** 2 < -1e-12:  # d = sqrt(1 - k)
        raise ValidationError("kernel entries 1 - d^2 must lie in [0, 1]: "
                              "medoid weighting needs kernel-induced distances")

    t0 = time.perf_counter()
    c0 = kmedoids_best(D, replace(cfg.kmedoids, k=levels[0], seed=next(seeds)))
    irel = relative_incoherence(D, c0)
    timings["kmedoids"] = time.perf_counter() - t0

    # every point, in the frame of its cluster at the current level
    coords = np.empty((n, 2))
    t0 = time.perf_counter()
    local_coords, local_stresses = [], []
    for k in range(c0.n_clusters):
        members = c0.members(k)
        xy, sig = mds_embed(D.submatrix(members),
                            cfg=replace(cfg.mds, n_init=1, seed=next(seeds)))
        coords[members] = xy
        local_coords.append(xy)
        local_stresses.append(sig)
    timings["local_mds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    anchors = select_anchors(D, c0)
    timings["anchors"] = time.perf_counter() - t0

    per_level = [LevelArtifacts(clustering=c0, anchors=anchors,
                                local_stresses=local_stresses)]
    comp = [np.eye(3) for _ in range(c0.n_clusters)]
    finest_group = np.arange(c0.n_clusters)  # each finest cluster's current cluster

    t0 = time.perf_counter()
    anchor_mds_s = merge_s = 0.0
    prev = c0
    for target in levels[1:]:
        t1 = time.perf_counter()
        level = hierarchy_merge(prev, D, target, cfg.kmedoids, next(seeds))
        merge_s += time.perf_counter() - t1
        grouping = level.assignment[prev.medoids]
        unions, stitches, anchor_stresses = [], [], []
        for g in range(target):
            member_ids = np.flatnonzero(grouping == g)
            union = np.concatenate([anchors[i] for i in member_ids])
            t1 = time.perf_counter()
            # weighting is elementwise: the union plus the medoids gives its exact rows
            block = union if kernel is None else np.concatenate([union, c0.medoids])
            sub = D.submatrix(block)
            if kernel is not None:
                local = Clustering(c0.assignment[block], np.arange(union.size, block.size))
                sub = medoid_weighted_distance(1.0 - sub.d ** 2, local,
                                               kernel).submatrix(np.arange(union.size))
            axy, astress = mds_embed(sub, relative_stress_weights(sub.d),
                                     replace(cfg.mds, seed=next(seeds)))
            anchor_mds_s += time.perf_counter() - t1
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
                for fc in np.flatnonzero(finest_group == i):
                    comp[fc] = tr.matrix @ comp[fc]
            unions.append(union)
        finest_group = grouping[finest_group]
        if target == 1:  # the top level: nothing left to stitch into
            anchors = None
        elif cfg.anchor_pool == "full_cluster":
            anchors = select_anchors(D, level)
        else:
            anchors = [best_quadruple(D, u) for u in unions]
        per_level.append(LevelArtifacts(
            clustering=level, anchors=anchors, stitches=stitches,
            anchor_stress=float(np.sum(anchor_stresses)),
        ))
        prev = level
    timings["anchor_mds"] = anchor_mds_s
    timings["merge"] = merge_s
    # the hierarchy loop less its anchor MDS and merges: pool anchors, stitches
    timings["stitching"] = time.perf_counter() - t0 - anchor_mds_s - merge_s

    if not np.all(np.isfinite(coords)):
        raise ValidationError("non-finite coordinates in embedding")
    return ClmdsResult(
        coords=coords, clustering=c0, per_level=per_level,
        sparse_indices=np.arange(n), estimated_mask=np.zeros(n, dtype=bool),
        local_coords=local_coords, cluster_transforms=comp,
        incoherence=irel, timings=timings,
    )


def estimate_out_of_sample(fs: FeatureSet, sparse_result: ClmdsResult,
                           sparse_sel: SparseSelection) -> ClmdsResult:
    """Complete a sparse embedding to the full dataset.

    Non-sparse points join the cluster of their nearest medoid in
    descriptor space; per cluster an affine from descriptors to local 2-d
    coordinates is fitted on the sparse members and composed with the
    cluster's stitching transform. Clusters with fewer than 3 sparse
    members, and points that this map sends to infinity, are placed at the
    cluster's transformed mean local coordinate; their clusters are flagged.
    """
    x = fs.vectors
    n = x.shape[0]
    sp, comp_idx = sparse_sel.sparse, sparse_sel.complement
    if sp.size != sparse_result.n_points:
        raise ValidationError("sparse selection does not match the sparse result")
    c = sparse_result.clustering
    med_orig = sp[c.medoids]

    coords = np.empty((n, 2))
    coords[sp] = sparse_result.coords
    assignment = np.empty(n, dtype=int)
    assignment[sp] = c.assignment
    estimated = np.zeros(n, dtype=bool)
    fallback = []

    if comp_idx.size:
        nearest = np.argmin(pairwise_distances(x[comp_idx], x[med_orig]), axis=1)
        assignment[comp_idx] = nearest
        estimated[comp_idx] = True
        for k in np.unique(nearest):
            new_pts = comp_idx[nearest == k]
            t_k = sparse_result.cluster_transforms[k]
            members = c.members(k)
            y_loc = sparse_result.local_coords[k]
            if members.size >= 3:
                a = np.column_stack([x[sp[members]], np.ones(members.size)])
                sol, _, _, _ = np.linalg.lstsq(a, y_loc, rcond=None)
                a_tilde = np.zeros((3, x.shape[1] + 1))
                a_tilde[:2] = sol.T
                a_tilde[2, -1] = 1.0
                coords[new_pts], far = project(t_k @ a_tilde, x[new_pts])
            else:  # too few sparse members to fit the affine
                far = np.ones(new_pts.size, dtype=bool)
            if np.any(far):
                coords[new_pts[far]] = project(t_k, y_loc.mean(axis=0))[0]
                fallback.append(int(k))

    return replace(
        sparse_result, coords=coords, clustering=Clustering(assignment, med_orig),
        sparse_indices=sp, estimated_mask=estimated, estimation_available=True,
        fallback_clusters=fallback, timings=dict(sparse_result.timings),
    )
