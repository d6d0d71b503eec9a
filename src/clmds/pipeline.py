"""cl-MDS orchestration: clustering, local/global embeddings, stitching,
hierarchical merging, sparsification and out-of-sample estimation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from .anchors import AnchorConfig, best_quadruple, candidate_vertices, select_anchors
from .core import (Clustering, ClmdsResult, DistanceMatrix, FeatureSet, HierarchySpec,
                   LevelArtifacts, Stitch, ValidationError)
from .kernel import KernelConfig, medoid_weighted_distance
from .kmedoids import KmedoidsConfig, kmedoids_best, relative_incoherence
from .mds import MdsConfig, mds_embed, relative_stress_weights
from .transforms import DIVIDE_TOL, choose_best_transform


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
    hierarchy: HierarchySpec
    kmedoids: KmedoidsConfig | None = None  # k is taken from the hierarchy
    mds: MdsConfig = field(default_factory=MdsConfig)
    anchors: AnchorConfig = field(default_factory=AnchorConfig)
    sparsify: object = "none"  # "none" | "random" | "cur" | sequence of indices
    n_sparse: int | None = None
    seed: int = 0
    anchor_pool: str = "member_anchors"  # or "full_cluster"
    kernel_similarity: np.ndarray | None = None  # opt-in medoid-weighted anchor MDS
    kernel_eta: int = 1

    def __post_init__(self):
        if self.kmedoids is None:
            object.__setattr__(self, "kmedoids", KmedoidsConfig(k=self.hierarchy.levels[0]))
        if self.anchor_pool not in ("member_anchors", "full_cluster"):
            raise ValidationError(f"unknown anchor pool {self.anchor_pool!r}")
        mode = self.sparsify if isinstance(self.sparsify, str) else "list"
        if mode not in ("none", "random", "cur", "list"):
            raise ValidationError(f"unknown sparsify mode {self.sparsify!r}")


class _SeedStream:
    """Deterministic stream of integer sub-seeds derived from a master seed."""

    def __init__(self, seed: int):
        self._ss = np.random.SeedSequence(seed)
        self._n = 0

    def next(self) -> int:
        child = self._ss.spawn(self._n + 1)[self._n]
        self._n += 1
        return int(child.generate_state(1, dtype=np.uint64)[0] >> 1)


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
            norms = np.linalg.norm(D.d, axis=1)
            order = np.lexsort((everything, -norms))  # descending norm, ties low index
            sp = np.sort(order[:n_sparse])
        else:
            raise ValidationError(f"unknown sparsify mode {sparsify!r}")
    if sp.size < n_min:
        raise ValidationError(f"sparse set size {sp.size} below finest cluster count {n_min}")
    return SparseSelection(sp, np.setdiff1d(everything, sp))


def _merge_groups(D: DistanceMatrix, medoids: np.ndarray, target: int,
                  km_cfg: KmedoidsConfig, seed: int):
    """Group clusters by k-medoids on their medoids; return (grouping,
    merged medoid per group)."""
    medoids = np.asarray(medoids, dtype=int)
    if target == 1:
        grouping = np.zeros(medoids.shape[0], dtype=int)
    else:
        sub = DistanceMatrix(D.d[np.ix_(medoids, medoids)])
        gc = kmedoids_best(sub, replace(km_cfg, k=target, seed=seed))
        grouping = gc.assignment
    merged_medoids = np.empty(target, dtype=int)
    for g in range(target):
        member_meds = medoids[grouping == g]
        member_meds = np.sort(member_meds)
        sums = D.d[np.ix_(member_meds, member_meds)].sum(axis=1)
        merged_medoids[g] = member_meds[int(np.argmin(sums))]
    return grouping, merged_medoids


def hierarchy_merge(previous: Clustering, D: DistanceMatrix, target: int,
                    km_cfg: KmedoidsConfig | None = None, seed: int = 0) -> Clustering:
    """Merge a clustering down to `target` clusters via k-medoids on medoids."""
    if target >= previous.n_clusters:
        raise ValidationError("merge target must be below the current cluster count")
    if km_cfg is None:
        km_cfg = KmedoidsConfig(k=target)
    grouping, merged_medoids = _merge_groups(D, previous.medoids, target, km_cfg, seed)
    assignment = grouping[previous.assignment]
    return Clustering(assignment, merged_medoids)


def _group_anchor_pool(D, cfg, points, medoid, anchor_union):
    if cfg.anchor_pool == "full_cluster":
        cand = candidate_vertices(D, points, medoid, cfg.anchors)
        return best_quadruple(D, cand)
    return best_quadruple(D, anchor_union)


def clmds_embed(D: DistanceMatrix, cfg: ClmdsConfig,
                features: FeatureSet | None = None) -> ClmdsResult:
    """Run the full pipeline on a distance matrix.

    With sparsification enabled, the pipeline runs on the sparse subset;
    when descriptor vectors are supplied the remaining points get
    estimated coordinates, otherwise the result covers the sparse subset
    only (estimation needs vectors).
    """
    n = D.n_points
    if cfg.hierarchy.levels[0] > n:
        raise ValidationError("finest cluster count exceeds number of points")
    t0 = time.perf_counter()
    mode = cfg.sparsify if isinstance(cfg.sparsify, str) else "list"
    if mode == "none":
        result = _core_run(D, cfg)
        result.timings["total"] = time.perf_counter() - t0
        return result
    sel = sparsify_select(D, cfg.sparsify, cfg.n_sparse, seed=cfg.seed,
                          n_min=cfg.hierarchy.levels[0])
    sub = DistanceMatrix(D.d[np.ix_(sel.sparse, sel.sparse)])
    kernel_sub = None
    if cfg.kernel_similarity is not None:
        kernel_sub = cfg.kernel_similarity[np.ix_(sel.sparse, sel.sparse)]
    sub_cfg = replace(cfg, sparsify="none", n_sparse=None, kernel_similarity=kernel_sub)
    sparse_result = _core_run(sub, sub_cfg)
    sparse_result.sparse_indices = sel.sparse
    sparse_result.estimation_available = features is not None
    if features is not None:
        sparse_result = estimate_out_of_sample(features, sparse_result, sel)
    sparse_result.timings["total"] = time.perf_counter() - t0
    return sparse_result


def _core_run(D: DistanceMatrix, cfg: ClmdsConfig) -> ClmdsResult:
    n = D.n_points
    seeds = _SeedStream(cfg.seed)
    levels = cfg.hierarchy.levels
    n_cl = levels[0]
    timings = {}

    t0 = time.perf_counter()
    c0 = kmedoids_best(D, replace(cfg.kmedoids, k=n_cl, seed=seeds.next()))
    irel = relative_incoherence(D, c0)
    timings["kmedoids"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    local_coords, local_stresses = [], []
    for k in range(n_cl):
        members = c0.members(k)
        sub = DistanceMatrix(D.d[np.ix_(members, members)])
        xy, sig = mds_embed(sub, cfg=replace(cfg.mds, seed=seeds.next()))
        local_coords.append(xy)
        local_stresses.append(sig)
    timings["local_mds"] = time.perf_counter() - t0

    anchors0 = select_anchors(D, c0, cfg.anchors)
    if cfg.kernel_similarity is not None:
        d_anchor = medoid_weighted_distance(cfg.kernel_similarity, c0,
                                            KernelConfig(eta=cfg.kernel_eta))
    else:
        d_anchor = D

    per_level = [LevelArtifacts(clustering=c0, anchors=anchors0,
                                local_stresses=local_stresses)]
    groups = []
    for k in range(n_cl):
        groups.append({
            "points": c0.members(k), "coords": local_coords[k],
            "anchors": anchors0[k], "medoid": int(c0.medoids[k]),
            "finest": [k],
        })
    comp = [np.eye(3) for _ in range(n_cl)]

    t0 = time.perf_counter()
    for li, target in enumerate(levels[1:], start=1):
        final = li == len(levels) - 1
        group_medoids = np.array([g["medoid"] for g in groups], dtype=int)
        grouping, merged_medoids = _merge_groups(
            D, group_medoids, target, cfg.kmedoids, seeds.next())
        new_groups, stitches = [], []
        anchor_coord_map = {}
        anchor_stresses = []
        for gidx in range(target):
            members = [groups[i] for i in np.flatnonzero(grouping == gidx)]
            anchor_union = np.concatenate([g["anchors"] for g in members])
            sub = DistanceMatrix(d_anchor.d[np.ix_(anchor_union, anchor_union)])
            axy, astress = mds_embed(sub, relative_stress_weights(sub.d),
                                     replace(cfg.mds, seed=seeds.next()))
            anchor_stresses.append(astress)
            row_of = {int(p): r for r, p in enumerate(anchor_union)}
            for p, r in row_of.items():
                anchor_coord_map[p] = (float(axy[r, 0]), float(axy[r, 1]))
            pts_parts, xy_parts = [], []
            for g in members:
                a_idx = g["anchors"]
                loc_rows = np.searchsorted(g["points"], a_idx)
                a_loc = g["coords"][loc_rows]
                a_glo = axy[[row_of[int(p)] for p in a_idx]]
                tr, mapped = choose_best_transform(g["coords"], a_loc, a_glo)
                stitches.append(Stitch(group=gidx, kind=tr.kind, matrix=tr.matrix,
                                       anchor_indices=a_idx, anchors_local=a_loc,
                                       anchors_global=a_glo))
                for fc in g["finest"]:
                    comp[fc] = tr.matrix @ comp[fc]
                pts_parts.append(g["points"])
                xy_parts.append(mapped)
            points = np.concatenate(pts_parts)
            coords = np.vstack(xy_parts)
            order = np.argsort(points)
            points, coords = points[order], coords[order]
            new_anchors = None
            if not final:
                new_anchors = _group_anchor_pool(D, cfg, points,
                                                 int(merged_medoids[gidx]), anchor_union)
            new_groups.append({
                "points": points, "coords": coords, "anchors": new_anchors,
                "medoid": int(merged_medoids[gidx]),
                "finest": sum((g["finest"] for g in members), []),
            })
        assignment = np.empty(n, dtype=int)
        for gidx, g in enumerate(new_groups):
            assignment[g["points"]] = gidx
        level_clustering = Clustering(assignment, merged_medoids)
        per_level.append(LevelArtifacts(
            clustering=level_clustering,
            anchors=None if final else [g["anchors"] for g in new_groups],
            anchor_coords=anchor_coord_map,
            stitches=stitches,
            anchor_stress=float(np.sum(anchor_stresses)),
        ))
        groups = new_groups
    timings["stitching"] = time.perf_counter() - t0

    top = groups[0]
    coords = np.empty((n, 2))
    coords[top["points"]] = top["coords"]
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
    members place their new points at the transformed mean local
    coordinate and are flagged.
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
        nearest = np.argmin(cdist(x[comp_idx], x[med_orig]), axis=1)
        assignment[comp_idx] = nearest
        estimated[comp_idx] = True
        for k in range(c.n_clusters):
            new_pts = comp_idx[nearest == k]
            if new_pts.size == 0:
                continue
            t_k = sparse_result.cluster_transforms[k]
            members = c.members(k)
            y_loc = sparse_result.local_coords[k]
            if members.size >= 3:
                a = np.column_stack([x[sp[members]], np.ones(members.size)])
                sol, _, _, _ = np.linalg.lstsq(a, y_loc, rcond=None)
                a_tilde = np.zeros((3, x.shape[1] + 1))
                a_tilde[:2] = sol.T
                a_tilde[2, -1] = 1.0
                t_tilde = t_k @ a_tilde
                h = t_tilde @ np.column_stack([x[new_pts], np.ones(new_pts.size)]).T
                w = h[2]
                bad = np.abs(w) < DIVIDE_TOL
                w = np.where(bad, 1.0, w)
                est = (h[:2] / w).T
                if np.any(bad):
                    est[bad] = _transformed_mean(t_k, y_loc)
                    fallback.append(k)
                coords[new_pts] = est
            else:
                coords[new_pts] = _transformed_mean(t_k, y_loc)
                fallback.append(k)

    full_clustering = Clustering(assignment, med_orig)
    return ClmdsResult(
        coords=coords, clustering=full_clustering, per_level=sparse_result.per_level,
        sparse_indices=sp, estimated_mask=estimated,
        local_coords=sparse_result.local_coords,
        cluster_transforms=sparse_result.cluster_transforms,
        incoherence=sparse_result.incoherence,
        estimation_available=True, fallback_clusters=sorted(set(fallback)),
        timings=dict(sparse_result.timings),
    )


def _transformed_mean(t_k: np.ndarray, y_loc: np.ndarray) -> np.ndarray:
    mean = y_loc.mean(axis=0)
    h = t_k @ np.append(mean, 1.0)
    w = h[2] if abs(h[2]) > DIVIDE_TOL else 1.0
    return h[:2] / w
