"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines for passing tests too. Reference constants below were frozen from a
pre-build calibration run on this implementation (5 seeds, holes dataset,
N=1000, N_h=12, hierarchy [12,1]).
"""

import itertools
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from clmds import (Clustering, ClmdsConfig, ClmdsResult, DistanceMatrix, FeatureSet,
                   HierarchySpec, HolesSpec, KernelConfig, KmedoidsConfig, MdsConfig,
                   SparseSelection, Transform2D, apply_transform, classify_transform,
                   clmds_embed,
                   estimate_out_of_sample, euclidean_distances, gen_holes_dataset,
                   gen_s_curve, kernel_to_distance, kmedoids_best,
                   medoid_weighted_distance, mds_embed, relative_incoherence,
                   simplex_volume_sq, voronoi_containment)
from clmds.cli import main as cli_main
from clmds.mds import _smacof, _weight_matrix

# Voronoi-containment floor for criterion 5: reference mean 0.8648 - 0.05,
# measured over seeds 0..4 before freezing this suite.
CONTAINMENT_FLOOR = 0.8148


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cayley_menger():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(3, 11))
        pts = rng.normal(size=(4, dim))
        d = cdist(pts, pts)
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        e = pts[1:] - pts[0]
        oracle = np.linalg.det(e @ e.T) / 36.0
        got = simplex_volume_sq(d)
        worst = max(worst, abs(got - oracle) / abs(oracle))
    coplanar_ok = True
    for _ in range(50):
        flat = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 5))
        d = cdist(flat, flat)
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        coplanar_ok &= abs(simplex_volume_sq(d)) < 1e-12
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and coplanar_ok and dt < 5.0
    _report(1, ok, f"volume rel err {worst:.2e}, coplanar<1e-12 {coplanar_ok}, {dt:.2f}s")


def _brute_force_irel(d: np.ndarray, k: int) -> float:
    n = d.shape[0]
    best = np.inf
    for meds in itertools.combinations(range(n), k):
        meds = np.array(meds)
        a = np.argmin(d[:, meds], axis=1)
        a[meds] = np.arange(k)
        counts = np.bincount(a, minlength=k)
        if np.any(counts == 0):
            continue
        total = sum(d[a == kk, meds[kk]].sum() / counts[kk] for kk in range(k))
        best = min(best, total)
    return best


def test_criterion_2_kmedoids_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    hits, never_below = 0, True
    n_inst = 50
    for i in range(n_inst):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(5, 13))
        dims = int(rng.integers(2, 5))
        centers = rng.uniform(-4, 4, size=(k, dims))
        sizes = np.bincount(rng.integers(0, k, size=n - k), minlength=k) + 1
        pts = np.vstack([rng.normal(centers[j], 0.5, (sizes[j], dims))
                         for j in range(k)])
        D = euclidean_distances(FeatureSet(pts))
        c = kmedoids_best(D, KmedoidsConfig(k=k, iter_med=50, seed=i))
        got = relative_incoherence(D, c)
        opt = _brute_force_irel(D.d, k)
        never_below &= got >= opt - 1e-12
        hits += abs(got - opt) <= 1e-12
    dt = time.perf_counter() - t0
    ok = hits >= 0.9 * n_inst and never_below and dt < 10.0
    _report(2, ok, f"optimum reached {hits}/{n_inst}, never below {never_below}, {dt:.2f}s")


def _lstsq_residue_oracle(src, dst) -> float:
    a = np.column_stack([src, np.ones(src.shape[0])])
    sol = np.linalg.solve(a.T @ a, a.T @ dst)  # normal equations
    return float(np.sum((dst - a @ sol) ** 2))


def test_criterion_3_stitching_exactness():
    rng = np.random.default_rng(30)
    n_homog = n_affine4 = n_affine3 = 0
    worst_h = worst_a3 = 0.0
    affine_opt_ok = True
    for run in range(200):
        k = int(rng.integers(3, 6))
        centers = rng.uniform(-10, 10, size=(k, 3))
        per = int(rng.integers(8, 16))
        pts = np.vstack([rng.normal(c, rng.uniform(0.3, 1.2), (per, 3))
                         for c in centers])
        D = euclidean_distances(FeatureSet(pts))
        cfg = ClmdsConfig(hierarchy=HierarchySpec((k, 1)),
                          iter_med=5, mds_n_init=2, seed=run)
        res = clmds_embed(D, cfg)
        for s in res.per_level[1].stitches:
            if s.n_anchors < 3:
                continue  # similarity/translation fallbacks, out of scope here
            t = Transform2D(s.kind, s.matrix)
            mapped = apply_transform(t, s.anchors_local)
            err = float(np.max(np.abs(mapped - s.anchors_global)))
            if s.kind == "homography":
                n_homog += 1
                worst_h = max(worst_h, err)
                continue
            plan = classify_transform(s.anchors_local, s.anchors_global)
            eff = plan.order
            if eff.shape[0] == 4:
                # genuine 4-correspondence affine (either classified affine
                # or a failed-homography fallback)
                n_affine4 += 1
                residue = float(np.sum((mapped - s.anchors_global) ** 2))
                oracle = _lstsq_residue_oracle(s.anchors_local, s.anchors_global)
                affine_opt_ok &= residue <= oracle + 1e-9 * max(1.0, oracle)
            else:
                # anchor set reduced to its local hull: exact on those points
                n_affine3 += 1
                e3 = float(np.max(np.abs(mapped[eff] - s.anchors_global[eff])))
                worst_a3 = max(worst_a3, e3)
    ok = (n_homog > 0 and worst_h < 1e-6 and affine_opt_ok
          and (n_affine3 == 0 or worst_a3 < 1e-9))
    _report(3, ok, f"homography {n_homog} (max err {worst_h:.2e}), "
                   f"4-anchor affine {n_affine4} at LSQ optimum {affine_opt_ok}, "
                   f"3-anchor {n_affine3} (max err {worst_a3:.2e})")


def test_criterion_4_mds_recovery():
    rng = np.random.default_rng(40)
    pts = rng.uniform(-3, 3, size=(50, 2))
    D = euclidean_distances(FeatureSet(pts))
    coords, sig = mds_embed(D, cfg=MdsConfig(seed=0))
    wm = _weight_matrix(D, None)
    iu = np.triu_indices(50, k=1)
    nstress = sig / float(np.sum(wm[iu] * D.d[iu] ** 2))
    monotone = True
    for start in range(4):
        x = np.random.default_rng(start).uniform(-1, 1, size=(50, 2))
        prev = np.inf
        for _ in range(120):
            x, s = _smacof(D.d, wm, x, 1, 1e-16, 1.0)
            monotone &= s <= prev + 1e-12
            prev = s
    ok = nstress < 1e-4 and monotone
    _report(4, ok, f"normalized stress {nstress:.2e}, monotone descent {monotone}")


def test_criterion_5_holes_containment():
    t0 = time.perf_counter()
    cl_scores, wins = [], 0
    for seed in range(5):
        fs, _, _ = gen_holes_dataset(HolesSpec(n_points=1000, n_holes=12, seed=seed))
        D = euclidean_distances(fs)
        res = clmds_embed(D, ClmdsConfig(hierarchy=HierarchySpec((12, 1)), seed=seed))
        s_cl = voronoi_containment(res)
        plain_xy, _ = mds_embed(D, cfg=MdsConfig(seed=seed))
        plain = ClmdsResult(coords=plain_xy, clustering=res.clustering, per_level=[],
                            sparse_indices=np.arange(1000),
                            estimated_mask=np.zeros(1000, dtype=bool))
        s_plain = voronoi_containment(plain)
        cl_scores.append(s_cl)
        wins += s_cl > s_plain
        print(f"  seed {seed}: clmds {s_cl:.4f} vs plain MDS {s_plain:.4f}")
    dt = time.perf_counter() - t0
    mean = float(np.mean(cl_scores))
    ok = wins >= 4 and mean > CONTAINMENT_FLOOR and dt < 120.0
    _report(5, ok, f"beats plain MDS on {wins}/5 seeds (need >=4), "
                   f"mean {mean:.4f} vs floor {CONTAINMENT_FLOOR}, {dt:.1f}s")


def test_criterion_6_s_curve_stability():
    fs = gen_s_curve(1000, seed=0)
    D = euclidean_distances(fs)
    ok = True
    timings = []
    for n_cl in (5, 15, 30):
        t0 = time.perf_counter()
        res = clmds_embed(D, ClmdsConfig(hierarchy=HierarchySpec((n_cl, 1)), seed=0))
        dt = time.perf_counter() - t0
        timings.append(f"N_cl={n_cl}: {dt:.1f}s")
        ok &= bool(np.all(np.isfinite(res.coords))) and res.coords.shape == (1000, 2)
        ok &= dt < 120.0
    _report(6, ok, "finite coordinates for all hierarchies; " + ", ".join(timings))


def test_criterion_7_kernel_identities():
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(500):
        q = np.abs(rng.normal(size=(2, int(rng.integers(2, 9)))))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        k = np.clip(q @ q.T, 0.0, None)
        k = 0.5 * (k + k.T)
        np.fill_diagonal(k, 1.0)
        d = kernel_to_distance(k).d[0, 1]
        worst = max(worst, abs(d - np.linalg.norm(q[0] - q[1]) / np.sqrt(2.0)))
    weighted_ok = True
    for trial in range(20):
        n = 12
        q = np.abs(rng.normal(size=(n, 5)))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        k = np.clip(q @ q.T, 0.0, None)
        k = 0.5 * (k + k.T)
        np.fill_diagonal(k, 1.0)
        assignment = rng.integers(0, 3, size=n)
        for kk in range(3):  # ensure non-empty and self-assigned medoids
            assignment[kk] = kk
        medoids = np.array([0, 1, 2])
        c = Clustering(assignment, medoids)
        d_plain = kernel_to_distance(k).d
        for eta in range(1, 6):
            dw = medoid_weighted_distance(k, c, KernelConfig(eta=eta)).d
            cross = assignment[:, None] != assignment[None, :]
            weighted_ok &= bool(np.all(dw[cross] >= d_plain[cross] - 1e-12))
    ok = worst < 1e-12 and weighted_ok
    _report(7, ok, f"distance identity max err {worst:.2e}, "
                   f"weighted >= plain cross-cluster {weighted_ok}")


def test_criterion_8_out_of_sample_exactness():
    rng = np.random.default_rng(80)
    n_dim = 4
    # two clusters of descriptors; local 2-d coords are exact affine images
    desc = np.vstack([rng.normal(0, 1, (10, n_dim)), rng.normal(8, 1, (10, n_dim))])
    maps = [(rng.normal(size=(2, n_dim)), rng.normal(size=2)) for _ in range(2)]
    local = [desc[:10] @ maps[0][0].T + maps[0][1],
             desc[10:] @ maps[1][0].T + maps[1][1]]
    # duplicate every sparse point as an out-of-sample twin
    fs = FeatureSet(np.vstack([desc, desc]))
    sel = SparseSelection(np.arange(20), np.arange(20, 40))
    t = [np.array([[2.0, 0.5, 1.0], [-0.3, 1.5, -2.0], [0.0, 0.0, 1.0]]),
         np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]])]
    coords = np.vstack([apply_transform(Transform2D("affine", t[0]), local[0]),
                        apply_transform(Transform2D("affine", t[1]), local[1])])
    clustering = Clustering(np.repeat([0, 1], 10), np.array([0, 10]))
    sparse = ClmdsResult(coords=coords, clustering=clustering, per_level=[],
                         sparse_indices=np.arange(20),
                         estimated_mask=np.zeros(20, dtype=bool),
                         local_coords=local, cluster_transforms=t)
    full = estimate_out_of_sample(fs, sparse, sel)
    err = float(np.max(np.abs(full.coords[20:] - full.coords[:20])))
    ok = err < 1e-9 and bool(np.all(full.estimated_mask[20:]))
    _report(8, ok, f"duplicated points land within {err:.2e} of their twins")


def test_criterion_9_determinism_and_nesting(tmp_path):
    rng = np.random.default_rng(90)
    pts = np.vstack([rng.normal(c, 0.3, (10, 3)) for c in
                     [(0, 0, 0), (6, 0, 0), (0, 6, 0), (6, 6, 0), (3, 3, 6), (9, 3, 3)]])
    inp = tmp_path / "f.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in r) for r in pts) + "\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["embed", "--set", f"input={inp}", "--set",
                         "input_kind=features", "--set", "hierarchy=6,3,1",
                         "--set", "iter_med=20", "--seed", "11",
                         "--output-dir", str(out)])
        assert code == 0
        outs.append((out / "coords.csv").read_bytes())
    identical = outs[0] == outs[1]
    res = clmds_embed(euclidean_distances(FeatureSet(pts)),
                      ClmdsConfig(hierarchy=HierarchySpec((6, 3, 1)), seed=11))
    nested = True
    for lv, nxt in zip(res.per_level, res.per_level[1:]):
        a, b = lv.clustering.assignment, nxt.clustering.assignment
        for k in range(lv.clustering.n_clusters):
            nested &= len(set(b[a == k].tolist())) == 1
    ok = identical and nested
    _report(9, ok, f"byte-identical coords.csv {identical}, hierarchy nesting {nested}")
