"""Batch front-end: config parsing, pipeline invocation, artifact export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from .anchors import AnchorConfig
from .core import (Clustering, ClmdsResult, HierarchySpec, LevelArtifacts, Stitch,
                   ValidationError, euclidean_distances, load_distance_matrix,
                   load_feature_set)
from .datagen import HolesSpec, gen_holes_dataset, gen_s_curve, voronoi_containment
from .kernel import KernelConfig, kernel_matrix, kernel_to_distance
from .kmedoids import KmedoidsConfig
from .mds import MdsConfig
from .pipeline import ClmdsConfig, clmds_embed
from .svgplot import render_scatter

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

_DEFAULTS = {
    "input": None,
    "input_kind": "distances",  # distances | features | descriptors
    "hierarchy": "8,1",
    "n_iso": "1",
    "iter_med": "100",
    "max_swaps": "1000",
    "mds_n_init": "4",
    "mds_max_iter": "300",
    "mds_eps": "1e-6",
    "anchor_pool": "member_anchors",
    "sparsify": "none",
    "n_sparse": "",
    "seed": "0",
    "zeta": "1.0",
    "eta": "1",
    "normalize": "false",
    "weighted": "false",
    "output_dir": ".",
    "plot": "false",
}


def parse_config(path: str | None, overrides: list[str]) -> dict:
    """Key-value config file plus --set overrides, on top of defaults."""
    cfg = dict(_DEFAULTS)
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key = value")
                key, value = (tok.strip() for tok in line.split("=", 1))
                if key not in cfg:
                    raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = value
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, value = (tok.strip() for tok in item.split("=", 1))
        if key not in cfg:
            raise ValidationError(f"--set: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ValidationError(f"{key} must be a boolean, got {raw!r}") from None


def build_run_config(cfg: dict) -> ClmdsConfig:
    hierarchy = HierarchySpec(tuple(int(x) for x in cfg["hierarchy"].split(",")))
    seed = int(cfg["seed"])
    km = KmedoidsConfig(k=hierarchy.levels[0], n_iso=int(cfg["n_iso"]),
                        iter_med=int(cfg["iter_med"]), max_swaps=int(cfg["max_swaps"]),
                        seed=seed)
    mds = MdsConfig(n_init=int(cfg["mds_n_init"]), max_iter=int(cfg["mds_max_iter"]),
                    eps=float(cfg["mds_eps"]), seed=seed)
    sparsify = cfg["sparsify"]
    if sparsify not in ("none", "random", "cur"):
        sparsify = [int(x) for x in sparsify.split(",")]
    n_sparse = int(cfg["n_sparse"]) if cfg["n_sparse"] else None
    return ClmdsConfig(
        hierarchy=hierarchy, kmedoids=km, mds=mds, anchors=AnchorConfig(),
        sparsify=sparsify, n_sparse=n_sparse, seed=seed,
        anchor_pool=cfg["anchor_pool"], kernel_eta=int(cfg["eta"]),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def result_to_coords_csv(result: ClmdsResult, ids=None) -> str:
    """coords.csv body: one row per embedded point."""
    orig = result.sparse_indices if result.coords.shape[0] == result.sparse_indices.shape[0] \
        and not result.estimation_available else None
    n = result.coords.shape[0]
    point_ids = list(range(n)) if orig is None else [int(i) for i in orig]
    if ids is not None:
        point_ids = [ids[i] for i in point_ids]
    medoid_rows = set(int(i) for i in result.clustering.medoids)
    anchor_rows = _finest_anchor_rows(result)
    lines = ["id,x,y,cluster,is_medoid,is_anchor,is_estimated"]
    for row in range(n):
        lines.append(",".join([
            str(point_ids[row]),
            _fmt(result.coords[row, 0]), _fmt(result.coords[row, 1]),
            str(int(result.clustering.assignment[row])),
            str(int(row in medoid_rows)), str(int(row in anchor_rows)),
            str(int(bool(result.estimated_mask[row]))),
        ]))
    return "\n".join(lines) + "\n"


def _finest_anchor_rows(result: ClmdsResult) -> set[int]:
    """Rows of result.coords that are finest-level anchor points."""
    anchors = result.per_level[0].anchors or []
    rows = set()
    sparse_only = result.coords.shape[0] == result.sparse_indices.shape[0]
    for arr in anchors:
        for a in arr:
            rows.add(int(a) if sparse_only else int(result.sparse_indices[int(a)]))
    return rows


# A stitch is written as one JSON object with a key per field; array fields
# become nested lists.
_STITCH_FIELDS = dataclasses.fields(Stitch)


def result_to_json(result: ClmdsResult) -> str:
    def level_dict(lv: LevelArtifacts) -> dict:
        return {
            "assignment": lv.clustering.assignment.tolist(),
            "medoids": lv.clustering.medoids.tolist(),
            "anchors": None if lv.anchors is None else [a.tolist() for a in lv.anchors],
            "anchor_coords": None if lv.anchor_coords is None else
                {str(k): list(v) for k, v in lv.anchor_coords.items()},
            "stitches": None if lv.stitches is None else [
                {f.name: np.asarray(getattr(s, f.name)).tolist() for f in _STITCH_FIELDS}
                for s in lv.stitches],
            "local_stresses": lv.local_stresses,
            "anchor_stress": lv.anchor_stress,
        }

    payload = {
        "n_points": int(result.coords.shape[0]),
        "incoherence": result.incoherence,
        "estimation_available": result.estimation_available,
        "fallback_clusters": result.fallback_clusters,
        "sparse_indices": result.sparse_indices.tolist(),
        "estimated_mask": result.estimated_mask.astype(int).tolist(),
        "per_level": [level_dict(lv) for lv in result.per_level],
        "local_coords": [c.tolist() for c in result.local_coords],
        "cluster_transforms": [np.asarray(t).tolist() for t in result.cluster_transforms],
        "timings": result.timings,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def load_result(out_dir: str) -> ClmdsResult:
    """Rebuild a ClmdsResult from coords.csv + result.json."""
    with open(os.path.join(out_dir, "result.json")) as fh:
        meta = json.load(fh)
    coords, assignment, estimated = [], [], []
    with open(os.path.join(out_dir, "coords.csv")) as fh:
        next(fh)
        for line in fh:
            toks = line.strip().split(",")
            coords.append([float(toks[1]), float(toks[2])])
            assignment.append(int(toks[3]))
            estimated.append(bool(int(toks[6])))
    finest = meta["per_level"][0]
    if any(meta["estimated_mask"]):
        # completed sparse run: finest medoids are sparse-local rows
        medoids = [int(meta["sparse_indices"][m]) for m in finest["medoids"]]
    else:
        medoids = finest["medoids"]
    per_level = []
    for lv in meta["per_level"]:
        per_level.append(LevelArtifacts(
            clustering=Clustering(np.array(lv["assignment"]), np.array(lv["medoids"])),
            anchors=None if lv["anchors"] is None else [np.array(a) for a in lv["anchors"]],
            anchor_coords=None if lv["anchor_coords"] is None else
                {int(k): tuple(v) for k, v in lv["anchor_coords"].items()},
            stitches=None if lv["stitches"] is None else [
                Stitch(**{f.name: np.array(v) if isinstance(v := s[f.name], list) else v
                          for f in _STITCH_FIELDS}) for s in lv["stitches"]],
            local_stresses=lv["local_stresses"],
            anchor_stress=lv["anchor_stress"],
        ))
    return ClmdsResult(
        coords=np.array(coords),
        clustering=Clustering(np.array(assignment), np.array(medoids)),
        per_level=per_level,
        sparse_indices=np.array(meta["sparse_indices"]),
        estimated_mask=np.array(meta["estimated_mask"], dtype=bool),
        local_coords=[np.array(c) for c in meta["local_coords"]],
        cluster_transforms=[np.array(t) for t in meta["cluster_transforms"]],
        incoherence=meta["incoherence"],
        estimation_available=meta["estimation_available"],
        fallback_clusters=meta["fallback_clusters"],
        timings=meta["timings"],
    )


def _write_atomic(out_dir: str, artifacts: dict[str, str]):
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    try:
        for name, text in artifacts.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            staged.append((tmp, os.path.join(out_dir, name)))
        for tmp, dst in staged:
            os.replace(tmp, dst)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def cmd_embed(args) -> int:
    cfg = parse_config(args.config, args.set or [])
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.plot:
        cfg["plot"] = "true"
    if cfg["input"] is None:
        raise ValidationError("no input file configured")
    run_cfg = build_run_config(cfg)

    kind = cfg["input_kind"]
    features = None
    if kind == "distances":
        D = load_distance_matrix(cfg["input"])
    elif kind == "features":
        features = load_feature_set(cfg["input"])
        D = euclidean_distances(features)
    elif kind == "descriptors":
        features = load_feature_set(cfg["input"])
        kcfg = KernelConfig(zeta=float(cfg["zeta"]), eta=int(cfg["eta"]),
                            normalize=_parse_bool(cfg["normalize"], "normalize"))
        k = kernel_matrix(features, kcfg)
        D = kernel_to_distance(k)
        if _parse_bool(cfg["weighted"], "weighted"):
            run_cfg = dataclasses.replace(run_cfg, kernel_similarity=k)
    else:
        raise ValidationError(f"unknown input kind {kind!r}")

    result = clmds_embed(D, run_cfg, features=features)
    artifacts = {
        "coords.csv": result_to_coords_csv(result),
        "result.json": result_to_json(result),
    }
    if _parse_bool(cfg["plot"], "plot"):
        medoid_rows = [int(m) for m in result.clustering.medoids]
        anchor_rows = sorted(_finest_anchor_rows(result))
        artifacts["plot.svg"] = render_scatter(
            result.coords, result.clustering.assignment, medoid_rows, anchor_rows)
    _write_atomic(cfg["output_dir"], artifacts)
    print(f"wrote {len(artifacts)} artifacts to {cfg['output_dir']}")
    return 0


def _features_csv(vectors: np.ndarray, header: str) -> str:
    lines = [f"# {header}"]
    for row in vectors:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_datagen(args) -> int:
    out = args.output_dir
    if args.dataset == "s-curve":
        fs = gen_s_curve(args.n, seed=args.seed)
        _write_atomic(out, {"features.csv": _features_csv(fs.vectors, "s-curve x,y,z")})
    else:
        spec = HolesSpec(n_points=args.n, n_holes=args.holes,
                         hole_radius=args.radius, seed=args.seed)
        fs, truth, centers = gen_holes_dataset(spec)
        _write_atomic(out, {
            "features.csv": _features_csv(fs.vectors, "distances to hole centers"),
            "truth.csv": _features_csv(truth, "ground-truth 2-d positions"),
            "holes.csv": _features_csv(centers, "hole centers"),
        })
    print(f"wrote dataset to {out}")
    return 0


def cmd_metrics(args) -> int:
    result = load_result(args.result_dir)
    print(f"voronoi_containment {voronoi_containment(result):.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="clmds",
                                     description="cluster MDS embedding tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="run the embedding pipeline")
    p_embed.add_argument("--config", help="key = value config file")
    p_embed.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key")
    p_embed.add_argument("--output-dir")
    p_embed.add_argument("--plot", action="store_true")
    p_embed.add_argument("--seed", type=int)
    p_embed.set_defaults(func=cmd_embed)

    p_gen = sub.add_parser("datagen", help="generate a synthetic dataset")
    gen_sub = p_gen.add_subparsers(dest="dataset", required=True)
    p_s = gen_sub.add_parser("s-curve")
    p_s.add_argument("--n", type=int, default=1000)
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--output-dir", default=".")
    p_s.set_defaults(func=cmd_datagen)
    p_h = gen_sub.add_parser("holes")
    p_h.add_argument("--n", type=int, default=1000)
    p_h.add_argument("--holes", type=int, default=12)
    p_h.add_argument("--radius", type=float, default=0.08)
    p_h.add_argument("--seed", type=int, default=0)
    p_h.add_argument("--output-dir", default=".")
    p_h.set_defaults(func=cmd_datagen)

    p_met = sub.add_parser("metrics", help="quality metrics on a result")
    met_sub = p_met.add_subparsers(dest="metric", required=True)
    p_vor = met_sub.add_parser("voronoi")
    p_vor.add_argument("--result-dir", required=True)
    p_vor.set_defaults(func=cmd_metrics)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
