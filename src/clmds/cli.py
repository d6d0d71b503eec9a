"""Batch front-end: config parsing, pipeline invocation, artifact export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import typing

import numpy as np

from .core import (ClmdsResult, DistanceMatrix, FeatureSet, HierarchySpec, ValidationError,
                   euclidean_distances, load_distance_matrix, load_feature_set)
from .datagen import HolesSpec, gen_holes_dataset, gen_s_curve, voronoi_containment
from .kernel import KernelConfig, kernel_matrix, kernel_to_distance, unit_descriptors
from .kmedoids import KmedoidsConfig
from .mds import MdsConfig
from .pipeline import ClmdsConfig, clmds_embed
from .svgplot import render_scatter

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_FORMS = {bool: "a boolean (true/false, yes/no, 1/0)", int: "an integer", float: "a number"}

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


def _parse(cfg: dict, key: str, kind: type = bool, raw: str | None = None):
    """cfg[key], or raw, one item of it, as a bool, int or float."""
    raw = cfg[key] if raw is None else raw
    try:
        return _BOOL[raw.strip().lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ValidationError(f"{key}: {raw!r} is not {_FORMS[kind]}") from None


def build_run_config(cfg: dict) -> ClmdsConfig:
    hierarchy = HierarchySpec(tuple(_parse(cfg, "hierarchy", int, x)
                                    for x in cfg["hierarchy"].split(",")))
    km = KmedoidsConfig(k=hierarchy.levels[0], n_iso=_parse(cfg, "n_iso", int),
                        iter_med=_parse(cfg, "iter_med", int),
                        max_swaps=_parse(cfg, "max_swaps", int))
    mds = MdsConfig(n_init=_parse(cfg, "mds_n_init", int),
                    max_iter=_parse(cfg, "mds_max_iter", int), eps=_parse(cfg, "mds_eps", float))
    sparsify = cfg["sparsify"]
    if sparsify not in ("none", "random", "cur"):
        try:
            sparsify = [int(x) for x in sparsify.split(",")]
        except ValueError:
            raise ValidationError(f"sparsify must be none, random, cur or a comma-separated "
                                  f"list of point indices, got {sparsify!r}") from None
    n_sparse = _parse(cfg, "n_sparse", int) if cfg["n_sparse"] else None
    weighted = _parse(cfg, "weighted") and cfg["input_kind"] == "descriptors"
    return ClmdsConfig(
        hierarchy=hierarchy, kmedoids=km, mds=mds,
        sparsify=sparsify, n_sparse=n_sparse, seed=_parse(cfg, "seed", int),
        anchor_pool=cfg["anchor_pool"],
        kernel_eta=_parse(cfg, "eta", int) if weighted else None,
    )


class FeatureDistances:
    """Distances among feature vectors, built only for the points asked for:
    Euclidean, or induced by the kernel of `kernel` on descriptors.

    Every row is checked on construction, also those outside any block,
    since out-of-sample estimation uses them all.
    """

    def __init__(self, features: FeatureSet, kernel: KernelConfig | None = None):
        if kernel is not None:
            unit_descriptors(features, kernel)
        self.features, self.kernel = features, kernel

    @property
    def n_points(self) -> int:
        return self.features.n_points

    def submatrix(self, idx) -> DistanceMatrix:
        fs = FeatureSet(self.features.vectors[idx])
        if self.kernel is None:
            return euclidean_distances(fs)
        return kernel_to_distance(kernel_matrix(fs, self.kernel))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def result_to_coords_csv(result: ClmdsResult) -> str:
    """coords.csv body: one row per embedded point."""
    point_ids = _point_ids(result).tolist()
    medoid_rows = set(int(i) for i in result.clustering.medoids)
    is_anchor = _finest_anchor_mask(result).tolist()
    lines = ["id,x,y,cluster,is_medoid,is_anchor,is_estimated"]
    for row in range(result.n_points):
        lines.append(",".join([
            str(point_ids[row]),
            _fmt(result.coords[row, 0]), _fmt(result.coords[row, 1]),
            str(int(result.clustering.assignment[row])),
            str(int(row in medoid_rows)), str(int(is_anchor[row])),
            str(int(bool(result.estimated_mask[row]))),
        ]))
    return "\n".join(lines) + "\n"


def _point_ids(result: ClmdsResult) -> np.ndarray:
    """The input index of each row of result.coords: its sparse index when
    the result covers the sparse subset only, else the row itself."""
    sp = result.sparse_indices
    return sp if result.n_points == sp.size else np.arange(result.n_points)


def _finest_anchor_mask(result: ClmdsResult) -> np.ndarray:
    """Which rows of result.coords are finest-level anchor points (anchors are
    sparse-local indices)."""
    anchors = np.concatenate(result.per_level[0].anchors)
    return np.isin(_point_ids(result), result.sparse_indices[anchors])


def _plain(x):
    """JSON data of a value: a dataclass by its fields, arrays as nested lists."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, list):
        return [_plain(v) for v in x]
    return x.tolist() if isinstance(x, np.ndarray) else x


def _build(tp, v):
    """The value of type tp whose JSON data is v: the inverse of _plain."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if v is None else _build(args[0], v)
    if typing.get_origin(tp) is list:
        if not isinstance(v, list):
            raise ValidationError(f"expected a list, got {type(v).__name__}")
        return [_build(args[0], x) for x in v]
    if tp is np.ndarray:
        return np.array(v)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        if not isinstance(v, dict):
            raise ValidationError(f"{tp.__name__}: expected an object, got {type(v).__name__}")
        if v.keys() != hints.keys():
            raise ValidationError(f"{tp.__name__}: missing keys {sorted(hints.keys() - v.keys())}"
                                  f", unknown keys {sorted(v.keys() - hints.keys())}")
        return tp(**{name: _build(hints[name], v[name]) for name in hints})
    return v


def result_to_json(result: ClmdsResult) -> str:
    """result.json body: the fields of result less coords, plus n_points."""
    payload = _plain(result)
    del payload["coords"]
    payload["n_points"] = result.n_points
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def load_result(out_dir: str) -> ClmdsResult:
    """Rebuild a ClmdsResult from coords.csv + result.json."""
    with open(os.path.join(out_dir, "result.json")) as fh:
        meta = json.load(fh)
    coords = np.loadtxt(os.path.join(out_dir, "coords.csv"), delimiter=",", skiprows=1,
                        usecols=(1, 2), ndmin=2)
    n_points = meta.pop("n_points", None) if isinstance(meta, dict) else None
    if n_points != coords.shape[0]:
        raise ValidationError(f"coords.csv has {coords.shape[0]} rows, "
                              f"result.json n_points is {n_points}")
    return _build(ClmdsResult, {**meta, "coords": coords})


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
    # checked for every input kind, before the input is read
    kernel = KernelConfig(zeta=_parse(cfg, "zeta", float), eta=_parse(cfg, "eta", int),
                          normalize=_parse(cfg, "normalize"))
    plot = _parse(cfg, "plot")

    kind = cfg["input_kind"]
    features = None
    if kind == "distances":
        D = load_distance_matrix(cfg["input"])
    elif kind == "features":
        features = load_feature_set(cfg["input"])
        D = FeatureDistances(features)
    elif kind == "descriptors":
        features = load_feature_set(cfg["input"])
        D = FeatureDistances(features, kernel)
    else:
        raise ValidationError(f"unknown input kind {kind!r}")

    result = clmds_embed(D, run_cfg, features=features)
    artifacts = {
        "coords.csv": result_to_coords_csv(result),
        "result.json": result_to_json(result),
    }
    if plot:
        medoid_rows = [int(m) for m in result.clustering.medoids]
        anchor_rows = np.flatnonzero(_finest_anchor_mask(result))
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
