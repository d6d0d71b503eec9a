import dataclasses
import importlib
import importlib.util
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import clmds
from clmds import (ClmdsConfig, HierarchySpec, KernelConfig, SparseSelection, Stitch,
                   ValidationError, clmds_embed, estimate_out_of_sample, euclidean_distances,
                   kernel_matrix, kernel_to_distance, load_feature_set, voronoi_containment)
from clmds.cli import (FeatureDistances, build_run_config, load_result, main, parse_config,
                       result_to_coords_csv, result_to_json)


def write_features(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(c, 0.2, (12, 3)) for c in
                     [(0, 0, 0), (8, 0, 0), (0, 8, 0)]])
    path = tmp_path / "features.csv"
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in pts) + "\n")
    return path, pts


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def embed_args(inp, out, extra=()):
    return ["embed", "--set", f"input={inp}", "--set", "input_kind=features",
            "--set", "hierarchy=3,1", "--set", "iter_med=20",
            "--output-dir", str(out), *extra]


def test_config_defaults_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("hierarchy = 5,2,1  # comment\nseed = 7\n\n# full-line comment\n")
    cfg = parse_config(str(cfgfile), ["seed=9", "mds_eps=1e-5"])
    assert cfg["hierarchy"] == "5,2,1"
    assert cfg["seed"] == "9"  # override wins
    assert cfg["mds_eps"] == "1e-5"
    assert cfg["sparsify"] == "none"  # untouched default


def test_config_unknown_key_rejected(tmp_path):
    # errors name the file line, or --set
    cfgfile = tmp_path / "bad.cfg"
    where = re.escape(str(cfgfile))
    cfgfile.write_text("seed = 1\nno_such_key = 1\n")
    with pytest.raises(ValidationError, match=f"^{where}:2: unknown key 'no_such_key'$"):
        parse_config(str(cfgfile), [])
    cfgfile.write_text("# header\n\nseed = 1\nhierarchy 3,1\n")
    with pytest.raises(ValidationError,
                       match=f"^{where}:4: expected key = value, got 'hierarchy 3,1'$"):
        parse_config(str(cfgfile), [])
    # anchor_pool and max_swaps were keys once: a stale config is named too
    for item in ("bogus=1", "anchor_pool=full_cluster", "max_swaps=10"):
        key = item.split("=")[0]
        with pytest.raises(ValidationError, match=f"^--set: unknown key '{key}'$"):
            parse_config(None, [item])
    with pytest.raises(ValidationError, match="^--set: expected key = value, got 'seed'$"):
        parse_config(None, ["seed"])


def test_the_keys_and_their_defaults():
    cfg = parse_config(None, [])
    assert sorted(cfg) == sorted([
        "input", "input_kind", "hierarchy", "n_iso", "iter_med", "mds_n_init", "mds_max_iter",
        "mds_eps", "sparsify", "n_sparse", "seed", "zeta", "eta", "normalize", "weighted",
        "output_dir", "plot"])
    assert (cfg["input"], cfg["input_kind"], cfg["hierarchy"], cfg["sparsify"], cfg["n_sparse"],
            cfg["weighted"], cfg["output_dir"], cfg["plot"]) == (
        None, "distances", "8,1", "none", "", "false", ".", "false")
    # the numeric and boolean defaults are the config fields' own
    assert build_run_config(cfg) == ClmdsConfig(hierarchy=HierarchySpec((8, 1)))
    assert build_run_config(parse_config(None, ["hierarchy=12,1"])) == ClmdsConfig(
        hierarchy=HierarchySpec((12, 1)))
    run_cfg = build_run_config(cfg)
    assert (run_cfg.n_iso, run_cfg.iter_med, run_cfg.mds_n_init, run_cfg.mds_max_iter,
            run_cfg.mds_eps, run_cfg.seed) == (1, 100, 1, 300, 1e-6, 0)


def test_the_default_kernel_is_the_kernel_config_default(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(12, 3))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    inp = tmp_path / "desc.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in raw) + "\n")
    kernels = []
    real = clmds.cli.FeatureDistances

    def recording(features, kernel=None):
        kernels.append(kernel)
        return real(features, kernel)

    monkeypatch.setattr(clmds.cli, "FeatureDistances", recording)
    code, _, err = run(["embed", "--set", f"input={inp}", "--set", "input_kind=descriptors",
                        "--set", "hierarchy=2,1", "--set", "iter_med=3",
                        "--output-dir", tmp_path / "out"], capsys)
    assert code == 0, err
    assert kernels == [KernelConfig()]


def test_embed_writes_artifacts(tmp_path, capsys):
    inp, pts = write_features(tmp_path)
    out = tmp_path / "out"
    code, _, err = run(embed_args(inp, out, ["--plot"]), capsys)
    assert code == 0, err
    assert sorted(os.listdir(out)) == ["coords.csv", "plot.svg", "result.json"]
    lines = (out / "coords.csv").read_text().splitlines()
    assert lines[0] == "id,x,y,cluster,is_medoid,is_anchor,is_estimated"
    assert len(lines) == 37
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(36)]
    assert sum(int(r[4]) for r in rows) == 3  # one medoid per cluster
    assert sum(int(r[5]) for r in rows) == 12  # 4 anchors per cluster
    assert all(r[6] == "0" for r in rows)
    meta = json.loads((out / "result.json").read_text())
    assert meta["n_points"] == 36
    assert len(meta["per_level"]) == 2
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_embed_roundtrip_and_metric(tmp_path, capsys):
    inp, _ = write_features(tmp_path, seed=1)
    out = tmp_path / "out"
    code, _, _ = run(embed_args(inp, out), capsys)
    assert code == 0
    result = load_result(str(out))
    assert result.coords.shape == (36, 2)
    assert voronoi_containment(result) == 1.0
    # the loaded stitch records serialize back to the file's entries
    stitches = result.per_level[1].stitches
    assert len(stitches) == 3 and all(isinstance(s, Stitch) for s in stitches)
    written = json.loads((out / "result.json").read_text())["per_level"]
    assert json.loads(result_to_json(result))["per_level"] == written
    code, stdout, _ = run(["metrics", "voronoi", "--result-dir", out], capsys)
    assert code == 0
    assert stdout.strip() == "voronoi_containment 1.000000"


def assert_same_record(a, b, path="result"):
    """Every dataclass field equal, recursively; arrays by value and dtype kind."""
    assert type(a) is type(b) or isinstance(a, float) and isinstance(b, float), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_record(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype.kind == b.dtype.kind and np.array_equal(a, b), path
    elif isinstance(a, (list, dict)):
        assert len(a) == len(b) and (isinstance(a, list) or a.keys() == b.keys()), path
        for key in range(len(a)) if isinstance(a, list) else a:
            assert_same_record(a[key], b[key], f"{path}[{key!r}]")
    else:
        assert a == b, path


def test_artifacts_load_back_to_the_result(tmp_path):
    write_features(tmp_path, seed=7)
    fs = load_feature_set(tmp_path / "features.csv")
    D = euclidean_distances(fs)

    def cfg(**kw):
        return ClmdsConfig(hierarchy=HierarchySpec((4, 2, 1)), iter_med=5, **kw)

    runs = {
        "full": clmds_embed(D, cfg()),
        "completed": clmds_embed(FeatureDistances(fs), cfg(sparsify="random", n_sparse=20)),
        "sparse-only": clmds_embed(D, cfg(sparsify="cur", n_sparse=20)),  # no vectors
    }
    assert runs["completed"].estimated_mask.sum() == 16
    assert runs["sparse-only"].n_points == 20 and not runs["sparse-only"].estimation_available
    for name, result in runs.items():
        out = tmp_path / name
        out.mkdir()
        (out / "coords.csv").write_text(result_to_coords_csv(result))
        (out / "result.json").write_text(result_to_json(result))
        assert_same_record(result, load_result(str(out)))


def test_malformed_result_is_reported(tmp_path, capsys):
    inp, _ = write_features(tmp_path, seed=8)
    out = tmp_path / "out"
    assert run(embed_args(inp, out), capsys)[0] == 0
    meta = json.loads((out / "result.json").read_text())
    coords = (out / "coords.csv").read_text()
    no_medoids = json.loads(json.dumps(meta))
    del no_medoids["per_level"][1]["clustering"]["medoids"]
    cases = [
        ({}, coords, "n_points"),  # missing keys
        (no_medoids, coords, "medoids"),  # missing key
        ({**meta, "extra": 1}, coords, "extra"),  # unknown key
        ({**meta, "per_level": 5}, coords, "list"),  # wrong type
        ({**meta, "clustering": 5}, coords, "Clustering: expected an object"),
        (meta, coords.rsplit("\n", 2)[0] + "\n", "35 rows"),  # a row short
    ]
    for bad_meta, bad_coords, message in cases:
        (out / "result.json").write_text(json.dumps(bad_meta))
        (out / "coords.csv").write_text(bad_coords)
        code, _, err = run(["metrics", "voronoi", "--result-dir", out], capsys)
        assert code == 1 and err.startswith("error:") and message in err, err


def test_embed_byte_identical_across_runs(tmp_path, capsys):
    inp, _ = write_features(tmp_path, seed=2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(embed_args(inp, out1, ["--seed", "5"]), capsys)[0] == 0
    assert run(embed_args(inp, out2, ["--seed", "5"]), capsys)[0] == 0
    for name in ("coords.csv", "result.json"):
        t1 = (out1 / name).read_text()
        t2 = (out2 / name).read_text()
        if name == "result.json":  # timings are wall-clock and may differ
            a, b = json.loads(t1), json.loads(t2)
            a.pop("timings"), b.pop("timings")
            assert a == b
        else:
            assert t1 == t2


def test_embed_sparse_with_estimation(tmp_path, capsys):
    inp, _ = write_features(tmp_path, seed=3)
    out = tmp_path / "out"
    extra = ["--set", "sparsify=random", "--set", "n_sparse=20"]
    code, _, err = run(embed_args(inp, out, extra), capsys)
    assert code == 0, err
    result = load_result(str(out))
    assert result.coords.shape == (36, 2)
    assert result.estimated_mask.sum() == 16
    rows = [l.split(",") for l in (out / "coords.csv").read_text().splitlines()[1:]]
    assert sum(int(r[6]) for r in rows) == 16
    # anchors are sparse-local indices; each row's id is its input index
    anchors = result.sparse_indices[np.concatenate(result.per_level[0].anchors)]
    assert sorted(int(r[0]) for r in rows if r[5] == "1") == sorted(anchors.tolist())


def test_embed_distance_input_sparse_only(tmp_path, capsys):
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(c, 0.2, (10, 2)) for c in [(0, 0), (9, 0), (0, 9)]])
    from scipy.spatial.distance import cdist
    d = cdist(pts, pts)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    dpath = tmp_path / "dist.csv"
    dpath.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in d) + "\n")
    out = tmp_path / "out"
    argv = ["embed", "--set", f"input={dpath}", "--set", "hierarchy=3,1",
            "--set", "iter_med=20", "--set", "sparsify=cur",
            "--set", "n_sparse=15", "--output-dir", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    lines = (out / "coords.csv").read_text().splitlines()
    assert len(lines) == 16  # sparse subset only, no vectors to estimate from
    meta = json.loads((out / "result.json").read_text())
    assert meta["estimation_available"] is False
    ids = [int(l.split(",")[0]) for l in lines[1:]]
    assert ids == sorted(meta["sparse_indices"])
    anchors = np.concatenate(meta["per_level"][0]["anchors"])
    anchor_ids = [int(l.split(",")[0]) for l in lines[1:] if l.split(",")[5] == "1"]
    assert anchor_ids == sorted(np.array(meta["sparse_indices"])[anchors].tolist())


def test_embed_descriptor_kind_weighted(tmp_path, capsys):
    rng = np.random.default_rng(5)
    raw = np.vstack([rng.normal(c, 0.05, (8, 4)) for c in
                     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]])
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    inp = tmp_path / "desc.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in raw) + "\n")
    out = tmp_path / "out"
    argv = ["embed", "--set", f"input={inp}", "--set", "input_kind=descriptors",
            "--set", "hierarchy=3,1", "--set", "iter_med=20",
            "--set", "zeta=2.0", "--set", "eta=2", "--set", "weighted=true",
            "--output-dir", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert (out / "coords.csv").exists()


def test_float32_descriptors_with_repeated_rows_embed(tmp_path, capsys):
    # unit rows rounded through float32 keep their norms within 1e-6 of 1, and a
    # repeated row's dot product with itself may exceed 1: the kernel clips it,
    # so the dense build and the blocks agree, and the embedding runs
    raw = np.abs(np.random.default_rng(0).normal(size=(60, 8)))
    raw = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32).astype(float)
    raw[30:40] = raw[0:10]
    fs = clmds.FeatureSet(raw)
    # the case under test: the kernel's own sums put some such dot products above 1
    assert np.max(np.einsum("ik,jk->ij", raw[0:10], raw[30:40])) > 1.0
    idx = np.arange(60)
    dist = FeatureDistances(fs, KernelConfig())
    assert np.array_equal(dist.submatrix(idx).d, dist.block(idx, idx))
    inp = tmp_path / "desc.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in raw) + "\n")
    code, _, err = run(["embed", "--set", f"input={inp}", "--set", "input_kind=descriptors",
                        "--set", "hierarchy=6,1", "--output-dir", tmp_path / "out"], capsys)
    assert code == 0, err


def test_weighted_distances_input_is_the_weighted_library_call(tmp_path, capsys):
    # kernel-induced distances on disk: weighted=true switches the medoid
    # weighting on, as kernel_eta does in the library
    rng = np.random.default_rng(7)
    raw = np.vstack([rng.normal(c, 0.05, (10, 4)) for c in
                     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]])
    D = kernel_to_distance(kernel_matrix(clmds.FeatureSet(raw), KernelConfig(normalize=True)))
    inp = tmp_path / "distances.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in D.d) + "\n")
    sets = [f"input={inp}", "input_kind=distances", "hierarchy=3,1", "iter_med=20",
            "mds_n_init=2", "weighted=true", "eta=2"]
    out = tmp_path / "out"
    argv = ["embed", "--output-dir", out]
    for item in sets:
        argv += ["--set", item]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    cfg = build_run_config(parse_config(None, sets))
    assert cfg.kernel_eta == 2
    expected = result_to_coords_csv(clmds_embed(clmds.load_distance_matrix(inp), cfg))
    assert (out / "coords.csv").read_text() == expected


def test_weighted_features_farther_apart_than_one_are_refused(tmp_path, capsys):
    inp, _ = write_features(tmp_path)  # blobs 8 apart
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", "weighted=true"]), capsys)
    assert code == 1
    assert "kernel entries" in err
    assert not (tmp_path / "out" / "coords.csv").exists()


def test_unknown_input_kind_is_named(tmp_path, capsys):
    inp, _ = write_features(tmp_path)
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", "input_kind=matrix"]),
                       capsys)
    assert code == 1
    assert err.startswith("error: unknown input kind 'matrix'")


def test_a_failed_replace_removes_every_staged_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.txt").write_text("old a\n")
    real_replace = os.replace
    calls = []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk gone")
        real_replace(src, dst)

    monkeypatch.setattr(clmds.cli.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk gone"):
        clmds.cli._write_atomic(str(out), {"a.txt": "new a\n", "b.txt": "new b\n"})
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["a.txt"]  # no staged file is left


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_artifacts_take_the_mode_the_umask_gives(tmp_path, capsys, umask):
    # each artifact is staged by a plain exclusive open, and a replace keeps
    # the staged file's mode
    inp, _ = write_features(tmp_path)
    old = os.umask(umask)
    try:
        assert run(embed_args(inp, tmp_path / "out"), capsys)[0] == 0
        assert run(["datagen", "s-curve", "--n", "50", "--output-dir", tmp_path / "s"],
                   capsys)[0] == 0
    finally:
        os.umask(old)
    written = [*(tmp_path / "out").iterdir(), *(tmp_path / "s").iterdir()]
    assert {"coords.csv", "result.json", "features.csv"} <= {p.name for p in written}
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_a_write_never_touches_the_process_umask(tmp_path, monkeypatch):
    # setting the umask to read it would leave it 0 for every other thread
    # of the process until it is set back
    umask = os.umask(0o022)
    os.umask(umask)

    def no_umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", no_umask)
    clmds.cli._write_atomic(str(tmp_path / "out"), {"a.txt": "a\n", "b.txt": "b\n"})
    written = sorted((tmp_path / "out").iterdir())
    assert [p.name for p in written] == ["a.txt", "b.txt"]
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_embed_n_iso_above_a_merge_target(tmp_path, capsys):
    # n_iso=5 fits the finest level of 10 clusters, not the merge to 3
    inp, _ = write_features(tmp_path)
    out = tmp_path / "out"
    code, _, err = run(embed_args(inp, out, ["--set", "n_iso=5",
                                             "--set", "hierarchy=10,3,1"]), capsys)
    assert code == 0, err
    assert len(load_result(str(out)).per_level) == 3


def test_error_reporting_missing_input(tmp_path, capsys):
    code, _, err = run(["embed", "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(["embed", "--set", "input=/nonexistent.csv",
                        "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not os.path.exists(tmp_path / "coords.csv")


def test_unknown_sparsify_mode_is_named(tmp_path, capsys):
    inp, _ = write_features(tmp_path)
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", "sparsify=randm"]), capsys)
    assert code == 1
    assert err.startswith("error: sparsify must be none, random, cur or")
    assert "'randm'" in err


@pytest.mark.parametrize("item, form", [
    ("hierarchy=3,x", "an integer"), ("mds_eps=small", "a number"),
    ("iter_med=ten", "an integer"), ("eta=1.5", "an integer"),
    ("n_sparse=abc", "an integer"), ("seed=x", "an integer"),
    ("plot=maybe", "a boolean"), ("eta=0", "a positive integer"),
    ("zeta=abc", "a number"), ("normalize=maybe", "a boolean"),
    ("weighted=maybe", "a boolean"), ("zeta=-1", "positive"),
    ("zeta=nan", "finite"), ("zeta=inf", "finite"), ("seed=-1", "non-negative"),
])
def test_malformed_value_names_its_key_and_form(tmp_path, capsys, item, form):
    inp, _ = write_features(tmp_path)
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", item]), capsys)
    key = item.split("=")[0]
    assert code == 1
    assert err.startswith(f"error: {key}") and form in err, err


# random and cur need n_sparse >= 1, and no other mode takes it; only its
# upper bound N waits for the input
@pytest.mark.parametrize("items, key", [
    (["plot=maybe"], "plot"), (["sparsify=random"], "n_sparse"),
    (["sparsify=random", "n_sparse=0"], "n_sparse"), (["sparsify=cur", "n_sparse=-4"], "n_sparse"),
    (["n_sparse=5"], "n_sparse"), (["sparsify=1,4,6", "n_sparse=5"], "n_sparse"),
], ids=["plot=maybe", "random", "random-n_sparse=0", "cur-n_sparse=-4", "none-n_sparse=5",
        "list-n_sparse=5"])
def test_malformed_key_is_named_before_the_input_is_read(tmp_path, capsys, items, key):
    extra = [arg for item in items for arg in ("--set", item)]
    code, _, err = run(embed_args(tmp_path / "missing.csv", tmp_path / "out", extra), capsys)
    assert code == 1
    assert err.startswith(f"error: {key}"), err


def test_failed_run_leaves_no_partial_artifacts(tmp_path, capsys):
    inp, _ = write_features(tmp_path, seed=6)
    out = tmp_path / "out"
    # hierarchy demands more clusters than points: pipeline fails after parse
    argv = embed_args(inp, out, ["--set", "hierarchy=99,1"])
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not os.path.exists(out) or os.listdir(out) == []


def test_datagen_s_curve_and_holes(tmp_path, capsys):
    out_s = tmp_path / "s"
    code, _, _ = run(["datagen", "s-curve", "--n", "50", "--seed", "1",
                      "--output-dir", out_s], capsys)
    assert code == 0
    rows = [l for l in (out_s / "features.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 50 and len(rows[0].split(",")) == 3

    out_h = tmp_path / "h"
    code, _, _ = run(["datagen", "holes", "--n", "60", "--holes", "5",
                      "--seed", "2", "--output-dir", out_h], capsys)
    assert code == 0
    assert sorted(os.listdir(out_h)) == ["features.csv", "holes.csv", "truth.csv"]
    feats = [l for l in (out_h / "features.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(feats) == 60 and len(feats[0].split(",")) == 5


def test_datagen_rejects_a_nan_hole_radius(tmp_path, capsys):
    code, _, err = run(["datagen", "holes", "--n", "60", "--holes", "5", "--radius", "nan",
                        "--output-dir", tmp_path / "h"], capsys)
    assert code == 1
    assert err.startswith("error: hole radius")
    assert not (tmp_path / "h").exists()


def test_datagen_then_embed_end_to_end(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["datagen", "holes", "--n", "120", "--holes", "4",
                "--output-dir", data], capsys)[0] == 0
    out = tmp_path / "out"
    argv = ["embed", "--set", f"input={data / 'features.csv'}",
            "--set", "input_kind=features", "--set", "hierarchy=4,1",
            "--set", "iter_med=20", "--output-dir", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    result = load_result(str(out))
    assert result.coords.shape == (120, 2)
    assert np.all(np.isfinite(result.coords))


@pytest.mark.parametrize("kind", ["features", "descriptors"])
@pytest.mark.parametrize("sparsify", ["none", "random", "3,5,8,13,21,34,55,89,91,97,99,100,"
                                      "101,102,103,104,105,106,107,108", "cur"])
def test_embed_equals_the_full_matrix_library_call(tmp_path, capsys, kind, sparsify):
    # the CLI builds only the distances it embeds; the library call below
    # builds the whole matrix and lets the pipeline take its block
    data = tmp_path / "data"
    assert run(["datagen", "holes", "--n", "110", "--holes", "4", "--seed", "3",
                "--output-dir", data], capsys)[0] == 0
    # weighted only where the distances are kernel-induced: holes features
    # lie farther apart than 1, which the medoid weighting refuses
    weighted = "true" if kind == "descriptors" else "false"
    sets = [f"input={data / 'features.csv'}", f"input_kind={kind}", "hierarchy=4,2,1",
            "iter_med=10", "mds_n_init=2", f"sparsify={sparsify}",
            *(["n_sparse=40"] if sparsify in ("random", "cur") else []),
            "normalize=true", f"weighted={weighted}", "zeta=2.0", "eta=2"]
    out = tmp_path / "out"
    argv = ["embed", "--output-dir", out]
    for item in sets:
        argv += ["--set", item]
    code, _, err = run(argv, capsys)
    assert code == 0, err

    fs = load_feature_set(data / "features.csv")
    cfg = build_run_config(parse_config(None, sets))
    assert cfg.kernel_eta == (2 if kind == "descriptors" else None)
    if kind == "features":
        D = euclidean_distances(fs)
    else:
        D = kernel_to_distance(kernel_matrix(fs, KernelConfig(zeta=2.0, eta=2, normalize=True)))
    # the full matrix, carrying the features: estimation reads its entries too
    full = SimpleNamespace(n_points=D.n_points, submatrix=D.submatrix, block=D.block,
                           features=fs)
    result = clmds_embed(full, cfg)
    assert (out / "coords.csv").read_text() == result_to_coords_csv(result)
    # each estimated point joins the medoid nearest by the distance that
    # clustered, ties to the lower cluster (argmin's first minimum)
    est, medoids = np.flatnonzero(result.estimated_mask), result.clustering.medoids
    assert est.size == (0 if sparsify == "none" else 110 - result.sparse_indices.size)
    nearest = np.argmin(D.block(est, medoids), axis=1)
    assert np.array_equal(result.clustering.assignment[est], nearest)
    # a bare matrix carries no features: the sparse points alone
    bare = clmds_embed(D, cfg)
    assert bare.n_points == result.sparse_indices.size
    assert bare.estimation_available == (sparsify == "none")
    if kind == "features" and est.size:  # the feature-set form's Euclidean rule, same bits
        sel = SparseSelection(result.sparse_indices, est)
        completed = estimate_out_of_sample(fs, bare, sel)
        assert result_to_coords_csv(completed) == result_to_coords_csv(result)


@pytest.mark.parametrize("normalize, bad_row, message", [
    ("true", np.zeros(4), "zero-norm descriptor"),
    ("false", np.array([0.5, 0.0, 0.0, 0.0]), "unit-normalized"),
])
def test_bad_descriptor_outside_the_sparse_set_is_rejected(tmp_path, capsys, normalize,
                                                           bad_row, message):
    rng = np.random.default_rng(6)
    raw = np.abs(rng.normal(size=(30, 4)))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw[29] = bad_row  # estimation would use it, though the sparse list leaves it out
    inp = tmp_path / "desc.csv"
    inp.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in raw) + "\n")
    argv = ["embed", "--set", f"input={inp}", "--set", "input_kind=descriptors",
            "--set", f"normalize={normalize}", "--set", "hierarchy=3,1",
            "--set", "sparsify=" + ",".join(str(i) for i in range(20)),
            "--output-dir", str(tmp_path / "out")]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert message in err


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing the package and its CLI (what
    # every `clmds` run does) must not load it
    code = ("import sys, clmds, clmds.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(clmds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_cli_module_runs_as_a_script_without_a_warning():
    # the package loads clmds.cli for its FeatureDistances on first use, not
    # at import, so `python -m clmds.cli` runs the module once: runpy warns
    # when the package import has already run it
    src = str(Path(clmds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "clmds.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.skipif(not BENCH.is_file(), reason="no perfbench/ beside the tests")
def test_benchmark_smoke_runs():
    # fails when an output check fails, or when a function the benchmark
    # wraps by name was renamed and so never fired
    proc = subprocess.run([sys.executable, str(BENCH), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not BENCH.is_file(), reason="no perfbench/ beside the tests")
def test_benchmark_hooks_run_on_the_main_thread_when_work_splits(tmp_path, capsys,
                                                                   monkeypatch):
    # perfbench's tracer keeps one span stack, so no function it wraps may
    # run on a worker thread. Both splits are forced here, and both must
    # still run some of their work off the main thread; the SMACOF split
    # needs two anchor starts, above the default of one.
    spec = importlib.util.spec_from_file_location("perfbench_child", BENCH.parent / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    monkeypatch.setattr(clmds.core, "_WORKERS", 2)
    monkeypatch.setattr(clmds.mds, "_THREAD_MIN_POINTS", 0)
    monkeypatch.setattr(clmds.kmedoids, "_THREAD_MIN_ELEMENTS", 0)
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return call

    for name, module_name, attr in child.HOOKS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recording(name, getattr(module, attr)))
    for name, module, attr in (("split.smacof", clmds.mds, "_guttman_b"),
                               ("split.kmedoids", clmds.kmedoids, "_assign")):
        monkeypatch.setattr(module, attr, recording(name, getattr(module, attr)))
    inp, _ = write_features(tmp_path)
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", "mds_n_init=2"]), capsys)
    assert code == 0, err
    fired = {name for name, _ in calls}
    assert {"kmedoids.once", "mds.embed", "cli.write"} <= fired
    assert all(main for name, main in calls if not name.startswith("split."))
    assert {name for name, main in calls if not main} == {"split.smacof", "split.kmedoids"}
