import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clmds
from clmds import (ClmdsConfig, HierarchySpec, KernelConfig, KmedoidsConfig, Stitch,
                   clmds_embed, euclidean_distances, kernel_matrix, kernel_to_distance,
                   load_feature_set, voronoi_containment)
from clmds.cli import (build_run_config, load_result, main, parse_config,
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
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("no_such_key = 1\n")
    with pytest.raises(Exception):
        parse_config(str(cfgfile), [])
    with pytest.raises(Exception):
        parse_config(None, ["bogus=1"])


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
        return ClmdsConfig(hierarchy=HierarchySpec((4, 2, 1)),
                           kmedoids=KmedoidsConfig(k=4, iter_med=5), **kw)

    runs = {
        "full": clmds_embed(D, cfg(), features=fs),
        "completed": clmds_embed(D, cfg(sparsify="random", n_sparse=20), features=fs),
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
])
def test_malformed_value_names_its_key_and_form(tmp_path, capsys, item, form):
    inp, _ = write_features(tmp_path)
    code, _, err = run(embed_args(inp, tmp_path / "out", ["--set", item]), capsys)
    key = item.split("=")[0]
    assert code == 1
    assert err.startswith(f"error: {key}") and form in err, err


def test_malformed_plot_is_named_before_the_input_is_read(tmp_path, capsys):
    code, _, err = run(embed_args(tmp_path / "missing.csv", tmp_path / "out",
                                  ["--set", "plot=maybe"]), capsys)
    assert code == 1
    assert err.startswith("error: plot"), err


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
    sets = [f"input={data / 'features.csv'}", f"input_kind={kind}", "hierarchy=4,2,1",
            "iter_med=10", "mds_n_init=2", f"sparsify={sparsify}", "n_sparse=40",
            "normalize=true", "weighted=true", "zeta=2.0", "eta=2"]
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
    expected = result_to_coords_csv(clmds_embed(D, cfg, features=fs))
    assert (out / "coords.csv").read_text() == expected


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


BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.skipif(not BENCH.is_file(), reason="no perfbench/ beside the tests")
def test_benchmark_smoke_runs():
    # fails when an output check fails, or when a function the benchmark
    # wraps by name was renamed and so never fired
    proc = subprocess.run([sys.executable, str(BENCH), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
