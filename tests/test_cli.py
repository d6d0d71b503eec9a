import json
import os

import numpy as np
import pytest

from clmds import Stitch, voronoi_containment
from clmds.cli import load_result, main, parse_config, result_to_json


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


def test_error_reporting_missing_input(tmp_path, capsys):
    code, _, err = run(["embed", "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run(["embed", "--set", "input=/nonexistent.csv",
                        "--output-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not os.path.exists(tmp_path / "coords.csv")


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
