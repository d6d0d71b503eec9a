import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

ENVIRONMENT = {"blas": "scipy-openblas 0.3.28", "git_sha": "f72a106", "nproc": 2,
               "numpy": "2.1.3", "python": "3.11.7", "scipy": "1.14.1"}
FINAL = {"correct": True, "attempted": 2, "failed": 0,
         "metrics": {"embed_s": {"value": 1.25, "unit": "s"},
                     "containment": {"value": 0.9193, "unit": "fraction"}}}
# The shape of a perfbench/run.py output, cut to two datasets.
CANNED = f"""\
workload sparse-kernel-6000  seed 0  N 6000  why: only workload on kernel
repetitions 2 (0 traced), failed 0, error_rate 0 fraction
   0 dataset seed 0 traced 0 embed_s 1.2000 setup_s 0.2000 peak_rss_mb 68.4 ok True
   1 dataset seed 1 traced 0 embed_s 1.3000 setup_s 0.2100 peak_rss_mb 68.5 ok True
  coords.csv sha256 dataset seed 0: {"a" * 64}
  coords.csv sha256 dataset seed 1: -
result.json timings, last repetition: {{"kmedoids": 0.4, "total": 0.9}}
environment {json.dumps(ENVIRONMENT, sort_keys=True)}
  containment                        0.9193 fraction
  embed_s                            1.25 s
{json.dumps(FINAL)}
"""


def test_parse_output_keeps_the_result_line_digests_and_environment():
    got = record.parse_output(CANNED)
    assert got["result"] == FINAL
    assert got["digests"] == {"0": ["a" * 64], "1": []}
    assert got["environment"] == ENVIRONMENT
    json.dumps(got)  # the record is plain JSON


@pytest.mark.parametrize("cut", ["", "digests", "environment", "final"])
def test_parse_output_rejects_an_incomplete_output(cut):
    lines = CANNED.splitlines()
    if cut == "digests":
        lines = [ln for ln in lines if "coords.csv sha256" not in ln]
    elif cut == "environment":
        lines = [ln for ln in lines if not ln.startswith("environment ")]
    elif cut == "final":
        lines = lines[:-1]
    text = "\n".join(lines) if cut else ""
    with pytest.raises(ValueError):
        record.parse_output(text)


def test_digests_gather_both_seeds_per_side_and_workload():
    # seed 1 of this workload makes datasets 5 and 6; the seed-0 record
    # comes twice, once with another digest for dataset 0
    seed1 = (CANNED.replace("seed 0  N", "seed 1  N").replace("dataset seed 1", "dataset seed 6")
             .replace("dataset seed 0", "dataset seed 5"))
    other = CANNED.replace("a" * 64, "b" * 64)
    runs = [{"side": side, "workload": "sparse-kernel-6000", **record.parse_output(text)}
            for side, text in (("this", CANNED), ("this", seed1), ("against", CANNED),
                               ("against", other))]
    assert record.collect_digests(runs) == {
        "this": {"sparse-kernel-6000": {"0": ["a" * 64], "1": [], "5": ["a" * 64], "6": []}},
        "against": {"sparse-kernel-6000": {"0": ["a" * 64, "b" * 64], "1": []}},
    }


def _runs(**sides):
    """Runs of one workload: side -> one digest list per run, for datasets
    0 and 1."""
    return [{"side": side, "workload": "w", "digests": {"0": digests[0], "1": digests[1]}}
            for side, per_run in sides.items() for digests in per_run]


@pytest.mark.parametrize("runs, verdict", [
    (_runs(this=[(["a"], ["b"])] * 2, against=[(["a"], ["b"])] * 2),
     {"agree": 2, "differ": [], "unrepeated": []}),
    (_runs(this=[(["a"], ["b"])], against=[(["a"], ["c"])]),
     {"agree": 1, "differ": ["w seed 1"], "unrepeated": []}),
    (_runs(this=[(["a"], ["b"]), (["x"], ["b"])], against=[(["a"], ["b"])]),
     {"agree": 1, "differ": [], "unrepeated": ["w seed 0"]}),
    (_runs(this=[(["a"], [])], against=[(["a"], [])]),
     {"agree": 1, "differ": [], "unrepeated": ["w seed 1"]}),
    (_runs(this=[(["a"], ["b"])]), None),
], ids=["all-agree", "one-differs", "two-digests", "no-digest", "no-against"])
def test_digest_verdict_compares_the_sides_per_dataset(runs, verdict):
    got = record.digest_verdict(record.collect_digests(runs))
    assert got == verdict
    line = record.verdict_line(got)
    assert "\n" not in line
    assert ("no --against" in line) == (verdict is None)


def test_checkout_state_tells_an_uncommitted_tree_from_its_commit(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.md").write_text("notes\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    clean = record.checkout_state(tmp_path)
    assert clean["dirty"] is False and clean["diff_sha256"] is None
    assert len(clean["commit"]) == 40
    (tmp_path / "notes.md").write_text("other notes\n")  # not what the benchmark runs
    assert record.checkout_state(tmp_path) == clean
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    edited = record.checkout_state(tmp_path)
    assert edited["dirty"] and edited["commit"] == clean["commit"]
    (tmp_path / "src" / "b.py").write_text("y = 1\n")
    added = record.checkout_state(tmp_path)
    assert added["dirty"] and added["diff_sha256"] != edited["diff_sha256"]


def test_calibration_loop_runs_and_parses_on_a_tiny_size():
    got = record.calibrate(size=8, seconds=0.05)
    assert got["size"] == 8 and got["passes"] >= 1 and got["best_s"] > 0
    json.dumps(got)
    for text in ("", "not json", json.dumps({"size": 8, "passes": 0, "best_s": 0.0})):
        with pytest.raises(ValueError):
            record.parse_calibration(text)


def test_each_workload_round_takes_one_calibration_reading_per_side(tmp_path, monkeypatch):
    # two workloads, one pair: each has 3 rounds (the pair, the traced run and
    # the seed-1 digests), so each side gets 6 readings, each one before the
    # runs of its round and in their order
    spec = {"run_seconds": 45, "workloads": [{"name": "w1"}, {"name": "w2"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    other = tmp_path / "other"
    (other / "perfbench").mkdir(parents=True)
    (other / "perfbench" / "run.py").write_text("")
    events = []
    times = iter([0.03, 0.02, 0.05, 0.01, 0.04, 0.06, 0.02, 0.03, 0.05, 0.07, 0.04, 0.02])

    def fake_calibrate():
        events.append("calibrate")
        return {"size": 400, "passes": 3, "best_s": next(times)}

    def fake_run_once(checkout, workload, seed, seconds, trace):
        events.append(("this" if checkout == tmp_path else "against", workload, seed, trace))
        return record.parse_output(CANNED)

    monkeypatch.setattr(record, "ROOT", tmp_path)
    monkeypatch.setattr(record, "calibrate", fake_calibrate)
    monkeypatch.setattr(record, "run_once", fake_run_once)
    monkeypatch.setattr(record, "checkout_state", lambda path: {"commit": str(path)})
    assert record.main(["--label", "t", "--against", str(other), "--pairs", "1"]) == 0
    saved = json.loads((tmp_path / "BENCH_t.json").read_text())
    # every run printed the one digest of dataset 0 and none of dataset 1
    assert saved["digests_agree"] == {"agree": 2, "differ": [],
                                      "unrepeated": ["w1 seed 1", "w2 seed 1"]}
    got = saved["calibration"]
    # rounds alternate which side runs first; each round calibrates both sides
    # before it runs them
    assert events[:6] == ["calibrate", "calibrate", ("this", "w1", 0, 0), ("against", "w1", 0, 0),
                          "calibrate", "calibrate"]
    assert events[6:8] == [("against", "w1", 0, 1), ("this", "w1", 0, 1)]
    assert events.count("calibrate") == 12
    assert [r["best_s"] for r in got["this"]["readings"]] == [0.03, 0.01, 0.04, 0.02, 0.07, 0.04]
    assert [r["best_s"] for r in got["against"]["readings"]] == [0.02, 0.05, 0.06, 0.03, 0.05,
                                                                0.02]
    assert got["this"]["best_s"] == 0.01 and got["against"]["best_s"] == 0.02
    assert record.calibration_summary([{"best_s": 0.2}]) == {"readings": [{"best_s": 0.2}],
                                                            "best_s": 0.2}
