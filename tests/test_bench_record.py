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
