"""Record benchmark runs of one or two checkouts into BENCH_<label>.json.

    python3 bench/record.py --label NAME [--against DIR] [--pairs N]

For each workload of BENCHMARK.json, N times over, this runs
`perfbench/run.py --workload W --seed 0 --seconds T` of this checkout and,
with --against, of the checkout DIR too, alternating which of the two runs
first; T is BENCHMARK.json's run_seconds. Then it runs each side once more
with --trace 1, for the per-layer times, and once with --seed 1 --seconds 1,
for the coords.csv digests of the seed-1 datasets. Each run's program is the
`src/` beside the perfbench/ that runs it.

From every run's standard output it keeps three things: the final JSON
line verbatim, the printed coords.csv digests per dataset seed, and the
printed environment (git sha, nproc, BLAS and the package versions). For
each side it also records the checkout: its commit, whether src/ or
perfbench/ differ from that commit, and if so a sha256 of the difference,
so that an uncommitted tree is told apart from its commit. Per side and
workload, the digests of every dataset of seeds 0 and 1 are gathered in one
place, and compared: the record's `digests_agree` counts the datasets
whose digests agree between the two sides and names those that differ or
that a side did not repeat, and the same verdict is printed. Before each
round of runs of a workload, each side also runs a fixed-work loop
(`calibrate`), in the order of that round's runs; every reading is kept,
and the fastest is the side's speed, so that records taken on other hosts
or in other sessions compare as ratios (two readings taken back to back can
differ by 40%). The file is written to the root of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "coords.csv sha256 dataset seed "
ENVIRONMENT_PREFIX = "environment "
RUN_PATHS = ("src", "perfbench")  # what perfbench/run.py runs of a checkout
# one BLAS thread, as perfbench/run.py sets for its children
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The fixed-work loop: passes of a size x size matmul plus the eigh of the
# product, on a fixed symmetric matrix, for at least `seconds`; the fastest
# pass is the host's speed. Run as `python -c CALIBRATION size seconds`.
CALIBRATION = """
import json, sys, time
import numpy as np
size, seconds = int(sys.argv[1]), float(sys.argv[2])
a = np.random.default_rng(0).normal(size=(size, size))
a = a + a.T
times = []
end = time.perf_counter() + seconds
while not times or time.perf_counter() < end:
    t0 = time.perf_counter()
    np.linalg.eigh(a @ a)
    times.append(time.perf_counter() - t0)
print(json.dumps({"size": size, "passes": len(times), "best_s": min(times)}))
"""


def parse_output(text: str) -> dict:
    """The final JSON line, the coords digests and the environment of one
    perfbench/run.py output; raises ValueError when one is missing."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty benchmark output")
    final = json.loads(lines[-1])
    if not isinstance(final, dict) or "metrics" not in final:
        raise ValueError("the last line is not the benchmark's result object")
    digests = {}
    environment = None
    for line in lines:
        if line.startswith(DIGEST_PREFIX):
            seed, _, shas = line[len(DIGEST_PREFIX):].partition(":")
            digests[seed.strip()] = [s for s in shas.split() if s != "-"]
        elif line.startswith(ENVIRONMENT_PREFIX):
            environment = json.loads(line[len(ENVIRONMENT_PREFIX):])
    if not digests:
        raise ValueError("no coords.csv digests in the benchmark output")
    if environment is None:
        raise ValueError("no environment line in the benchmark output")
    return {"result": final, "digests": digests, "environment": environment}


def parse_calibration(text: str) -> dict:
    """The record the calibration loop prints; raises ValueError when it is
    missing or holds no positive time."""
    lines = text.strip().splitlines()
    got = json.loads(lines[-1]) if lines else None
    if not isinstance(got, dict) or not {"size", "passes", "best_s"} <= got.keys():
        raise ValueError("no calibration record in the output")
    if not got["best_s"] > 0 or got["passes"] < 1:
        raise ValueError(f"calibration record without a positive time: {got}")
    return got


def calibrate(size: int = 400, seconds: float = 2.0) -> dict:
    """Run the calibration loop in a child with one BLAS thread."""
    done = subprocess.run([sys.executable, "-c", CALIBRATION, str(size), str(seconds)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, **BLAS_ENV})
    return parse_calibration(done.stdout)


def calibration_summary(readings: list[dict]) -> dict:
    """Every calibration reading of one side, and the fastest of them."""
    return {"readings": readings, "best_s": min(r["best_s"] for r in readings)}


def checkout_state(checkout: Path) -> dict:
    """The commit of a checkout and how its src/ and perfbench/ differ from
    it: tracked changes (`git diff HEAD`) and untracked files alike."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              check=True).stdout

    diff = hashlib.sha256(git("diff", "HEAD", "--binary", "--", *RUN_PATHS))
    untracked = git("ls-files", "--others", "--exclude-standard", "-z", "--", *RUN_PATHS)
    for name in sorted(filter(None, untracked.split(b"\0"))):
        diff.update(name + b"\0" + (checkout / name.decode()).read_bytes())
    dirty = bool(git("status", "--porcelain", "--", *RUN_PATHS).strip())
    return {"commit": git("rev-parse", "HEAD").decode().strip(), "dirty": dirty,
            "diff_sha256": diff.hexdigest() if dirty else None}


def collect_digests(runs: list[dict]) -> dict:
    """side -> workload -> dataset seed -> the distinct coords.csv digests
    that the runs of that side printed for it; more than one means that the
    output was not repeated."""
    out: dict = {}
    for run in runs:
        per_seed = out.setdefault(run["side"], {}).setdefault(run["workload"], {})
        for seed, shas in run["digests"].items():
            per_seed[seed] = sorted(set(per_seed.get(seed, [])) | set(shas))
    return out


def digest_verdict(digests: dict) -> dict | None:
    """How the digests of `collect_digests` compare between the sides
    "this" and "against", per workload and dataset seed: how many agree,
    and the datasets that differ and those that a side did not repeat (it
    printed no digest for them, or more than one). None without "against"."""
    if "against" not in digests:
        return None
    verdict = {"agree": 0, "differ": [], "unrepeated": []}
    sides = digests["this"], digests["against"]
    for workload in sorted(set(sides[0]) | set(sides[1])):
        this, against = (side.get(workload, {}) for side in sides)
        for seed in sorted(set(this) | set(against), key=int):
            got = this.get(seed, []), against.get(seed, [])
            name = f"{workload} seed {seed}"
            if len(got[0]) != 1 or len(got[1]) != 1:
                verdict["unrepeated"].append(name)
            elif got[0] == got[1]:
                verdict["agree"] += 1
            else:
                verdict["differ"].append(name)
    return verdict


def verdict_line(verdict: dict | None) -> str:
    if verdict is None:
        return "digests: no --against checkout to compare with"
    return (f"digests: {verdict['agree']} datasets agree; "
            f"differ: {', '.join(verdict['differ']) or 'none'}; "
            f"unrepeated: {', '.join(verdict['unrepeated']) or 'none'}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    return parse_output(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", type=Path, help="a second checkout, run in alternation")
    parser.add_argument("--pairs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"this": ROOT}
    if args.against is not None:
        if not (args.against / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {args.against}")
        sides["against"] = args.against.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {side: checkout_state(path) for side, path in sides.items()}
    readings: dict[str, list[dict]] = {side: [] for side in sides}
    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        # the last round is the traced one, and one more gives the seed-1 digests
        for pair in range(args.pairs + 2):
            trace = int(pair == args.pairs)
            seed, run_s = (1, 1.0) if pair > args.pairs else (0, seconds)
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                readings[side].append(calibrate())
            print("calibration " + ", ".join(f"{side} {readings[side][-1]['best_s']:.4f} s"
                                             for side in order), flush=True)
            for side in order:
                got = run_once(sides[side], workload, seed, run_s, trace)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "trace": trace, "side": side, **got})
                embed_s = got["result"]["metrics"].get("embed_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} trace {trace} {side}: "
                      f"embed_s {embed_s}", flush=True)
    calibration = {side: calibration_summary(got) for side, got in readings.items()}
    print("calibration, best " + ", ".join(f"{side} {c['best_s']:.4f} s"
                                           for side, c in calibration.items()), flush=True)
    digests = collect_digests(runs)
    verdict = digest_verdict(digests)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "seconds": seconds, "checkouts": checkouts,
        "calibration": calibration, "digests": digests, "digests_agree": verdict,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    print(verdict_line(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
