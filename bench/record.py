"""Record benchmark runs of one or two checkouts into BENCH_<label>.json.

    python3 bench/record.py --label NAME [--against DIR] [--pairs N]

For each workload of BENCHMARK.json, N times over, this runs
`perfbench/run.py --workload W --seconds T` of this checkout and, with
--against, of the checkout DIR too, alternating which of the two runs
first; T is BENCHMARK.json's run_seconds and the seed is perfbench's
default. Then it runs each side once more with --trace 1, for the per-layer
times. Each run's program is the `src/` beside the perfbench/ that runs it.

From every run's standard output it keeps three things: the final JSON
line verbatim, the printed coords.csv digests per dataset seed, and the
printed environment (git sha, nproc, BLAS and the package versions). For
each side it also records the checkout: its commit, whether src/ or
perfbench/ differ from that commit, and if so a sha256 of the difference,
so that an uncommitted tree is told apart from its commit. The file is
written to the root of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "coords.csv sha256 dataset seed "
ENVIRONMENT_PREFIX = "environment "
RUN_PATHS = ("src", "perfbench")  # what perfbench/run.py runs of a checkout


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


def run_once(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
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
    runs = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for pair in range(args.pairs + 1):
            trace = int(pair == args.pairs)  # the last round is the traced one
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                got = run_once(sides[side], workload, seconds, trace)
                runs.append({"workload": workload, "pair": pair, "trace": trace,
                             "side": side, **got})
                embed_s = got["result"]["metrics"].get("embed_s", {}).get("value")
                print(f"{workload} pair {pair} trace {trace} {side}: embed_s {embed_s}",
                      flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "seconds": seconds, "checkouts": checkouts, "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
