"""clmds benchmark: `clmds embed` end to end on generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the program is taken from `src/` beside this directory.
A workload is a fixed number of datasets made by `clmds datagen` from the
seed, written to a temporary directory under `.perfbench_work/` before any
timing starts. Then, for `--seconds` seconds and at least once per dataset,
each repetition starts a fresh interpreter that runs one embed through
`clmds.cli.main` (closed loop, one client, BLAS pinned to one thread).
Every output is checked; a repetition that exits non-zero or fails a check
counts as failed. Per-dataset medians are averaged over the datasets.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A traced run embeds the first dataset only, alternately without and with
tracing, so that the tracing overhead is measured in the same run.

`--smoke` runs every workload once at a tiny size, traced, and fails if
an output check fails or a wrapped function never fires.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

from child import HOOKS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
COORDS_HEADER = "id,x,y,cluster,is_medoid,is_anchor,is_estimated"
# One BLAS thread, set before numpy is first imported, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    datagen: tuple[str, ...]  # `clmds datagen` arguments, without --n/--seed
    n: int
    config: dict[str, str]    # `clmds embed` config keys
    # One embed's cost depends on its input: over datasets of one workload the
    # wall time had a standard deviation of 10% (s-curve) to 13% (sparse
    # kernel) of its mean, so a run embeds this many datasets made from --seed.
    datasets: int
    smoke_n: int
    smoke_config: dict[str, str]

    def dataset_seed(self, seed: int, i: int) -> int:
        return self.datasets * seed + i


# Why each workload is here is recorded beside it in BENCHMARK.json.
WORKLOADS = {
    "scurve-2000-k100": Workload(
        datagen=("s-curve",), n=2000, datasets=4,
        config={"input_kind": "features", "hierarchy": "100,1"},
        smoke_n=150, smoke_config={"hierarchy": "10,1"}),
    "sparse-kernel-6000": Workload(
        datagen=("holes", "--holes", "12"), n=6000, datasets=5,
        config={"input_kind": "descriptors", "normalize": "true", "weighted": "true",
                "sparsify": "random", "n_sparse": "1000", "hierarchy": "40,8,1"},
        smoke_n=300, smoke_config={"n_sparse": "60", "hierarchy": "6,3,1"}),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


# ---------------------------------------------------------------- set-up

def _import_program():
    if not (SRC / "clmds" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'clmds'}")
    sys.path.insert(0, str(SRC))
    import clmds
    if Path(clmds.__file__).resolve().parent != (SRC / "clmds").resolve():
        raise BenchError(f"imported clmds from {clmds.__file__}, not from {SRC}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def _clmds_cli(argv: list[str]):
    from clmds.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise BenchError(f"clmds {' '.join(argv)} exited with {rc}")


@dataclass(frozen=True)
class Inputs:
    """One generated dataset and the config that embeds it."""
    seed: int
    config_path: Path
    features: Path
    input_kind: str
    n: int
    n_clusters: int  # at the finest level
    n_estimated: int


def make_inputs(wl: Workload, seed: int, smoke: bool, into: Path) -> Inputs:
    """Generate one dataset with `clmds datagen` and write its embed config."""
    n = wl.smoke_n if smoke else wl.n
    data = into / "data"
    _clmds_cli(["datagen", *wl.datagen, "--n", str(n), "--seed", str(seed),
                "--output-dir", str(data)])
    cfg = {**wl.config, **(wl.smoke_config if smoke else {}),
           "input": str(data / "features.csv"), "seed": str(seed)}
    config_path = into / "run.cfg"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    n_sparse = int(cfg["n_sparse"]) if cfg.get("sparsify", "none") != "none" else n
    return Inputs(seed=seed, config_path=config_path, features=data / "features.csv",
                  input_kind=cfg["input_kind"], n=n,
                  n_clusters=int(cfg["hierarchy"].split(",")[0]), n_estimated=n - n_sparse)


# ------------------------------------------------------------ one embed

@dataclass
class Rep:
    inputs: Inputs
    traced: bool
    embed_s: float
    setup_s: float | None
    peak_rss_mb: float
    out_dir: Path
    report: dict
    problems: list[str]
    digest: str = ""


def run_embed(inputs: Inputs, out_dir: Path, traced: bool) -> Rep:
    """One `clmds embed` in a fresh interpreter, timed from spawn to exit."""
    report_path = out_dir.with_suffix(".report.json")
    log_path = out_dir.with_suffix(".log")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
           "--report", str(report_path), "--trace", str(int(traced)), "--",
           "embed", "--config", str(inputs.config_path), "--output-dir", str(out_dir)]
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT))
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    report, problems = {}, []
    if rc != 0:
        problems.append(f"exit code {rc}: {log_path.read_text()[-2000:]}")
    elif not report_path.is_file():
        problems.append("child wrote no report")
    else:
        report = json.loads(report_path.read_text())
        if "setup_end" not in report:
            problems.append("clmds_embed was never entered")
    setup_end = report.get("setup_end")
    return Rep(inputs=inputs, traced=traced, embed_s=t1 - t0,
               setup_s=None if setup_end is None else setup_end - t0,
               peak_rss_mb=usage.ru_maxrss / 1024.0, out_dir=out_dir,
               report=report, problems=problems)


def check_output(rep: Rep):
    """Append to rep.problems every way the written output is wrong."""
    from clmds.cli import load_result
    n, n_clusters = rep.inputs.n, rep.inputs.n_clusters
    coords = rep.out_dir / "coords.csv"
    if rep.problems:
        return
    if not coords.is_file():
        rep.problems.append("coords.csv missing")
        return
    raw = coords.read_bytes()
    rep.digest = hashlib.sha256(raw).hexdigest()
    lines = raw.decode().splitlines()
    if lines[:1] != [COORDS_HEADER]:
        rep.problems.append(f"coords.csv header {lines[:1]}")
        return
    try:
        rows = [(int(i), float(x), float(y), int(c), int(e))
                for i, x, y, c, _, _, e in (line.split(",") for line in lines[1:])]
    except ValueError as exc:
        rep.problems.append(f"coords.csv row does not parse: {exc}")
        return
    if len(rows) != n:
        rep.problems.append(f"coords.csv has {len(rows)} rows, want {n}")
    if sorted(r[0] for r in rows) != list(range(len(rows))):
        rep.problems.append("coords.csv ids are not 0..N-1, each once")
    if not all(math.isfinite(r[1]) and math.isfinite(r[2]) for r in rows):
        rep.problems.append("non-finite coordinate")
    if not all(0 <= r[3] < n_clusters for r in rows):
        rep.problems.append(f"cluster outside 0..{n_clusters - 1}")
    estimated = sum(r[4] for r in rows)
    if estimated != rep.inputs.n_estimated:
        rep.problems.append(f"{estimated} rows estimated, want {rep.inputs.n_estimated}")
    try:
        load_result(str(rep.out_dir))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        rep.problems.append(f"result.json does not load back: {exc!r}")


# ------------------------------------------------------- quality metrics

def _reference_distance_rows(x, kind: str, rows: slice):
    """Rows of the input distance matrix the CLI embeds, recomputed here."""
    import numpy as np
    from scipy.spatial.distance import cdist
    if kind == "features":
        return cdist(x[rows], x)
    q = x / np.linalg.norm(x, axis=1, keepdims=True)
    d = np.sqrt(np.clip(1.0 - np.clip(q[rows] @ q.T, 0.0, None), 0.0, None))
    d[np.arange(d.shape[0]), np.arange(rows.start, rows.start + d.shape[0])] = 0.0
    return d


def containment(rep: Rep) -> float:
    from clmds.cli import load_result
    from clmds.datagen import voronoi_containment
    return voronoi_containment(load_result(str(rep.out_dir)))


def stress1(rep: Rep) -> float:
    """Kruskal stress-1 of the written coords against the input distances.

    sqrt(sum (|x_i - x_j| - d_ij)^2 / sum d_ij^2) over all pairs, with d the
    Euclidean distances of the features, or sqrt(1 - K) for normalized
    descriptors (the workloads keep zeta = 1), built here in row blocks.
    """
    import numpy as np
    from scipy.spatial.distance import cdist
    x = np.loadtxt(rep.inputs.features, delimiter=",", comments="#", ndmin=2)
    table = np.loadtxt(rep.out_dir / "coords.csv", delimiter=",", skiprows=1, ndmin=2)
    coords = table[np.argsort(table[:, 0]), 1:3]
    num = den = 0.0
    for lo in range(0, coords.shape[0], 1000):
        rows = slice(lo, min(lo + 1000, coords.shape[0]))
        ref = _reference_distance_rows(x, rep.inputs.input_kind, rows)
        num += float(np.sum((cdist(coords[rows], coords) - ref) ** 2))
        den += float(np.sum(ref ** 2))
    return (num / den) ** 0.5


# ---------------------------------------------------- per-layer metrics

def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer numbers from one traced embed's spans and outputs."""
    spans = rep.report["spans"]

    def dur(s):
        return s[2] - s[1]

    def total(name):
        return sum(dur(s) for s in spans if s[0] == name)

    def named(name):
        return [s for s in spans if s[0] == name]

    m: dict[str, float] = {}
    m["core.load_s"] = total("core.load")
    m["core.distances_s"] = total("core.distances")
    m["kernel.matrix_s"] = total("kernel.matrix")
    m["kernel.to_distance_s"] = total("kernel.to_distance")
    m["kernel.medoid_weighted_s"] = total("kernel.medoid_weighted")

    once = named("kmedoids.once")
    m["kmedoids.best_s"] = total("kmedoids.best")
    m["kmedoids.calls"] = len(named("kmedoids.best"))
    m["kmedoids.restarts"] = len(once)
    m["kmedoids.restart_ms"] = 1e3 * sum(map(dur, once)) / max(1, len(once))
    # A restart ends in one incoherence call inside its kmedoids_best span.
    by_call: dict[int, list[float]] = {}
    incoherence_spans = named("kmedoids.incoherence")
    for s in incoherence_spans:
        by_call.setdefault(s[3], []).append(s[4])
    hits = sum(sum(v == min(vals) for v in vals) for vals in by_call.values())
    m["kmedoids.best_hit_ratio"] = hits / max(1, len(incoherence_spans))

    for phase in ("local", "anchor"):
        calls = [s for s in named("mds.embed") if s[4][0] == phase]
        m[f"mds.{phase}_s"] = sum(map(dur, calls))
        m[f"mds.{phase}_calls"] = len(calls)
        m[f"mds.{phase}_points"] = sum(s[4][1] for s in calls)
    m["mds.pairs"] = sum(s[4][1] * (s[4][1] - 1) // 2 for s in named("mds.embed"))

    searches = named("anchors.quadruple") + named("anchors.pool")
    m["anchors.select_s"] = total("anchors.select")
    m["anchors.pool_s"] = total("anchors.pool")
    m["anchors.quadruples"] = sum(math.comb(s[4], 4) for s in searches if s[4] > 4)
    search_s = sum(map(dur, searches))
    m["anchors.quads_per_s"] = m["anchors.quadruples"] / search_s if search_s else 0.0

    meta = json.loads((rep.out_dir / "result.json").read_text())
    homography = named("transforms.fit_homography")
    m["transforms.stitch_s"] = total("transforms.choose")
    m["transforms.stitches"] = sum(len(lv["stitches"] or []) for lv in meta["per_level"])
    m["transforms.homography_attempts"] = len(homography)
    m["transforms.homography_failed"] = sum(s[4] == "raised" for s in homography)
    m["transforms.homography_kept"] = sum(s[4] == "homography"
                                          for s in named("transforms.choose"))

    (embed,) = [i for i, s in enumerate(spans) if s[0] == "pipeline.embed"]
    embed_s = dur(spans[embed])
    stages = {k: v for k, v in meta["timings"].items() if k != "total"}
    m["pipeline.embed_s"] = embed_s
    m["pipeline.sparsify_s"] = total("pipeline.sparsify")
    m["pipeline.estimate_s"] = total("pipeline.estimate")
    m["pipeline.estimated_points"] = sum(s[4] for s in named("pipeline.estimate"))
    m["pipeline.self_s"] = embed_s - sum(dur(s) for s in spans if s[3] == embed)
    m["pipeline.timings_unreported_s"] = embed_s - sum(stages.values())

    m["cli.serialize_s"] = total("cli.serialize_coords") + total("cli.serialize_json")
    m["cli.write_s"] = total("cli.write")
    m["cli.bytes_written"] = sum(p.stat().st_size for p in rep.out_dir.iterdir())
    return m


def fired_hooks(rep: Rep) -> set[str]:
    names = {s[0] for s in rep.report["spans"]}
    names |= {f"mds.embed.{s[4][0]}" for s in rep.report["spans"] if s[0] == "mds.embed"}
    return names


ALL_HOOKS = {name for name, _, _ in HOOKS} | {"mds.embed.local", "mds.embed.anchor"}


# ------------------------------------------------------------ reporting

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git program
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------ runs

def bench(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    """Embed the workload's datasets in turn for `seconds`, then report.

    Untraced, every dataset is embedded at least once. Traced, the first
    dataset is embedded alternately without and with tracing, at least
    once each.
    """
    wl = WORKLOADS[name]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if name not in whys:
        raise BenchError(f"workload {name} is not in BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        datasets = [make_inputs(wl, wl.dataset_seed(seed, i), False, work / f"d{i}")
                    for i in range(1 if trace else wl.datasets)]
        reps: list[Rep] = []
        deadline = time.monotonic() + seconds
        while True:
            k = len(reps)
            traced = trace and k % 2 == 1
            rep = run_embed(datasets[k % len(datasets)], work / f"out{k}", traced)
            check_output(rep)
            reps.append(rep)
            if rep.problems:
                print(f"repetition {k} failed: {rep.problems}", file=sys.stderr)
            # Start another repetition only if one like it fits before the deadline.
            next_traced = trace and (k + 1) % 2 == 1
            next_s = median([r.embed_s for r in reps if r.traced == next_traced] or [rep.embed_s])
            if k + 1 >= max(len(datasets), 1 + trace) and time.monotonic() + next_s > deadline:
                break
        good = [r for r in reps if not r.problems]
        if not good:
            raise BenchError("every repetition failed")
        failed = len(reps) - len(good)
        digests = {d.seed: sorted({r.digest for r in good if r.inputs is d}) for d in datasets}
        deterministic = all(len(v) <= 1 for v in digests.values())
        if not deterministic:
            print(f"coords.csv differs between repetitions: {digests}", file=sys.stderr)
        correct = failed == 0 and deterministic

        plain = [r for r in good if not r.traced]
        per_dataset = [[r for r in plain if r.inputs is d] for d in datasets]
        per_dataset = [ds for ds in per_dataset if ds]
        metrics: dict[str, float] = {}
        if per_dataset:
            embed_s = fmean(median([r.embed_s for r in ds]) for ds in per_dataset)
            metrics.update({
                "embed_s": embed_s,
                "points_per_s": wl.n / embed_s,
                "setup_s": median([r.setup_s for r in plain]),
                "peak_rss_mb": fmean(median([r.peak_rss_mb for r in ds])
                                                for ds in per_dataset),
            })
        traced_reps = [r for r in good if r.traced]
        if traced_reps:
            per_rep = [layer_metrics(r) for r in traced_reps]
            metrics.update({k: median([p[k] for p in per_rep]) for k in per_rep[0]})
            metrics["quality.stress1"] = stress1(traced_reps[0])
            metrics["trace.embed_s"] = median([r.embed_s for r in traced_reps])
            if plain:
                metrics["trace.overhead_s"] = metrics["trace.embed_s"] - metrics["embed_s"]
        elif per_dataset:
            metrics["containment"] = fmean(containment(ds[0]) for ds in per_dataset)

        print(f"workload {name}  seed {seed}  N {wl.n}  why: {whys[name]}")
        print(f"repetitions {len(reps)} ({len(traced_reps)} traced), failed {failed}, "
              f"error_rate {failed / len(reps):.4g} fraction")
        for k, r in enumerate(reps):
            print(f"  {k:2d} dataset seed {r.inputs.seed} traced {int(r.traced)} "
                  f"embed_s {r.embed_s:.4f} setup_s {r.setup_s:.4f} "
                  f"peak_rss_mb {r.peak_rss_mb:.1f} ok {not r.problems}")
        for d_seed, d in digests.items():
            print(f"  coords.csv sha256 dataset seed {d_seed}: {' '.join(d) or '-'}")
        timings = json.loads((good[-1].out_dir / "result.json").read_text())["timings"]
        print(f"result.json timings, last repetition: {json.dumps(timings)}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        for key in sorted(metrics):
            print(f"  {key:34s} {metrics[key]:.6g} {units[key]}")
        missing = [k for k in want if k not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        print(json.dumps({
            "correct": correct, "attempted": len(reps), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in want},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> int:
    """Every workload at a tiny size, traced once; every hook must fire."""
    fired: set[str] = set()
    ok = True
    WORK.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=WORK))
        try:
            rep = run_embed(make_inputs(wl, 0, True, work), work / "out", True)
            check_output(rep)
            if "spans" in rep.report:
                fired |= fired_hooks(rep)
            if not rep.problems:
                layer_metrics(rep)
                stress1(rep)
            ok &= not rep.problems
            print(f"smoke {name}: N={rep.inputs.n} embed_s={rep.embed_s:.3f} "
                  f"{'ok' if not rep.problems else rep.problems}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    never = sorted(ALL_HOOKS - fired)
    if never:
        print(f"smoke: hooks that never fired: {never}")
    return 0 if ok and not never else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    os.environ.update(BLAS_ENV)
    # On SIGTERM, unwind so that the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _import_program()
        if args.smoke:
            return smoke()
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), _load_spec())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if empty: another run may be using it


if __name__ == "__main__":
    sys.exit(main())
