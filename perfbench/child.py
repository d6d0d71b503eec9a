"""Run one `clmds embed` in a fresh interpreter, as the benchmark's child.

    python3 perfbench/child.py --src SRC --report FILE --trace 0|1 -- embed ARGS...

The embed goes through `clmds.cli.main`, the path a user takes. The child
writes FILE as JSON: the monotonic time at which `clmds_embed` was entered
(the end of set-up) and, with `--trace 1`, one span per call into each
wrapped function. Spans are taken here, by replacing module attributes
before the run; nothing in the package is edited. A wrapped name that no
longer exists raises at install time, so a rename fails the run loudly.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

# (span name, module, attribute). The attribute is replaced in that module's
# namespace, which is where the caller looks the name up at call time.
HOOKS = (
    ("pipeline.embed", "clmds.cli", "clmds_embed"),
    ("core.load", "clmds.cli", "load_feature_set"),
    ("core.distances", "clmds.cli", "euclidean_distances"),
    ("kernel.matrix", "clmds.cli", "kernel_matrix"),
    ("kernel.to_distance", "clmds.cli", "kernel_to_distance"),
    ("kernel.medoid_weighted", "clmds.pipeline", "medoid_weighted_distance"),
    ("kmedoids.best", "clmds.pipeline", "kmedoids_best"),
    ("kmedoids.once", "clmds.kmedoids", "kmedoids_once"),
    ("kmedoids.incoherence", "clmds.kmedoids", "relative_incoherence"),
    ("mds.embed", "clmds.pipeline", "mds_embed"),
    ("anchors.select", "clmds.pipeline", "select_anchors"),
    ("anchors.quadruple", "clmds.anchors", "best_quadruple"),
    ("anchors.pool", "clmds.pipeline", "best_quadruple"),
    ("transforms.choose", "clmds.pipeline", "choose_best_transform"),
    ("transforms.fit_homography", "clmds.transforms", "fit_homography"),
    ("pipeline.sparsify", "clmds.pipeline", "sparsify_select"),
    ("pipeline.estimate", "clmds.pipeline", "estimate_out_of_sample"),
    ("cli.serialize_coords", "clmds.cli", "result_to_coords_csv"),
    ("cli.serialize_json", "clmds.cli", "result_to_json"),
    # private, but the only place the CLI writes its artifacts
    ("cli.write", "clmds.cli", "_write_atomic"),
)


# What a span records besides its times: a value taken from the call's
# positional arguments, or from its result.
FROM_ARGS = {
    "mds.embed": lambda args: int(args[0].n_points),
    "anchors.quadruple": lambda args: len(args[1]),
    "anchors.pool": lambda args: len(args[1]),
}
FROM_RESULT = {
    "kmedoids.incoherence": float,
    "transforms.choose": lambda out: out[0].kind,
    "pipeline.estimate": lambda out: int(out.estimated_mask.sum()),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, value]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Local MDS runs before the anchor search, the anchor MDS after it.
        self._mds_phase = "local"

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == "pipeline.embed":
                self._mds_phase = "local"
            elif name == "anchors.select":
                self._mds_phase = "anchor"
            value = FROM_ARGS[name](args) if name in FROM_ARGS else None
            if name == "mds.embed":
                value = [self._mds_phase, value]
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, value]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[4] = "raised"
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if name in FROM_RESULT:
                span[4] = FROM_RESULT[name](out)
            return out
        return traced


def _install(trace: bool, report: dict) -> Tracer | None:
    """Wrap every hook target; without tracing, only mark the end of set-up."""
    tracer = Tracer() if trace else None
    for name, module_name, attr in HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)  # AttributeError: the hook target is gone
        if name == "pipeline.embed":
            fn = _mark_setup_end(fn, report)
        if tracer is not None:
            fn = tracer.wrap(name, fn)
        setattr(module, attr, fn)
    return tracer


def _mark_setup_end(fn, report: dict):
    def entered(*args, **kwargs):
        report["setup_end"] = time.monotonic()
        return fn(*args, **kwargs)
    return entered


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, args.src)
    report: dict = {}
    tracer = _install(bool(args.trace), report)
    from clmds.cli import main as clmds_main
    rc = clmds_main(cli_args)
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
