"""Metric MDS in two dimensions via stress majorization.

The Guttman update, generalized to non-negative pair weights: uniform
weights (the per-cluster MDS) divide, general ones (the anchor MDS's
relative stress) go through a pseudo-inverse computed once per call. Both
take their stress from the same precomputed sums. Each start runs alone in
a plain loop, into (m, m) buffers, so memory does not grow with the starts:
a 4-start plain MDS at m=200 peaks at 6.8 m x m matrices.

From _THREAD_MIN_POINTS points on, the starts of a call split into one
contiguous group per usable core (`core._run_groups`, as the k-medoids
restarts do), each group running its starts one after another; the output
does not depend on the number of cores. Every default pipeline call runs
one start. Four relative-stress starts on m holes points (6 holes, seed
0), each median over 5 fresh processes of the middle of 3 timed calls,
took on two threads against one (2 cores, 1 BLAS thread):

    m          128   160   192   224   256   288   320
    one (ms)   105   207   203   445   628   521   843
    two (ms)   125   201   197   363   431   358   516
    two won    1/5   4/5   3/5   5/5   5/5   5/5   5/5

Two threads first win in every process at m=224, where the gate is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core
from .core import (DistanceMatrix, ValidationError, _check_counts, _run_groups,
                   pairwise_distances)

_EPS_DIST = 1e-15
_WEIGHT_FLOOR_REL = 1e-6  # relative-stress weights span at most 1e12
# the fewest points at which a call's starts split across threads: below it
# thread start-up and GIL hand-offs cost as much as the overlap saves
_THREAD_MIN_POINTS = 224


@dataclass(frozen=True)
class MdsConfig:
    n_init: int = 4
    max_iter: int = 300
    eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_counts(1, n_init=self.n_init, max_iter=self.max_iter)
        _check_counts(0, seed=self.seed)
        if not (0 < self.eps < 1):
            raise ValidationError("eps must lie in (0, 1)")


def _weight_matrix(D: DistanceMatrix, w) -> np.ndarray:
    """The pair-weight matrix: uniform 1 for None, else a copy of w, zero diagonal."""
    m = D.n_points
    wm = np.ones((m, m)) if w is None else np.array(w, dtype=float)
    if wm.shape != (m, m):
        raise ValidationError("weight matrix shape mismatch")
    np.fill_diagonal(wm, 0.0)
    if not np.all(np.isfinite(wm)):
        raise ValidationError("weights must be finite")
    if np.any(wm < 0):
        raise ValidationError("weights must be non-negative")
    if m > 1 and not np.any(wm > 0):
        raise ValidationError("all-zero weights")
    return wm


def _check_connected(wm: np.ndarray):
    m = wm.shape[0]
    if np.count_nonzero(wm > 0) == m * (m - 1):  # every pair joined; the diagonal is 0
        return
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(wm[i] > 0):
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    if not seen.all():
        raise ValidationError("weight pattern disconnects the point set")


def stress(D: DistanceMatrix, coords: np.ndarray, w=None) -> float:
    """Weighted squared-error between input and embedded distances."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape[0] != D.n_points:
        raise ValidationError("coords row count does not match distance matrix")
    wm = _weight_matrix(D, w)
    d = pairwise_distances(coords, coords)
    iu = np.triu_indices(D.n_points, k=1)
    return float(np.sum(wm[iu] * (D.d[iu] - d[iu]) ** 2))


def relative_stress_weights(d: np.ndarray) -> np.ndarray:
    """Pair weights w_ij = d_ij^-2, which make the stress relative.

    Each pair then counts by its relative error, so the largest
    dissimilarities no longer dominate the fit. Before inverting, every
    dissimilarity is raised to at least the smallest positive one (and at
    least _WEIGHT_FLOOR_REL times the largest): distinct points at zero
    dissimilarity (duplicates) thus get the largest weight present, and no
    weight exceeds the smallest by more than _WEIGHT_FLOOR_REL^-2. When no
    dissimilarity is positive every weight is 1. The diagonal is zero.
    """
    d = np.asarray(d, dtype=float)
    pos = d[d > 0]
    if pos.size == 0:
        w = np.ones_like(d)
    else:
        floor = max(float(pos.min()), _WEIGHT_FLOOR_REL * float(pos.max()))
        w = 1.0 / np.maximum(d, floor) ** 2
    np.fill_diagonal(w, 0.0)
    return w


def _guttman_b(d_in, neg_wm, d, b, near):
    """B = -W * d_in / d of one (m, m) embedding, into b, in three passes.

    Where d <= _EPS_DIST the ratio counts as 0, so the entry is -W * 0 =
    -0.0 (W >= 0); the diagonal is then set so that each row sums to 0.
    The diagonal is always such an entry and is rewritten anyway, so the
    -0.0 is written only when other points coincide. near is bool scratch
    of d's shape.
    """
    m = d.shape[0]
    np.less_equal(d, _EPS_DIST, out=near)
    with np.errstate(all="ignore"):  # 0/0 and overflow at the entries set below
        np.divide(d_in, d, out=b)
        np.multiply(neg_wm, b, out=b)
    if np.count_nonzero(near) > m:
        np.copyto(b, -0.0, where=near)
    diag = b.reshape(m * m)[::m + 1]
    diag[...] = 0.0
    np.negative(np.add.reduce(b, axis=1), out=diag)


def _smacof_starts(d_in, wm, starts, max_iter, eps, uniform_w):
    """`_smacof_run` from every (m, 2) start: (s, m, 2) coordinates, and per
    start its stress, updates and stop. The fixed matrices are made once and
    shared. From _THREAD_MIN_POINTS points on, the starts split into one
    contiguous group per usable core (`_run_groups`), each run in turn.
    """
    v = np.diag(wm.sum(axis=1)) - wm
    v_pinv = np.linalg.pinv(v) if uniform_w is None else None
    run = partial(_smacof_run, d_in, wm * d_in, -wm, v, v_pinv, uniform_w, max_iter, eps)
    workers = core._WORKERS if d_in.shape[0] >= _THREAD_MIN_POINTS else 1
    runs = _run_groups(lambda group: [run(x0) for x0 in group], starts, workers)
    xs, sigs, iters, stops = zip(*runs)
    return np.array(xs), list(sigs), list(iters), list(stops)


def _smacof_run(d_in, wd, neg_wm, v, v_pinv, uniform_w, max_iter, eps, x0):
    """SMACOF from the (m, 2) start x0, into buffers allocated once per run.

    Returns (x, stress, updates, stop). It stops on a stress increase
    ("increase": the previous iterate is kept, the rejected update counted),
    on a relative decrease below eps ("eps") or at max_iter ("max_iter").
    Uniform weights (uniform_w, the common off-diagonal weight) update by a
    division, general weights (uniform_w None) through v_pinv, the
    pseudo-inverse of V = diag(W 1) - W. wd is W * d_in and neg_wm is -W.
    Over pairs i < j, stress = sum w d_in^2 - 2 sum w d_in d + sum w d^2:
    the first sum is fixed, the second is half the full-matrix dot of wd
    with d and the third is tr(X' V X), so no triangle is gathered.
    """
    m = d_in.shape[0]
    sig_in = 0.5 * float(np.vdot(wd, d_in))
    x, x_new, bx, vx = (np.empty((m, 2)) for _ in range(4))
    d, b = np.empty((m, m)), np.empty((m, m))
    near = np.empty((m, m), dtype=bool)

    def stress_of(x):  # of x, whose distances d holds
        np.matmul(v, x, out=vx)
        return sig_in - float(np.vdot(wd, d)) + float(np.vdot(x, vx))

    np.subtract(x0, x0.mean(axis=0), out=x)
    pairwise_distances(x, x, out=d, work=b)
    sig = stress_of(x)
    stop = "max_iter"
    for it in range(1, max_iter + 1):
        _guttman_b(d_in, neg_wm, d, b, near)
        np.matmul(b, x, out=bx)
        if v_pinv is None:
            np.divide(bx, m * uniform_w, out=x_new)
        else:
            np.matmul(v_pinv, bx, out=x_new)
        x_new -= x_new.mean(axis=0)
        pairwise_distances(x_new, x_new, out=d, work=b)  # B is spent
        new_sig = stress_of(x_new)
        if new_sig > sig:  # majorization guarantees descent; guard fp noise
            stop = "increase"
            break
        converged = sig - new_sig < eps * max(sig, _EPS_DIST)
        x, x_new, sig = x_new, x, new_sig
        if converged:
            stop = "eps"
            break
    # the fixed sums can cancel to -1e-15 at an exact fit
    return x, max(sig, 0.0), it, stop


def _smacof(d_in, wm, x0, max_iter, eps, uniform_w):
    """SMACOF from one start: its coordinates and stress."""
    xs, sigs, _, _ = _smacof_starts(d_in, wm, [x0], max_iter, eps, uniform_w)
    return xs[0], sigs[0]


def _classical_start(d: np.ndarray) -> np.ndarray | None:
    """Classical-scaling start: top-2 eigenpairs of the double-centered
    squared distances. Returns None when the leading eigenvalue is not
    positive (no useful planar structure)."""
    m = d.shape[0]
    sq = d ** 2
    b = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
    vals, vecs = np.linalg.eigh(b)
    if vals[-1] <= 0:
        return None
    top = np.maximum(vals[-2:], 0.0)
    return vecs[:, -2:] * np.sqrt(top)


def mds_embed(D: DistanceMatrix, w=None,
              cfg: MdsConfig = MdsConfig()) -> tuple[np.ndarray, float]:
    """Embed D in the plane, keeping the lowest-stress of n_init starts.

    The first start is the classical-scaling solution (when defined), the
    rest are random. Returns origin-centered coordinates and the achieved
    stress. One point maps to the origin; two points are placed exactly.
    ``w`` is None for uniform pair weights or an explicit (m, m) matrix.
    """
    m = D.n_points
    wm = _weight_matrix(D, w)
    if m == 1:
        return np.zeros((1, 2)), 0.0
    if m == 2:
        h = 0.5 * D.d[0, 1]
        return np.array([[-h, 0.0], [h, 0.0]]), 0.0
    _check_connected(wm)
    off = wm[np.triu_indices(m, k=1)]
    uniform_w = float(off[0]) if np.all(off == off[0]) and off[0] > 0 else None
    rng = np.random.default_rng(cfg.seed)
    classical = _classical_start(D.d)
    starts = [] if classical is None else [classical]
    starts += [rng.uniform(-1.0, 1.0, size=(m, 2)) for _ in range(cfg.n_init - len(starts))]
    xs, sigs, _, _ = _smacof_starts(D.d, wm, starts, cfg.max_iter, cfg.eps, uniform_w)
    best = int(np.argmin(sigs))  # ties: the earliest start
    return xs[best] - xs[best].mean(axis=0), sigs[best]
