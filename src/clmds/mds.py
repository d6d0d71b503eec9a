"""Metric MDS in two dimensions via stress majorization.

The Guttman-transform update is used, generalized to arbitrary
non-negative pair weights; uniform weights take a fast path that avoids
the pseudo-inverse, which general weights compute once per `mds_embed`
call. The per-cluster MDS is unweighted; only the anchor MDS passes a
weight matrix (relative stress). Both paths take their stress from the
same precomputed sums, and run every start of a call in one stacked
loop, into buffers allocated once per call; each start gets exactly the
result it would get alone. The stack stays: one start at a time gives the
same bits but is slower (2 cores, 1 BLAS thread): 0.27-0.28 s against
0.13-0.16 s on the nine small anchor MDS calls of a sparse-kernel-6000
dataset, and 1.69-1.70 s against 1.49-1.57 s on the 399-point s-curve one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DistanceMatrix, ValidationError, pairwise_distances

_EPS_DIST = 1e-15
_WEIGHT_FLOOR_REL = 1e-6  # relative-stress weights span at most 1e12


@dataclass(frozen=True)
class MdsConfig:
    n_init: int = 4
    max_iter: int = 300
    eps: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_init < 1 or self.max_iter < 1:
            raise ValidationError("n_init and max_iter must be positive")
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


def _stresses(d_in, wm, v, s):
    """Stress of each stacked start, from fixed sums.

    Over pairs i < j, stress = sum w d_in^2 - 2 sum w d_in d + sum w d^2.
    The first sum is fixed, the second is half the full-matrix dot of
    w * d_in with d, and the third is tr(X' V X) with v = diag(W 1) - W,
    so no triangle of the matrices is gathered per iteration.
    """
    wd = wm * d_in
    sig_in = 0.5 * float(np.vdot(wd, d_in))
    vx = np.empty((s, d_in.shape[0], 2))

    def stresses(x, d):
        n = d.shape[0]
        np.matmul(v, x, out=vx[:n])
        return [sig_in - float(np.vdot(wd, d[k])) + float(np.vdot(x[k], vx[k]))
                for k in range(n)]
    return stresses


def _guttman_b(d_in, neg_wm, d, b, near):
    """B = -W * d_in / d of each stacked start, into b, in three passes.

    Where d <= _EPS_DIST the ratio counts as 0, so the entry is -W * 0 =
    -0.0 (W >= 0); the diagonal is then set so that each row sums to 0.
    The diagonal is always such an entry and is rewritten anyway, so the
    -0.0 is written only when other points coincide. near is bool scratch
    of d's shape.
    """
    n, m = d.shape[:2]
    np.less_equal(d, _EPS_DIST, out=near)
    with np.errstate(all="ignore"):  # 0/0 and overflow at the entries set below
        np.divide(d_in, d, out=b)
        np.multiply(neg_wm, b, out=b)
    if np.count_nonzero(near) > n * m:
        np.copyto(b, -0.0, where=near)
    diag = b.reshape(n, m * m)[:, ::m + 1]
    diag[...] = 0.0
    np.negative(np.add.reduce(b, axis=2), out=diag)


def _smacof_starts(d_in, wm, starts, max_iter, eps, uniform_w):
    """SMACOF from every (m, 2) start at once.

    Returns (s, m, 2) coordinates, and for each start its stress, the number
    of updates it computed and why it stopped: "eps", "increase" or
    "max_iter". The starts run as one (s, m, 2) stack, and each follows
    exactly the iterates of a run from it alone: it stops on a stress
    increase (keeping the previous iterate, the rejected update counted),
    on a relative decrease below eps, or at max_iter. A stopped start's
    result is frozen and it leaves the stack. Stress comes from `_stresses`
    for any weights; they differ only in the update: uniform
    weights (uniform_w, the common off-diagonal weight) divide, and general
    weights (uniform_w None) go through the pseudo-inverse of
    V = diag(W 1) - W, the operator of the weighted Guttman update.
    """
    s, m = len(starts), d_in.shape[0]
    v = np.diag(wm.sum(axis=1)) - wm
    stresses = _stresses(d_in, wm, v, s)
    if uniform_w is None:
        v_pinv = np.linalg.pinv(v)

        def update(bx, out):
            np.matmul(v_pinv, bx, out=out)
    else:
        def update(bx, out):
            np.divide(bx, m * uniform_w, out=out)
    neg_wm = -wm
    x, x_new, bx = (np.empty((s, m, 2)) for _ in range(3))
    d, b = np.empty((s, m, m)), np.empty((s, m, m))
    near = np.empty((s, m, m), dtype=bool)
    for k, x0 in enumerate(starts):
        np.subtract(x0, x0.mean(axis=0), out=x[k])
    pairwise_distances(x, x, out=d, work=b)
    sig = stresses(x, d)
    out_x, out_sig = np.empty((s, m, 2)), [0.0] * s
    out_iter, out_stop = [max_iter] * s, ["max_iter"] * s
    live = list(range(s))  # the start each stack row holds
    n = s
    for it in range(1, max_iter + 1):
        xv, xn, dv, bv = x[:n], x_new[:n], d[:n], b[:n]
        _guttman_b(d_in, neg_wm, dv, bv, near[:n])
        np.matmul(bv, xv, out=bx[:n])
        update(bx[:n], xn)
        # each start's x.mean(axis=0), bit for bit
        xn -= np.add.reduce(xn, axis=1, keepdims=True) / m
        pairwise_distances(xn, xn, out=dv, work=bv)  # B is spent
        new_sig = stresses(xn, dv)
        keep = []
        for k in range(n):
            if new_sig[k] > sig[k]:  # majorization guarantees descent; guard fp noise
                out_x[live[k]], out_sig[live[k]] = xv[k], sig[k]
                out_iter[live[k]], out_stop[live[k]] = it, "increase"
            elif sig[k] - new_sig[k] < eps * max(sig[k], _EPS_DIST):
                out_x[live[k]], out_sig[live[k]] = xn[k], new_sig[k]
                out_iter[live[k]], out_stop[live[k]] = it, "eps"
            else:
                keep.append(k)
        x, x_new, sig = x_new, x, new_sig
        if len(keep) < n:
            if not keep:
                break
            n = len(keep)
            x[:n], d[:n] = x[keep], d[keep]
            sig = [sig[k] for k in keep]
            live = [live[k] for k in keep]
    else:  # max_iter reached: the starts still in the stack end at their iterate
        for k in range(n):
            out_x[live[k]], out_sig[live[k]] = x[k], sig[k]
    # the fixed sums can cancel to -1e-15 at an exact fit
    return out_x, [max(v, 0.0) for v in out_sig], out_iter, out_stop


def _smacof(d_in, wm, x0, max_iter, eps, uniform_w):
    """SMACOF from one start: the stacked loop with a stack of one."""
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
              cfg: MdsConfig | None = None) -> tuple[np.ndarray, float]:
    """Embed D in the plane, keeping the lowest-stress of n_init starts.

    The first start is the classical-scaling solution (when defined), the
    rest are random. Returns origin-centered coordinates and the achieved
    stress. One point maps to the origin; two points are placed exactly.
    ``w`` is None for uniform pair weights or an explicit (m, m) matrix.
    """
    if cfg is None:
        cfg = MdsConfig()
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
