"""Metric MDS in two dimensions via stress majorization.

The Guttman-transform update is used, generalized to arbitrary
non-negative pair weights; uniform weights take a fast path that avoids
the pseudo-inverse. The per-cluster MDS is unweighted; only the anchor
MDS passes a weight matrix (relative stress). The weighted path computes
the pseudo-inverse once per `mds_embed` call and its stress from
precomputed sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import DistanceMatrix, ValidationError

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
    if np.any(wm < 0):
        raise ValidationError("weights must be non-negative")
    if m > 1 and not np.any(wm > 0):
        raise ValidationError("all-zero weights")
    return wm


def _check_connected(wm: np.ndarray):
    m = wm.shape[0]
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
    d = cdist(coords, coords)
    iu = np.triu_indices(D.n_points, k=1)
    return float(np.sum(wm[iu] * (D.d[iu] - d[iu]) ** 2))


def _stress_from_dists(d_emb, d_in, wm, iu) -> float:
    return float(np.sum(wm[iu] * (d_in[iu] - d_emb[iu]) ** 2))


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


def _guttman_v(wm: np.ndarray) -> np.ndarray:
    """V = diag(W 1) - W, the operator of the weighted Guttman update."""
    return np.diag(wm.sum(axis=1)) - wm


def _weighted_stress(d_in, wm):
    """Stress as a function of (coords, embedded distances), from fixed sums.

    Over pairs i < j, stress = sum w d_in^2 - 2 sum w d_in d + sum w d^2.
    The first sum is fixed, the second is half the full-matrix dot of
    w * d_in with d, and the third is tr(X' V X) with V = diag(W 1) - W,
    so no triangle of the matrices is gathered per iteration.
    """
    wd = wm * d_in
    sig_in = 0.5 * float(np.vdot(wd, d_in))
    v = _guttman_v(wm)

    def stress_of(x, d_emb):
        return sig_in - float(np.vdot(wd, d_emb)) + float(np.vdot(x, v @ x))
    return stress_of


def _smacof(d_in, wm, x0, max_iter, eps, uniform_w, v_pinv=None):
    m = d_in.shape[0]
    if uniform_w is None:
        # weighted case: update via the pseudo-inverse of V
        if v_pinv is None:
            v_pinv = np.linalg.pinv(_guttman_v(wm))
        stress_of = _weighted_stress(d_in, wm)

        def update(bx):
            return v_pinv @ bx
    else:
        iu = np.triu_indices(m, k=1)

        def stress_of(x, d_emb):
            return _stress_from_dists(d_emb, d_in, wm, iu)

        def update(bx):
            return bx / (m * uniform_w)
    x = x0 - x0.mean(axis=0)
    d_emb = cdist(x, x)
    sig = stress_of(x, d_emb)
    for _ in range(max_iter):
        ratio = np.where(d_emb > _EPS_DIST, d_in / np.maximum(d_emb, _EPS_DIST), 0.0)
        b = -wm * ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x_new = update(b @ x)
        x_new -= x_new.mean(axis=0)
        d_emb = cdist(x_new, x_new)
        new_sig = stress_of(x_new, d_emb)
        if new_sig > sig:  # majorization guarantees descent; guard fp noise
            break
        done = sig - new_sig < eps * max(sig, _EPS_DIST)
        x, sig = x_new, new_sig
        if done:
            break
    return x, max(sig, 0.0)  # the weighted sums can cancel to -1e-15 at an exact fit


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
    starts = [_classical_start(D.d)]
    while len([s for s in starts if s is not None]) < cfg.n_init:
        starts.append(rng.uniform(-1.0, 1.0, size=(m, 2)))
    v_pinv = np.linalg.pinv(_guttman_v(wm)) if uniform_w is None else None
    best_x, best_sig = None, np.inf
    for x0 in starts:
        if x0 is None:
            continue
        x, sig = _smacof(D.d, wm, x0, cfg.max_iter, cfg.eps, uniform_w, v_pinv)
        if sig < best_sig:
            best_x, best_sig = x, sig
    return best_x - best_x.mean(axis=0), best_sig
