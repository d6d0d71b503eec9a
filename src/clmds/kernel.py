"""Kernel similarities and kernel-induced distances for descriptor vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Clustering, DistanceMatrix, FeatureSet, ValidationError, _asymmetry,
                   _check_counts, _has_non_finite, _row_blocks, _symmetrize)

_UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class KernelConfig:
    zeta: float = 1.0
    eta: int = 1
    normalize: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.zeta) and self.zeta > 0):
            raise ValidationError("zeta must be finite and positive")
        _check_counts(1, eta=self.eta)


def unit_descriptors(fs: FeatureSet, cfg: KernelConfig) -> np.ndarray:
    """The descriptors as unit vectors: divided by their norms when
    cfg.normalize, otherwise checked to be unit-norm already."""
    q = fs.vectors
    norms = np.linalg.norm(q, axis=1)
    if cfg.normalize:
        if np.any(norms == 0):
            raise ValidationError("zero-norm descriptor cannot be normalized")
        return q / norms[:, None]
    if np.max(np.abs(norms - 1.0)) > _UNIT_NORM_TOL:
        raise ValidationError("descriptors must be unit-normalized (or pass normalize=True)")
    return q


def kernel_matrix(fs: FeatureSet, cfg: KernelConfig = KernelConfig()) -> np.ndarray:
    """Polynomial similarity K_ij = (q_i . q_j)^zeta for unit-norm descriptors.

    Negative dot products are clamped to zero before exponentiation so
    fractional zeta stays defined. Each dot product is summed in an order
    that depends on neither the number of rows nor the pair's position (a
    BLAS product's does), so the kernel of a block of descriptors is that
    block of the full kernel, bit for bit, and K is exactly symmetric.
    """
    q = unit_descriptors(fs, cfg)
    k = _similarities(q, q, cfg.zeta)
    np.fill_diagonal(k, 1.0)
    return k


def _similarities(p: np.ndarray, q: np.ndarray, zeta: float) -> np.ndarray:
    """(p_i . q_j)^zeta, dot products clamped to zero first, in one array."""
    k = np.einsum("ik,jk->ij", p, q)
    np.clip(k, 0.0, None, out=k)
    k **= zeta  # in place, through the same power as k ** zeta
    return k


def _induced_distance(k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sqrt(max(1 - k, 0)) entry by entry; out may be k."""
    np.subtract(1.0, k, out=out)
    np.clip(out, 0.0, None, out=out)
    return np.sqrt(out, out=out)


def _check_kernel(k: np.ndarray):
    """k as a float array, and its asymmetry, at most 1e-9. A non-finite
    entry is refused first, as it would pass every later check."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValidationError("kernel matrix must be square")
    if k.shape[0] < 1:
        raise ValidationError("kernel matrix has no points")
    asym = _asymmetry(k)
    if _has_non_finite(k, asym):
        raise ValidationError("kernel matrix contains non-finite entries")
    if asym > 1e-9:
        raise ValidationError("kernel matrix must be symmetric")
    if np.max(np.abs(np.diag(k) - 1.0)) > 1e-12:
        raise ValidationError("kernel matrix must have unit diagonal")
    lo, hi = np.array([(np.min(k[s]), np.max(k[s])) for s in _row_blocks(*k.shape)]).T
    if np.min(lo) < -1e-12 or np.max(hi) > 1.0 + 1e-12:
        raise ValidationError("kernel entries must lie in [0, 1]")
    return k, asym


def kernel_to_distance(k: np.ndarray, *, out: np.ndarray | None = None) -> DistanceMatrix:
    """Induced distance D_ij = sqrt(1 - K_ij); 1 - D^2 gives K back up to rounding.

    By default k is read only, and the distances are one new n x n array.
    With out=k they are written into k itself, bit for bit the same, and k
    is given up: it becomes the read-only array of the result, so a build
    holds one n x n array. Such a k must be a writeable, C-contiguous
    float64 array. `_check_kernel` refuses a k that is no kernel, before
    anything is written, and `DistanceMatrix` alone checks the result.
    """
    if out is not None:
        if out is not k:
            raise ValidationError("out must be the kernel array itself")
        if not (isinstance(k, np.ndarray) and k.dtype == np.float64
                and k.flags.c_contiguous and k.flags.writeable):
            raise ValidationError("a kernel converted in place must be a writeable, "
                                  "C-contiguous float64 array")
    k, asym = _check_kernel(k)
    return _distance_matrix_of(np.array(k, order="C") if out is None else k, asym)


def _distance_matrix_of(sim: np.ndarray, asym: float) -> DistanceMatrix:
    """The distances sqrt(1 - sim) of a checked similarity matrix sim of
    asymmetry asym, made in sim, which the caller gives up, and handed to
    `DistanceMatrix` as they are. An asymmetry (at most the kernel check's
    1e-9) is averaged out first, as the root would magnify it past the
    distance check's bound."""
    if asym > 0.0:
        _symmetrize(sim)
    _induced_distance(sim, out=sim)
    np.fill_diagonal(sim, 0.0)
    sim.flags.writeable = False
    return DistanceMatrix(sim)


def kernel_distance_block(q: np.ndarray, rows, cols, zeta: float) -> np.ndarray:
    """The kernel-induced distances from the unit rows q[rows] to q[cols],
    built for those pairs only. With q = ``unit_descriptors(fs, cfg)`` and
    zeta = cfg.zeta this is bit for bit
    ``kernel_to_distance(kernel_matrix(fs, cfg)).d[np.ix_(rows, cols)]``, as
    dot products and the entries of one point with itself (K 1, D 0) are
    the same."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    k = _similarities(q[rows], q[cols], zeta)
    k[rows[:, None] == cols] = 1.0
    return _induced_distance(k, out=k)


def medoid_weighted_distance(k: np.ndarray, c: Clustering,
                             cfg: KernelConfig = KernelConfig()) -> DistanceMatrix:
    """Cross-cluster distances inflated by the medoid-pair similarity.

    D_ij = sqrt(1 - K_ij * K(m_k, m_s)^eta) for i in cluster k, j in
    cluster s; same-cluster pairs keep the plain kernel distance.
    """
    k, asym = _check_kernel(k)
    if c.n_points != k.shape[0]:
        raise ValidationError("clustering size does not match kernel matrix")
    med_sim = k[np.ix_(c.medoids, c.medoids)] ** cfg.eta
    np.fill_diagonal(med_sim, 1.0)  # same-cluster pairs read med_sim[a, a]
    sim = med_sim[c.assignment[:, None], c.assignment[None, :]]
    sim *= k
    return _distance_matrix_of(sim, asym)
