"""Symmetric eigendecomposition and truncated intensity-vector ensembles.

The eigensolver is LAPACK's symmetric driver (`numpy.linalg.eigh`).  Its
output is put in canonical form: each eigenvector's largest-magnitude entry
is made positive, pairs are stored by descending signed eigenvalue, and the
|eigenvalue| order is a stable sort, so |eigenvalue| ties are pinned.  The
result is bit-reproducible for one machine, numpy/LAPACK build and BLAS
thread count.  Inside a degenerate eigenvalue cluster the basis is whatever
LAPACK returns; `splits_cluster` says when a truncation depends on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ising import IsingModel

__all__ = [
    "EigenBundle",
    "IntensityEnsemble",
    "eigendecompose",
    "build_ensemble",
    "error_ratio",
    "tail_frobenius",
    "splits_cluster",
    "dump_bundle",
]

CLUSTER_RTOL = 1e-9    # eigenvalues closer than this times max|lam| form a cluster


@dataclass(frozen=True)
class EigenBundle:
    """Eigenvalues/eigenvectors of a coupling matrix plus sign bookkeeping.

    Eigenpairs are stored in descending signed-eigenvalue order; `order` is
    the stable permutation sorting them by |eigenvalue| descending (ties keep
    storage order, which puts the positive member of a +/- pair first).
    `signs[i]` is +1 when eigenvalue i is >= 0, else -1.
    """

    lam: np.ndarray        # (n,) eigenvalues
    vectors: np.ndarray    # (n, n), column i is the eigenvector of lam[i]
    signs: np.ndarray      # (n,) entries +1/-1
    order: np.ndarray      # (n,) permutation, |lam[order]| non-increasing

    @property
    def n(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class IntensityEnsemble:
    """The K strongest amplitude patterns P*sqrt(|lam|)*v with their signs."""

    xi: np.ndarray     # (K, n), row k is intensity vector k
    g: np.ndarray      # (K,) accumulation signs

    @property
    def K(self) -> int:
        return self.xi.shape[0]

    @property
    def n(self) -> int:
        return self.xi.shape[1]


def eigendecompose(m: IsingModel) -> EigenBundle:
    """Decompose m.J into real eigenpairs with deterministic ordering and signs."""
    lam, vec = np.linalg.eigh(m.J)

    # Canonical sign: make the largest-magnitude entry of each eigenvector
    # positive (first such entry on ties).
    flip = vec[np.argmax(np.abs(vec), axis=0), np.arange(lam.size)] < 0
    vec[:, flip] = -vec[:, flip]

    # Storage order: signed eigenvalues descending, stable.
    perm = np.argsort(-lam, kind="stable")
    lam = lam[perm]
    vec = vec[:, perm]

    signs = np.where(lam >= 0.0, 1, -1).astype(np.int8)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam.flags.writeable = False
    vec.flags.writeable = False
    signs.flags.writeable = False
    order.flags.writeable = False
    return EigenBundle(lam=lam, vectors=vec, signs=signs, order=order)


def build_ensemble(b: EigenBundle, K: int, P: float = 1.0) -> IntensityEnsemble:
    """Keep the K largest-|eigenvalue| components as scaled amplitude patterns."""
    if not 1 <= K <= b.n:
        raise ValueError(f"K must lie in 1..{b.n}, got {K}")
    if not (P > 0 and math.isfinite(P)):
        raise ValueError(f"P must be finite and positive, got {P}")
    picked = b.order[:K]
    lam = b.lam[picked]
    xi = (P * np.sqrt(np.abs(lam))[:, None]) * b.vectors[:, picked].T
    g = b.signs[picked].astype(float)
    xi.flags.writeable = False
    g.flags.writeable = False
    return IntensityEnsemble(xi=xi, g=g)


def error_ratio(b: EigenBundle, K: int) -> float:
    """Spectral-mass truncation error: 1 - sum of K leading |lam| / sum of all |lam|.

    A sum of |lam| that overflows the float range is refused."""
    if not 0 <= K <= b.n:
        raise ValueError(f"K must lie in 0..{b.n}, got {K}")
    vals = np.abs(b.lam[b.order])
    with np.errstate(over="ignore"):
        total = float(np.sum(vals))
    if not math.isfinite(total):
        raise ValueError("the sum of |eigenvalue| overflows the float range, so the error "
                         "ratio is not finite: scale the weights down")
    if total == 0.0:
        return 0.0
    return 1.0 - float(np.sum(vals[:K])) / total


def tail_frobenius(b: EigenBundle, K: int) -> float:
    """Frobenius norm of the part of J dropped by keeping K components."""
    if not 0 <= K <= b.n:
        raise ValueError(f"K must lie in 0..{b.n}, got {K}")
    return float(np.sqrt(np.sum(b.lam[b.order[K:]] ** 2)))


def splits_cluster(b: EigenBundle, K: int) -> bool:
    """True when keeping order[:K] cuts through a degenerate eigenvalue cluster.

    A cluster is a run of signed eigenvalues within CLUSTER_RTOL*max|lam| of
    each other.  LAPACK may return any basis of such an eigenspace, so a
    truncation that keeps part of one gives basis-dependent readouts.  A +/-
    pair tied only in |lam| is no cluster (the stable order pins which one is
    kept), and neither is a cluster at zero, whose components carry no weight.
    """
    if not 0 <= K <= b.n:
        raise ValueError(f"K must lie in 0..{b.n}, got {K}")
    mag = np.abs(b.lam)
    tol = CLUSTER_RTOL * float(mag.max(initial=0.0))
    kept = np.zeros(b.n, dtype=bool)
    kept[b.order[:K]] = True
    # Storage is sorted by signed eigenvalue, so a cluster is a contiguous
    # run and it is split exactly when two neighbours in it differ in `kept`.
    same = (b.lam[:-1] - b.lam[1:] <= tol) & (np.minimum(mag[:-1], mag[1:]) > tol)
    return bool(np.any(same & (kept[:-1] != kept[1:])))


def dump_bundle(b: EigenBundle, path) -> None:
    """Audit dump: eigenvalues, eigenvector matrix Q (columns), magnitude order."""
    payload = {
        "lambda": [float(v) for v in b.lam],
        "Q": [[float(v) for v in row] for row in b.vectors],
        "order": [int(i) for i in b.order],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
