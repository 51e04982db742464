"""Ising models over dense symmetric interaction matrices.

Energy convention: H(x) = -x^T J x over spins x_i in {+1, -1}, full double
sum, zero diagonal.  A graph edge of weight w contributes -w/2 to each of
the two symmetric matrix slots, so the Max-cut identity
W = total_weight/2 - H/2 holds exactly and the maximum cut is the ground
state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

__all__ = [
    "IsingModel",
    "MatrixFormatError",
    "from_graph",
    "hamiltonian",
    "delta_hamiltonian",
    "cut_value",
    "brute_force_maxcut",
    "random_state",
    "random_states",
    "read_matrix",
    "write_matrix",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 28
_BRUTE_FORCE_CHUNK = 1 << 16  # states enumerated per block


class MatrixFormatError(ValueError):
    """Malformed or asymmetric interaction-matrix file."""


@dataclass(frozen=True)
class IsingModel:
    """Symmetric zero-diagonal coupling matrix; immutable after construction."""

    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError(f"J must be square, got shape {J.shape}")
        if not np.all(np.isfinite(J)):
            raise ValueError("J must be finite")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be exactly symmetric")
        if np.any(np.diag(J) != 0.0):
            raise ValueError("J must have zero diagonal")
        J = J.copy()
        J.flags.writeable = False
        object.__setattr__(self, "J", J)

    @property
    def n(self) -> int:
        return self.J.shape[0]


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random spin vector in {+1,-1}^n."""
    return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int8)


def random_states(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) matrix of independent uniform spin vectors."""
    return (rng.integers(0, 2, size=(count, n)) * 2 - 1).astype(np.int8)


def from_graph(g: WeightedGraph) -> IsingModel:
    """Ising model of a Max-cut instance: J[u][v] = J[v][u] = -w/2 per edge.

    Couplings carry half the edge weight with an antiferromagnetic sign, so
    x^T J x = -sum_edges w*x_u*x_v and the cut identity
    W = total_weight/2 - H/2 holds exactly; minimizing H maximizes the cut.
    """
    J = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        J[u, v] = J[v, u] = -w / 2.0
    return IsingModel(J)


def hamiltonian(m: IsingModel, x):
    """H = -x^T J x (full ordered double sum): a float for one state (n,), an
    array of shape (...) for a block of states (..., n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != m.n:
        raise ValueError(f"state length {x.shape} does not match n={m.n}")
    h = -np.einsum("...i,...i->...", x @ m.J, x)
    return float(h) if x.ndim == 1 else h


def delta_hamiltonian(m: IsingModel, x, i: int) -> float:
    """Energy change from flipping spin i: 4 * x_i * (J x)_i."""
    if not 0 <= i < m.n:
        raise IndexError(f"spin index {i} out of range for n={m.n}")
    x = np.asarray(x, dtype=float)
    return float(4.0 * x[i] * (m.J[i] @ x))


def cut_value(g: WeightedGraph, x) -> float:
    """Total weight crossing the partition encoded by spin signs, edge by edge."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"state length {x.shape} does not match n={g.n}")
    return float(sum(w * (1.0 - x[u] * x[v]) / 2.0 for u, v, w in g.edges))


def _states_for_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Spin matrix for enumeration indices: spin 0 pinned +1, spin j reads bit j-1."""
    bits = (idx[:, None] >> np.arange(n - 1)) & 1
    states = np.empty((idx.size, n), dtype=np.int8)
    states[:, 0] = 1
    states[:, 1:] = 1 - 2 * bits
    return states


def brute_force_maxcut(g: WeightedGraph):
    """Exhaustive Max-cut oracle over 2^(n-1) states (global flip fixed out).

    Returns (best_cut, best_state); ties resolve to the lowest enumeration
    index.  Guarded to n <= 28.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 1:
        return 0.0, np.array([1], dtype=np.int8)
    J = from_graph(g).J
    half_total = g.total_weight() / 2.0
    total_states = 1 << (n - 1)
    best_val = -np.inf
    best_idx = 0
    for start in range(0, total_states, _BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total_states), dtype=np.int64)
        X = _states_for_indices(idx, n).astype(float)
        # W = total/2 + (x^T J x)/2 since H = -x^T J x; inline, because
        # `hamiltonian`'s extra temporaries cost 15-20% here at n = 20-22
        quad = np.einsum("ij,ij->i", X @ J, X)
        cuts = half_total + quad / 2.0
        k = int(np.argmax(cuts))
        if cuts[k] > best_val:
            best_val = float(cuts[k])
            best_idx = int(idx[k])
    best_state = _states_for_indices(np.array([best_idx], dtype=np.int64), n)[0]
    return best_val, best_state


# ---------------------------------------------------------------------------
# Dense matrix files: JSON {"n": ..., "J": [[...], ...]} and CSV (n rows of
# n comma-separated reals).  Symmetry is checked to 1e-12 and then enforced
# exactly by averaging; the diagonal is forced to zero (it only shifts H by
# a constant for +-1 spins).
# ---------------------------------------------------------------------------

SYMMETRY_TOL = 1e-12


def _to_model(J: np.ndarray) -> IsingModel:
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise MatrixFormatError(f"matrix must be square, got shape {J.shape}")
    # Before the tolerance test, which inf/nan entries pass or fail by accident.
    if not np.all(np.isfinite(J)):
        raise ValueError("J must be finite")
    scale = max(1.0, float(np.max(np.abs(J)))) if J.size else 1.0
    if np.max(np.abs(J - J.T)) > SYMMETRY_TOL * scale:
        raise MatrixFormatError("matrix is asymmetric beyond tolerance 1e-12")
    J = (J + J.T) / 2.0
    np.fill_diagonal(J, 0.0)
    return IsingModel(J)


def read_matrix(path, fmt: str = "json") -> IsingModel:
    if fmt == "json":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MatrixFormatError(f"invalid JSON: {exc}") from None
        if not isinstance(payload, dict) or "J" not in payload:
            raise MatrixFormatError("JSON matrix must hold key 'J'")
        J = np.asarray(payload["J"], dtype=float)
        if "n" in payload and J.shape != (payload["n"], payload["n"]):
            raise MatrixFormatError(f"declared n={payload['n']} does not match J shape {J.shape}")
        return _to_model(J)
    if fmt == "csv":
        rows = []
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise MatrixFormatError(f"line {lineno}: non-numeric entry") from None
        if not rows:
            raise MatrixFormatError("empty matrix file")
        width = len(rows[0])
        if any(len(r) != width for r in rows) or len(rows) != width:
            raise MatrixFormatError(f"matrix is not square: {len(rows)} rows, width {width}")
        return _to_model(np.array(rows))
    raise ValueError(f"unknown matrix format {fmt!r}")


def write_matrix(m: IsingModel, path, fmt: str = "json") -> None:
    if fmt == "json":
        payload = {"n": m.n, "J": [[float(v) for v in row] for row in m.J]}
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w") as fh:
            for row in m.J:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")
