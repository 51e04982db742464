"""Ising models over dense symmetric interaction matrices.

Energy convention: H(x) = -x^T J x over spins x_i in {+1, -1}, full double
sum, zero diagonal.  A graph edge of weight w contributes -w/2 to each of
the two symmetric matrix slots, so the Max-cut identity
W = total_weight/2 - H/2 holds exactly and the maximum cut is the ground
state.
"""

from __future__ import annotations

import csv
import io
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
    "ground_state",
    "random_state",
    "random_states",
    "read_matrix",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 28
_GROUND_STATE_BLOCK = 1 << 17  # energies per block, ~1 MB, and at least 64 high-half rows


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


def ground_state(J):
    """Exhaustive maximum of x^T J x over the 2^(n-1) states with spin 0
    pinned +1: returns (value, index), ties resolving to the lowest
    enumeration index (spin j reads bit j-1, as `_states_for_indices`).

    J is any symmetric matrix; a diagonal adds its trace to every state.
    The spins split into a low half a (spin 0 and the low index bits) and a
    high half b, so x^T J x = E_a(x_a) + E_b(x_b) + 2 x_b^T J_ba x_a and a
    block of states is one GEMM.  Row-major order over (x_b, x_a) is index
    order, so argmax within a block and a strict > across blocks keep the
    tie rule.  Guarded to n <= 28.
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    a = n // 2 + 1
    Xa = _states_for_indices(np.arange(1 << (a - 1)), a).astype(float)
    Ea = np.einsum("ij,ij->i", Xa @ J[:a, :a], Xa)
    cross = 2.0 * J[a:, :a] @ Xa.T
    cols, rows = Xa.shape[0], 1 << (n - a)
    step = max(64, _GROUND_STATE_BLOCK // cols)
    best_val, best_idx = -np.inf, 0
    block = np.empty((min(step, rows), cols))  # one energy block, reused by every pass
    for start in range(0, rows, step):
        # x_b reads the high index bits: drop the pinned column of an (n-a+1)-spin state
        Xb = _states_for_indices(np.arange(start, min(start + step, rows)), n - a + 1)[:, 1:]
        Xb = Xb.astype(float)
        E = np.matmul(Xb, cross, out=block[:len(Xb)])
        E += Ea
        E += np.einsum("ij,ij->i", Xb @ J[a:, a:], Xb)[:, None]
        k = int(np.argmax(E))
        if E.flat[k] > best_val:
            best_val, best_idx = float(E.flat[k]), start * cols + k
    return best_val, best_idx


def brute_force_maxcut(g: WeightedGraph):
    """Exhaustive Max-cut oracle over 2^(n-1) states (global flip fixed out).

    Returns (best_cut, best_state); ties resolve to the lowest enumeration
    index.  The cut is total/2 - H/2 of the decoded state, the identity the
    annealing engine's cut history uses.  Guarded to n <= 28.
    """
    m = from_graph(g)
    _, idx = ground_state(m.J)
    state = _states_for_indices(np.array([idx]), g.n)[0]
    return g.total_weight() / 2.0 - hamiltonian(m, state) / 2.0, state


# ---------------------------------------------------------------------------
# Dense matrix files: JSON {"n": ..., "J": [[...], ...]} and CSV (n rows of
# n comma-separated reals).  Symmetry is checked to 1e-12 and then enforced
# exactly by averaging; the diagonal is forced to zero (it only shifts H by
# a constant for +-1 spins).
# ---------------------------------------------------------------------------

SYMMETRY_TOL = 1e-12


def read_matrix(path) -> IsingModel:
    """Read a matrix file by its content: JSON when its first non-blank
    character is '{', CSV otherwise."""
    with open(path, newline="") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # malformed, or an integer past Python's digit limit
            raise MatrixFormatError(f"invalid JSON: {exc}") from None
        # text starting with '{' loads as a dict; exact types keep bools out of ints
        rows = payload.get("J")
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and all(type(v) in (int, float) for v in r) for r in rows)):
            raise MatrixFormatError("JSON matrix must hold key 'J', a list of rows of numbers")
        if "n" in payload and payload["n"] != len(rows):
            raise MatrixFormatError(f"declared n={payload['n']!r} does not match J's {len(rows)} rows")
    else:
        rows = []
        for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
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
    try:
        J = np.array(rows, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise MatrixFormatError(str(exc)) from None
    # Before the tolerance test, which inf/nan entries pass or fail by accident.
    if not np.all(np.isfinite(J)):
        raise ValueError("J must be finite")
    scale = max(1.0, float(np.max(np.abs(J))))
    if np.max(np.abs(J - J.T)) > SYMMETRY_TOL * scale:
        raise MatrixFormatError("matrix is asymmetric beyond tolerance 1e-12")
    J = (J + J.T) / 2.0
    np.fill_diagonal(J, 0.0)
    return IsingModel(J)
