"""Weighted undirected graphs: generators, density, and rudy/JSON file I/O.

Graphs are immutable value objects.  Edges are stored canonically as
(u, v, w) tuples with u < v, sorted, so equality and file round-trips are
exact.  Generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightedGraph",
    "GraphError",
    "GraphFormatError",
    "gen_regular",
    "gen_density",
    "density",
    "read_graph",
    "write_graph",
]

_MAX_RESTARTS = 200  # reshuffles before the pairing model gives up
_MAX_SWAPS = 10000  # swap attempts per repair pass, at the least


class GraphError(ValueError):
    """Invalid graph construction parameters."""


class GraphFormatError(ValueError):
    """Malformed graph file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, no self-loops or duplicates."""

    n: int
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("vertex count must be positive")
        seen = set()
        canon = []
        for u, v, w in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((int(u), int(v), float(w)))
        canon.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def density(g: WeightedGraph) -> float:
    """Edge density 2E / (n(n-1)) of an undirected graph, n >= 2."""
    if g.n < 2:
        raise GraphError("density needs at least 2 vertices")
    return 2.0 * g.num_edges / (g.n * (g.n - 1))


def _check_weight_bounds(weight_low, weight_high):
    # numpy's uniform draw overflows unless high - low is finite, which also
    # excludes every non-finite bound
    if not math.isfinite(weight_high - weight_low):
        raise GraphError(f"weight range [{weight_low}, {weight_high}) must be finite")


def _assign_weights(pairs, weight_low, weight_high, rng):
    # Weights are drawn in canonical (sorted) edge order so the result does
    # not depend on the path the edge set was built by.
    pairs = sorted(pairs)
    w = rng.uniform(weight_low, weight_high, size=len(pairs))
    return tuple((u, v, float(wi)) for (u, v), wi in zip(pairs, w))


def gen_regular(n: int, degree: int, weight_low: float = 0.0, weight_high: float = 1.0,
                seed: int = 0) -> WeightedGraph:
    """Random `degree`-regular graph with i.i.d. uniform weights on [low, high).

    Pairing (configuration) model: vertex stubs are shuffled and paired;
    self-loops and duplicate edges are repaired by random edge swaps,
    reshuffling from scratch if a repair pass stalls.  Dense degrees
    (2 * degree > n - 1) pair the sparse complement of degree n - 1 - degree
    and return its complement, which has the same distribution and needs
    few swaps.  Deterministic for a fixed seed.
    """
    if not 0 < degree < n:
        raise GraphError(f"degree must satisfy 0 < degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError(f"no regular graph exists: n*degree={n * degree} is odd")
    if not weight_low < weight_high:
        raise GraphError("weight_low must be < weight_high")
    _check_weight_bounds(weight_low, weight_high)

    rng = np.random.default_rng(seed)
    if 2 * degree > n - 1:
        # n(n-1) is even, so the complement degree has the parity of degree
        absent = _pair_stubs(n, n - 1 - degree, rng)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in absent]
    else:
        pairs = _pair_stubs(n, degree, rng)
    return WeightedGraph(n, _assign_weights(pairs, weight_low, weight_high, rng))


def _pair_stubs(n, degree, rng):
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(_MAX_RESTARTS):
        perm = rng.permutation(stubs)
        pairs = _repair_pairing(perm.reshape(-1, 2), rng)
        if pairs is not None:
            return pairs
    raise GraphError("pairing model failed to produce a simple graph")


def _repair_pairing(mat, rng):
    """Edge-swap repair of self-loops/multi-edges; None if it stalls.

    An index is bad while its edge is a self-loop or a key another index
    also holds.  The lowest bad index is repaired first, and a swap
    re-examines only the keys it removes and adds.
    """
    edges = [tuple(sorted((int(a), int(b)))) for a, b in mat]
    holders = {}
    for i, e in enumerate(edges):
        holders.setdefault(e, set()).add(i)
    bad = {i for i, (a, b) in enumerate(edges) if a == b or len(holders[(a, b)]) > 1}
    # one pass needs about 0.6 attempts per pair, so the budget grows with it
    for _ in range(max(_MAX_SWAPS, 2 * len(edges))):
        if not bad:
            return set(edges)
        i = min(bad)
        j = int(rng.integers(len(edges)))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        # Swap partners: (a,b),(c,d) -> (a,c),(b,d); keep only if both new
        # edges are simple and currently absent.
        e1, e2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if a == c or b == d or e1 == e2 or e1 in holders or e2 in holders:
            continue
        for k in (i, j):
            old = edges[k]
            held = holders[old]
            held.discard(k)
            bad.discard(k)
            if not held:
                del holders[old]
            elif len(held) == 1 and old[0] != old[1]:
                bad -= held
        edges[i], edges[j] = e1, e2
        holders[e1], holders[e2] = {i}, {j}
    return None


def gen_density(n: int, d: float, weight_low: float = 0.0, weight_high: float = 1.0,
                seed: int = 0) -> WeightedGraph:
    """Random graph with round(d * n(n-1)/2) edges sampled uniformly without replacement."""
    if not 0.0 < d <= 1.0:
        raise GraphError(f"density must lie in (0, 1], got {d}")
    if n < 2:
        raise GraphError("need at least 2 vertices")
    m_all = n * (n - 1) // 2
    n_edges = int(round(d * m_all))
    if n_edges < 1:
        raise GraphError(f"density {d} on n={n} rounds to zero edges")
    _check_weight_bounds(weight_low, weight_high)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(m_all, size=n_edges, replace=False)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = [all_pairs[i] for i in sorted(chosen)]
    return WeightedGraph(n, _assign_weights(pairs, weight_low, weight_high, rng))


# ---------------------------------------------------------------------------
# File formats: rudy text ("n m" header, 1-indexed "u v w" lines) and JSON
# ({"n": ..., "edges": [[u, v, w], ...]}, 0-indexed).
# ---------------------------------------------------------------------------

def write_graph(g: WeightedGraph, path, fmt: str = "rudy") -> None:
    if fmt == "rudy":
        lines = [f"{g.n} {g.num_edges}"]
        for u, v, w in g.edges:
            lines.append(f"{u + 1} {v + 1} {w!r}")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
    elif fmt == "json":
        payload = {"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]}
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        raise ValueError(f"unknown graph format {fmt!r}")


def read_graph(path) -> WeightedGraph:
    """Read a graph file by its content: JSON when its first non-blank
    character is '{', rudy otherwise."""
    with open(path) as fh:
        text = fh.read()
    try:
        return _parse_json(text) if text.lstrip().startswith("{") else _parse_rudy(text)
    except (GraphError, OverflowError) as exc:  # e.g. n < 1, or a weight of 1e400 as an int
        raise GraphFormatError(str(exc)) from None


def _parse_rudy(text) -> WeightedGraph:
    content = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not content:
        raise GraphFormatError("empty file")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("header must be 'n m'", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("header must hold two integers", line=lineno) from None
    edges = []
    seen = set()
    for lineno, ln in content[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphFormatError("edge line must be 'u v w'", line=lineno)
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphFormatError(f"cannot parse edge {ln!r}", line=lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex index out of range 1..{n}", line=lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})", line=lineno)
        seen.add(key)
        edges.append((u - 1, v - 1, w))
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, file holds {len(edges)}")
    return WeightedGraph(n, tuple(edges))


def _parse_json(text) -> WeightedGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}", line=exc.lineno) from None
    # text starting with '{' loads as a dict; exact types keep bools out of ints
    n, edges = payload.get("n"), payload.get("edges")
    if type(n) is not int or not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 3 and type(e[0]) is type(e[1]) is int
            and type(e[2]) in (int, float) for e in edges):
        raise GraphFormatError("JSON graph must hold an integer 'n' and 'edges', a list of "
                               "[u, v, w] with integer u, v and numeric w")
    return WeightedGraph(n, tuple(edges))
