"""Correctness checks on workload outputs, and the ledger that counts failures.

Every check holds for any workload seed and for any change of the program's
RNG streams: none compares an exact hit count or a sampled value against a
recorded one.  Each checker takes plain results and returns a list of failure
messages (empty when the result is correct), so the benchmark's own tests can
feed it a corrupted result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EXACT_TOL = 1e-9        # full-K readout vs x^T J x, K=N rmse vs span, cut vs optimum
RECON_TOL = 1e-9        # eigen reconstruction, relative to ||J||_F
ORTH_TOL = 1e-10        # max |V^T V - I|
SIGMA_RTOL = 1e-12      # noise sigma vs level * span


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, op: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op}: {'; '.join(failures)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def raised(out) -> list[str]:
    return [f"raised {type(out).__name__}: {out}"] if isinstance(out, BaseException) else []


# -- plateau ----------------------------------------------------------------

def check_prob_table(table, n: int, ks, runs: int) -> list[str]:
    """Every hit count lies in [0, runs]; every K has a cell; the K=N cell hits."""
    if err := raised(table):
        return err
    out = []
    cells = {c.K: c for c in table.cells}
    for K in ks:
        if K not in cells:
            out.append(f"no cell for K={K}")
    for c in table.cells:
        if not 0 <= c.hits <= runs:
            out.append(f"K={c.K}: hits {c.hits} outside [0, {runs}]")
    if n in cells and cells[n].hits <= 0:
        out.append(f"K=N={n} cell has no hits in {runs} runs")
    return out


def check_noise_table(table, levels, runs: int) -> list[str]:
    """Every hit count lies in [0, runs]; every sigma equals level * span."""
    if err := raised(table):
        return err
    out = []
    seen = [c.level for c in table.cells]
    if sorted(seen) != sorted(float(v) for v in levels):
        out.append(f"levels {seen} differ from requested {list(levels)}")
    for c in table.cells:
        if not 0 <= c.hits <= runs:
            out.append(f"level={c.level}: hits {c.hits} outside [0, {runs}]")
        want = c.level * table.span
        if not abs(c.sigma - want) <= SIGMA_RTOL * max(1.0, abs(want)):
            out.append(f"level={c.level}: sigma {c.sigma!r} != level*span {want!r}")
    return out


def check_full_readout(readouts, J, states) -> list[str]:
    """The K=N readout of each state equals x^T J x to 1e-9 (scaled by ||J||_F)."""
    if err := raised(readouts):
        return err
    X = np.asarray(states, dtype=float)
    exact = np.einsum("ij,ij->i", X @ J, X)
    scale = np.maximum(np.abs(exact), float(np.linalg.norm(J)))
    worst = float(np.max(np.abs(np.asarray(readouts, dtype=float) - exact) / scale))
    return [] if worst <= EXACT_TOL else [f"full-K readout deviates by {worst:.3e} (tol 1e-9)"]


# -- rmse-n128 --------------------------------------------------------------

def check_rmse_curve(curve, n: int, fit) -> list[str]:
    """K=N is exact relative to the readout span, and the fitted curve decays.

    `curve` is rmse_curve_averaged's (ks, rmse, rmse_relative, r2); `fit`
    maps (K/N, rmse) points to an object with a `decaying` flag.
    """
    if err := raised(curve):
        return err
    ks, rmse, rel, _ = curve
    ks = list(ks)
    out = []
    if ks != list(range(1, n + 1)):
        out.append(f"ks are not 1..{n}")
        return out
    if not np.all(np.isfinite(rmse)) or np.any(np.asarray(rmse) < 0):
        out.append("rmse has negative or non-finite entries")
    if not rel[-1] <= EXACT_TOL:
        out.append(f"K=N rmse/span {rel[-1]:.3e} > 1e-9")
    try:
        if not fit([(k / n, r) for k, r in zip(ks, rmse)]).decaying:
            out.append("exponential fit does not decay")
    except ValueError as exc:
        out.append(f"exponential fit failed: {exc}")
    return out


def check_eigen(bundle, J) -> list[str]:
    """Reconstruction <= 1e-9 ||J||_F and orthonormality <= 1e-10."""
    if err := raised(bundle):
        return err
    J = np.asarray(J, dtype=float)
    V, lam = np.asarray(bundle.vectors), np.asarray(bundle.lam)
    rec = float(np.linalg.norm((V * lam) @ V.T - J))
    orth = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1]))))
    out = []
    if not rec <= RECON_TOL * float(np.linalg.norm(J)):
        out.append(f"reconstruction {rec:.3e} > 1e-9*||J||_F")
    if not orth <= ORTH_TOL:
        out.append(f"orthonormality {orth:.3e} > 1e-10")
    return out


def check_k_full_rmse(record) -> list[str]:
    """One graph's K=N record: rmse <= 1e-9 * span."""
    if err := raised(record):
        return err
    if not record.rmse <= EXACT_TOL * record.span:
        return [f"K=N rmse {record.rmse:.3e} > 1e-9*span ({record.span:.3e})"]
    return []


# -- cli-pipeline -----------------------------------------------------------

def parse_fields(stdout: str) -> dict[str, str]:
    """key=value lines of a command's stdout."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out[key] = value
    return out


def check_exit(rc) -> list[str]:
    if err := raised(rc):
        return err
    return [] if rc == 0 else [f"exit code {rc}"]


def check_degrees(graph_json: dict, n: int, degree: int) -> list[str]:
    """Every vertex of a generated graph has the requested degree."""
    if graph_json.get("n") != n:
        return [f"graph has n={graph_json.get('n')}, want {n}"]
    deg = [0] * n
    for u, v, _ in graph_json["edges"]:
        deg[u] += 1
        deg[v] += 1
    bad = [i for i, d in enumerate(deg) if d != degree]
    return [f"vertices {bad[:5]} do not have degree {degree}"] if bad else []


def check_decompose(stdout: str, n: int) -> list[str]:
    """The eigenvalue table has N rows and error ratio 0 at K=N."""
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    if len(rows) != n:
        return [f"decompose printed {len(rows)} rows, want {n}"]
    mu = float(rows[-1][-1])
    return [] if abs(mu) <= 1e-12 else [f"error ratio at K=N is {mu!r}, want 0"]


def check_cut(stdout: str, optimum) -> list[str]:
    """final_cut <= optimal_cut + 1e-9."""
    fields = parse_fields(stdout)
    if "final_cut" not in fields:
        return ["no final_cut in output"]
    if optimum is None:
        return ["no optimal_cut to compare against"]
    cut = float(fields["final_cut"])
    return [] if cut <= optimum + EXACT_TOL else [f"final_cut {cut!r} > optimal_cut {optimum!r}"]


def check_repeat(fingerprint, first) -> list[str]:
    """A command repeated within a run produces identical output."""
    return [] if fingerprint == first else ["output differs from the first round"]
