"""Quantitative studies over the simulated machine, with reproducible reports.

Four studies mirror the evaluation workflow end to end:

* Hamiltonian matching: readout-vs-exact scatter and RMSE as the number of
  retained components K sweeps up to N, optionally averaged over graph seeds
  and fitted by a decaying exponential in K/N.
* Max-cut annealing traces averaged over runs for several K.
* Optimal-solution probability vs K for a set of cooling schedules, with
  Wilson 95% intervals and the K=N reference row.
* Probability degradation under span-scaled Gaussian readout noise.

Every cell of every study owns an RNG stream derived from (master seed,
fixed labels, cell coordinates), and every annealing run owns its seed, so
reports are pure functions of their inputs whatever number of runs the
engine steps together.  The noise study reuses the probability study's
per-cell seeds, which makes its level-0 column reproduce the noiseless
probabilities bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .anneal import Schedule, anneal_chunks, optimal_hits
from .graph import WeightedGraph, gen_density, gen_regular
from .ising import IsingModel, brute_force_maxcut, from_graph, hamiltonian, random_states
from .optics import HrvEvaluator, estimate_span, frames
from .spectral import IntensityEnsemble, build_ensemble, eigendecompose, splits_cluster

__all__ = [
    "KMatch",
    "MatchReport",
    "ExpFit",
    "ProbCell",
    "ProbTable",
    "NoiseCell",
    "NoiseTable",
    "TraceStudy",
    "readout_span",
    "rmse_vs_k",
    "rmse_curve_averaged",
    "fit_exponential",
    "probability_vs_k",
    "noise_sweep",
    "anneal_trace_study",
    "wilson_interval",
    "linear_fit",
    "derive_seed",
    "config_hash",
    "write_csv",
    "write_json_summary",
    "LBL_STATES",
    "LBL_GRAPH",
    "LBL_PROB",
    "LBL_TRACE",
    "LBL_SPAN",
]

# Fixed labels keeping subsystem RNG streams apart under one master seed.
LBL_STATES = 101
LBL_GRAPH = 102
LBL_PROB = 103
LBL_TRACE = 104
LBL_SPAN = 105

_Z95 = 1.959963984540054


def derive_seed(*parts: int) -> int:
    """Collapse (master seed, labels, cell coordinates) into one child seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def readout_span(ensemble: IntensityEnsemble, seed: int, samples: int) -> float:
    """Noiseless readout span of `ensemble` on the (seed, LBL_SPAN, K) stream.

    The default annealing start temperature and the noise sigma
    (level * span) both come from this one estimate.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, LBL_SPAN, ensemble.K]))
    return estimate_span(ensemble, samples=samples, rng=rng)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = _Z95
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept and its R^2.

    Degenerate inputs (constant x) report slope 0, intercept mean(y), R^2 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        return 0.0, float(ym), 0.0
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot if ss_tot else 0.0
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# Matching study
# ---------------------------------------------------------------------------

@dataclass
class KMatch:
    """Readout-vs-Hamiltonian match at one truncation level."""

    K: int
    hrv: np.ndarray   # readout per sampled state
    ham: np.ndarray   # exact -x^T J x per sampled state
    slope: float
    intercept: float
    r2: float
    rmse: float
    span: float       # max - min of the readout over the sample
    rmse_relative: float


@dataclass
class MatchReport:
    n: int
    samples: int
    seed: int
    records: list[KMatch] = field(default_factory=list)

    def by_k(self, K: int) -> KMatch:
        for rec in self.records:
            if rec.K == K:
                return rec
        raise KeyError(f"no record for K={K}")


def rmse_vs_k(m: IsingModel, ks, samples: int, seed: int) -> MatchReport:
    """Match the truncated readout against the exact Hamiltonian.

    One shared batch of `samples` uniform random states feeds every K, so
    the K-trend carries no sampling noise.  For each requested K the report
    holds the scatter, a linear fit of H against minus the readout, the
    RMSE of that surrogate, and the RMSE normalized by the readout span.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = m.n
    ks = [int(k) for k in ks]
    if any(k < 0 or k > n for k in ks):
        raise ValueError(f"ks must lie in 0..{n}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, LBL_STATES]))
    X = random_states(n, samples, rng).astype(float)

    ens = build_ensemble(eigendecompose(m), n)
    cum = np.cumsum(frames(ens, X) * ens.g, axis=1)  # column K-1: readout with K frames

    ham = hamiltonian(m, X)

    report = MatchReport(n=n, samples=samples, seed=seed)
    for K in ks:
        vals = cum[:, K - 1] if K > 0 else np.zeros(samples)
        resid = (-vals) - ham
        rmse = float(np.sqrt(np.mean(resid ** 2)))
        span = float(vals.max() - vals.min())
        rel = rmse / span if span > 0 else (0.0 if rmse == 0.0 else math.inf)
        slope, intercept, r2 = linear_fit(-vals, ham)
        report.records.append(KMatch(K=K, hrv=vals.copy(), ham=ham.copy(), slope=slope,
                                     intercept=intercept, r2=r2, rmse=rmse, span=span,
                                     rmse_relative=rel))
    return report


def rmse_curve_averaged(n: int, ks, samples: int, graph_seeds: int, seed: int,
                        degree: int | None = None, density: float | None = None,
                        weight_low: float = 0.0, weight_high: float = 1.0):
    """Mean RMSE / relative RMSE / fit R^2 per K over freshly generated graphs.

    Exactly one of `degree` (regular graphs) or `density` (uniform edge
    sampling) selects the generator.  Returns (ks, mean_rmse, mean_rel,
    mean_r2) with means taken across `graph_seeds` instances.
    """
    if (degree is None) == (density is None):
        raise ValueError("specify exactly one of degree or density")
    if graph_seeds < 1:
        raise ValueError("graph_seeds must be >= 1")
    ks = [int(k) for k in ks]
    rmse = np.zeros((graph_seeds, len(ks)))
    rel = np.zeros_like(rmse)
    r2 = np.zeros_like(rmse)
    for gs in range(graph_seeds):
        gseed = derive_seed(seed, LBL_GRAPH, gs)
        if degree is not None:
            g = gen_regular(n, degree, weight_low, weight_high, seed=gseed)
        else:
            g = gen_density(n, density, weight_low, weight_high, seed=gseed)
        rep = rmse_vs_k(from_graph(g), ks, samples, seed=derive_seed(seed, LBL_STATES, gs))
        for j, K in enumerate(ks):
            rec = rep.by_k(K)
            rmse[gs, j] = rec.rmse
            rel[gs, j] = rec.rmse_relative
            r2[gs, j] = rec.r2
    return ks, rmse.mean(axis=0), rel.mean(axis=0), r2.mean(axis=0)


@dataclass(frozen=True)
class ExpFit:
    """Exponential decay fit rmse ~ A * exp(-B * (K/N - D)), canonicalized to D=0."""

    A: float
    B: float
    D: float
    r2: float

    @property
    def decaying(self) -> bool:
        return self.B > 0


def fit_exponential(points) -> ExpFit:
    """Log-domain least squares on (K/N, rmse) pairs.

    Exact-zero (and non-finite) rmse points are dropped first; at least 3
    usable points are required.  A and D trade off freely in the model, so
    D is pinned to 0 and exp(B*D) folded into A.
    """
    usable = [(float(x), float(r)) for x, r in points if r > 0 and math.isfinite(r)]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 points with positive rmse, got {len(usable)}")
    x = np.array([p[0] for p in usable])
    logr = np.log(np.array([p[1] for p in usable]))
    slope, intercept, r2 = linear_fit(x, logr)
    return ExpFit(A=float(math.exp(intercept)), B=float(-slope), D=0.0, r2=r2)


# ---------------------------------------------------------------------------
# Probability studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbCell:
    schedule_index: int
    rate: float
    K: int
    runs: int
    hits: int
    probability: float
    wilson_low: float
    wilson_high: float
    is_reference: bool


@dataclass
class ProbTable:
    n: int
    optimum: float
    seed: int
    cells: list[ProbCell] = field(default_factory=list)
    split_cluster: dict[int, int] = field(default_factory=dict)  # K -> splits_cluster

    def cell(self, schedule_index: int, K: int) -> ProbCell:
        for c in self.cells:
            if c.schedule_index == schedule_index and c.K == K:
                return c
        raise KeyError(f"no cell for schedule {schedule_index}, K={K}")


def probability_vs_k(g: WeightedGraph, ks, schedules, runs: int, seed: int) -> ProbTable:
    """Optimal-solution probability per (schedule, K) cell with Wilson bands.

    The K=N reference row is appended when absent so every schedule carries
    its own zero-truncation baseline.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n = g.n
    ks = sorted({int(k) for k in ks} | {n})
    if any(k < 1 or k > n for k in ks):
        raise ValueError(f"ks must lie in 1..{n}")

    optimum, _ = brute_force_maxcut(g)
    b = eigendecompose(from_graph(g))
    table = ProbTable(n=n, optimum=optimum, seed=seed,
                      split_cluster={K: int(splits_cluster(b, K)) for K in ks})

    for si, s in enumerate(schedules):
        for K in ks:
            ev = HrvEvaluator(build_ensemble(b, K))
            cell_seed = derive_seed(seed, LBL_PROB, si, K)
            hits = optimal_hits(ev, g, s, range(cell_seed, cell_seed + runs), optimum)
            lo, hi = wilson_interval(hits, runs)
            table.cells.append(ProbCell(schedule_index=si, rate=s.rate, K=K, runs=runs,
                                        hits=hits, probability=hits / runs,
                                        wilson_low=lo, wilson_high=hi,
                                        is_reference=(K == n)))
    return table


@dataclass(frozen=True)
class NoiseCell:
    level: float
    sigma: float
    K: int
    runs: int
    hits: int
    probability: float
    wilson_low: float
    wilson_high: float


@dataclass
class NoiseTable:
    n: int
    K: int
    span: float
    optimum: float
    seed: int
    cells: list[NoiseCell] = field(default_factory=list)
    split_cluster: dict[int, int] = field(default_factory=dict)  # K -> splits_cluster

    def by_level(self, level: float) -> NoiseCell:
        for c in self.cells:
            if c.level == level:
                return c
        raise KeyError(f"no cell for level={level}")


def noise_sweep(g: WeightedGraph, K: int, levels, schedule: Schedule, runs: int,
                seed: int, span_samples: int = 1000) -> NoiseTable:
    """Optimal-solution probability vs readout noise at a fixed truncation K.

    Noise sigma is level * span, with the span estimated once from the
    K-truncated noiseless readout.  Cell seeds match probability_vs_k(g,
    [K], [schedule], ...) so the level-0 row reproduces the noiseless
    probability exactly.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    levels = [float(lv) for lv in levels]
    if any(not (lv >= 0 and math.isfinite(lv)) for lv in levels):
        raise ValueError("noise levels must be finite and non-negative")

    optimum, _ = brute_force_maxcut(g)
    b = eigendecompose(from_graph(g))
    ens = build_ensemble(b, K)

    span = readout_span(ens, seed, span_samples)

    table = NoiseTable(n=g.n, K=K, span=span, optimum=optimum, seed=seed,
                       split_cluster={K: int(splits_cluster(b, K))})
    cell_seed = derive_seed(seed, LBL_PROB, 0, K)
    for lv in levels:
        ev = HrvEvaluator(ens, sigma=lv * span)
        hits = optimal_hits(ev, g, schedule, range(cell_seed, cell_seed + runs), optimum)
        lo, hi = wilson_interval(hits, runs)
        table.cells.append(NoiseCell(level=lv, sigma=ev.sigma, K=K, runs=runs,
                                     hits=hits, probability=hits / runs,
                                     wilson_low=lo, wilson_high=hi))
    return table


# ---------------------------------------------------------------------------
# Averaged annealing traces
# ---------------------------------------------------------------------------

@dataclass
class TraceStudy:
    n: int
    runs: int
    seed: int
    ks: list[int]
    mean_hrv: dict[int, np.ndarray]
    mean_cut: dict[int, np.ndarray]
    final_hrv_mean: dict[int, float]
    final_hrv_std: dict[int, float]
    final_cut_mean: dict[int, float]
    final_cut_std: dict[int, float]
    split_cluster: dict[int, int]   # K -> splits_cluster


def anneal_trace_study(g: WeightedGraph, ks, schedule: Schedule, runs: int,
                       seed: int) -> TraceStudy:
    """Average per-iteration readout and cut value across runs for each K."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ks = sorted({int(k) for k in ks})
    if any(k < 1 or k > g.n for k in ks):
        raise ValueError(f"ks must lie in 1..{g.n}")
    b = eigendecompose(from_graph(g))

    study = TraceStudy(n=g.n, runs=runs, seed=seed, ks=ks, mean_hrv={}, mean_cut={},
                       final_hrv_mean={}, final_hrv_std={}, final_cut_mean={},
                       final_cut_std={}, split_cluster={})
    for K in ks:
        ev = HrvEvaluator(build_ensemble(b, K))
        base = derive_seed(seed, LBL_TRACE, K)
        hrv_sum = np.zeros(schedule.iters)
        cut_sum = np.zeros(schedule.iters)
        finals_h, finals_c = [], []
        for trace in anneal_chunks(ev, g, schedule, range(base, base + runs)):
            hrv_sum += trace.hrv.sum(axis=0)
            cut_sum += trace.cut.sum(axis=0)
            finals_h.append(trace.final_hrv)
            finals_c.append(trace.final_cut)
        finals_h = np.concatenate(finals_h)
        finals_c = np.concatenate(finals_c)
        study.mean_hrv[K] = hrv_sum / runs
        study.mean_cut[K] = cut_sum / runs
        study.final_hrv_mean[K] = float(np.mean(finals_h))
        study.final_hrv_std[K] = float(np.std(finals_h))
        study.final_cut_mean[K] = float(np.mean(finals_c))
        study.final_cut_std[K] = float(np.std(finals_c))
        study.split_cluster[K] = int(splits_cluster(b, K))
    return study


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def config_hash(config: dict) -> str:
    """Stable fingerprint of an experiment configuration."""
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """One row per cell; floats use repr so reruns are byte-identical."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json_summary(path, config: dict, results) -> None:
    """Strict JSON: a NaN or infinite value raises ValueError before the file
    is opened."""
    payload = {
        "config": _jsonable(config),
        "config_hash": config_hash(config),
        "results": _jsonable(results),
    }
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
