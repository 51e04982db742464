"""Quantitative studies over the simulated machine, with reproducible reports.

Four studies mirror the evaluation workflow end to end:

* Hamiltonian matching: readout-vs-exact linear fit and RMSE as the number of
  retained components K sweeps up to N, optionally averaged over graph seeds
  and fitted by a decaying exponential in K/N.
* Max-cut annealing traces averaged over runs for several K.
* Optimal-solution probability vs K for a set of cooling schedules, with
  Wilson 95% intervals and the K=N reference row.
* Probability degradation under span-scaled Gaussian readout noise.

Every cell of every study owns an RNG stream derived from (master seed,
fixed labels, cell coordinates), and every annealing run owns its seed, so
reports are pure functions of their inputs whatever number of runs the
engine steps together.  The averaged RMSE curve runs its graphs on
min(graph_seeds, usable CPUs) threads, and its reports are the same bit for
bit whichever thread computes a graph; each extra thread holds one more
graph's working set, about 2 * samples * n * 8 bytes.  The noise study
reuses the probability study's per-cell seeds, which makes its level-0
column reproduce the noiseless probabilities bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .anneal import Schedule, _lockstep, optimal_hits
from .graph import WeightedGraph, generate
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
    "json_summary",
    "LBL_STATES",
    "LBL_GRAPH",
    "LBL_PROB",
    "LBL_TRACE",
    "LBL_SPAN",
    "SPAN_SAMPLES",
    "RUN_CHUNK",
]

# Fixed labels keeping subsystem RNG streams apart under one master seed.
LBL_STATES = 101
LBL_GRAPH = 102
LBL_PROB = 103
LBL_TRACE = 104
LBL_SPAN = 105

# Random states behind every readout span estimate.
SPAN_SAMPLES = 1000

# Runs per batch of the trace study; its summed curves depend on it.
RUN_CHUNK = 64

_Z95 = 1.959963984540054


def derive_seed(*parts: int) -> int:
    """Collapse (master seed, labels, cell coordinates) into one child seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def readout_span(ensemble: IntensityEnsemble, seed: int, samples: int = SPAN_SAMPLES) -> float:
    """Noiseless readout span of `ensemble` on the (seed, LBL_SPAN, K) stream.

    The default annealing start temperature and the noise sigma
    (level * span) both come from this one estimate.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, LBL_SPAN, ensemble.K]))
    return estimate_span(ensemble, samples=samples, rng=rng)


def _in_float_range(m: IsingModel, squares: int = 0) -> IsingModel:
    """m, refused when a study's arithmetic on it could overflow.

    On +-1 states every readout at any K, local-field step, exact energy and
    cut is at most B = 8 n sum|J_ij| in magnitude, as no |eigenvalue| and no
    entry of a truncated J_K exceeds sum|J_ij|.  So B must be finite, and
    squares * B**2 too for a study that sums `squares` squares of such
    values: the matching study's residuals over its samples, the trace
    study's final readouts and cuts over its runs."""
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        bound = 8.0 * m.n * float(np.abs(m.J).sum())
    what = "8 n sum|J_ij|"
    if squares:
        bound *= squares * bound
        what = f"{squares} * ({what})**2"
    if not math.isfinite(bound):
        raise ValueError(f"the readouts may overflow the float range, as {what} is not "
                         "finite: scale the weights down")
    return m


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


def _k_list(ks, n: int) -> list[int]:
    """The distinct ks in ascending order, each checked against 1..n.

    An entry may be a `range`, as the CLI parses 'a..b'; its ends are
    checked before it is expanded, so a huge range is refused at once."""
    parts = [k if isinstance(k, range) else range(int(k), int(k) + 1) for k in ks]
    if any(r and (r[0] < 1 or r[-1] > n) for r in parts):
        raise ValueError(f"ks must lie in 1..{n}")
    return sorted({k for r in parts for k in r})


def linear_fit(x, y):
    """Least-squares line y = slope*x + intercept and its R^2, for each row of x.

    x is one sample (m,), which gives three floats, or a block of rows
    (r, m) fitted against the one y (m,), which gives three arrays of r
    values.  Each row reduces in the order a 1-D fit of it alone would, so
    a row's results are bit-equal to that fit's.  Degenerate rows (constant
    x) report slope 0, intercept mean(y), R^2 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(x)
    xm = rows.mean(axis=1)
    ym = y.mean()
    # dx is computed again after sxy, so that one (r, m) buffer serves both sums
    dx = rows - xm[:, None]
    dy = y - ym
    sxy = np.multiply(dx, dy, out=dx).sum(axis=1)
    np.subtract(rows, xm[:, None], out=dx)
    sxx = np.square(dx, out=dx).sum(axis=1)
    fit = sxx != 0.0
    slope = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=fit)
    intercept = np.where(fit, ym - slope * xm, ym)
    res = np.multiply(slope[:, None], rows, out=dx)
    np.subtract(y, res, out=res)
    np.subtract(res, intercept[:, None], out=res)
    ss_res = np.square(res, out=res).sum(axis=1)
    ss_tot = np.sum(dy ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else (ss_res == 0.0).astype(float)
    r2 = np.where(fit, r2, 0.0)
    if x.ndim == 1:
        return float(slope[0]), float(intercept[0]), float(r2[0])
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# Matching study
# ---------------------------------------------------------------------------

@dataclass
class KMatch:
    """Readout-vs-Hamiltonian match at one truncation level."""

    K: int
    slope: float
    intercept: float
    r2: float
    rmse: float
    span: float       # max - min of the readout over the sample
    rmse_relative: float


@dataclass
class MatchReport:
    records: list[KMatch] = field(default_factory=list)

    def by_k(self, K: int) -> KMatch:
        for rec in self.records:
            if rec.K == K:
                return rec
        raise KeyError(f"no record for K={K}")


def rmse_vs_k(m: IsingModel, ks, samples: int, seed: int) -> MatchReport:
    """Match the truncated readout against the exact Hamiltonian.

    One shared batch of `samples` uniform random states feeds every K, so
    the K-trend carries no sampling noise.  For each distinct requested K,
    in ascending order, the report holds a linear fit of H against minus
    the readout, the RMSE of that surrogate, and the RMSE normalized by the
    readout span.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = m.n
    ks = _k_list(ks, n)
    _in_float_range(m, samples)

    rng = np.random.default_rng(np.random.SeedSequence([seed, LBL_STATES]))
    X = random_states(n, samples, rng).astype(float)
    ham = hamiltonian(m, X)

    ens = build_ensemble(eigendecompose(m), n)
    intensities = frames(ens, X)
    del X
    intensities *= ens.g
    np.cumsum(intensities, axis=1, out=intensities)  # column K-1: readout with K frames

    # row j: minus the readout with ks[j] frames.  Advanced indexing lays the
    # rows out C-contiguous, and a contiguous row reduces as the 1-D column
    # of one K would.
    x = intensities.T[np.subtract(ks, 1)]
    del intensities
    np.negative(x, out=x)
    resid = np.subtract(x, ham)
    rmse = np.sqrt(np.mean(np.square(resid, out=resid), axis=1))
    del resid
    span = x.max(axis=1) - x.min(axis=1)
    rel = np.divide(rmse, span, out=np.where(rmse == 0.0, 0.0, math.inf), where=span > 0)
    slope, intercept, r2 = linear_fit(x, ham)

    stats = (slope, intercept, r2, rmse, span, rel)  # in KMatch's field order
    records = [KMatch(*rec) for rec in zip(ks, *(a.tolist() for a in stats))]
    return MatchReport(records=records)


def rmse_curve_averaged(n: int, ks, samples: int, graph_seeds: int, seed: int,
                        degree: int | None = None, density: float | None = None,
                        weight_low: float = 0.0, weight_high: float = 1.0):
    """Mean RMSE / relative RMSE / fit R^2 per K over freshly generated graphs.

    Exactly one of `degree` (regular graphs) or `density` (uniform edge
    sampling) selects the generator, by `graph.generate`.  Returns (ks,
    mean_rmse, mean_rel, mean_r2), ks sorted and distinct, with means taken
    across `graph_seeds` instances.

    The graphs run on min(graph_seeds, usable CPUs) threads.  Each graph
    writes only its own row of the per-graph statistics, and the mean over
    graphs is taken in graph order afterwards, so the result is the same bit
    for bit whichever thread computes a graph.  Each extra thread holds one
    more graph's working set, about 2 * samples * n * 8 bytes (2 MB at
    n = 128 and 1000 samples).  A failing graph's exception propagates as
    the serial loop would raise it; see `_each_on_threads`.
    """
    if graph_seeds < 1:
        raise ValueError("graph_seeds must be >= 1")
    ks = _k_list(ks, n)
    stats = np.empty((graph_seeds, len(ks), 3))

    def one_graph(gs: int) -> None:
        g = generate(n, degree, density, weight_low, weight_high,
                     seed=derive_seed(seed, LBL_GRAPH, gs))
        rep = rmse_vs_k(from_graph(g), ks, samples, seed=derive_seed(seed, LBL_STATES, gs))
        for j, rec in enumerate(rep.records):  # the records are `ks`, in order
            stats[gs, j] = rec.rmse, rec.rmse_relative, rec.r2

    _each_on_threads(one_graph, graph_seeds)
    return (ks, *stats.mean(axis=0).T)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_on_threads(work, count: int) -> None:
    """Call work(i) for each i in range(count) on min(count, usable CPUs)
    threads: the caller's thread and plain worker threads each take the next
    index from one shared iterator.

    After a work item raises no new index starts, every worker is joined,
    and the exception of the lowest failing index is raised, as a serial
    loop would raise it.  An interrupt, which Python delivers to the main
    thread only, also stops new starts and passes on once the workers are
    joined.
    """
    todo = iter(range(count))
    lock = threading.Lock()
    failed = {}  # index -> the exception work(index) raised
    stop = False

    def drain() -> None:
        nonlocal stop
        while True:
            with lock:
                i = None if stop else next(todo, None)
            if i is None:
                return
            try:
                work(i)
            except Exception as exc:
                with lock:
                    failed[i] = exc
                    stop = True

    workers = []
    try:
        for _ in range(min(count, _usable_cpus()) - 1):
            t = threading.Thread(target=drain)
            t.start()
            workers.append(t)
        drain()
    finally:
        with lock:
            stop = True
        for t in workers:
            t.join()
    if failed:
        raise failed[min(failed)]


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


def _tally(hits, runs: int):
    """Each cell's runs, hits, probability and Wilson band, from the hits
    `optimal_hits` counts for cells of `runs` runs each."""
    for h in hits:
        lo, hi = wilson_interval(h, runs)
        yield {"runs": runs, "hits": h, "probability": h / runs,
               "wilson_low": lo, "wilson_high": hi}


def probability_vs_k(g: WeightedGraph, ks, schedules, runs: int, seed: int) -> ProbTable:
    """Optimal-solution probability per (schedule, K) cell with Wilson bands.

    The K=N reference row is appended when absent so every schedule carries
    its own zero-truncation baseline.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    n = g.n
    ks = _k_list([*ks, n], n)

    model = _in_float_range(from_graph(g))
    optimum, _ = brute_force_maxcut(g)
    b = eigendecompose(model)
    table = ProbTable(n=n, optimum=optimum, seed=seed,
                      split_cluster={K: int(splits_cluster(b, K)) for K in ks})

    evaluators = [HrvEvaluator(build_ensemble(b, K)) for K in ks]
    for si, s in enumerate(schedules):
        cell_seeds = [derive_seed(seed, LBL_PROB, si, K) for K in ks]
        cells = [(ev, range(cs, cs + runs)) for ev, cs in zip(evaluators, cell_seeds)]
        for K, tally in zip(ks, _tally(optimal_hits(cells, g, s, optimum), runs)):
            table.cells.append(ProbCell(schedule_index=si, rate=s.rate, K=K, **tally,
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
                seed: int, span_samples: int = SPAN_SAMPLES) -> NoiseTable:
    """Optimal-solution probability vs readout noise at a fixed truncation K.

    Noise sigma is level * span, with the span estimated once from the
    K-truncated noiseless readout.  Cell seeds match probability_vs_k(g,
    [K], [schedule], ...) so the level-0 row reproduces the noiseless
    probability exactly.  Each distinct level gets one row, in ascending
    order.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    levels = sorted({float(lv) for lv in levels})
    if any(not (lv >= 0 and math.isfinite(lv)) for lv in levels):
        raise ValueError("noise levels must be finite and non-negative")

    # the ensemble refuses a K outside 1..n before the oracle enumerates
    b = eigendecompose(_in_float_range(from_graph(g)))
    ens = build_ensemble(b, K)
    optimum, _ = brute_force_maxcut(g)

    span = readout_span(ens, seed, span_samples)

    table = NoiseTable(n=g.n, K=K, span=span, optimum=optimum, seed=seed,
                       split_cluster={K: int(splits_cluster(b, K))})
    cell_seed = derive_seed(seed, LBL_PROB, 0, K)
    evaluators = [HrvEvaluator(ens, sigma=lv * span) for lv in levels]
    cells = [(ev, range(cell_seed, cell_seed + runs)) for ev in evaluators]
    hits = optimal_hits(cells, g, schedule, optimum)
    for lv, ev, tally in zip(levels, evaluators, _tally(hits, runs)):
        table.cells.append(NoiseCell(level=lv, sigma=ev.sigma, K=K, **tally))
    return table


# ---------------------------------------------------------------------------
# Averaged annealing traces
# ---------------------------------------------------------------------------

@dataclass
class TraceStudy:
    ks: list[int]
    mean_hrv: dict[int, np.ndarray] = field(default_factory=dict)
    mean_cut: dict[int, np.ndarray] = field(default_factory=dict)
    final_hrv_mean: dict[int, float] = field(default_factory=dict)
    final_hrv_std: dict[int, float] = field(default_factory=dict)
    final_cut_mean: dict[int, float] = field(default_factory=dict)
    final_cut_std: dict[int, float] = field(default_factory=dict)
    split_cluster: dict[int, int] = field(default_factory=dict)  # K -> splits_cluster


def anneal_trace_study(g: WeightedGraph, ks, schedule: Schedule, runs: int,
                       seed: int) -> TraceStudy:
    """Average per-iteration readout and cut value across runs for each K.

    Each K's runs are stepped RUN_CHUNK at a time and every block is summed
    over its runs as it comes, so only the (iters,) curves outlive a block,
    and the curves' last bits depend on that batch size."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    ks = _k_list(ks, g.n)
    model = _in_float_range(from_graph(g), runs)
    half_total = g.total_weight() / 2.0
    b = eigendecompose(model)

    study = TraceStudy(ks=ks)
    for K in ks:
        ev = HrvEvaluator(build_ensemble(b, K))
        base = derive_seed(seed, LBL_TRACE, K)
        hrv_sum = np.zeros(schedule.iters)
        cut_sum = np.zeros(schedule.iters)
        finals_h, finals_c = np.empty(runs), np.empty(runs)
        for i in range(0, runs, RUN_CHUNK):
            chunk = [(ev, base + r) for r in range(i, min(i + RUN_CHUNK, runs))]
            for blk, hrv, *_, states in _lockstep(chunk, g, schedule):
                cut = half_total - hamiltonian(model, states) / 2.0
                # summed run-major, so every curve adds its runs in seed order
                hrv_sum[blk] += np.ascontiguousarray(hrv.T).sum(axis=0)
                cut_sum[blk] += np.ascontiguousarray(cut.T).sum(axis=0)
            finals_h[i:i + RUN_CHUNK] = hrv[-1]
            finals_c[i:i + RUN_CHUNK] = cut[-1]
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
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def config_hash(config: dict) -> str:
    """Stable fingerprint of an experiment configuration."""
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canon.encode()).hexdigest()


def _fmt_column(values) -> tuple[type, list[str]]:
    """A column of integers (bools included) as digits, or of floats by
    repr, with its kind, int or float; any other column raises TypeError.
    The check is on the set of the column's types, and each distinct value
    is formatted once."""
    kinds = set(map(type, values))
    if all(issubclass(kind, (int, np.integer, np.bool_)) for kind in kinds):
        kind, text = int, str
    elif all(issubclass(kind, (float, np.floating)) for kind in kinds):
        kind, text = float, repr
    else:
        raise TypeError(f"a report column must be all integers or all floats, "
                        f"got {sorted(kind.__name__ for kind in kinds)}")
    # a NaN equals nothing, but a dict finds each NaN object by identity
    distinct = dict.fromkeys(values)
    if len(distinct) == len(values):  # no value repeats, so no lookups
        return kind, list(map(text, map(kind, values)))
    memo = dict(zip(distinct, map(text, map(kind, distinct))))
    texts = list(map(memo.__getitem__, values))
    if kind is float and 0 in memo:  # 0.0 and -0.0 are one key but print apart
        texts = [repr(float(v)) if v == 0 else t for v, t in zip(values, texts)]
    return kind, texts


_CSV_CHUNK = 256  # rows formatted together; bounds the strings held at once


def write_csv(path, header, rows) -> None:
    """One row per cell; floats use repr so reruns are byte-identical.

    Rows are formatted column by column, a chunk of rows at a time, each
    distinct value of a chunk's column once, and each column keeps the kind
    of its first chunk.  Each column is led by its header name, so a row of
    any other width raises ValueError."""
    rows = iter(rows)
    first = None  # each column's kind in the first chunk
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
            columns = (col[1:] for col in zip(header, *chunk, strict=True))
            kinds, texts = zip(*map(_fmt_column, columns))
            first = first or kinds
            for name, was, now in zip(header, first, kinds):
                if now is not was:
                    raise TypeError(f"a report column must be all integers or all floats, "
                                    f"but {name!r} turns from {was.__name__} to {now.__name__}")
            fh.write("".join(",".join(line) + "\n" for line in zip(*texts)))


def json_summary(config: dict, results) -> str:
    """The text of a report's JSON summary.  Strict JSON: a NaN or infinite
    value raises ValueError."""
    payload = {
        "config": _jsonable(config),
        "config_hash": config_hash(config),
        "results": _jsonable(results),
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
