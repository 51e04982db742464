"""Simulated annealing on spin states with the optical readout as energy.

Energy is minus the accumulated readout, so larger readouts win.  The move
size is coupled to temperature: a move flips max(flip_floor, round(n*T/t0))
distinct spins, which decays from whole-state shakes at the start to
single-spin refinement near the freeze.

One engine, `anneal`, steps every run of a batch in lock-step.  The flip
count of an iteration comes from the schedule, so it is the same for every
run; each iteration reads out the whole (R, n) block of candidate states
with one `optics.frames` call and takes one vectorised Metropolis step.
Callers that need many runs pass their seeds through `anneal_chunks`, which
steps at most RUN_CHUNK runs at a time, so memory stays bounded whatever
the run count.

RNG contract (v2).  `SeedSequence(seed_r).spawn(3)` gives run r three
streams:

* moves: the start state, then one key per spin and iteration; iteration k
  flips the `flip_counts[k]` spins with the smallest keys;
* Metropolis: one uniform per iteration, recorded where the proposal was
  uphill;
* noise: one Gaussian per readout, the start state's first, drawn only when
  the evaluator has a positive noise sigma.

Every stream is drawn in fixed blocks of BLOCK iterations whether or not a
draw is used, so run r depends only on seed_r, never on how many runs share
its batch or on its position there.  A batched readout is one matrix
product, whose rounding may differ from a single run's in the last bits;
states, flips and acceptance decisions are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .ising import random_state
from .optics import HrvEvaluator, frames

__all__ = [
    "Schedule",
    "AnnealTrace",
    "anneal",
    "anneal_chunks",
    "optimal_hits",
    "dump_trace",
    "DEFAULT_ITERS",
    "CUT_MATCH_TOL",
    "BLOCK",
    "RUN_CHUNK",
]

DEFAULT_ITERS = 3000
CUT_MATCH_TOL = 1e-9
BLOCK = 64       # iterations per RNG draw; part of the RNG contract
RUN_CHUNK = 64   # most runs `anneal_chunks` steps together
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class Schedule:
    """Geometric cooling: T_k = t0 * rate^k for iters steps."""

    t0: float
    rate: float
    iters: int = DEFAULT_ITERS
    flip_floor: int = 1

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.flip_floor < 1:
            raise ValueError("flip_floor must be >= 1")

    def temperatures(self) -> np.ndarray:
        return self.t0 * self.rate ** np.arange(self.iters)

    def flip_counts(self, n: int) -> np.ndarray:
        m = np.rint(n * self.rate ** np.arange(self.iters)).astype(np.int64)
        return np.clip(m, self.flip_floor, n)


@dataclass
class AnnealTrace:
    """Per-iteration history of one run, or of R runs, plus the final states.

    `temperature` and `flips` follow the schedule and are shared by every
    run.  For one run the histories have shape (iters,), `final_state` (n,)
    and `final_hrv`/`final_cut` are floats; for R runs every one of them
    gains a leading run axis.  `uniform` holds the Metropolis draw for
    uphill proposals and NaN where the proposal was not uphill, so
    acceptance decisions can be audited after the fact.
    """

    temperature: np.ndarray
    flips: np.ndarray
    hrv: np.ndarray
    cut: np.ndarray
    accepted: np.ndarray
    delta_e: np.ndarray
    uniform: np.ndarray
    final_state: np.ndarray
    final_hrv: float | np.ndarray
    final_cut: float | np.ndarray

    @property
    def iters(self) -> int:
        return self.hrv.shape[-1]


def _flip_signs(keys: np.ndarray, m: np.ndarray) -> np.ndarray:
    """+-1 factors of shape keys.shape (B, R, n): at iteration b, every run
    flips the m[b] spins with the smallest keys."""
    R = keys.shape[1]
    flip = np.zeros(keys.shape, dtype=bool)
    # single-spin moves, most of a cool schedule, need no sort
    one = np.flatnonzero(m == 1)
    flip[one[:, None], np.arange(R), keys[one].argmin(axis=-1)] = True
    many = m > 1
    flip[many] = keys[many].argsort(axis=-1).argsort(axis=-1) < m[many, None, None]
    return np.where(flip, -1.0, 1.0)


def anneal(evaluator: HrvEvaluator, g: WeightedGraph, s: Schedule, seed) -> AnnealTrace:
    """Anneal from uniform random starts, every run stepped in lock-step.

    `seed` is one int, giving one run with 1-D histories, or a sequence of
    R ints, giving R runs whose arrays gain a leading run axis.  Run r is
    the same whatever the other seeds are (RNG contract v2).
    """
    n = g.n
    if evaluator.n != n:
        raise ValueError(f"evaluator dimension {evaluator.n} does not match graph n={n}")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    if not seeds:
        raise ValueError("need at least one seed")
    R = len(seeds)
    streams = [[np.random.default_rng(ss) for ss in np.random.SeedSequence(sd).spawn(3)]
               for sd in seeds]
    move_rngs, unif_rngs, noise_rngs = zip(*streams)

    ens, backend, sigma = evaluator.ensemble, evaluator.backend, evaluator.sigma
    temps = s.temperatures()
    flip_counts = s.flip_counts(n)
    eu, ev, ew = g.edge_arrays()
    half_total = g.total_weight() / 2.0

    x = np.stack([random_state(n, rng) for rng in move_rngs]).astype(float)
    cur = frames(ens, x, backend) @ ens.g
    if sigma > 0:
        cur += [rng.normal(0.0, sigma) for rng in noise_rngs]

    # histories are filled iteration-major, (iters, R), and transposed at the end
    hrv_hist = np.empty((s.iters, R))
    cut_hist = np.empty((s.iters, R))
    accepted = np.empty((s.iters, R), dtype=bool)
    delta_e = np.empty((s.iters, R))
    uniform = np.empty((s.iters, R))
    states = np.empty((BLOCK, R, n))
    arg = np.zeros(R)

    for b0 in range(0, s.iters, BLOCK):
        nb = min(BLOCK, s.iters - b0)
        keys = np.stack([rng.random((BLOCK, n)) for rng in move_rngs], axis=1)[:nb]
        u = np.stack([rng.random(BLOCK) for rng in unif_rngs], axis=1)[:nb]
        z = (np.stack([rng.normal(0.0, sigma, BLOCK) for rng in noise_rngs], axis=1)
             if sigma > 0 else None)
        signs = _flip_signs(keys, flip_counts[b0:b0 + nb])
        for j in range(nb):
            k = b0 + j
            t = temps[k]
            cand = x * signs[j]
            cand_hrv = frames(ens, cand, backend) @ ens.g
            if z is not None:
                cand_hrv += z[j]
            d_e = cur - cand_hrv  # energy = -readout
            ok = d_e <= 0.0
            # Uphill moves within the bound get a Metropolis test.  The bound
            # keeps exp() in range and never divides by an underflowed
            # temperature; `arg` keeps values in [-bound, 0] elsewhere.
            trial = ~ok & (d_e <= _EXP_ARG_MAX * t)
            np.divide(d_e, -t, out=arg, where=trial)
            np.less(u[j], np.exp(arg), out=ok, where=trial)
            np.copyto(x, cand, where=ok[:, None])
            np.copyto(cur, cand_hrv, where=ok)
            accepted[k] = ok
            delta_e[k] = d_e
            hrv_hist[k] = cur
            states[j] = x
        blk = slice(b0, b0 + nb)
        uniform[blk] = np.where(delta_e[blk] > 0.0, u, np.nan)
        xs = states[:nb]
        cut_hist[blk] = (half_total - (xs[..., eu] * xs[..., ev]) @ ew / 2.0
                         if ew.size else 0.0)

    hist = [a.T.copy() for a in (hrv_hist, cut_hist, accepted, delta_e, uniform)]
    final_state = x.astype(np.int8)
    if single:
        hist = [a[0] for a in hist]
        final_state = final_state[0]
    hrv_hist, cut_hist, accepted, delta_e, uniform = hist
    return AnnealTrace(
        temperature=temps,
        flips=flip_counts,
        hrv=hrv_hist,
        cut=cut_hist,
        accepted=accepted,
        delta_e=delta_e,
        uniform=uniform,
        final_state=final_state,
        final_hrv=float(cur[0]) if single else cur,
        final_cut=float(cut_hist[-1]) if single else cut_hist[:, -1].copy(),
    )


def anneal_chunks(evaluator: HrvEvaluator, g: WeightedGraph, s: Schedule, seeds):
    """Yield the batched trace of `seeds`, RUN_CHUNK runs per `anneal` call."""
    seeds = list(seeds)
    for i in range(0, len(seeds), RUN_CHUNK):
        yield anneal(evaluator, g, s, seeds[i:i + RUN_CHUNK])


def optimal_hits(evaluator: HrvEvaluator, g: WeightedGraph, s: Schedule, seeds,
                 optimum: float) -> int:
    """Number of runs, one per seed, whose final cut is `optimum`."""
    return sum(int(np.count_nonzero(np.abs(tr.final_cut - optimum) <= CUT_MATCH_TOL))
               for tr in anneal_chunks(evaluator, g, s, seeds))


def dump_trace(trace: AnnealTrace, path) -> None:
    """CSV dump of a one-run trace: iter, temperature, flips, hrv, cut, accepted."""
    with open(path, "w") as fh:
        fh.write("iter,temperature,flips,hrv,cut,accepted\n")
        for k in range(trace.iters):
            fh.write(f"{k},{float(trace.temperature[k])!r},{int(trace.flips[k])},"
                     f"{float(trace.hrv[k])!r},{float(trace.cut[k])!r},"
                     f"{int(trace.accepted[k])}\n")

