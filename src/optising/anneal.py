"""Simulated annealing on spin states with the optical readout as energy.

Energy is minus the accumulated readout, so larger readouts win.  A move
flips max(1, round(n*T/t0)) distinct spins, a single spin near the freeze.

One engine core, `_lockstep`, steps every run of a batch in lock-step; its
docstring states which blocks step in windows, and `_LocalFields` its
single-spin phase.  `anneal` records every iteration of one evaluator's runs.
`optimal_hits` keeps only the final states of many (evaluator, seeds)
cells, HIT_CHUNK runs per batch.

RNG contract (v3).  Run r draws from the three children of
`SeedSequence(seed_r).spawn(3)`, child i built alone as
`SeedSequence(seed_r, spawn_key=(i,))`:

* moves: the start state, then per block either one key per spin and
  iteration, iteration k flipping the `flip_counts[k]` spins with the
  smallest keys, or, in a block whose first flip count is 1, one uniform
  u per iteration, iteration k flipping spin int(n * u), a float64 product
  truncated;
* Metropolis: one uniform u per iteration, floored at 2**-53, recorded
  where the proposal was uphill;
* noise: one Gaussian per readout, the start state's first, drawn only when
  the evaluator has a positive noise sigma.

A stream's values are those of draws in fixed blocks of BLOCK iterations,
whether or not a draw is used, until the run retires, so run r depends
only on seed_r, never on how many runs share its batch or on its position
there.  The single-spin phase fetches up to n blocks per call, the same
values, as `random` and `standard_normal` consume a stream in order; so a
retired run's generator may have moved past its retirement, and nothing
reads it there.  A batched readout is one matrix product, and a local-field
d_e its own sum, whose rounding may differ from a single run's in the last
bits; states, flips and acceptance decisions are the same.

Metropolis rule.  A move with energy step d_e at temperature T is accepted
when u < exp(min(0, -d_e / T)), which in exact arithmetic holds when
d_e < theta = -T ln u.  Both phases compute theta once per block and
accept where d_e <= theta, one comparison per step.  The two forms
round differently, so they can part only where d_e lies within rounding of
theta, an exact tie included; the tests' margin audit finds every uphill
decision far from that.  As 2**-53 <= u < 1, theta >= 0: d_e <= 0 always
accepts, and at T = 0.0 theta is 0, so every d_e > 0 rejects.  At T near
1e308 theta overflows to inf, which accepts, so the theta product silences
numpy's overflow flag, the engine's one `np.errstate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .ising import from_graph, hamiltonian, random_state
from .optics import HrvEvaluator, frames

__all__ = [
    "Schedule",
    "AnnealTrace",
    "anneal",
    "optimal_hits",
    "DEFAULT_ITERS",
    "CUT_MATCH_TOL",
    "BLOCK",
    "HIT_CHUNK",
]

DEFAULT_ITERS = 3000
CUT_MATCH_TOL = 1e-9
BLOCK = 64       # iterations per RNG draw; part of the RNG contract
HIT_CHUNK = 256  # most runs a batch of `optimal_hits` holds
ROWS = 1024      # most candidate rows one window reads


@dataclass(frozen=True)
class Schedule:
    """Geometric cooling: T_k = t0 * rate^k for iters steps."""

    t0: float
    rate: float
    iters: int = DEFAULT_ITERS

    def __post_init__(self):
        if not (self.t0 > 0 and np.isfinite(self.t0)):
            raise ValueError("t0 must be finite and positive")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie in (0, 1)")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")

    def temperatures(self) -> np.ndarray:
        return self.t0 * self.rate ** np.arange(self.iters)

    def flip_counts(self, n: int) -> np.ndarray:
        m = np.rint(n * self.rate ** np.arange(self.iters)).astype(np.int64)
        return np.clip(m, 1, n)


@dataclass
class AnnealTrace:
    """Per-iteration history of one run, or of R runs, plus the final states.

    `temperature` and `flips` follow the schedule and are shared by every
    run.  For one run the histories have shape (iters,), `final_state` (n,)
    and `final_hrv`/`final_cut` are floats; for R runs every one of them
    gains a leading run axis.  `uniform` holds the Metropolis draw, floored
    at 2**-53, for uphill proposals and NaN where the proposal was not
    uphill, so acceptance decisions can be audited after the fact.
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


def _flip_signs(keys: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill `out`, shaped like keys (R, B, n), with +-1 factors: at iteration
    b, every run flips the m[b] spins with the smallest keys.  A key tied
    with the m[b]-th smallest ranks by position, so a move still flips
    exactly m[b] spins.  `out` may be any view of that shape; the engine
    passes its iteration-major buffer transposed."""
    np.copyto(out, keys)
    out.sort(axis=-1)  # `out` holds the sorted keys until the signs overwrite them
    flip = keys <= np.take_along_axis(out, (m - 1)[None, :, None], axis=-1)
    # every row marks at least its m[b] smallest keys, so the count is exact
    # only where no row ties at its threshold; stable ranks order the ties
    if np.count_nonzero(flip) != keys.shape[0] * m.sum():
        flip = keys.argsort(axis=-1, kind="stable").argsort(axis=-1, kind="stable") < m[:, None]
    np.copyto(out, flip)  # 1 where a spin flips, then 1 - 2 * flip
    out *= -2.0
    out += 1.0
    return out


def _picks(draws, n):
    """int(n * u) per draw u < 1, the spin it flips (RNG contract); scales `draws` in place."""
    return np.multiply(draws, n, out=draws).astype(np.intp)


def _threshold(u, neg_t, out):
    """Floor the draws u at 2**-53 in place, then theta = -T ln u into `out`,
    which may be `u`; `neg_t` is -T.  A move with energy step d_e is
    accepted where d_e <= theta."""
    np.maximum(u, 2.0 ** -53, out=u)  # only a 0.0 moves; retirement rests on it
    np.log(u, out=out)
    with np.errstate(over="ignore"):  # at T near 1e308 theta is inf, which accepts
        return np.multiply(out, neg_t, out=out)


class _LocalFields:
    """The single-spin phase's view of a batch's states x: per run
    h = x @ J_K and D = 4 x*h - 4 diag(J_K), where D[r, p] is the d_e of
    flipping spin p of run r, as the readout is x^T J_K x with
    J_K = xi^T diag(g) xi.

    A batch of analytic evaluators with `stop_frozen` stops reading at the
    first block from which every move flips one spin.  A block is then decided in
    rounds: the Metropolis rule over the live runs' rest of the block, then
    each run's first accept flips its spin; the runs that accepted go again.
    A noisy run decides with D_p + off - z, off its reading's noise, which
    an accept sets to that iteration's z.  A noiseless run retires at a
    block end once its row of D exceeds 40 * T for the largest T still to
    come, as exp(-d_e / T) < e**-40 < 2**-53 lies below every draw; at
    T = 0.0 the bound is d_e > 0.  The last retirement ends the batch."""

    def __init__(self, groups, x):
        couplings = [(ev.ensemble.xi.T * ev.ensemble.g) @ ev.ensemble.xi for _, ev in groups]
        self.x = x
        self.J = np.stack(couplings)
        self.group = np.repeat(np.arange(len(groups)), [r.stop - r.start for r, _ in groups])
        self.h = np.empty_like(x)
        for (rows, _), J in zip(groups, couplings):
            np.matmul(x[rows], J, out=self.h[rows])
        self.diag4 = 4.0 * np.diagonal(self.J, axis1=1, axis2=2)[self.group]
        self.D = 4.0 * x * self.h - self.diag4

    def flip(self, runs, spins):
        """Flip spin spins[i] of run runs[i] and update those runs' h and D."""
        xp = self.x[runs, spins]
        self.h[runs] -= 2.0 * xp[:, None] * self.J[self.group[runs], spins]
        self.x[runs, spins] = -xp
        self.D[runs] = 4.0 * self.x[runs] * self.h[runs] - self.diag4[runs]


def _lockstep(runs, g: WeightedGraph, s: Schedule, stop_frozen: bool = False):
    """Step `runs`, a list of (evaluator, seed), as one batch, one row each.

    Every step reads each stretch of adjacent rows whose evaluators share
    the ensemble object, backend and noise sigma with one `frames` call and
    adds noise to the rows of noisy evaluators only.  Each block's draws
    are floored and turned into thresholds theta = -T ln u once, so a step
    decides every run by one comparison d_e <= theta.

    A single-spin block (first flip count 1) of a batch that records every
    iteration, all analytic and without `stop_frozen`, steps in windows,
    where accepts are rare enough for them to pay: as a block's flip signs,
    draws and noise exist before it runs, a window reads the candidates of
    the next w iterations against the current states, keeps the iterations
    up to the first in which any run accepted, and applies that accept.  w
    doubles after a window without an accept, up to one block and ROWS
    candidate rows, and drops to the window's advance after one.  A stacked
    (w, rows, n) product makes the same BLAS call per plane as a (rows, n)
    one, so windows are bit-equal to one-iteration steps.  Every other
    block steps one iteration at a time through 2-D plane reads.

    Yields, per block of BLOCK iterations, (slice of the block's
    iterations, hrv, accepted, delta_e, u, states), u the Metropolis draws
    floored at 2**-53: iteration-major (nb, R) and (nb, R, n) arrays that
    the next block overwrites.  With `stop_frozen`, a batch of analytic
    evaluators takes the single-spin phase (`_LocalFields`).  Both phases
    draw through `fetch`, one row per run; the single-spin phase fetches n
    blocks per call into the idle keys, signs and states buffers.  Only a
    batch with noisy runs writes `states` there, and as noisy runs never
    retire, it never stops early.  A block after the switch yields None for
    hrv, accepted, delta_e and u, and as states the (1, R, n) view of the
    states at its end.  The last block yielded ends where the last run
    retired, or at `s.iters`, and its states are the final ones.
    """
    n = g.n
    R = len(runs)
    if not R:
        raise ValueError("need at least one seed")
    readout = [(id(ev.ensemble), ev.backend, ev.sigma) for ev, _ in runs]
    bounds = [0] + [i for i in range(1, R) if readout[i] != readout[i - 1]] + [R]
    groups = [(slice(a, b), runs[a][0]) for a, b in zip(bounds, bounds[1:])]
    for _, ev in groups:
        if ev.n != n:
            raise ValueError(f"evaluator dimension {ev.n} does not match graph n={n}")

    def streams(i, part):
        # child i of SeedSequence(seed).spawn(3) for each run of `part`, built alone
        return [np.random.default_rng(np.random.SeedSequence(sd, spawn_key=(i,))) for _, sd in part]

    move_rngs, unif_rngs = streams(0, runs), streams(1, runs)
    noisy = [(rows, ev.sigma, streams(2, runs[rows])) for rows, ev in groups if ev.sigma > 0]

    def fetch(part, moves, unif, noise):
        # row r of each buffer from run r's streams, for each run r of
        # `part`; every noisy run is in `part`, as noisy runs never retire
        for r in part:
            move_rngs[r].random(out=moves[r])
            unif_rngs[r].random(out=unif[r])
        for rows, sigma, rngs in noisy:
            for rng, row in zip(rngs, noise[rows]):
                rng.standard_normal(out=row)
            noise[rows] *= sigma  # the bits of rng.normal(0.0, sigma, size)

    neg_t = -s.temperatures()
    # the last block's keys past `iters` are drawn anyway; giving them the
    # last flip count lets every block select flips on whole buffers
    flip_counts = np.pad(s.flip_counts(n), (0, -s.iters % BLOCK), mode="edge")
    analytic = all(ev.backend == "analytic" for _, ev in groups)
    # most iterations one window reads; 1 in a batch that never windows
    deep = max(1, min(BLOCK, ROWS // R)) if analytic and not stop_frozen else 1
    cand = np.empty((deep, R, n))
    cand_hrv = np.empty((deep, R))
    z = np.zeros((R, BLOCK))  # noise; the start readout's draws borrow column 0
    readers = [(rows, np.empty((deep, rows.stop - rows.start, ev.K)), ev.ensemble, ev.backend,
                ev.sigma > 0) for rows, ev in groups]
    # one iteration reads through 2-D plane views: a stacked product on a
    # (1, rows, n) view costs more per call
    planes = [(cand[0, rows], intensities[0], cand_hrv[0, rows], z[rows], ens, backend, noisy_rows)
              for rows, intensities, ens, backend, noisy_rows in readers]
    cand1, hrv1 = cand[0], cand_hrv[0]

    def read(j):
        # readouts of `cand1` into `hrv1`, plus noise column j on noisy rows only
        for X, intensities, out, noise, ens, backend, noisy_rows in planes:
            np.matmul(frames(ens, X, backend, out=intensities), ens.g, out=out)
            if noisy_rows:
                out += noise[:, j]

    def read_window(j, w):
        # readouts of cand[:w] into cand_hrv[:w], plus noise columns j..j+w-1
        for rows, intensities, ens, backend, noisy_rows in readers:
            out = cand_hrv[:w, rows]
            np.matmul(frames(ens, cand[:w, rows], backend, out=intensities[:w]), ens.g, out=out)
            if noisy_rows:
                out += z[rows, j:j + w].T

    x = np.stack([random_state(n, rng) for rng in move_rngs]).astype(float)
    for rows, sigma, rngs in noisy:
        z[rows, 0] = [rng.normal(0.0, sigma) for rng in rngs]
    cand1[:] = x
    read(0)
    cur = hrv1.copy()

    keys = np.empty((R, BLOCK, n))
    draws = keys.reshape(R, -1)[:, :BLOCK]  # a single-spin block's one uniform per iteration
    signs = np.empty((BLOCK, R, n))  # iteration-major, so signs[j] is contiguous
    u = np.empty((R, BLOCK))
    theta = np.empty((BLOCK, R))  # -T ln u: accept where d_e <= theta
    hrv = np.empty((BLOCK, R))
    accepted = np.empty((BLOCK, R), dtype=bool)
    delta_e = np.empty((BLOCK, R))
    states = np.empty((BLOCK, R, n))

    # a hit batch of analytic evaluators decides from local fields from the
    # first block on whose every move flips one spin (module docstring)
    switch = s.iters
    if stop_frozen and analytic:  # flip counts never rise
        switch = next((b0 for b0 in range(0, s.iters, BLOCK) if flip_counts[b0] == 1), s.iters)
    # iterations the next window reads (docstring); a block's end may cut it short
    width = 1
    for b0 in range(0, switch, BLOCK):
        nb = min(BLOCK, s.iters - b0)
        single = flip_counts[b0] == 1
        fetch(range(R), draws if single else keys.reshape(R, -1), u, z)
        _threshold(u[:, :nb].T, neg_t[b0:b0 + nb, None], theta[:nb])
        if single:
            signs.fill(1.0)
            signs[np.arange(BLOCK)[:, None], np.arange(R), _picks(draws, n).T] = -1.0
        else:
            _flip_signs(keys, flip_counts[b0:b0 + BLOCK], signs.transpose(1, 0, 2))
        if single and deep > 1:
            j = 0
            while j < nb:
                w = min(width, nb - j)
                np.multiply(x, signs[j:j + w], out=cand[:w])
                read_window(j, w)
                d_e = np.subtract(cur, cand_hrv[:w], out=delta_e[j:j + w])
                ok = np.less_equal(d_e, theta[j:j + w], out=accepted[j:j + w])
                # keep the iterations up to the first accept; the later ones
                # read a state that this accept changes
                any_ok = np.count_nonzero(ok)
                f = int(ok.argmax()) // R if any_ok else w
                hrv[j:j + f] = cur
                states[j:j + f] = x
                j += f
                if any_ok:
                    np.copyto(x, cand[f], where=ok[f, :, None])
                    np.copyto(cur, cand_hrv[f], where=ok[f])
                    hrv[j] = cur
                    states[j] = x
                    j += 1
                    width = f + 1
                else:
                    width = min(2 * width, deep)
        else:
            for j in range(nb):
                np.multiply(x, signs[j], out=cand1)
                read(j)
                d_e = np.subtract(cur, hrv1, out=delta_e[j])  # energy = -readout
                ok = np.less_equal(d_e, theta[j], out=accepted[j])
                if np.count_nonzero(ok):
                    np.copyto(x, cand1, where=ok[:, None])
                    np.copyto(cur, hrv1, where=ok)
                hrv[j] = cur
                states[j] = x
        yield (slice(b0, b0 + nb), hrv[:nb], accepted[:nb], delta_e[:nb], u[:, :nb].T,
               states[:nb])
    if switch == s.iters:
        return

    fields = _LocalFields(groups, x)
    # a noisy row's d_e is D_p + off - z, off the noise of its current reading
    off = np.zeros(R)
    noiseless = np.ones(R, dtype=bool)
    for rows, *_ in noisy:
        off[rows] = cur[rows] - np.einsum("ij,ij->i", x[rows], fields.h[rows])
        noiseless[rows] = False
    # every n-th block, each live run fetches up to n blocks of draws into
    # its rows of the buffers this phase leaves idle
    moves, unif, noise = (a.reshape(R, -1) for a in (keys, signs, states))
    if noisy:
        noise.fill(0.0)  # noiseless rows subtract 0
    live = np.arange(R)
    for b0 in range(switch, s.iters, BLOCK):
        bound = 40.0 * -float(neg_t[b0:].min())  # the largest T still to come
        live = live[~(noiseless[live] & (fields.D[live] > bound).all(axis=1))]
        if not live.size:
            return  # a batch without noisy runs never wrote `states`, the final states
        nb = min(BLOCK, s.iters - b0)
        c = (b0 - switch) % moves.shape[1]  # this block's first column of the fetch
        if not c:
            cols = min(moves.shape[1], -(-(s.iters - b0) // BLOCK) * BLOCK)  # whole blocks
            fetch(live, moves[:, :cols], unif[:, :cols], noise[:, :cols])
        picks = _picks(moves[live, c:c + nb], n)
        theta = unif[live, c:c + nb]
        _threshold(theta, neg_t[b0:b0 + nb], theta)
        z = noise[:, c:c + nb]
        # rounds: each run of `act`, a position in `live`, decides its
        # iterations from nxt on and takes its first accept
        nxt = np.zeros(live.size, dtype=np.intp)
        act = np.arange(live.size)
        while act.size:
            j0 = int(nxt[act].min())
            rr = live[act]
            d_e = fields.D[rr[:, None], picks[act, j0:nb]]
            if noisy:
                d_e += off[rr, None]
                d_e -= z[rr, j0:nb]
            ok = d_e <= theta[act, j0:nb]
            ok &= np.arange(j0, nb) >= nxt[act, None]
            first = ok.argmax(axis=1)
            took = ok[np.arange(act.size), first]
            act, first = act[took], first[took] + j0
            rr = live[act]
            fields.flip(rr, picks[act, first])
            if noisy:
                off[rr] = z[rr, first]
            nxt[act] = first + 1
            act = act[nxt[act] < nb]
        yield slice(b0, b0 + nb), None, None, None, None, x[None]


def anneal(evaluator: HrvEvaluator, g: WeightedGraph, s: Schedule, seed) -> AnnealTrace:
    """Anneal from uniform random starts, every run stepped in lock-step.

    `seed` is one int, giving one run with 1-D histories, or a sequence of
    R ints, giving R runs whose arrays gain a leading run axis.  Run r is
    the same whatever the other seeds are (RNG contract v3).
    """
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    model = from_graph(g)
    half_total = g.total_weight() / 2.0
    # hrv, accepted, delta_e, Metropolis draws and cut, run-major
    hist = [np.empty((len(seeds), s.iters), dtype=dt) for dt in (float, bool, float, float, float)]
    for blk, *bufs, states in _lockstep([(evaluator, sd) for sd in seeds], g, s):
        for h, buf in zip(hist, (*bufs, half_total - hamiltonian(model, states) / 2.0)):
            h[:, blk] = buf.T
    final_state = states[-1].astype(np.int8)
    if single:
        hist = [h[0] for h in hist]
        final_state = final_state[0]
    hrv_hist, accepted, delta_e, draws, cut_hist = hist
    return AnnealTrace(
        temperature=s.temperatures(),
        flips=s.flip_counts(g.n),
        hrv=hrv_hist,
        cut=cut_hist,
        accepted=accepted,
        delta_e=delta_e,
        uniform=np.where(delta_e > 0.0, draws, np.nan),
        final_state=final_state,
        final_hrv=float(hrv_hist[-1]) if single else hrv_hist[:, -1].copy(),
        final_cut=float(cut_hist[-1]) if single else cut_hist[:, -1].copy(),
    )


def optimal_hits(cells, g: WeightedGraph, s: Schedule, optimum: float) -> list[int]:
    """Hits per cell of `cells`, a list of (evaluator, seeds): how many of
    the cell's runs, one per seed, end in a cut equal to `optimum`.

    The runs of all cells are stepped together, HIT_CHUNK at a time, and
    only their final states are kept; a batch of analytic evaluators ends
    once its last run retires (module docstring).
    """
    runs = [(ev, sd) for ev, seeds in cells for sd in seeds]
    owner = np.repeat(np.arange(len(cells)), [len(seeds) for _, seeds in cells])
    model = from_graph(g)
    half_total = g.total_weight() / 2.0
    hit = np.zeros(len(runs), dtype=bool)
    for i in range(0, len(runs), HIT_CHUNK):
        for *_, states in _lockstep(runs[i:i + HIT_CHUNK], g, s, stop_frozen=True):
            pass
        cut = half_total - hamiltonian(model, states[-1]) / 2.0
        hit[i:i + HIT_CHUNK] = np.abs(cut - optimum) <= CUT_MATCH_TOL
    return np.bincount(owner, weights=hit, minlength=len(cells)).astype(int).tolist()
