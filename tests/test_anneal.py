import functools
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from exact_chain import binomial_two_sided, hit_probability

import optising.anneal as engine
from optising.anneal import (
    BLOCK,
    CUT_MATCH_TOL,
    HIT_CHUNK,
    ROWS,
    Schedule,
    _flip_signs,
    _picks,
    _threshold,
    anneal,
    optimal_hits,
    reaches_optimum,
)
from optising.cli import main
from optising.experiments import LBL_SPAN, LBL_TRACE, RUN_CHUNK, anneal_trace_study, derive_seed
from optising.graph import WeightedGraph, gen_regular, write_graph
from optising.ising import brute_force_maxcut, cut_value, from_graph, random_state
from optising.optics import HrvEvaluator, estimate_span, frames
from optising.spectral import build_ensemble, eigendecompose


def make_evaluator(g, K=None, sigma=0.0, backend="analytic"):
    b = eigendecompose(from_graph(g))
    ens = build_ensemble(b, K if K is not None else g.n)
    return HrvEvaluator(ens, backend=backend, sigma=sigma)


def assert_rows_match_single_runs(ev, g, s, seeds, traces):
    """Row r of the batched traces is the run anneal(ev, g, s, seeds[r]).

    Moves, decisions and draws match bit for bit; readouts (and so cuts and
    energy steps) only to rounding, since a block readout is one matrix
    product and a single readout another.
    """
    tol = 1e-12 * estimate_span(ev.ensemble, samples=200, rng=np.random.default_rng(0))
    rows = [(tr, r) for tr in traces for r in range(tr.final_state.shape[0])]
    assert len(rows) == len(seeds)
    for (tr, r), seed in zip(rows, seeds):
        one = anneal(ev, g, s, seed)
        assert np.array_equal(tr.final_state[r], one.final_state)
        assert np.array_equal(tr.accepted[r], one.accepted)
        assert np.array_equal(tr.flips, one.flips)
        assert np.array_equal(tr.uniform[r], one.uniform, equal_nan=True)
        for name in ("hrv", "cut", "delta_e"):
            assert np.max(np.abs(getattr(tr, name)[r] - getattr(one, name))) <= tol, name
        assert abs(tr.final_cut[r] - one.final_cut) <= tol


@pytest.fixture(scope="module")
def small_graph():
    return gen_regular(8, 3, 0.0, 1.0, seed=2)


def test_schedule_validation():
    for t0 in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="t0 must be finite and positive"):
            Schedule(t0=t0, rate=0.5)
    with pytest.raises(ValueError):
        Schedule(t0=1.0, rate=1.0)
    with pytest.raises(ValueError):
        Schedule(t0=1.0, rate=0.5, iters=0)


def test_schedule_temperature_law():
    s = Schedule(t0=2.0, rate=0.9, iters=5)
    assert s.temperatures() == pytest.approx([2.0, 1.8, 1.62, 1.458, 1.3122])


def test_schedule_flip_counts_monotone():
    s = Schedule(t0=1.0, rate=0.995, iters=3000)
    m = s.flip_counts(20)
    assert m[0] == 20
    assert m[-1] == 1
    assert np.all(np.diff(m) <= 0)
    assert np.all(m >= 1)


def test_anneal_deterministic(small_graph):
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.99, iters=400)
    t1 = anneal(ev, small_graph, s, seed=77)
    t2 = anneal(ev, small_graph, s, seed=77)
    assert np.array_equal(t1.hrv, t2.hrv)
    assert np.array_equal(t1.cut, t2.cut)
    assert np.array_equal(t1.accepted, t2.accepted)
    assert np.array_equal(t1.final_state, t2.final_state)
    t3 = anneal(ev, small_graph, s, seed=78)
    assert not np.array_equal(t1.hrv, t3.hrv)


def test_trace_shape_and_fields(small_graph):
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.99, iters=250)
    tr = anneal(ev, small_graph, s, seed=1)
    assert tr.iters == 250
    assert tr.temperature == pytest.approx(5.0 * 0.99 ** np.arange(250))
    assert tr.final_hrv == tr.hrv[-1]
    assert tr.final_cut == tr.cut[-1]
    assert set(np.unique(tr.final_state)) <= {-1, 1}


def test_recorded_cut_matches_state_history(small_graph):
    # replaying accepted moves is impossible from the trace alone, but the
    # final state must reproduce the final recorded cut exactly
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.99, iters=300)
    tr = anneal(ev, small_graph, s, seed=9)
    assert cut_value(small_graph, tr.final_state) == pytest.approx(tr.final_cut, abs=1e-12)


def test_cut_identity_along_trace(small_graph):
    # noiseless full-K evaluator: CV == (total_weight + readout)/2 throughout
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.995, iters=500)
    tr = anneal(ev, small_graph, s, seed=5)
    ident = (small_graph.total_weight() + tr.hrv) / 2.0
    assert tr.cut == pytest.approx(ident, rel=1e-9, abs=1e-9)


def test_acceptance_audit(small_graph):
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.99, iters=600)
    tr = anneal(ev, small_graph, s, seed=3)
    uphill_accept = tr.accepted & (tr.delta_e > 0)
    assert uphill_accept.any()  # hot phase should accept some uphill moves
    for k in np.nonzero(uphill_accept)[0]:
        u = tr.uniform[k]
        assert not math.isnan(u)
        assert u < math.exp(-tr.delta_e[k] / tr.temperature[k])
    # downhill proposals never consumed a Metropolis draw
    assert np.all(np.isnan(tr.uniform[tr.delta_e <= 0]))


def test_greedy_limit_never_accepts_uphill(small_graph):
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=1e-9, iters=200)
    tr = anneal(ev, small_graph, s, seed=10)
    accepted_hrv = tr.hrv[tr.accepted]
    assert np.all(np.diff(accepted_hrv) >= -1e-12)
    assert not np.any(tr.accepted & (tr.delta_e > 0))
    assert np.all(tr.flips[1:] == 1)


def test_tiny_graph_finds_optimum_reliably():
    g = gen_regular(4, 2, 0.0, 1.0, seed=3)
    best, _ = brute_force_maxcut(g)
    ev = make_evaluator(g)
    s = Schedule(t0=3.0, rate=0.995, iters=3000)
    trace = anneal(ev, g, s, [100 + r for r in range(100)])
    hits = int(np.sum(np.abs(trace.final_cut - best) <= CUT_MATCH_TOL))
    assert hits >= 95


def test_dimension_guard(small_graph):
    other = gen_regular(6, 3, 0.0, 1.0, seed=0)
    ev = make_evaluator(other)
    with pytest.raises(ValueError):
        anneal(ev, small_graph, Schedule(t0=1.0, rate=0.9, iters=10), seed=0)


def test_noisy_run_is_deterministic(small_graph):
    ev = make_evaluator(small_graph, sigma=0.3)
    s = Schedule(t0=5.0, rate=0.99, iters=200)
    t1 = anneal(ev, small_graph, s, seed=21)
    t2 = anneal(ev, small_graph, s, seed=21)
    assert np.array_equal(t1.hrv, t2.hrv)
    # noisy readouts drift from the exact identity
    ident = (small_graph.total_weight() + t1.hrv) / 2.0
    assert not np.allclose(t1.cut, ident, atol=1e-6)


def test_cut_history_matches_edge_sum_at_block_boundaries():
    # A run of k iterations ends in the state the same seed's 300-iteration
    # run holds after iteration k-1: temperatures, flip counts and the
    # BLOCK-sized draws agree on the prefix.
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    span = estimate_span(make_evaluator(g, 13).ensemble, samples=1000,
                         rng=np.random.default_rng(1))
    ev = make_evaluator(g, 13, sigma=0.05 * span)
    seeds = [5, 6]
    long = anneal(ev, g, Schedule(t0=span, rate=0.99, iters=300), seeds)
    for k in (1, 63, 64, 65, 200, 300):
        short = anneal(ev, g, Schedule(t0=span, rate=0.99, iters=k), seeds)
        assert np.array_equal(short.accepted, long.accepted[:, :k])
        for r in range(len(seeds)):
            want = cut_value(g, short.final_state[r])
            tol = 1e-12 * max(1.0, abs(want))
            assert abs(long.cut[r, k - 1] - want) <= tol
            assert abs(short.final_cut[r] - want) <= tol


def test_dump_trace(tmp_path, small_graph):
    # solve --trace-out dumps the one-run trace row by row: the CSV holds the
    # same iterations, temperatures, flips, readouts, cuts and decisions as
    # anneal() on the same graph, schedule and seed.
    gpath = tmp_path / "g.rud"
    write_graph(small_graph, gpath)
    p = tmp_path / "trace.csv"
    assert main([str(a) for a in ("solve", "--graph", gpath, "--t0", 5.0, "--rate", 0.99,
                                  "--iters", 50, "--seed", 4, "--trace-out", p)]) == 0
    tr = anneal(make_evaluator(small_graph), small_graph,
                Schedule(t0=5.0, rate=0.99, iters=50), seed=4)
    lines = p.read_text().splitlines()
    assert lines[0] == "iter,temperature,flips,hrv,cut,accepted"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 5.0
    for k, line in enumerate(lines[1:]):
        it, temp, flips, hrv, cut, acc = line.split(",")
        assert int(it) == k
        assert float(temp) == tr.temperature[k]
        assert int(flips) == tr.flips[k]
        assert float(hrv) == tr.hrv[k]
        assert float(cut) == tr.cut[k]
        assert int(acc) == int(tr.accepted[k])


def test_optimal_hits_on_a_single_edge():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    ev = make_evaluator(g)
    s = Schedule(t0=2.0, rate=0.9, iters=200)  # frozen well before the end
    best, _ = brute_force_maxcut(g)
    assert optimal_hits([(ev, range(10))], g, s, best) == [10]


@pytest.mark.parametrize("K", [3, 13, 20])
@pytest.mark.parametrize("level", [0.0, 0.02])
def test_batch_size_invariance(K, level):
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    span = estimate_span(make_evaluator(g, K).ensemble, samples=1000,
                         rng=np.random.default_rng(1))
    ev = make_evaluator(g, K, sigma=level * span)
    s = Schedule(t0=span, rate=0.99, iters=400)
    seeds = [31, 7, 2 ** 40, 31 + 1, 5]
    batch = anneal(ev, g, s, seeds)
    assert batch.hrv.shape == batch.cut.shape == batch.uniform.shape == (5, 400)
    assert batch.final_state.shape == (5, 20)
    assert batch.final_hrv.shape == batch.final_cut.shape == (5,)
    assert np.array_equal(batch.final_hrv, batch.hrv[:, -1])
    assert_rows_match_single_runs(ev, g, s, seeds, [batch])


def test_batch_size_invariance_field_backend(small_graph):
    ev = make_evaluator(small_graph, 5, backend="field")
    s = Schedule(t0=5.0, rate=0.97, iters=80)
    seeds = [4, 9, 12]
    assert_rows_match_single_runs(ev, small_graph, s, seeds, [anneal(ev, small_graph, s, seeds)])


def test_chunked_runs_cross_the_chunk_boundary(small_graph):
    # the trace study steps RUN_CHUNK runs per batch and sums each block as
    # it comes; over RUN_CHUNK + 2 runs its curves and final statistics are
    # those of the single runs
    ev = make_evaluator(small_graph)
    K = small_graph.n
    s = Schedule(t0=5.0, rate=0.9, iters=60)
    runs = RUN_CHUNK + 2
    study = anneal_trace_study(small_graph, [K], s, runs, seed=3)
    base = derive_seed(3, LBL_TRACE, K)
    singles = [anneal(ev, small_graph, s, sd) for sd in range(base, base + runs)]
    tol = 1e-12 * estimate_span(ev.ensemble, samples=200, rng=np.random.default_rng(0))
    for name, curve in (("hrv", study.mean_hrv[K]), ("cut", study.mean_cut[K])):
        mean = np.mean([getattr(one, name) for one in singles], axis=0)
        assert np.max(np.abs(curve - mean)) <= tol, name
        finals = [getattr(one, "final_" + name) for one in singles]
        assert abs(getattr(study, f"final_{name}_mean")[K] - np.mean(finals)) <= tol, name
        assert abs(getattr(study, f"final_{name}_std")[K] - np.std(finals)) <= tol, name
    assert study.final_cut_std[K] > 0  # the runs do not all end alike


def test_anneal_needs_a_seed(small_graph):
    with pytest.raises(ValueError):
        anneal(make_evaluator(small_graph), small_graph, Schedule(t0=1.0, rate=0.9, iters=5), [])


def _hit_cells(g, span, sizes):
    """`optimal_hits` cells from (K, noise level, runs) triples."""
    return [(make_evaluator(g, K, sigma=level * span), range(100 * i, 100 * i + runs))
            for i, (K, level, runs) in enumerate(sizes)]


def _spy_finals(monkeypatch):
    """Patch the engine's one exact-energy call per hit batch to record the
    final states it sees."""
    finals = []
    exact = engine.hamiltonian
    monkeypatch.setattr(engine, "hamiltonian",
                        lambda model, x: finals.append(np.array(x)) or exact(model, x))
    return finals


def check_mixed_cells(monkeypatch, rate, iters, sizes):
    """Cells of (K, noise level, runs), noiseless and noisy, stacked in one
    `optimal_hits` call whose third cell straddles a HIT_CHUNK boundary.  A
    spy on the one exact-energy call per batch sees every run's final state."""
    chunk = engine.HIT_CHUNK
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    span = estimate_span(make_evaluator(g).ensemble, samples=1000, rng=np.random.default_rng(1))
    s = Schedule(t0=span, rate=rate, iters=iters)
    assert sum(n for *_, n in sizes[:2]) < chunk < sum(n for *_, n in sizes[:3])
    cells = _hit_cells(g, span, sizes)

    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()

    total = sum(len(seeds) for _, seeds in cells)
    assert len(finals) == -(-total // chunk)
    singles = [anneal(ev, g, s, sd) for ev, seeds in cells for sd in seeds]
    finals = np.concatenate(finals)
    assert finals.shape == (total, 20)
    for row, one in zip(finals, singles):
        assert np.array_equal(row, one.final_state)
    assert hits == [optimal_hits([cell], g, s, best)[0] for cell in cells]
    per_run = iter(abs(one.final_cut - best) <= CUT_MATCH_TOL for one in singles)
    assert hits == [sum(next(per_run) for _ in seeds) for _, seeds in cells]
    assert 0 < sum(hits) < total  # both outcomes occur


def test_mixed_cells_step_like_single_runs(monkeypatch):
    monkeypatch.setattr(engine, "HIT_CHUNK", 64)
    check_mixed_cells(monkeypatch, 0.985, 300, [(3, 0.0, 20), (13, 0.02, 30), (20, 0.0, 25),
                                                (13, 0.0, 5), (3, 0.05, 1), (20, 0.02, 12)])


def test_mixed_cells_cross_the_hit_chunk_boundary(monkeypatch):
    check_mixed_cells(monkeypatch, 0.95, 100, [(3, 0.0, 100), (13, 0.02, 100), (20, 0.0, 100)])


# sha1 of (hrv, delta_e, final_state) of `anneal` on an n=16, K=11 instance;
# reading into the engine's preallocated buffers must keep every bit
_ANNEAL_SHA1 = {
    ("analytic", 0.0, 1): "2c4478fd1bcd026b2c687f6e167a82d63e7a9040",
    ("analytic", 0.0, 70): "a015a6799eecc7c7e004c3c66697f6afb3ce6ce5",
    ("analytic", 0.02, 1): "0b7c5e0c2b8d3f92b50814d4fff5862f377bbd2b",
    ("analytic", 0.02, 70): "bf08b5d929bd9fe413675f2557bef1ae1f9405e4",
    ("field", 0.0, 1): "b914f2d436efdc5fea7285355c6ff3371482b31f",
    ("field", 0.0, 70): "8704353095b0810f0a31cd4bfe6be1d1f53066f5",
    ("field", 0.02, 1): "66507ef7d1a1eb94f36fe1c61228144751d2320d",
    ("field", 0.02, 70): "e387b2ed7da14742d3f1b6e067c80383f7789baf",
}


@functools.cache
def _pinned_trace(backend, level, R):
    """(graph, K, trace) of a pinned history; R = 70 holds the R = 1 run as row 0."""
    g = gen_regular(16, 3, 0.0, 1.0, seed=0)
    ens = make_evaluator(g, 11).ensemble
    span = estimate_span(ens, samples=200, rng=np.random.default_rng(0))
    ev = HrvEvaluator(ens, backend=backend, sigma=level * span)
    return g, ens.K, anneal(ev, g, Schedule(t0=span, rate=0.98, iters=200),
                            5 if R == 1 else range(5, 5 + R))


@pytest.mark.parametrize("backend, level, R", list(_ANNEAL_SHA1))
def test_anneal_histories_are_pinned(backend, level, R):
    tr = _pinned_trace(backend, level, R)[2]
    h = hashlib.sha1()
    for a in (tr.hrv, tr.delta_e, tr.final_state):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _ANNEAL_SHA1[backend, level, R]


def _parent_flip_signs(keys, m):
    """The rank rule on (B, R, n) keys: stable argsort ranks, so tied keys
    rank by position (the reference for tied keys)."""
    rank = keys.argsort(axis=-1, kind="stable").argsort(axis=-1)
    return np.where(rank < m[:, None, None], -1.0, 1.0)


# the five smallest keys are three 0.125s and two of the three 0.25s
_TIED_ROW = [0.5, 1.0, 0.875, 0.375, 0.25, 0.75, 0.125, 0.375, 0.875, 0.875,
             0.25, 0.125, 0.75, 0.625, 0.25, 0.5, 0.125, 0.75, 0.5, 0.75]


@pytest.mark.parametrize("counts", [[1], [5], [5, 1]])
def test_flip_signs_break_ties_by_position(counts):
    # every count, 1 included, takes the sort path
    m = np.resize(counts, BLOCK)
    keys = np.broadcast_to(np.array(_TIED_ROW), (3, BLOCK, len(_TIED_ROW))).copy()
    signs = _flip_signs(keys, m, np.empty(keys.shape))
    want = {1: [6], 5: [4, 6, 10, 11, 16]}
    for r in range(3):
        for b in range(BLOCK):
            assert np.flatnonzero(signs[r, b] == -1.0).tolist() == want[m[b]]


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("single_spin", [False, True])
def test_flip_signs_flip_exactly_m_spins(tied, single_spin):
    rng = np.random.default_rng(4)
    R, n = 40, 20
    keys = rng.random((R, BLOCK, n))
    if tied:
        keys = np.round(keys * 8) / 8
    m = np.ones(BLOCK, dtype=np.int64) if single_spin else rng.integers(1, n + 1, BLOCK)
    signs = _flip_signs(keys, m, np.empty(keys.shape))
    assert np.array_equal((signs == -1.0).sum(axis=-1), np.broadcast_to(m, (R, BLOCK)))
    want = _parent_flip_signs(keys.transpose(1, 0, 2), m).transpose(1, 0, 2)
    assert np.array_equal(signs, want)


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("single_spin", [False, True])
def test_flip_signs_fill_the_engine_buffer(tied, single_spin):
    # the engine's signs are iteration-major (B, R, n) and `_flip_signs`
    # writes them through the transposed (R, B, n) view
    rng = np.random.default_rng(9)
    R, n = 30, 20
    keys = rng.random((R, BLOCK, n))
    if tied:
        keys = np.round(keys * 16) / 16  # tied minima in most single-spin rows
    m = np.ones(BLOCK, dtype=np.int64) if single_spin else rng.integers(1, n + 1, BLOCK)
    signs = np.empty((BLOCK, R, n))
    assert _flip_signs(keys, m, signs.transpose(1, 0, 2)).base is signs
    assert np.array_equal(signs, _parent_flip_signs(keys.transpose(1, 0, 2), m))


def _one_iteration_lockstep(runs, g, s):
    """The engine stepped one iteration at a time, from the same calls: the
    reference its windows over a block's iterations must equal bit for bit."""
    n, R = g.n, len(runs)
    readout = [(id(ev.ensemble), ev.backend, ev.sigma) for ev, _ in runs]
    bounds = [0] + [i for i in range(1, R) if readout[i] != readout[i - 1]] + [R]
    groups = [(slice(a, b), runs[a][0]) for a, b in zip(bounds, bounds[1:])]
    streams = [np.random.SeedSequence(sd).spawn(3) for _, sd in runs]
    move_rngs = [np.random.default_rng(ss[0]) for ss in streams]
    unif_rngs = [np.random.default_rng(ss[1]) for ss in streams]
    noisy = [(rows, ev.sigma, [np.random.default_rng(ss[2]) for ss in streams[rows]])
             for rows, ev in groups if ev.sigma > 0]
    neg_t = (-s.temperatures()).tolist()
    flip_counts = np.pad(s.flip_counts(n), (0, -s.iters % BLOCK), mode="edge")
    cand, cand_hrv, z = np.empty((R, n)), np.empty(R), np.empty((R, BLOCK))

    def read(j):
        for rows, ev in groups:
            out = cand_hrv[rows]
            np.matmul(frames(ev.ensemble, cand[rows], ev.backend), ev.ensemble.g, out=out)
            if ev.sigma > 0:
                out += z[rows, j]

    x = np.stack([random_state(n, rng) for rng in move_rngs]).astype(float)
    for rows, sigma, rngs in noisy:
        z[rows, 0] = [rng.normal(0.0, sigma) for rng in rngs]
    cand[:] = x
    read(0)
    cur = cand_hrv.copy()
    keys, signs, u = np.empty((R, BLOCK, n)), np.empty((BLOCK, R, n)), np.empty((R, BLOCK))
    hrv, delta_e, states = np.empty((BLOCK, R)), np.empty((BLOCK, R)), np.empty((BLOCK, R, n))
    accepted = np.empty((BLOCK, R), dtype=bool)
    for b0 in range(0, s.iters, BLOCK):
        nb = min(BLOCK, s.iters - b0)
        single = flip_counts[b0] == 1  # RNG contract v3: one uniform per iteration
        for r in range(R):
            if single:
                pick = [int(n * v) for v in move_rngs[r].random(BLOCK)]
                signs[:, r] = np.where(np.arange(n) == np.array(pick)[:, None], -1.0, 1.0)
            else:
                move_rngs[r].random(out=keys[r])
            unif_rngs[r].random(out=u[r])
        np.maximum(u, 2.0 ** -53, out=u)  # the engine's floor on its draws
        for rows, sigma, rngs in noisy:
            z[rows] = [rng.normal(0.0, sigma, BLOCK) for rng in rngs]
        if not single:
            _flip_signs(keys, flip_counts[b0:b0 + BLOCK], signs.transpose(1, 0, 2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for j in range(nb):
                np.multiply(x, signs[j], out=cand)
                read(j)
                delta_e[j] = cur - cand_hrv
                p = np.exp(np.fmin(delta_e[j] / neg_t[b0 + j], 0.0))
                accepted[j] = ok = u[:, j] < p
                x[ok] = cand[ok]
                cur[ok] = cand_hrv[ok]
                hrv[j] = cur
                states[j] = x
        yield (slice(b0, b0 + nb), hrv[:nb], accepted[:nb], delta_e[:nb], u[:, :nb].T,
               states[:nb])


def _window_case(R, mix):
    """(runs, the most iterations one window may read) on an n=16 instance:
    ROWS candidate rows and one block at most, and 1 with a field evaluator."""
    g = gen_regular(16, 3, 0.0, 1.0, seed=0)
    span = estimate_span(make_evaluator(g).ensemble, samples=200, rng=np.random.default_rng(0))
    if mix == "analytic":
        groups = [(make_evaluator(g, 11), R)]
    elif mix == "noisy":  # analytic K=3, then noisy full-K rows
        noisy = make_evaluator(g, sigma=0.02 * span)
        groups = [(make_evaluator(g, 3), R // 2), (noisy, R - R // 2)]
    else:  # a field group makes the batch step one iteration at a time
        groups = [(make_evaluator(g, 3), 2), (make_evaluator(g, backend="field"), R - 2)]
    runs = [(ev, 100 * i + r) for i, (ev, size) in enumerate(groups) for r in range(size)]
    return g, span, runs, max(1, min(BLOCK, ROWS // R)) if mix != "field" else 1


@pytest.mark.parametrize("t0, rate, iters", [
    (None, 0.98, 300),  # hot to frozen; the last block is partial
    (1e-300, 0.5, 150),  # temperatures underflow to 0.0
])
@pytest.mark.parametrize("R, mix", [(1, "analytic"), (2, "analytic"), (5, "analytic"),
                                    (31, "analytic"), (33, "analytic"), (64, "analytic"),
                                    (7, "noisy"), (40, "noisy"), (5, "field")])
def test_windows_equal_one_iteration_steps(monkeypatch, R, mix, t0, rate, iters):
    g, span, runs, deep = _window_case(R, mix)
    s = Schedule(t0=span if t0 is None else t0, rate=rate, iters=iters)
    calls = []  # (block being stepped, iterations read, stacked) per `frames` call
    blocks = 0
    read = engine.frames
    monkeypatch.setattr(engine, "frames", lambda ens, X, *a, **k: calls.append(
        (blocks, X.shape[0] if X.ndim == 3 else 1, X.ndim == 3)) or read(ens, X, *a, **k))
    for got, want in zip(engine._lockstep(runs, g, s), _one_iteration_lockstep(runs, g, s)):
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        blocks += 1
    assert blocks == -(-iters // BLOCK)
    single = s.flip_counts(g.n)[::BLOCK] == 1
    # a windowing batch reads every single-spin block in stacked windows and
    # every multi-spin block in 2-D planes; a field batch never windows
    assert all(stacked == (single[b] and deep > 1) for b, _, stacked in calls)
    widths = [w for *_, w, _ in calls]
    assert max(widths) <= deep
    assert (max(widths) > 1) == (deep > 1)  # the frozen stretches are read in windows


def test_hit_batches_never_read_windows(monkeypatch):
    # a hit batch decides its single-spin blocks from local fields, so even
    # a cold multi-spin stretch of an analytic batch steps one iteration at a time
    g = gen_regular(16, 3, 0.0, 1.0, seed=0)
    ev = make_evaluator(g, 11)
    dims = []
    read = engine.frames
    monkeypatch.setattr(engine, "frames", lambda ens, X, *a, **k: dims.append(X.ndim)
                        or read(ens, X, *a, **k))
    s = Schedule(t0=1e-3, rate=0.98, iters=300)
    optimal_hits([(ev, range(120))], g, s, brute_force_maxcut(g)[0])
    assert dims and set(dims) == {2}


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_equal_evaluators_share_one_read(monkeypatch, sigma):
    # adjacent runs whose evaluators share the ensemble object, backend and
    # sigma are read together, so `frames` calls do not grow with the number
    # of equal evaluator objects
    g = gen_regular(16, 3, 0.0, 1.0, seed=0)
    ev = make_evaluator(g, 11, sigma=sigma)
    calls = []
    read = engine.frames
    monkeypatch.setattr(engine, "frames", lambda *a, **k: calls.append(1) or read(*a, **k))
    s = Schedule(t0=2.0, rate=0.98, iters=200)
    optimum = brute_force_maxcut(g)[0]
    shared = optimal_hits([(ev, range(40))], g, s, optimum)
    per_shared = len(calls)
    calls.clear()
    copies = [(HrvEvaluator(ev.ensemble, ev.backend, ev.sigma), [r]) for r in range(40)]
    assert sum(optimal_hits(copies, g, s, optimum)) == shared[0]
    assert len(calls) == per_shared


@pytest.mark.parametrize("seed", [0, 7, 2 ** 63 - 1])
def test_engine_streams_are_the_spawned_children(monkeypatch, seed):
    # the engine builds child i of SeedSequence(seed).spawn(3) on its own,
    # and the noise child only for a noisy evaluator
    g = gen_regular(16, 3, 0.0, 1.0, seed=0)
    evaluators = [(make_evaluator(g, 5), 2), (make_evaluator(g, 5, sigma=0.1), 3)]
    default_rng = np.random.default_rng
    made = []

    def rng(ss=None):
        gen = default_rng(ss)
        made.append((ss.spawn_key, gen.bit_generator.state))
        return gen

    monkeypatch.setattr(np.random, "default_rng", rng)
    spawned = np.random.SeedSequence(seed).spawn(3)
    for ev, streams in evaluators:
        made.clear()
        next(engine._lockstep([(ev, seed)], g, Schedule(t0=1.0, rate=0.9, iters=10)))
        assert made == [((i,), default_rng(spawned[i]).bit_generator.state)
                        for i in range(streams)]


def test_a_pick_lies_below_n_at_the_largest_draw():
    # Generator.random draws at most 1 - 2**-53, and int(n * u) stays below n
    u = 1.0 - 2.0 ** -53
    assert all(_picks(np.array([u]), n)[0] == n - 1 for n in range(1, 2 ** 16))


def test_the_move_stream_draws_keys_or_one_uniform_per_iteration(monkeypatch, small_graph):
    # a block whose first flip count exceeds 1 draws n keys per iteration,
    # even where its later counts are 1; a block that starts at 1 draws one
    # uniform per iteration, the partial last block included
    n = small_graph.n
    s = Schedule(t0=1.0, rate=0.97, iters=300)
    counts = s.flip_counts(n)
    assert counts[0] > 1 and counts[BLOCK - 1] == 1 and s.iters % BLOCK
    default_rng = np.random.default_rng
    movers = []

    def rng(ss=None):
        gen = default_rng(ss)
        if ss.spawn_key == (0,):
            movers.append(gen)
        return gen

    monkeypatch.setattr(np.random, "default_rng", rng)
    seeds = [3, 4]
    anneal(make_evaluator(small_graph), small_graph, s, seeds)
    monkeypatch.undo()
    assert len(movers) == len(seeds)
    for seed, gen in zip(seeds, movers):
        ref = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
        random_state(n, ref)
        for b0 in range(0, s.iters, BLOCK):
            ref.random(BLOCK if counts[b0] == 1 else (BLOCK, n))
        assert gen.bit_generator.state == ref.bit_generator.state


def _reference_accepts(tr):
    """The Metropolis rule with the uphill bound d_e <= 700 T, from a trace's
    energy steps, temperatures and draws (NaN where nothing was drawn)."""
    d_e, u = tr.delta_e, tr.uniform
    t = np.broadcast_to(tr.temperature, d_e.shape)
    with np.errstate(over="ignore"):  # 700 * 1e308 is inf, as a Python float gives
        trial = (d_e > 0) & (d_e <= 700.0 * t)
    arg = np.divide(d_e, -t, out=np.zeros(d_e.shape), where=trial)
    return (d_e <= 0) | (trial & (u < np.exp(arg)))


@pytest.mark.parametrize("t0, rate, iters", [
    (None, 0.98, 400),  # hot to frozen
    (1e-300, 0.5, 200),  # temperatures underflow to 0.0
    (1e308, 0.98, 200),  # 700 * t0 overflows
])
def test_metropolis_matches_the_reference_rule(small_graph, t0, rate, iters):
    ev = make_evaluator(small_graph)
    if t0 is None:
        t0 = estimate_span(ev.ensemble, samples=200, rng=np.random.default_rng(0))
    tr = anneal(ev, small_graph, Schedule(t0=t0, rate=rate, iters=iters), range(40, 56))
    # every draw is floored at 2**-53, so the two rules have no exception
    assert not np.any(tr.uniform == 0.0)
    assert np.array_equal(tr.accepted, _reference_accepts(tr))
    uphill = tr.delta_e > 0
    if t0 == 1e-300:
        frozen = uphill & (tr.temperature == 0.0)
        assert frozen.any() and not tr.accepted[frozen].any()
    elif t0 == 1e308:
        assert uphill.any() and tr.accepted.all()
    else:
        assert (tr.accepted & uphill).any() and (~tr.accepted & uphill).any()


@pytest.mark.parametrize("t", [1.0, 2.0 ** -20])
def test_the_draw_floor_rejects_what_the_freeze_stop_rules_out(t):
    # at the floor u = 2**-53, d_e / T = 36 accepts and 37 rejects, as
    # ln 2**53 ~ 36.7, so the stop's bound d_e > 40 T has margin
    d_e = t * np.array([36.0, 37.0, np.nextafter(40.0, 41.0)])
    u = np.full(3, 2.0 ** -53)
    ok = d_e <= _threshold(u, -t, np.empty(3))
    assert ok.tolist() == [True, False, False]


def test_the_threshold_rule_decides_as_the_exp_form():
    # accept where d_e <= theta = -T ln u, against the exp form
    # u < exp(min(0, -d_e / T)), at T = 0.0, a subnormal T and a T whose
    # theta overflows, on level moves of both signs and 1e-9 either side of
    # theta.  They must agree wherever d_e is not within rounding of theta.
    # The exp form rounds p = exp(-d_e / T) near 1 to 2**-53, so it resolves
    # d_e only to about T * 2**-53 there; the bound holds T for that.
    grid = []
    for t in (0.0, 5e-324, 1e-300, 1.0, 1e308):
        for u in (2.0 ** -53, 0.5, 1.0 - 2.0 ** -53):
            theta = -t * math.log(u)  # a Python float overflows to inf quietly
            near = [theta * (1.0 - 1e-9), theta * (1.0 + 1e-9)] if 0.0 < theta < math.inf else []
            grid += [(t, u, d_e) for d_e in [-1.0, -0.0, 0.0, 5e-324] + near]
    t, u, d_e = map(np.array, zip(*grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = _threshold(u, -t, np.empty(u.shape))
        ok = d_e <= theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = u < np.exp(np.fmin(d_e / -t, 0.0))
        t_ln_u = t * np.log(u)
    margin = np.abs(d_e + t_ln_u)
    decisive = margin > 1e-12 * np.maximum(np.abs(d_e), np.maximum(np.abs(t_ln_u), t))
    # T = 0.0 and theta = inf leave no margin to compute, and decide exactly
    decisive |= (t == 0.0) | np.isinf(theta)
    assert decisive.sum() >= 50 and np.array_equal(ok[decisive], want[decisive])
    assert np.array_equal(ok[t == 0.0], d_e[t == 0.0] <= 0.0)
    assert ok[np.isinf(theta)].all() and np.isinf(theta).sum() == 4


def test_level_moves_are_accepted_at_zero_temperature():
    # an edgeless graph reads 0 in every state, so every move is level, and
    # a level move divided by an underflowed temperature is 0 / -0.0 = NaN
    g = WeightedGraph(4)
    tr = anneal(make_evaluator(g), g, Schedule(t0=1e-300, rate=0.5, iters=100), range(3))
    assert (tr.temperature == 0.0).any() and not tr.delta_e.any()
    assert tr.accepted.all() and np.array_equal(tr.accepted, _reference_accepts(tr))


def test_hit_path_memory_does_not_grow_with_iters():
    # the hit path keeps one BLOCK of buffers, never (iters, R) histories:
    # its peak is under 4 arrays of BLOCK * R * n doubles (2.6 MB each here),
    # where five float histories of 3000 iterations alone take 31 MB
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    cells = [(make_evaluator(g, 13), range(HIT_CHUNK))]
    s = Schedule(t0=5.0, rate=0.995, iters=3000)
    optimal_hits(cells, g, Schedule(t0=5.0, rate=0.9, iters=10), best)  # warm up
    tracemalloc.start()
    try:
        optimal_hits(cells, g, s, best)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * BLOCK * HIT_CHUNK * g.n * 8


def _spy_batches(monkeypatch):
    """Patch the engine so each batch records the end of its last block:
    `s.iters` for a batch stepped to the end, less for one that stopped."""
    ends = []
    step = engine._lockstep

    def spy(*args, **kwargs):
        for out in step(*args, **kwargs):
            yield out
        ends.append(out[0].stop)

    monkeypatch.setattr(engine, "_lockstep", spy)
    return ends


def _even_cycle(n):
    # every maximum cut alternates the spins; flipping one spin of it costs
    # its two unit edges, so each single-spin neighbour reads 4 below it
    return WeightedGraph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


_CYCLE_SCHEDULE = Schedule(t0=8.0, rate=0.99, iters=768)


def _gap_block(s, n, gap):
    """The first block end from which every move flips one spin and every
    temperature lies below gap / 40."""
    t, m = s.temperatures(), s.flip_counts(n)
    return next(k for k in range(BLOCK, s.iters, BLOCK) if 40.0 * t[k] < gap and (m[k:] == 1).all())


def test_freeze_stop_fires_at_the_block_the_gap_predicts(monkeypatch):
    n, gap = 8, 4.0
    g = _even_cycle(n)
    ev = make_evaluator(g)
    alt = np.array([1.0, -1.0] * (n // 2))
    ens = ev.ensemble
    near = alt * (1.0 - 2.0 * np.eye(n))
    readouts = frames(ens, np.vstack([alt, near])) @ ens.g
    assert np.allclose(readouts[0] - readouts[1:], gap, rtol=0, atol=1e-12)
    s = _CYCLE_SCHEDULE
    fires = _gap_block(s, n, gap)
    t = s.temperatures()
    assert 40.0 * t[fires - BLOCK] > 1.5 * gap and 40.0 * t[fires] < 0.9 * gap
    seeds = range(12)
    trace = anneal(ev, g, s, seeds)
    # every run holds a maximum cut a block earlier: only the bound on T
    # holds the stop back until `fires`
    assert (trace.cut[:, fires - BLOCK - 1] == n).all()

    ends = _spy_batches(monkeypatch)
    finals = _spy_finals(monkeypatch)
    assert optimal_hits([(ev, seeds)], g, s, float(n)) == [len(seeds)]
    assert ends == [fires]
    assert np.array_equal(finals[0], trace.final_state)


@pytest.mark.parametrize("rate, iters", [(0.97, 600), (0.98, 900)])
def test_frozen_batches_stop_with_the_final_states_of_single_runs(monkeypatch, rate, iters):
    # noiseless cells in two batches of HIT_CHUNK = 32; the spy on the
    # engine records the main call only, as the check undoes every patch
    monkeypatch.setattr(engine, "HIT_CHUNK", 32)
    ends = _spy_batches(monkeypatch)
    check_mixed_cells(monkeypatch, rate, iters, [(3, 0.0, 10), (13, 0.0, 20), (20, 0.0, 30)])
    assert len(ends) == 2 and max(ends) < iters  # both batches stopped


def test_batches_that_cannot_be_proved_frozen_step_to_the_end(monkeypatch):
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    span = estimate_span(make_evaluator(g).ensemble, samples=1000, rng=np.random.default_rng(1))
    noiseless = [(3, 0.0, 20), (13, 0.0, 20), (20, 0.0, 20)]
    frozen = Schedule(t0=span, rate=0.97, iters=600)
    ends = _spy_batches(monkeypatch)
    optimal_hits(_hit_cells(g, span, noiseless), g, frozen, best)
    # the same batch with one noisy row
    optimal_hits(_hit_cells(g, span, noiseless + [(13, 0.02, 1)]), g, frozen, best)
    # a 4-cycle settles in a maximum cut, every single-spin neighbour 4
    # above it, but every move flips 2 spins or more to the end
    square = _even_cycle(4)
    many = Schedule(t0=1e-6, rate=0.999, iters=640)
    assert many.flip_counts(4)[-1] == 2
    assert optimal_hits([(make_evaluator(square), range(12))], square, many, 4.0) == [12]
    # at T = 0.0 the cycle's runs settle in a maximum cut and stop, while
    # an edgeless graph has only level moves, which are always accepted
    underflow = Schedule(t0=1e-300, rate=0.5, iters=640)
    cycle, edgeless = _even_cycle(8), WeightedGraph(8)
    assert optimal_hits([(make_evaluator(cycle), range(12))], cycle, underflow, 8.0) == [12]
    optimal_hits([(make_evaluator(edgeless), range(12))], edgeless, underflow, 0.0)
    # the 8-cycle once more, with a ninth, isolated vertex: flipping it is
    # a level move, so the batch steps on, and that spin keeps changing
    lone = WeightedGraph(9, cycle.edges)
    ev = make_evaluator(lone)
    finals = _spy_finals(monkeypatch)
    assert optimal_hits([(ev, range(12))], lone, _CYCLE_SCHEDULE, 8.0) == [12]
    assert np.array_equal(finals[0], anneal(ev, lone, _CYCLE_SCHEDULE, range(12)).final_state)
    assert ends[0] < 600 and ends[1:3] == [600, 640]
    assert ends[3] < 640 and ends[4:6] == [640, _CYCLE_SCHEDULE.iters]


def test_a_zero_draw_is_floored_and_the_batch_still_stops(monkeypatch):
    g = _even_cycle(8)
    ev = make_evaluator(g)
    s = _CYCLE_SCHEDULE
    fires = _gap_block(s, 8, 4.0)
    seeds = range(12)
    plain = anneal(ev, g, s, seeds)

    class ZeroAt(np.random.Generator):
        # a stream whose draw at iteration `fires` is exactly 0.0
        drawn = 0

        def random(self, *args, out=None, **kwargs):
            u = super().random(*args, out=out, **kwargs)
            if self.drawn <= fires < self.drawn + u.size:
                u[fires - self.drawn] = 0.0
            self.drawn += u.size
            return u

    default_rng = np.random.default_rng

    def rng(seed=None):
        # a run's Metropolis stream is the second its seed spawns
        if isinstance(seed, np.random.SeedSequence) and seed.spawn_key == (1,):
            return ZeroAt(np.random.PCG64(seed))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    ends = _spy_batches(monkeypatch)
    finals = _spy_finals(monkeypatch)
    assert optimal_hits([(ev, seeds)], g, s, 8.0) == [len(seeds)]
    assert ends == [fires]
    assert np.array_equal(finals[0], plain.final_state)
    # the floored 0.0 rejects an uphill move that a raw 0.0 would accept,
    # as its p = exp(-d_e / T), about e**-45, is above 0
    tr = anneal(ev, g, s, seeds)
    assert (tr.uniform[:, fires] == 2.0 ** -53).all() and (tr.delta_e[:, fires] > 0).all()
    p = np.exp(-tr.delta_e[:, fires] / tr.temperature[fires])
    assert ((0.0 < p) & (p < 2.0 ** -53)).all()
    assert not tr.accepted[:, fires].any()
    assert np.array_equal(tr.final_state, plain.final_state)


def test_fetches_of_n_blocks_step_like_single_runs(monkeypatch):
    # at n = 8 the single-spin phase fetches 8 blocks of draws per call; here
    # it runs from iteration 192 to 1500, two whole fetches and a partial one
    # that ends in a partial block.  The noisy cell keeps the batch stepping
    # to the end, and noiseless runs retire inside the first fetch and the
    # second, so the later fetches hold fewer runs than the batch.  Each
    # block's move and Metropolis draws are its live runs' own, in run order.
    g = gen_regular(8, 3, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    span = estimate_span(make_evaluator(g).ensemble, samples=200, rng=np.random.default_rng(0))
    s = Schedule(t0=span, rate=0.99, iters=1500)
    switch = 3 * BLOCK  # the first block whose moves all flip one spin
    assert s.flip_counts(g.n)[switch - BLOCK] > 1 == s.flip_counts(g.n)[switch]
    cells = _hit_cells(g, span, [(3, 0.0, 6), (5, 0.0, 6), (8, 0.02, 2), (8, 0.0, 6)])
    drawn = []  # per block of the phase, its picks' draws and then its Metropolis draws
    picks, threshold = engine._picks, engine._threshold

    def spy_threshold(u, neg_t, out):
        if drawn:  # the frames path thresholds before the phase's first pick
            drawn[-1].append(u.copy())
        return threshold(u, neg_t, out)

    monkeypatch.setattr(engine, "_picks", lambda draws, n: drawn.append([draws.copy()]) or picks(draws, n))
    monkeypatch.setattr(engine, "_threshold", spy_threshold)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    # run r's stream values after the frames path's blocks
    cols = -(-(s.iters - switch) // BLOCK) * BLOCK
    streams = []
    for _, seeds in cells:
        for seed in seeds:
            move, unif = (np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[i]) for i in (0, 1))
            random_state(g.n, move)
            move.random((switch, g.n))
            unif.random(switch)
            streams.append((move.random(cols), unif.random(cols)))
    runs = []  # the live runs of each block of the phase
    for k, (moves, draws) in enumerate(drawn):
        block = slice(k * BLOCK, k * BLOCK + moves.shape[1])
        rows = [[r for r, (m, _) in enumerate(streams) if np.array_equal(row, m[block])] for row in moves]
        assert all(len(row) == 1 for row in rows), k
        runs.append([row[0] for row in rows])
        assert runs[-1] == sorted(runs[-1]) and set(runs[-1]) <= set(runs[max(k - 1, 0)])
        assert np.array_equal(draws, [streams[r][1][block] for r in runs[-1]]), k
    live = [len(r) for r in runs]
    assert len(live) == -(-(s.iters - switch) // BLOCK) and 2 * g.n < len(live) < 3 * g.n
    assert s.iters % BLOCK
    retired = [k for k in range(1, len(live)) if live[k] < live[k - 1]]
    assert any(k < g.n for k in retired) and any(k > g.n and k % g.n for k in retired)
    assert runs[0] == list(range(20)) and runs[-1] == [12, 13]  # the noisy runs
    singles = [anneal(ev, g, s, seeds) for ev, seeds in cells]
    assert np.array_equal(finals[0], np.concatenate([tr.final_state for tr in singles]))
    assert hits == [int(np.sum(np.abs(tr.final_cut - best) <= CUT_MATCH_TOL)) for tr in singles]
    assert 0 < sum(hits) < 20


def _hit_batches_match_single_runs(monkeypatch, g, sizes, s):
    """`optimal_hits` over `_hit_cells` of (K, noise level, runs) triples,
    against single-run `anneal`: every run's final state and every cell's
    hits.  Undoes every patch; returns the cells' single-run traces."""
    best, _ = brute_force_maxcut(g)
    span = estimate_span(make_evaluator(g).ensemble, samples=1000, rng=np.random.default_rng(1))
    cells = _hit_cells(g, span, sizes)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s(span), best)
    monkeypatch.undo()
    singles = [anneal(ev, g, s(span), seeds) for ev, seeds in cells]
    assert np.array_equal(np.concatenate(finals), np.concatenate([tr.final_state for tr in singles]))
    assert hits == [int(np.sum(np.abs(tr.final_cut - best) <= CUT_MATCH_TOL)) for tr in singles]
    assert 0 < sum(hits) < sum(runs for *_, runs in sizes)  # both outcomes occur
    return singles


def _single_spin_start(s, n):
    return next(b0 for b0 in range(0, s.iters, BLOCK) if s.flip_counts(n)[b0] == 1)


def test_an_accept_in_a_blocks_last_iteration_ends_the_runs_rounds(monkeypatch):
    # a run whose accept falls in its block's last iteration has nothing
    # left to decide there and leaves the rounds; every cell has such
    # accepts in the single-spin phase
    g = gen_regular(8, 3, 0.0, 1.0, seed=0)
    ends = _spy_batches(monkeypatch)
    singles = _hit_batches_match_single_runs(
        monkeypatch, g, [(4, 0.0, 12), (8, 0.0, 12)], lambda span: Schedule(span, 0.99, 1024))
    k = np.arange(1024)
    last = (k % BLOCK == BLOCK - 1) & (k >= _single_spin_start(Schedule(1.0, 0.99, 1024), g.n))
    assert all(tr.accepted[:, last].sum() >= 4 for tr in singles)
    assert ends[0] < 1024  # the batch retired, so every accept above was a live run's


def test_a_partial_last_block_decides_noisy_and_noiseless_rows_together(monkeypatch):
    # 500 iterations end in a block of 52; the noisy cell keeps the batch
    # stepping into it, and runs of every cell, noiseless too, accept there
    g = gen_regular(12, 3, 0.0, 1.0, seed=0)
    ends = _spy_batches(monkeypatch)
    singles = _hit_batches_match_single_runs(
        monkeypatch, g, [(6, 0.0, 12), (12, 0.02, 12), (12, 0.0, 12)],
        lambda span: Schedule(span, 0.99, 500))
    assert ends == [500] and 500 % BLOCK == 52
    assert _single_spin_start(Schedule(1.0, 0.99, 500), g.n) < 500 - 52
    assert all(tr.accepted[:, -52:].any() for tr in singles)


def test_a_cell_split_across_two_hit_batches(monkeypatch):
    # HIT_CHUNK = 16 puts the first two cells and 2 runs of the third, three
    # K groups, in one batch and the third cell's other 8 runs in a second;
    # the split cell is noisy, so both batches step to the end
    monkeypatch.setattr(engine, "HIT_CHUNK", 16)
    ends = _spy_batches(monkeypatch)
    _hit_batches_match_single_runs(
        monkeypatch, gen_regular(20, 5, 0.0, 1.0, seed=0), [(3, 0.0, 6), (13, 0.0, 8), (20, 0.02, 10)],
        lambda span: Schedule(span, 0.98, 600))
    assert ends == [600, 600]


def _paper_case():
    """The criterion-6 instance and the paper's schedule: t0 the full-K
    readout span, rate 0.995, 3000 iterations."""
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    rng = np.random.default_rng(np.random.SeedSequence([0, LBL_SPAN, 20]))
    span = estimate_span(make_evaluator(g).ensemble, samples=1000, rng=rng)
    return g, brute_force_maxcut(g)[0], span, Schedule(t0=span, rate=0.995, iters=3000)


def test_hit_batches_end_where_single_runs_end_at_the_paper_schedule(monkeypatch):
    # analytic cells, noisy included, take the local-field phase; a field
    # cell steps every iteration through `frames` to the end
    g, best, span, s = _paper_case()
    analytic = _hit_cells(g, span, [(3, 0.0, 16), (13, 0.0, 16), (20, 0.0, 16), (20, 0.02, 16)])
    field = [(make_evaluator(g, 5, backend="field"), range(500, 503))]
    ends = _spy_batches(monkeypatch)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(analytic, g, s, best) + optimal_hits(field, g, s, best)
    monkeypatch.undo()
    assert len(finals) == len(ends) == 2 and ends[1] == s.iters
    singles = [anneal(ev, g, s, seeds) for ev, seeds in analytic + field]
    assert np.array_equal(np.concatenate(finals),
                          np.concatenate([tr.final_state for tr in singles]))
    assert hits == [int(np.sum(np.abs(tr.final_cut - best) <= CUT_MATCH_TOL)) for tr in singles]
    assert 0 < sum(hits) < 67


def test_one_field_cell_steps_the_whole_batch_through_frames(monkeypatch):
    # the local-field phase is a rule per batch: the analytic cells,
    # noiseless and noisy, take it on their own, but one field cell in the
    # same `optimal_hits` call steps every run through `frames` to the end
    g, best, span, s = _paper_case()
    analytic = _hit_cells(g, span, [(13, 0.0, 4), (20, 0.02, 4)])
    cells = analytic + [(make_evaluator(g, 5, backend="field"), range(500, 503))]
    switches = []
    fields = engine._LocalFields
    monkeypatch.setattr(engine, "_LocalFields", lambda *a: switches.append(a) or fields(*a))
    optimal_hits(analytic, g, s, best)
    assert len(switches) == 1
    switches.clear()
    ends = _spy_batches(monkeypatch)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert not switches and ends == [s.iters] and len(finals) == 1
    singles = [anneal(ev, g, s, sd) for ev, seeds in cells for sd in seeds]
    assert np.array_equal(finals[0], np.stack([tr.final_state for tr in singles]))
    per_run = iter(abs(tr.final_cut - best) <= CUT_MATCH_TOL for tr in singles)
    assert hits == [sum(next(per_run) for _ in seeds) for _, seeds in cells]


@pytest.mark.parametrize("sizes, backend", [
    ([(13, 0.0, 6), (20, 0.0, 6)], "analytic"),  # switches to local fields
    ([(13, 0.0, 3), (20, 0.02, 3)], "analytic"),  # switches, and steps to the end
    ([(13, 0.0, 3)], "field"),                    # never switches
])
def test_hit_batches_yield_only_their_states(monkeypatch, sizes, backend):
    # every block of a hit batch yields its slice and the (1, R, n) states
    # at its end, before the local-field switch as after it: the states a
    # recording batch of the same runs holds there.  The last ones are
    # those `optimal_hits` scores, the final states of single runs.
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    span = estimate_span(make_evaluator(g).ensemble, samples=1000, rng=np.random.default_rng(1))
    s = Schedule(t0=span, rate=0.97, iters=600)
    cells = [(make_evaluator(g, K, level * span, backend), seeds)
             for (K, level, _), (_, seeds) in zip(sizes, _hit_cells(g, span, sizes))]
    runs = [(ev, sd) for ev, seeds in cells for sd in seeds]
    blocks = [(blk, rest, states.copy())
              for blk, *rest, states in engine._lockstep(runs, g, s, stop_frozen=True)]
    recorded = [states[-1].copy() for *_, states in engine._lockstep(runs, g, s)]
    assert [blk for blk, *_ in blocks] == [slice(b0, min(b0 + BLOCK, s.iters))
                                           for b0 in range(0, blocks[-1][0].stop, BLOCK)]
    for (_, rest, states), want in zip(blocks, recorded):
        assert all(item is None for item in rest) and states.shape == (1, len(runs), g.n)
        assert np.array_equal(states[0], want)
    switch = _single_spin_start(s, g.n)
    assert blocks[0][0].start < switch < blocks[-1][0].start
    noiseless = all(ev.sigma == 0 for ev, _ in cells)
    assert (blocks[-1][0].stop < s.iters) == (noiseless and backend == "analytic")

    finals = _spy_finals(monkeypatch)
    optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert np.array_equal(finals[0], blocks[-1][2][0])
    assert np.array_equal(finals[0], np.concatenate([anneal(ev, g, s, seeds).final_state
                                                     for ev, seeds in cells]))


def test_local_fields_track_the_frames_readout(monkeypatch):
    # after every accept of the single-spin phase, on a noiseless and a
    # noisy cell, each accepting run's h is x @ J_K and each entry p of its D
    # row is the frames-path step readout(x) - readout(x with spin p
    # flipped), both within 1e-12 * |J_K|_F * n
    g, best, span, s = _paper_case()
    cells = _hit_cells(g, span, [(13, 0.0, 6), (13, 0.02, 6)])
    couplings = [(ev.ensemble.xi.T * ev.ensemble.g) @ ev.ensemble.xi for ev, _ in cells]
    neighbours = 1.0 - 2.0 * np.eye(g.n)  # row p flips spin p
    flip = engine._LocalFields.flip
    accepts = np.zeros(12, dtype=int)

    def checked(fields, runs, spins):
        flip(fields, runs, spins)
        for r in runs:
            ens, J = cells[fields.group[r]][0].ensemble, couplings[fields.group[r]]
            x = fields.x[r]
            bound = 1e-12 * np.linalg.norm(J) * g.n
            assert np.max(np.abs(fields.h[r] - x @ J)) <= bound
            read = frames(ens, np.vstack([x, x * neighbours])) @ ens.g
            assert np.max(np.abs(fields.D[r] - (read[0] - read[1:]))) <= bound
        accepts[runs] += 1

    monkeypatch.setattr(engine._LocalFields, "flip", checked)
    optimal_hits(cells, g, s, best)
    assert (accepts > 0).all() and accepts.sum() > 200


def test_uphill_decisions_are_far_from_the_readout_rounding():
    # an uphill move is accepted iff d_e + T ln u < 0, so |d_e + T ln u| is
    # how far d_e may move before its decision flips.  On the criterion-6
    # instance every such margin exceeds both a rounding bound on d_e,
    # 64 n K eps max|readout|, and the drift bound that
    # test_local_fields_track_the_frames_readout holds the local fields to,
    # by four orders of magnitude (smallest, under RNG contract v3: 7.4e-5,
    # 1.1e-3 and 2.9e-4 at K = 3, 13 and 20, against 1.5e-11 to 1.3e-10).
    # No downhill or level decision has |d_e| inside the rounding bound
    # either (smallest: 1.2e-5, 1.7e-3 and 6.6e-4).
    g, _, _, s = _paper_case()
    # Excluded: schedules whose T underflows to 0.0, the t0 = 1e-300 cases
    # of test_metropolis_matches_the_reference_rule,
    # test_level_moves_are_accepted_at_zero_temperature and
    # test_batches_that_cannot_be_proved_frozen_step_to_the_end.  There an
    # uphill margin is d_e itself, and a level move has none.  Also excluded
    # by name: the first six iterations, whose moves flip all 20 spins, so a
    # noiseless d_e is exactly 0, as in the pinned-instance audit below.
    assert (s.temperatures() > 0.0).all()
    every = s.flip_counts(g.n) == g.n
    assert every.tolist() == [True] * 6 + [False] * (s.iters - 6)
    for K in (3, 13, 20):
        ev = make_evaluator(g, K)
        tr = anneal(ev, g, s, range(32))
        uphill = tr.delta_e > 0
        t = np.broadcast_to(tr.temperature, uphill.shape)[uphill]
        margin = np.abs(tr.delta_e[uphill] + t * np.log(tr.uniform[uphill]))
        rounding = 64 * g.n * K * np.finfo(float).eps * np.max(np.abs(tr.hrv))
        J = (ev.ensemble.xi.T * ev.ensemble.g) @ ev.ensemble.xi
        drift = 1e-12 * np.linalg.norm(J) * g.n
        assert uphill.sum() > 50_000
        assert margin.min() > 1e4 * max(rounding, drift), K
        assert (tr.delta_e[:, every] == 0.0).all()
        d_e = tr.delta_e[:, ~every]
        assert (d_e <= 0).sum() > 5000
        assert np.abs(d_e[d_e <= 0]).min() > rounding, K


@pytest.mark.parametrize("backend, level", [("analytic", 0.0), ("analytic", 0.02),
                                            ("field", 0.0), ("field", 0.02)])
def test_pinned_decisions_are_far_from_the_readout_rounding(backend, level):
    # the audit above on the n = 16, K = 11 instance of the pinned histories:
    # every uphill margin |d_e + T ln u| exceeds the rounding bound
    # 64 n K eps max|readout| by 10^4 (smallest: 2.0e-4, against 2.3e-11), and
    # no downhill or level decision has |d_e| inside it.  Excluded by name:
    # * T = 0.0 (the t0 = 1e-300 cases listed in the audit above); this
    #   schedule stays above 0.29;
    # * the first two iterations, whose moves flip all 16 spins: the readout
    #   of -x is the readout of x bit for bit, so a noiseless d_e is exactly 0
    #   and its acceptance needs no margin.
    g, K, tr = _pinned_trace(backend, level, 70)
    assert (tr.temperature > 0.0).all()
    every = tr.flips == g.n
    assert every.tolist() == [True, True] + [False] * (tr.iters - 2)
    assert (tr.delta_e[:, every] == 0.0).all() if level == 0.0 else tr.delta_e[:, every].all()
    d_e, u = tr.delta_e[:, ~every], tr.uniform[:, ~every]
    t = np.broadcast_to(tr.temperature[~every], d_e.shape)
    rounding = 64 * g.n * K * np.finfo(float).eps * np.max(np.abs(tr.hrv))
    uphill = d_e > 0
    assert uphill.sum() > 9000 and (~uphill).sum() > 3000
    assert np.abs(d_e[uphill] + t[uphill] * np.log(u[uphill])).min() > 1e4 * rounding
    assert np.abs(d_e[~uphill]).min() > rounding


def _frames_calls(monkeypatch):
    """Patch the engine's readout kernel to record the K of every call."""
    ks = []
    read = engine.frames
    monkeypatch.setattr(engine, "frames", lambda ens, *a, **k: ks.append(ens.K) or read(ens, *a, **k))
    return ks


def test_cells_of_one_eigenbasis_share_one_read_per_step(monkeypatch):
    # K = 3, 13 and 20 cut from one decomposition are the first rows of
    # the K = 20 ensemble, so their hit batch reads every step with one
    # `frames` call on that ensemble, as many calls as the K = 20 cell alone
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    b = eigendecompose(from_graph(g))
    best, _ = brute_force_maxcut(g)
    s = Schedule(t0=10.0, rate=0.97, iters=600)
    cells = [(HrvEvaluator(build_ensemble(b, K)), range(100 * K, 100 * K + 12)) for K in (3, 13, 20)]
    ks = _frames_calls(monkeypatch)
    optimal_hits(cells[-1:], g, s, best)
    alone = list(ks)
    ks.clear()
    finals = _spy_finals(monkeypatch)
    optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert ks == alone and set(ks) == {20}
    assert len(ks) == _single_spin_start(s, g.n) + 1  # the start and each frames-path step
    assert np.array_equal(finals[0], np.concatenate([anneal(ev, g, s, seeds).final_state
                                                     for ev, seeds in cells]))


def test_a_cell_off_the_eigenbasis_reads_on_its_own(monkeypatch):
    # P = 2.0 scales every xi, so that cell is no prefix of the widest
    # ensemble: the batch reads each cell by itself, and still ends in the
    # final states of single runs
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    b = eigendecompose(from_graph(g))
    best, _ = brute_force_maxcut(g)
    s = Schedule(t0=10.0, rate=0.97, iters=600)
    evs = [HrvEvaluator(build_ensemble(b, 8, P=2.0)), HrvEvaluator(build_ensemble(b, 13)),
           HrvEvaluator(build_ensemble(b, 20))]
    cells = [(ev, range(40 * i, 40 * i + 10)) for i, ev in enumerate(evs)]
    ks = _frames_calls(monkeypatch)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert sorted(set(ks)) == [8, 13, 20] and len(ks) == 3 * (_single_spin_start(s, g.n) + 1)
    singles = [anneal(ev, g, s, seeds) for ev, seeds in cells]
    assert np.array_equal(finals[0], np.concatenate([tr.final_state for tr in singles]))
    assert hits == [int(np.sum(reaches_optimum(tr.final_cut, best, g))) for tr in singles]


def test_noise_levels_of_one_ensemble_share_one_read(monkeypatch):
    # the noise study's batch: one ensemble object at a noiseless and two
    # noisy levels.  Its one read adds each row's noise, 0 on noiseless rows.
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    best, _ = brute_force_maxcut(g)
    ens = make_evaluator(g, 13).ensemble
    span = estimate_span(ens, samples=1000, rng=np.random.default_rng(1))
    s = Schedule(t0=span, rate=0.97, iters=600)
    cells = [(HrvEvaluator(ens, sigma=lv * span), range(100 * i, 100 * i + 10))
             for i, lv in enumerate((0.0, 0.02, 0.05))]
    ks = _frames_calls(monkeypatch)
    finals = _spy_finals(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert len(ks) == _single_spin_start(s, g.n) + 1  # one read per frames-path step
    singles = [anneal(ev, g, s, seeds) for ev, seeds in cells]
    assert np.array_equal(finals[0], np.concatenate([tr.final_state for tr in singles]))
    assert hits == [int(np.sum(reaches_optimum(tr.final_cut, best, g))) for tr in singles]
    assert 0 < sum(hits) < 30


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("single_spin", [False, True])
def test_flip_signs_order_keys_by_their_int64_bits(tied, single_spin):
    # the smallest and largest keys a draw can give, 0.0 and 1 - 2**-53, and
    # the smallest above 0, 2**-53: each row a shuffle of them and 17 other
    # distinct keys, or, tied, a draw from them and two more values
    rng = np.random.default_rng(12)
    R, n = 16, 20
    edges = [0.0, 2.0 ** -53, 1.0 - 2.0 ** -53]
    if tied:
        keys = rng.choice(np.array(edges + [0.25, 0.5]), size=(R, BLOCK, n))
    else:
        keys = rng.permuted(np.broadcast_to(edges + list(rng.random(n - 3)), (R, BLOCK, n)), axis=-1)
    m = np.ones(BLOCK, dtype=np.int64) if single_spin else rng.integers(1, n + 1, BLOCK)
    signs = np.empty((BLOCK, R, n))
    _flip_signs(keys, m, signs.transpose(1, 0, 2))
    assert np.array_equal(signs, _parent_flip_signs(keys.transpose(1, 0, 2), m))


def test_hit_batches_sample_the_exact_law_of_their_chain(monkeypatch):
    # 3000 runs per cell against the chain of the module docstring, whose
    # law `exact_chain` computes over all 256 states: a two-sided exact
    # binomial test at 1e-6.  The schedule switches to local fields at
    # iteration 128.  The K = 3 and K = 8 cells alternate in stretches of
    # 128 runs, so every batch of 256 holds both and reads them in one
    # product; the K = 5 cell is a batch of its own.  Seeds fixed in advance.
    monkeypatch.setattr(engine, "HIT_CHUNK", 256)
    runs = 3000
    g = gen_regular(8, 5, 0.0, 1.0, seed=0)
    b = eigendecompose(from_graph(g))
    best, _ = brute_force_maxcut(g)
    ens = {K: build_ensemble(b, K) for K in (3, 5, 8)}
    s = Schedule(t0=estimate_span(ens[8], samples=200, rng=np.random.default_rng(0)),
                 rate=0.98, iters=300)
    assert s.flip_counts(g.n)[0] == g.n and _single_spin_start(s, g.n) == 128
    mixed = [(HrvEvaluator(ens[K]), range(first + i, first + min(i + 128, runs)))
             for i in range(0, runs, 128) for K, first in ((3, 10_000), (8, 20_000))]
    ks = _frames_calls(monkeypatch)
    hits = optimal_hits(mixed, g, s, best)
    assert set(ks) == {8}
    ks.clear()
    hits5 = optimal_hits([(HrvEvaluator(ens[5]), range(30_000, 30_000 + runs))], g, s, best)
    assert set(ks) == {5}
    monkeypatch.undo()
    for K, k in ((3, sum(hits[0::2])), (8, sum(hits[1::2])), (5, hits5[0])):
        p = hit_probability(ens[K], g, s, best)
        assert 0.4 < p < 0.7  # both outcomes are common
        assert binomial_two_sided(k, runs, p) > 1e-6, (K, k, p)


def _exact_law_case(degree, seed, low=0.0):
    """(graph, decomposition, maximum cut, K = 8 span) of gen_regular(8, degree, low, 1.0, seed)."""
    g = gen_regular(8, degree, low, 1.0, seed=seed)
    b = eigendecompose(from_graph(g))
    span = estimate_span(build_ensemble(b, 8), samples=200, rng=np.random.default_rng(0))
    return g, b, brute_force_maxcut(g)[0], span


def _assert_exact_law(g, s, best, counts):
    """Each (ensemble, hits, runs) of `counts` passes a two-sided exact
    binomial test at 1e-6 against the chain's p, and both outcomes are common."""
    for ens, k, runs in counts:
        p = hit_probability(ens, g, s, best)
        assert 0.05 < p < 0.95
        assert binomial_two_sided(k, runs, p) > 1e-6, (ens.K, k, runs, p)


# The cases below take their graphs and schedules from the chain's p alone,
# and their run seeds were fixed before the engine first ran them.

def test_hit_batches_sample_the_exact_law_where_t_reaches_zero(monkeypatch):
    # t0 = 2**-1040 halves to 0.0 from iteration 35, inside the first block,
    # so the frames path decides at T = 0.0 and the freeze bound at the
    # switch is 0.0 itself, which only a run with a move of d_e <= 0
    # outlives.  K = 5 and K = 8 alternate in stretches of 128 runs, so
    # every batch reads both in one product; their p are 0.54 and 0.16.
    monkeypatch.setattr(engine, "HIT_CHUNK", 256)
    g, b, best, _ = _exact_law_case(3, 3)
    s = Schedule(t0=2.0 ** -1040, rate=0.5, iters=100)
    t = s.temperatures()
    assert t[34] > 0.0 and t[35] == 0.0 and _single_spin_start(s, g.n) == BLOCK
    ens = {K: build_ensemble(b, K) for K in (5, 8)}
    cells = [(HrvEvaluator(ens[K]), range(first + i, first + i + 128))
             for i in range(0, 2048, 128) for K, first in ((5, 40_000), (8, 45_000))]
    ks = _frames_calls(monkeypatch)
    ends = _spy_batches(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    _assert_exact_law(g, s, best, [(ens[5], sum(hits[0::2]), 2048), (ens[8], sum(hits[1::2]), 2048)])
    assert set(ks) == {8} and min(ends) == BLOCK  # a batch whose every d_e > 0 at the switch


def test_hit_batches_sample_the_exact_law_with_signed_weights(monkeypatch):
    # weights in [-1, 1]; K = 3 and K = 8 alternate in stretches of 128 runs,
    # so every batch of 256 reads both in one product, whose weights are zero
    # past a row's K; their p are 0.42 and 0.92
    monkeypatch.setattr(engine, "HIT_CHUNK", 256)
    g, b, best, span = _exact_law_case(3, 0, low=-1.0)
    s = Schedule(t0=span, rate=0.98, iters=300)
    ens = {K: build_ensemble(b, K) for K in (3, 8)}
    cells = [(HrvEvaluator(ens[K]), range(first + i, first + i + 128))
             for i in range(0, 2048, 128) for K, first in ((3, 50_000), (8, 60_000))]
    ks = _frames_calls(monkeypatch)
    hits = optimal_hits(cells, g, s, best)
    monkeypatch.undo()
    assert set(ks) == {8}
    _assert_exact_law(g, s, best, [(ens[3], sum(hits[0::2]), 2048), (ens[8], sum(hits[1::2]), 2048)])


def test_a_cell_split_across_hit_batches_samples_the_exact_law(monkeypatch):
    # HIT_CHUNK = 700 splits one cell of 2000 runs into batches of 700, 700
    # and 600, each reading its one cell through the one-plan weighted sum
    monkeypatch.setattr(engine, "HIT_CHUNK", 700)
    g, b, best, span = _exact_law_case(3, 3)
    s = Schedule(t0=span, rate=0.97, iters=300)
    ens = build_ensemble(b, 5)
    finals = _spy_finals(monkeypatch)
    (hits,) = optimal_hits([(HrvEvaluator(ens), range(70_000, 72_000))], g, s, best)
    monkeypatch.undo()
    assert [len(x) for x in finals] == [700, 700, 600]
    _assert_exact_law(g, s, best, [(ens, hits, 2000)])


def test_a_field_cell_samples_the_exact_law(monkeypatch):
    # the field backend reads every iteration through `frames`, to the end.
    # The last move flips 2 spins (8 * 0.98**79 = 1.63), so the runs end at
    # states no pair flip improves on, a law that single-spin moves miss.
    g, b, best, span = _exact_law_case(3, 2)
    s = Schedule(t0=0.1 * span, rate=0.98, iters=80)
    assert round(g.n * s.rate ** 79) == 2  # the docstring's rule, as `exact_chain` applies it
    ens = build_ensemble(b, 5)
    ends = _spy_batches(monkeypatch)
    (hits,) = optimal_hits([(HrvEvaluator(ens, backend="field"), range(80_000, 80_800))], g, s, best)
    monkeypatch.undo()
    assert ends == [80] * 4
    _assert_exact_law(g, s, best, [(ens, hits, 800)])


def test_runs_that_retire_early_sample_the_exact_law(monkeypatch):
    # a degree-3 graph at rate 0.95 over 640 iterations: every run retires
    # well before the last block, so the freeze bound decides where each ends
    g, b, best, span = _exact_law_case(3, 3)
    s = Schedule(t0=span, rate=0.95, iters=640)
    ens = build_ensemble(b, 5)
    ends = _spy_batches(monkeypatch)
    (hits,) = optimal_hits([(HrvEvaluator(ens), range(90_000, 92_000))], g, s, best)
    monkeypatch.undo()
    assert max(ends) <= s.iters // 2
    _assert_exact_law(g, s, best, [(ens, hits, 2000)])
