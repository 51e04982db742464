import math

import numpy as np
import pytest

from optising.anneal import (
    CUT_MATCH_TOL,
    RUN_CHUNK,
    Schedule,
    anneal,
    anneal_chunks,
    dump_trace,
    optimal_hits,
)
from optising.graph import WeightedGraph, gen_regular
from optising.ising import brute_force_maxcut, cut_value, from_graph
from optising.optics import HrvEvaluator, estimate_span
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
    with pytest.raises(ValueError):
        Schedule(t0=0.0, rate=0.5)
    with pytest.raises(ValueError):
        Schedule(t0=1.0, rate=1.0)
    with pytest.raises(ValueError):
        Schedule(t0=1.0, rate=0.5, iters=0)
    with pytest.raises(ValueError):
        Schedule(t0=1.0, rate=0.5, flip_floor=0)


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
    hits = sum(abs(anneal(ev, g, s, seed=100 + r).final_cut - best) <= CUT_MATCH_TOL
               for r in range(100))
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


def test_dump_trace(tmp_path, small_graph):
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.99, iters=50)
    tr = anneal(ev, small_graph, s, seed=4)
    p = tmp_path / "trace.csv"
    dump_trace(tr, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "iter,temperature,flips,hrv,cut,accepted"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 5.0


def test_estimate_optimal_probability_trivial_edge():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    ev = make_evaluator(g)
    s = Schedule(t0=2.0, rate=0.9, iters=200)  # frozen well before the end
    best, _ = brute_force_maxcut(g)
    assert optimal_hits(ev, g, s, range(10), best) == 10


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
    ev = make_evaluator(small_graph)
    s = Schedule(t0=5.0, rate=0.9, iters=60)
    seeds = range(100, 100 + RUN_CHUNK + 2)
    traces = list(anneal_chunks(ev, small_graph, s, seeds))
    assert [tr.final_state.shape[0] for tr in traces] == [RUN_CHUNK, 2]
    assert_rows_match_single_runs(ev, small_graph, s, list(seeds), traces)
    best, _ = brute_force_maxcut(small_graph)
    singles = [abs(anneal(ev, small_graph, s, sd).final_cut - best) <= CUT_MATCH_TOL
               for sd in seeds]
    hits = optimal_hits(ev, small_graph, s, seeds, best)
    assert hits == sum(singles)
    assert 0 < hits < len(singles)  # the check sees both outcomes


def test_anneal_needs_a_seed(small_graph):
    with pytest.raises(ValueError):
        anneal(make_evaluator(small_graph), small_graph, Schedule(t0=1.0, rate=0.9, iters=5), [])
