import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import optising.experiments as experiments
from conftest import random_symmetric_model
from optising.anneal import BLOCK, Schedule, _lockstep, anneal
from optising.experiments import (
    LBL_GRAPH,
    LBL_STATES,
    LBL_TRACE,
    RUN_CHUNK,
    _k_list,
    anneal_trace_study,
    config_hash,
    derive_seed,
    fit_exponential,
    json_summary,
    linear_fit,
    noise_sweep,
    probability_vs_k,
    rmse_curve_averaged,
    rmse_vs_k,
    wilson_interval,
    write_csv,
)
from optising.graph import GraphError, WeightedGraph, gen_density, gen_regular
from optising.ising import from_graph, hamiltonian, random_states
from optising.optics import HrvEvaluator, frames, hrv
from optising.spectral import build_ensemble, eigendecompose


@pytest.fixture(scope="module")
def small_instance():
    return gen_regular(6, 3, 0.0, 1.0, seed=1)


def sampled_readouts(m, samples, seed):
    """The states `rmse_vs_k(m, ks, samples, seed)` samples, rebuilt from its
    stream, with their cumulative readout (column K-1 reads K frames) and
    their exact Hamiltonian."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, LBL_STATES]))
    X = random_states(m.n, samples, rng).astype(float)
    ens = build_ensemble(eigendecompose(m), m.n)
    return X, np.cumsum(frames(ens, X) * ens.g, axis=1), hamiltonian(m, X)


def test_linear_fit_recovers_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept, r2 = linear_fit(x, 2.5 * x - 1.0)
    assert slope == pytest.approx(2.5)
    assert intercept == pytest.approx(-1.0)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_degenerate_x():
    slope, intercept, r2 = linear_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    assert slope == 0.0
    assert intercept == pytest.approx(1.0)
    assert r2 == 0.0


def scalar_linear_fit(x, y):
    """The one-sample least-squares formula `linear_fit` applies to each row."""
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


def test_linear_fit_rows_equal_one_sample_fits(rng):
    y = rng.normal(size=9)
    x = np.vstack([rng.normal(size=(3, 9)), np.full(9, 2.0), 3.0 * y - 1.0])
    rows = linear_fit(x, y)
    assert all(a.shape == (5,) for a in rows)
    for i, row in enumerate(x):
        want = scalar_linear_fit(row, y)
        assert linear_fit(row, y) == want
        assert tuple(float(a[i]) for a in rows) == want
    assert linear_fit(x[0], np.full(9, 0.5)) == scalar_linear_fit(x[0], np.full(9, 0.5))


def test_linear_fit_holds_one_scratch_block():
    x = np.random.default_rng(5).normal(size=(128, 1000))
    y = x[0] - 0.5 * x[1]
    tracemalloc.start()
    try:
        linear_fit(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes


def test_wilson_interval_against_reference():
    # reference values from statsmodels proportion_confint(method="wilson")
    assert wilson_interval(8, 10) == pytest.approx((0.49016247153664183, 0.9433178485456247))
    assert wilson_interval(0, 50) == pytest.approx((0.0, 0.07134759913335874))
    assert wilson_interval(50, 50) == pytest.approx((0.9286524008666412, 1.0))
    assert wilson_interval(47, 200) == pytest.approx((0.1815743341523259, 0.2984136888276254))


def test_wilson_interval_bounds():
    lo, hi = wilson_interval(3, 7)
    assert 0.0 <= lo <= 3 / 7 <= hi <= 1.0


@pytest.mark.parametrize("trials", [0, -1])
def test_wilson_interval_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        wilson_interval(0, trials)


def test_rmse_vs_k_full_truncation_is_exact(rng):
    m = random_symmetric_model(10, rng)
    rep = rmse_vs_k(m, ks=[10], samples=400, seed=3)
    rec = rep.by_k(10)
    assert rec.rmse <= 1e-9 * rec.span
    assert rec.slope == pytest.approx(1.0, abs=1e-9)
    assert rec.intercept == pytest.approx(0.0, abs=1e-9 * rec.span)
    assert rec.r2 == pytest.approx(1.0, abs=1e-12)


def test_rmse_vs_k_zero_truncation_limit(rng):
    # a machine of no eigenvalues reads nothing: K=0 is refused, as the CLI refuses it
    m = random_symmetric_model(7, rng)
    with pytest.raises(ValueError, match=r"ks must lie in 1\.\.7"):
        rmse_vs_k(m, ks=[0], samples=300, seed=5)


def test_rmse_vs_k_shared_states_across_k(rng):
    m = random_symmetric_model(8, rng)
    rep = rmse_vs_k(m, ks=[2, 5, 8], samples=100, seed=9)
    _, cum, ham = sampled_readouts(m, 100, 9)
    for rec in rep.records:  # every K reads the one shared batch of states
        vals = cum[:, rec.K - 1]
        assert rec.rmse == pytest.approx(float(np.sqrt(np.mean((-vals - ham) ** 2))), rel=1e-12)
        assert rec.span == float(vals.max() - vals.min())
    # at K=N the readout is exactly minus the Hamiltonian
    assert cum[:, 7] == pytest.approx(-ham, rel=1e-9, abs=1e-9)


def test_rmse_vs_k_matches_direct_readout(rng):
    # the study's batched cumulative readout against the per-state path, on
    # the states it sampled (rebuilt from the same stream)
    m = random_symmetric_model(6, rng)
    b = eigendecompose(m)
    rep = rmse_vs_k(m, ks=[1, 3, 6], samples=50, seed=13)
    X, cum, ham = sampled_readouts(m, 50, 13)
    for rec in rep.records:
        ens = build_ensemble(b, rec.K)
        vals = cum[:, rec.K - 1]
        for i, x in enumerate(X):
            assert abs(vals[i] - hrv(ens, x)) <= 1e-12 * rec.span
            assert ham[i] == pytest.approx(hamiltonian(m, x), rel=1e-12, abs=1e-12)
        resid = (-vals) - ham
        assert rec.rmse == pytest.approx(float(np.sqrt(np.mean(resid ** 2))), rel=1e-12)
    # and spot-check one state by hand
    x = np.ones(6)
    lam = b.lam[b.order[:3]]
    vec = b.vectors[:, b.order[:3]]
    manual = float(sum(l * (v @ x) ** 2 for l, v in zip(lam, vec.T)))
    assert hrv(build_ensemble(b, 3), x) == pytest.approx(manual, rel=1e-9)


def per_k_reference(m, ks, samples, seed):
    """rmse_vs_k's statistics computed one K at a time from the 1-D readout
    column of that K, as (K, slope, intercept, r2, rmse, span, rmse_relative)."""
    _, cum, ham = sampled_readouts(m, samples, seed)
    out = []
    for K in sorted(set(ks)):
        vals = cum[:, K - 1]
        resid = (-vals) - ham
        rmse = float(np.sqrt(np.mean(resid ** 2)))
        span = float(vals.max() - vals.min())
        rel = rmse / span if span > 0 else (0.0 if rmse == 0.0 else math.inf)
        out.append((K, *scalar_linear_fit(-vals, ham), rmse, span, rel))
    return out


@pytest.mark.parametrize("graph", ["regular", "density", "edgeless"])
@pytest.mark.parametrize("samples", [2, 7, 1000])
def test_rmse_vs_k_equals_per_k_reference(graph, samples):
    g = {"regular": lambda: gen_regular(12, 3, 0.0, 1.0, seed=0),
         "density": lambda: gen_density(10, 0.4, -1.0, 1.0, seed=1),
         "edgeless": lambda: WeightedGraph(6)}[graph]()
    m = from_graph(g)
    rep = rmse_vs_k(m, range(1, g.n + 1), samples, seed=4)
    got = [(r.K, r.slope, r.intercept, r.r2, r.rmse, r.span, r.rmse_relative)
           for r in rep.records]
    want = per_k_reference(m, range(1, g.n + 1), samples, seed=4)
    assert got == want
    # -0.0 == 0.0, so the signs of zeros are compared on their own
    assert [[math.copysign(1.0, v) for v in rec] for rec in got] == \
        [[math.copysign(1.0, v) for v in rec] for rec in want]
    if graph == "edgeless":  # every fit is degenerate: sxx = 0 and ss_tot = 0
        assert all(r.slope == 0.0 and r.r2 == 0.0 and r.span == 0.0 for r in rep.records)


def test_rmse_studies_sort_and_deduplicate_ks(rng):
    m = random_symmetric_model(6, rng)
    rep = rmse_vs_k(m, ks=[5, 3, 3], samples=40, seed=2)
    assert [rec.K for rec in rep.records] == [3, 5]
    ks, rmse, _, _ = rmse_curve_averaged(6, [5, 3, 3], samples=40, graph_seeds=1,
                                         seed=2, degree=3)
    assert ks == [3, 5]
    assert rmse.shape == (2,)


def test_k_list_checks_a_range_by_its_ends():
    assert _k_list([range(4, 7), 2, 5], 10) == [2, 4, 5, 6]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="ks must lie in 1..10"):
            _k_list([3, range(1, 10**12)], 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before the range is expanded
    with pytest.raises(ValueError, match="ks must lie in 1..10"):
        _k_list([range(0, 3)], 10)


def test_rmse_vs_k_validation(rng):
    m = random_symmetric_model(4, rng)
    with pytest.raises(ValueError):
        rmse_vs_k(m, ks=[5], samples=10, seed=0)
    with pytest.raises(ValueError):
        rmse_vs_k(m, ks=[2], samples=1, seed=0)


def test_rmse_curve_averaged_shapes():
    ks, rmse, rel, r2 = rmse_curve_averaged(8, [2, 4, 8], samples=100, graph_seeds=3,
                                            seed=1, degree=3)
    assert ks == [2, 4, 8]
    assert rmse.shape == (3,)
    assert rmse[-1] <= 1e-9 * max(1.0, rmse[0])
    assert np.all(rel >= 0)
    with pytest.raises(ValueError):
        rmse_curve_averaged(8, [2], 100, 2, 1)  # neither degree nor density


@pytest.mark.parametrize("graph_seeds", [1, 2, 3, 5])
def test_rmse_curve_averaged_equals_serial_loop(graph_seeds):
    ks, samples, seed = [1, 3, 7, 12], 150, 8
    got = rmse_curve_averaged(12, ks, samples, graph_seeds, seed, degree=3)
    assert got[0] == ks
    stats = np.empty((graph_seeds, len(ks), 3))
    for gs in range(graph_seeds):
        g = gen_regular(12, 3, 0.0, 1.0, seed=derive_seed(seed, LBL_GRAPH, gs))
        rep = rmse_vs_k(from_graph(g), ks, samples, seed=derive_seed(seed, LBL_STATES, gs))
        stats[gs] = [(r.rmse, r.rmse_relative, r.r2) for r in rep.records]
    for a, b in zip(got[1:], stats.mean(axis=0).T):
        assert a.tobytes() == b.tobytes()
    again = rmse_curve_averaged(12, ks, samples, graph_seeds, seed, degree=3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1:], again[1:]))


def test_rmse_curve_averaged_raises_the_first_failing_graph(monkeypatch):
    real_generate = experiments.generate
    failing = {derive_seed(0, LBL_GRAPH, gs): gs for gs in (1, 3)}
    calls = []

    def generate(*args, seed, **kwargs):
        calls.append(seed)
        if seed in failing:
            raise GraphError(f"graph {failing[seed]}")
        return real_generate(*args, seed=seed, **kwargs)

    monkeypatch.setattr(experiments, "generate", generate)
    before = threading.active_count()
    with pytest.raises(GraphError, match=r"^graph 1$"):
        rmse_curve_averaged(10, [2, 10], 100, 5, 0, degree=3)
    assert threading.active_count() == before
    assert len(calls) <= 1 + min(5, experiments._usable_cpus())


def test_each_on_threads_runs_every_index_once(monkeypatch):
    # more threads than cores and a short switch interval, so that a lost
    # or doubled index would show
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        experiments._each_on_threads(lambda i: ran.append((i, float(np.ones(50).sum()))), 400)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(i, 50.0) for i in range(400)]


def test_each_on_threads_raises_the_lowest_failing_index(monkeypatch):
    # both threads are inside a failing item before either raises
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    both_in = threading.Barrier(2, timeout=10)

    def work(i):
        both_in.wait()
        raise ValueError(i)

    with pytest.raises(ValueError) as info:
        experiments._each_on_threads(work, 4)
    assert info.value.args == (0,)


def test_each_on_threads_joins_its_workers_on_an_interrupt(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    caller = threading.current_thread()
    ran = []

    def work(i):
        ran.append(i)
        if threading.current_thread() is caller:
            raise KeyboardInterrupt
        time.sleep(0.01)

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        experiments._each_on_threads(work, 1000)
    assert threading.active_count() == before
    assert len(ran) < 1000  # no index starts once the caller is interrupted


def test_rmse_curve_averaged_checks_ks_before_any_graph(monkeypatch):
    calls = []

    def counted_gen_regular(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a graph was generated before ks was checked")

    monkeypatch.setattr("optising.graph.gen_regular", counted_gen_regular)
    with pytest.raises(ValueError, match="ks must lie in 1..20"):
        rmse_curve_averaged(20, [0, 99], 100, 3, 0, degree=3)
    assert calls == []


def test_fit_exponential_exact():
    xs = np.linspace(0.1, 1.0, 10)
    pts = [(x, 2.0 * np.exp(-3.0 * x)) for x in xs]
    fit = fit_exponential(pts)
    assert fit.A == pytest.approx(2.0, rel=1e-9)
    assert fit.B == pytest.approx(3.0, rel=1e-9)
    assert fit.D == 0.0
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.decaying


def test_fit_exponential_constant_flagged():
    fit = fit_exponential([(0.1, 1.0), (0.5, 1.0), (0.9, 1.0)])
    assert fit.B == pytest.approx(0.0, abs=1e-12)
    assert not fit.decaying


def test_fit_exponential_drops_zeros_and_guards():
    with pytest.raises(ValueError):
        fit_exponential([(0.1, 1.0), (0.2, 0.5)])
    with pytest.raises(ValueError):
        fit_exponential([(0.1, 1.0), (0.2, 0.5), (0.3, 0.0)])
    fit = fit_exponential([(0.1, 1.0), (0.2, 0.5), (0.3, 0.25), (1.0, 0.0)])
    assert fit.B > 0


def test_probability_vs_k_table(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=150)
    table = probability_vs_k(small_instance, ks=[2, 4], schedules=[s], runs=5, seed=0)
    ks = [c.K for c in table.cells]
    assert ks == [2, 4, 6]  # reference K=N appended
    ref = table.cell(0, 6)
    assert ref.is_reference
    for c in table.cells:
        assert 0.0 <= c.wilson_low <= c.probability <= c.wilson_high <= 1.0
        assert c.hits == round(c.probability * c.runs)


def test_probability_vs_k_deterministic(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=120)
    t1 = probability_vs_k(small_instance, [3], [s], runs=4, seed=7)
    t2 = probability_vs_k(small_instance, [3], [s], runs=4, seed=7)
    assert [c.hits for c in t1.cells] == [c.hits for c in t2.cells]


def test_probability_vs_k_hits_do_not_depend_on_the_weights_scale():
    # scaling the weights and t0 by a power of two scales every readout and
    # cut exactly, so the runs are the same: so must their hits be
    base = gen_regular(20, 5, seed=0)
    hits = []
    for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
        g = WeightedGraph(base.n, tuple((u, v, w * scale) for u, v, w in base.edges))
        span = experiments.readout_span(build_ensemble(eigendecompose(from_graph(g)), g.n), 0)
        table = probability_vs_k(g, [4, 13, 20], [Schedule(t0=span, rate=0.99, iters=1000)],
                                 runs=60, seed=0)
        hits.append([c.hits for c in table.cells])
    assert hits[0] == hits[1] == hits[2]
    assert 0 < sum(hits[1]) < 180


def test_noise_sweep_level_zero_reproduces_noiseless(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=150)
    noisy = noise_sweep(small_instance, K=6, levels=[0.0, 0.05], schedule=s,
                        runs=6, seed=3, span_samples=100)
    clean = probability_vs_k(small_instance, [6], [s], runs=6, seed=3)
    assert noisy.by_level(0.0).hits == clean.cell(0, 6).hits
    assert noisy.by_level(0.0).probability == clean.cell(0, 6).probability
    assert noisy.by_level(0.0).sigma == 0.0
    assert noisy.by_level(0.05).sigma == pytest.approx(0.05 * noisy.span)


def test_report_lookups_refuse_an_absent_key(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=50)
    rep = rmse_vs_k(from_graph(small_instance), [2, 4], samples=10, seed=0)
    assert rep.by_k(4).K == 4
    with pytest.raises(KeyError, match="no record for K=3"):
        rep.by_k(3)
    table = probability_vs_k(small_instance, [2], [s], runs=2, seed=0)
    assert table.cell(0, 2).K == 2
    with pytest.raises(KeyError, match="no cell for schedule 0, K=3"):
        table.cell(0, 3)
    with pytest.raises(KeyError, match="no cell for schedule 1, K=2"):
        table.cell(1, 2)
    noisy = noise_sweep(small_instance, K=6, levels=[0.0], schedule=s, runs=2, seed=0,
                        span_samples=20)
    assert noisy.by_level(0.0).level == 0.0
    with pytest.raises(KeyError, match="no cell for level=0.01"):
        noisy.by_level(0.01)


def test_noise_sweep_validation(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=50)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise levels must be finite and non-negative"):
            noise_sweep(small_instance, K=6, levels=[bad], schedule=s, runs=2, seed=0)


def test_studies_reject_no_runs_before_any_work(small_instance, monkeypatch):
    calls = []

    def counted_brute_force(g):
        calls.append(g)
        raise AssertionError("brute force ran before runs was checked")

    def counted_eigendecompose(m):
        calls.append(m)
        raise AssertionError("the graph was decomposed before runs was checked")

    monkeypatch.setattr("optising.experiments.brute_force_maxcut", counted_brute_force)
    monkeypatch.setattr("optising.experiments.eigendecompose", counted_eigendecompose)
    s = Schedule(t0=4.0, rate=0.99, iters=20)
    for runs in (0, -1):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            probability_vs_k(small_instance, [3], [s], runs=runs, seed=0)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            noise_sweep(small_instance, K=6, levels=[0.0], schedule=s, runs=runs, seed=0)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            anneal_trace_study(small_instance, [3], s, runs=runs, seed=0)
    assert calls == []


@pytest.mark.parametrize("n, degree", [(2, 1), (6, 3)])
def test_studies_refuse_readouts_that_may_overflow(n, degree, monkeypatch):
    # the bound B = 8 n sum|J_ij|, and squares * B**2 for a study that sums
    # squares: with the weights scaled to just inside it every study runs
    # without a numpy warning (the test settings make one an error), and
    # just past it each study refuses before it enumerates or decomposes
    g0 = gen_regular(n, degree, 0.5, 1.0, seed=0)
    S = float(np.abs(from_graph(g0).J).sum())
    top = float(np.finfo(float).max)
    work = []
    for name in ("brute_force_maxcut", "eigendecompose"):
        monkeypatch.setattr(experiments, name, lambda *a, f=getattr(experiments, name):
                            work.append(1) or f(*a))

    def schedule(g):
        return Schedule(t0=g.total_weight(), rate=0.99, iters=200)

    studies = [  # (squares summed, study)
        (0, lambda g: probability_vs_k(g, range(1, n + 1), [schedule(g)], runs=4, seed=0)),
        (0, lambda g: noise_sweep(g, n, [0.0, 0.05], schedule(g), runs=4, seed=0)),
        (4, lambda g: anneal_trace_study(g, [1, n], schedule(g), runs=4, seed=0)),
        (50, lambda g: rmse_vs_k(from_graph(g), range(1, n + 1), samples=50, seed=0)),
    ]
    for squares, study in studies:
        edge = (math.sqrt(top / squares) if squares else top) / (8 * n * S)
        what = f"{squares} * (8 n sum|J_ij|)**2" if squares else "8 n sum|J_ij|"
        for frac in (0.999, 1.01):
            g = WeightedGraph(n, tuple((u, v, w * frac * edge) for u, v, w in g0.edges))
            work.clear()
            if frac < 1:
                study(g)
                assert work
            else:
                message = (f"the readouts may overflow the float range, as {what} is not "
                           "finite: scale the weights down")
                with pytest.raises(ValueError) as err:
                    study(g)
                assert str(err.value) == message and not work


def test_noise_sweep_checks_k_before_any_work(small_instance, monkeypatch):
    calls = []

    def counted_brute_force(g):
        calls.append(g)
        raise AssertionError("brute force ran before K was checked")

    monkeypatch.setattr("optising.experiments.brute_force_maxcut", counted_brute_force)
    s = Schedule(t0=4.0, rate=0.99, iters=20)
    for K in (0, small_instance.n + 1):
        with pytest.raises(ValueError, match=f"K must lie in 1..{small_instance.n}"):
            noise_sweep(small_instance, K=K, levels=[0.0], schedule=s, runs=2, seed=0)
    assert calls == []


def test_anneal_trace_study_single_run_equals_anneal(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=200)
    study = anneal_trace_study(small_instance, ks=[6], schedule=s, runs=1, seed=5)
    ev = HrvEvaluator(build_ensemble(eigendecompose(from_graph(small_instance)), 6))
    direct = anneal(ev, small_instance, s, derive_seed(5, LBL_TRACE, 6))
    assert np.array_equal(study.mean_hrv[6], direct.hrv)
    assert np.array_equal(study.mean_cut[6], direct.cut)
    assert study.final_cut_mean[6] == direct.final_cut


def test_anneal_trace_study_improves_from_random_start(small_instance):
    s = Schedule(t0=4.0, rate=0.995, iters=800)
    study = anneal_trace_study(small_instance, ks=[6], schedule=s, runs=8, seed=2)
    curve = study.mean_cut[6]
    assert curve[-1] >= curve[100]


def test_anneal_trace_study_checks_every_k_before_annealing(small_instance, monkeypatch):
    calls = []

    def counted_lockstep(*args, **kwargs):
        calls.append(args)
        return _lockstep(*args, **kwargs)

    monkeypatch.setattr("optising.experiments._lockstep", counted_lockstep)
    s = Schedule(t0=4.0, rate=0.99, iters=20)
    n = small_instance.n
    with pytest.raises(ValueError, match=f"ks must lie in 1..{n}"):
        anneal_trace_study(small_instance, [3, n + 1], schedule=s, runs=2, seed=0)
    assert calls == []


@pytest.mark.parametrize("iters", [3000, 12000])
def test_trace_study_memory_does_not_grow_with_iters(iters):
    # the study sums each block over its runs as it comes: past one BLOCK of
    # engine buffers (0.66 MB per BLOCK * RUN_CHUNK * n doubles here) it keeps
    # only a few (iters,) curves, where five float histories of the runs
    # would take 7.7 MB at 3000 iterations
    g = gen_regular(20, 5, 0.0, 1.0, seed=0)
    anneal_trace_study(g, [13], Schedule(t0=5.0, rate=0.9, iters=10), RUN_CHUNK, seed=1)
    s = Schedule(t0=5.0, rate=0.995, iters=iters)
    tracemalloc.start()
    try:
        anneal_trace_study(g, [13], s, RUN_CHUNK, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * BLOCK * RUN_CHUNK * g.n * 8 + 10 * iters * 8


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, 103, 0, 5)
    assert a == derive_seed(0, 103, 0, 5)
    assert a != derive_seed(0, 103, 0, 6)
    assert a != derive_seed(1, 103, 0, 5)


def test_config_hash_stable_and_order_insensitive():
    h1 = config_hash({"a": 1, "b": [1.5, 2.0]})
    h2 = config_hash({"b": [1.5, 2.0], "a": 1})
    assert h1 == h2
    assert h1 != config_hash({"a": 2, "b": [1.5, 2.0]})


def test_write_csv_repr_floats(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [(1, 0.1), (2, np.float64(0.25))])
    text = p.read_text()
    assert text == "a,b\n1,0.1\n2,0.25\n"


def test_write_csv_formats_columns_like_each_value(tmp_path):
    # 600 rows, so every column crosses the 256-row chunk boundary; e and f
    # cycle through every integer and every float kind with their texts
    ints = [(7, "7"), (np.int64(-3), "-3"), (True, "1"), (np.bool_(False), "0"),
            (np.uint8(255), "255")]
    floats = [(0.1, "0.1"), (-0.0, "-0.0"), (math.inf, "inf"), (-math.inf, "-inf"),
              (math.nan, "nan"), (np.float64(2.5e-300), "2.5e-300"),
              (np.float32(0.1), "0.10000000149011612"), (np.float32(-0.0), "-0.0"),
              (1e16, "1e+16")]
    rows, want = [], ["a,b,c,d,e,f,g,h\n"]
    for i in range(600):
        (iv, itext), (fv, ftext) = ints[i % len(ints)], floats[i % len(floats)]
        rows.append((i, np.int64(-i), i % 2 == 0, np.bool_(i % 3 == 0), iv, fv,
                     i / 4, np.float32(i) / 8))
        quarter = f"{i // 4}.{['0', '25', '5', '75'][i % 4]}"
        eighth = f"{i // 8}.{['0', '125', '25', '375', '5', '625', '75', '875'][i % 8]}"
        want.append(f"{i},{-i},{1 - i % 2},{int(i % 3 == 0)},{itext},{ftext},"
                    f"{quarter},{eighth}\n")
    p = tmp_path / "t.csv"
    write_csv(p, list("abcdefgh"), iter(rows))
    assert p.read_text() == "".join(want)
    # a column that mixes integers with floats, or holds a str, has no one rule
    for bad in ([(1,), (2.5,)], [(np.int64(1),), (np.float64(2.5),)], [("s",)],
                [(1,)] * 300 + [(2,), (0.5,)]):
        with pytest.raises(TypeError, match="all integers or all floats"):
            write_csv(p, ["a"], bad)
    # a column keeps its first chunk's kind: integers up to the chunk edge,
    # then a float, is a mixed column too
    with pytest.raises(TypeError, match="'a' turns from int to float"):
        write_csv(p, ["a"], [(1,)] * 256 + [(0.5,)])
    # every row has the header's width
    for bad in ([(1,), (2, 0.5)], [(1,)] * 300 + [(1, 2)], [()]):
        with pytest.raises(ValueError, match="zip"):
            write_csv(p, ["a"], bad)


def test_write_csv_formats_equal_values_that_print_apart(tmp_path):
    # each distinct value of a chunk's column is formatted once, so values
    # that compare equal but print apart (the zeros) or never compare equal
    # (the NaNs) must still give every cell its own text; the cycles cross
    # the 256-row chunk edge, the second column in the reverse order
    floats = [0.0, -0.0, np.float32(-0.0), np.float64(0.0), math.nan, float("nan"),
              -math.nan, math.inf - math.inf, np.float64("nan"), np.float32("nan"),
              math.inf, -math.inf, np.float32(-math.inf), np.float32(0.5), 0.5]
    ints = [True, 1, np.int64(1), np.bool_(True), 0, np.bool_(False)]
    rows = [(floats[i % len(floats)], floats[-1 - i % len(floats)], ints[i % len(ints)])
            for i in range(600)]
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], rows)
    want = [f"{float(a)!r},{float(b)!r},{int(c)}" for a, b, c in rows]
    assert p.read_text().splitlines() == ["a,b,c", *want]
    assert {line.split(",")[0] for line in want} == {"0.0", "-0.0", "nan", "inf", "-inf", "0.5"}
    assert {line.split(",")[2] for line in want} == {"0", "1"}


def test_json_summary_round_trip():
    cfg = {"seed": 3, "ks": [1, 2]}
    text = json_summary(cfg, {"value": np.float64(1.5), "arr": [0, 1, 2]})
    payload = json.loads(text)
    assert payload["config"] == cfg
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["results"]["arr"] == [0, 1, 2]
    # the same text on a second call
    assert json_summary(cfg, {"value": np.float64(1.5), "arr": [0, 1, 2]}) == text


def test_json_summary_rejects_nan():
    # the report directory is made only after this check, which
    # tests/test_cli.py::test_non_finite_result_leaves_no_report covers
    with pytest.raises(ValueError):
        json_summary({"seed": 3}, {"rmse_relative": [1.0, float("nan")]})
