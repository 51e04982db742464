import json

import numpy as np
import pytest

from conftest import random_symmetric_model
from optising.anneal import Schedule, anneal
from optising.experiments import (
    LBL_STATES,
    LBL_TRACE,
    anneal_chunks,
    anneal_trace_study,
    config_hash,
    derive_seed,
    fit_exponential,
    linear_fit,
    noise_sweep,
    probability_vs_k,
    rmse_curve_averaged,
    rmse_vs_k,
    wilson_interval,
    write_csv,
    write_json_summary,
)
from optising.graph import gen_regular
from optising.ising import from_graph, hamiltonian, random_states
from optising.optics import HrvEvaluator, hrv
from optising.spectral import build_ensemble, eigendecompose


@pytest.fixture(scope="module")
def small_instance():
    return gen_regular(6, 3, 0.0, 1.0, seed=1)


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


def test_wilson_interval_against_reference():
    # reference values from statsmodels proportion_confint(method="wilson")
    assert wilson_interval(8, 10) == pytest.approx((0.49016247153664183, 0.9433178485456247))
    assert wilson_interval(0, 50) == pytest.approx((0.0, 0.07134759913335874))
    assert wilson_interval(50, 50) == pytest.approx((0.9286524008666412, 1.0))
    assert wilson_interval(47, 200) == pytest.approx((0.1815743341523259, 0.2984136888276254))


def test_wilson_interval_bounds():
    lo, hi = wilson_interval(3, 7)
    assert 0.0 <= lo <= 3 / 7 <= hi <= 1.0


def test_rmse_vs_k_full_truncation_is_exact(rng):
    m = random_symmetric_model(10, rng)
    rep = rmse_vs_k(m, ks=[10], samples=400, seed=3)
    rec = rep.by_k(10)
    assert rec.rmse <= 1e-9 * rec.span
    assert rec.slope == pytest.approx(1.0, abs=1e-9)
    assert rec.intercept == pytest.approx(0.0, abs=1e-9 * rec.span)
    assert rec.r2 == pytest.approx(1.0, abs=1e-12)


def test_rmse_vs_k_zero_truncation_limit(rng):
    m = random_symmetric_model(7, rng)
    rep = rmse_vs_k(m, ks=[0], samples=300, seed=5)
    rec = rep.by_k(0)
    assert rec.rmse == pytest.approx(float(np.sqrt(np.mean(rec.ham ** 2))), rel=1e-12)
    assert rec.span == 0.0


def test_rmse_vs_k_shared_states_across_k(rng):
    m = random_symmetric_model(8, rng)
    rep = rmse_vs_k(m, ks=[2, 5, 8], samples=100, seed=9)
    hams = [rep.by_k(k).ham for k in (2, 5, 8)]
    assert np.array_equal(hams[0], hams[1])
    assert np.array_equal(hams[0], hams[2])
    # at K=N the readout is exactly minus the Hamiltonian
    assert rep.by_k(8).hrv == pytest.approx(-hams[0], rel=1e-9, abs=1e-9)


def test_rmse_vs_k_matches_direct_readout(rng):
    # the study's batched cumulative readout against the per-state path, on
    # the states it sampled (rebuilt from the same stream)
    m = random_symmetric_model(6, rng)
    b = eigendecompose(m)
    rep = rmse_vs_k(m, ks=[1, 3, 6], samples=50, seed=13)
    X = random_states(6, 50, np.random.default_rng(np.random.SeedSequence([13, LBL_STATES])))
    for rec in rep.records:
        ens = build_ensemble(b, rec.K)
        for i, x in enumerate(X):
            assert abs(rec.hrv[i] - hrv(ens, x)) <= 1e-12 * rec.span
            assert rec.ham[i] == pytest.approx(hamiltonian(m, x), rel=1e-12, abs=1e-12)
        resid = (-rec.hrv) - rec.ham
        assert rec.rmse == pytest.approx(float(np.sqrt(np.mean(resid ** 2))), rel=1e-12)
    # and spot-check one state by hand
    x = np.ones(6)
    lam = b.lam[b.order[:3]]
    vec = b.vectors[:, b.order[:3]]
    manual = float(sum(l * (v @ x) ** 2 for l, v in zip(lam, vec.T)))
    assert hrv(build_ensemble(b, 3), x) == pytest.approx(manual, rel=1e-9)


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


def test_noise_sweep_level_zero_reproduces_noiseless(small_instance):
    s = Schedule(t0=4.0, rate=0.99, iters=150)
    noisy = noise_sweep(small_instance, K=6, levels=[0.0, 0.05], schedule=s,
                        runs=6, seed=3, span_samples=100)
    clean = probability_vs_k(small_instance, [6], [s], runs=6, seed=3)
    assert noisy.by_level(0.0).hits == clean.cell(0, 6).hits
    assert noisy.by_level(0.0).probability == clean.cell(0, 6).probability
    assert noisy.by_level(0.0).sigma == 0.0
    assert noisy.by_level(0.05).sigma == pytest.approx(0.05 * noisy.span)


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

    monkeypatch.setattr("optising.experiments.brute_force_maxcut", counted_brute_force)
    s = Schedule(t0=4.0, rate=0.99, iters=20)
    for runs in (0, -1):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            probability_vs_k(small_instance, [3], [s], runs=runs, seed=0)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            noise_sweep(small_instance, K=6, levels=[0.0], schedule=s, runs=runs, seed=0)
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

    def counted_chunks(*args, **kwargs):
        calls.append(args)
        return anneal_chunks(*args, **kwargs)

    monkeypatch.setattr("optising.experiments.anneal_chunks", counted_chunks)
    s = Schedule(t0=4.0, rate=0.99, iters=20)
    n = small_instance.n
    with pytest.raises(ValueError, match=f"ks must lie in 1..{n}"):
        anneal_trace_study(small_instance, [3, n + 1], schedule=s, runs=2, seed=0)
    assert calls == []


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


def test_write_json_summary_round_trip(tmp_path):
    p = tmp_path / "s.json"
    cfg = {"seed": 3, "ks": [1, 2]}
    write_json_summary(p, cfg, {"value": np.float64(1.5), "arr": np.arange(3)})
    payload = json.loads(p.read_text())
    assert payload["config"] == cfg
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["results"]["arr"] == [0, 1, 2]
    # byte-identical on rewrite
    before = p.read_bytes()
    write_json_summary(p, cfg, {"value": np.float64(1.5), "arr": np.arange(3)})
    assert p.read_bytes() == before


def test_write_json_summary_rejects_nan_and_leaves_no_file(tmp_path):
    p = tmp_path / "s.json"
    with pytest.raises(ValueError):
        write_json_summary(p, {"seed": 3}, {"rmse_relative": [1.0, float("nan")]})
    assert not p.exists()
