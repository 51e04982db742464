"""The benchmark's own tests: checkers catch corrupted results, the tracer
attributes time and restores what it patched, and the runner refuses to run
without the program's sources.

    python3 -m pytest bench/tests
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS, MODULES, Tracer  # noqa: E402

import optising  # noqa: E402
from optising.anneal import Schedule  # noqa: E402
from optising.experiments import NoiseCell, NoiseTable, ProbCell, ProbTable  # noqa: E402
from optising.graph import gen_regular  # noqa: E402
from optising.ising import from_graph  # noqa: E402
from optising.optics import HrvEvaluator  # noqa: E402
from optising.spectral import EigenBundle, build_ensemble, eigendecompose  # noqa: E402


def failed_frac(wl, ops):
    ledger = checks.Ledger()
    for op, failures in wl.check_round(ops):
        ledger.record(op, failures)
    return ledger.failed_frac


def flip_sign(b: EigenBundle, i: int) -> EigenBundle:
    lam = b.lam.copy()
    lam[i] = -lam[i]
    return EigenBundle(lam=lam, vectors=b.vectors, signs=np.where(lam >= 0, 1, -1).astype(np.int8),
                       order=b.order)


# -- plateau ----------------------------------------------------------------

def prob_table(hits_by_k, runs):
    cells = [ProbCell(schedule_index=0, rate=0.995, K=K, runs=runs, hits=h, probability=h / runs,
                      wilson_low=0.0, wilson_high=1.0, is_reference=(K == 20))
             for K, h in hits_by_k.items()]
    return ProbTable(n=20, optimum=1.0, seed=0, cells=cells)


def noise_table(runs, sigma_scale=1.0, hits=5):
    span = 7.5
    cells = [NoiseCell(level=0.02, sigma=0.02 * span * sigma_scale, K=20, runs=runs, hits=hits,
                       probability=hits / runs, wilson_low=0.0, wilson_high=1.0)]
    return NoiseTable(n=20, K=20, span=span, optimum=1.0, seed=0, cells=cells)


def plateau_ops(prob, noise):
    return [workloads.Op("probability_vs_k", 0.0, 1.0, prob),
            workloads.Op("noise_sweep", 1.0, 2.0, noise)]


def test_plateau_checker_accepts_a_sound_result():
    wl = workloads.Plateau(0, "unused")
    runs = wl.RUNS
    ops = plateau_ops(prob_table({3: 0, 13: 9, 20: 11}, runs), noise_table(runs))
    assert failed_frac(wl, ops) == 0.0


@pytest.mark.parametrize("prob_hits,noise_kwargs", [
    ({3: 0, 13: 9, 20: 41}, {}),            # hit count above runs
    ({3: -1, 13: 9, 20: 11}, {}),           # negative hit count
    ({3: 0, 13: 9, 20: 0}, {}),             # K=N cell never hits
    ({3: 0, 20: 11}, {}),                   # a requested K is missing
    ({3: 0, 13: 9, 20: 11}, {"sigma_scale": 1.5}),  # sigma != level*span
    ({3: 0, 13: 9, 20: 11}, {"hits": 99}),  # noise hit count above runs
])
def test_plateau_checker_counts_corrupted_results(prob_hits, noise_kwargs):
    wl = workloads.Plateau(0, "unused")
    ops = plateau_ops(prob_table(prob_hits, wl.RUNS), noise_table(wl.RUNS, **noise_kwargs))
    assert failed_frac(wl, ops) == 0.5


def test_plateau_checker_counts_a_raised_operation():
    wl = workloads.Plateau(0, "unused")
    ops = plateau_ops(ValueError("boom"), noise_table(wl.RUNS))
    assert failed_frac(wl, ops) == 0.5


def test_full_readout_check_catches_a_flipped_eigenvalue_sign():
    g = gen_regular(10, 3, seed=4)
    m = from_graph(g)
    b = eigendecompose(m)
    X = workloads.random_spins(10, 32, seed=5)

    def readouts(bundle):
        ev = HrvEvaluator(build_ensemble(bundle, 10))
        return [ev.evaluate(x) for x in X]

    assert checks.check_full_readout(readouts(b), m.J, X) == []
    assert checks.check_full_readout(readouts(flip_sign(b, 0)), m.J, X)


# -- rmse-n128 --------------------------------------------------------------

def rmse_curve(n=16, last_rel=0.0, growing=False):
    ks = list(range(1, n + 1))
    rmse = np.exp((5.0 if growing else -5.0) * np.array(ks) / n)
    rmse[-1] = last_rel * 10.0
    rel = rmse / 10.0
    return ks, rmse, rel, np.ones(n)


def test_rmse_checker_accepts_a_decaying_exact_curve():
    wl = workloads.RmseN128(0, "unused")
    wl.N = 16
    assert failed_frac(wl, [workloads.Op("rmse_curve_averaged", 0.0, 1.0, rmse_curve())]) == 0.0


@pytest.mark.parametrize("curve", [
    rmse_curve(last_rel=1e-3),       # K=N not exact
    rmse_curve(growing=True),        # fit does not decay
    rmse_curve(n=15),                # wrong K range
    RuntimeError("boom"),
])
def test_rmse_checker_counts_corrupted_results(curve):
    wl = workloads.RmseN128(0, "unused")
    wl.N = 16
    assert failed_frac(wl, [workloads.Op("rmse_curve_averaged", 0.0, 1.0, curve)]) == 1.0


def test_eigen_check_catches_a_flipped_eigenvalue_sign():
    m = from_graph(gen_regular(12, 3, seed=1))
    b = eigendecompose(m)
    assert checks.check_eigen(b, m.J) == []
    assert checks.check_eigen(flip_sign(b, 2), m.J)


# -- cli-pipeline -----------------------------------------------------------

def regular_json(n, d):
    edges = [[i, (i + k) % n, 0.5] for i in range(n) for k in range(1, d // 2 + 1)]
    return {"n": n, "edges": edges}


def cli_session(tmp_path):
    wl = workloads.CliPipeline(0, str(tmp_path))
    wl.DEGREE = wl.DENSE_DEGREE = 4  # the ring graphs written by cli_ops
    return wl


def cli_ops(tmp_path, wl, rc=0, final_cut=3.0, dense_degree=4, mu="0.0"):
    wl.work = str(tmp_path)
    (tmp_path / "sparse.json").write_text(json.dumps(regular_json(wl.N, 4)))
    (tmp_path / "dense.json").write_text(json.dumps(regular_json(wl.DENSE_N, dense_degree)))
    table = "rank eigenvalue sign error_ratio_at_K\n" + "".join(
        f"{k} 1.0 1 {mu if k == wl.N else '0.5'}\n" for k in range(1, wl.N + 1))
    solve = f"final_cut={final_cut!r}\nfinal_hrv=1.0\nstate=+-\n"
    outs = {
        "gen-sparse": "n=22\n", "gen-dense": "n=20\n", "decompose": table,
        "solve-oracle": solve + "optimal_cut=3.0\noptimal_match=1\n",
        "solve-field": solve, "solve-noise": solve,
    }
    return [workloads.Op(name, 0.0, 0.1, (rc if name == "solve-field" else 0, out, (out.encode(),)))
            for name, out in outs.items()]


def test_cli_checker_accepts_a_sound_session(tmp_path):
    wl = cli_session(tmp_path)
    ops = cli_ops(tmp_path, wl)
    assert failed_frac(wl, ops) == 0.0
    assert failed_frac(wl, ops) == 0.0  # a repeated identical round still passes


@pytest.mark.parametrize("kwargs", [
    {"rc": 4},                 # non-zero exit code
    {"final_cut": 3.5},        # cut above the optimum
    {"mu": "1e-3"},            # error ratio at K=N is not 0
    {"dense_degree": 2},       # generated vertices lack the requested degree
])
def test_cli_checker_counts_corrupted_results(tmp_path, kwargs):
    wl = cli_session(tmp_path)
    assert failed_frac(wl, cli_ops(tmp_path, wl, **kwargs)) > 0.0


def test_cli_checker_counts_a_changed_repeat(tmp_path):
    wl = cli_session(tmp_path)
    assert failed_frac(wl, cli_ops(tmp_path, wl)) == 0.0
    changed = cli_ops(tmp_path, wl)
    changed[3] = workloads.Op("solve-oracle", 0.0, 0.1, changed[3].out[:2] + ((b"other",),))
    assert failed_frac(wl, changed) == 1 / 6


def test_ledger_counts_failures_over_attempts():
    ledger = checks.Ledger()
    ledger.record("a", [])
    ledger.record("b", ["bad"])
    assert (ledger.attempted, ledger.failed, ledger.failed_frac) == (2, 1, 0.5)


# -- tracer -----------------------------------------------------------------

def test_tracer_attributes_self_time_and_restores_patches():
    g = gen_regular(8, 3, seed=2)
    schedule = Schedule(t0=1.0, rate=0.9, iters=50)
    originals = (optising.anneal, optising.experiments.probability_vs_k,
                 vars(optising.optics.HrvEvaluator)["evaluate"])
    tr = Tracer()
    with tr.traced_round():
        table = optising.experiments.probability_vs_k(g, [8], [schedule], 3, 1)
    assert (optising.anneal, optising.experiments.probability_vs_k,
            vars(optising.optics.HrvEvaluator)["evaluate"]) == originals
    assert table.cells[0].runs == 3

    m = tr.layer_metrics()
    assert m["anneal.anneal.calls"] == 3
    assert m["optics.readouts"] == 3 * 51
    assert m["optics.frames"] == 3 * 51 * 8
    assert m["spectral.eigendecompose.calls"] == 1
    assert m["spectral.recon_residual_max"] <= 1e-9
    assert 0.0 <= m["anneal.accept_ratio"] <= 1.0
    assert sum(m[f"{mod}.self_frac"] for mod in MODULES) <= 1.0 + 1e-9
    assert set(m) | {"anneal.hit_ratio", "trace.overhead_frac"} == set(LAYER_UNITS)
    assert all(math.isfinite(v) for v in m.values())

    names = {s[2] for s in tr.spans}
    assert {"experiments.probability_vs_k", "anneal.anneal", "ising.brute_force_maxcut"} <= names
    by_id = {s[0]: s for s in tr.spans}
    for span_id, parent, name, start, end in tr.spans:
        if name == "anneal.anneal":
            assert by_id[parent][2] == "experiments.probability_vs_k"
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_tracer_skips_untraced_calls():
    tr = Tracer()
    optising.experiments.probability_vs_k(gen_regular(6, 3, seed=0), [6],
                                          [Schedule(t0=1.0, rate=0.9, iters=10)], 1, 0)
    assert tr.stats == {} and tr.spans == []


# -- speed probe ------------------------------------------------------------

def test_probe_scales_an_interval_by_its_samples():
    p = probe.SpeedProbe()
    p.samples = [(1.0, 2 * probe.REF_PROBE_S), (2.0, 2 * probe.REF_PROBE_S), (5.0, probe.REF_PROBE_S)]
    # probe time is removed, then the interval is halved: the probe ran at half speed
    assert p.calibrate(0.5, 2.5) == pytest.approx((2.0 - 4 * probe.REF_PROBE_S) / 2)
    # no sample inside: scaled by the mean of all samples
    assert p.calibrate(3.0, 4.0) == pytest.approx(1.0 * 3 / 5)


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as p:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(p.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- runner -----------------------------------------------------------------

def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "plateau", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
