"""The benchmark's workloads: inputs made from the workload seed, calls into the
program's public API, and the checks on what comes back.

A workload is set up, then run in rounds.  Every round repeats the same calls
on the same inputs, so rounds can be compared with each other and their median
taken.  Each round is a list of timed operations; checks run after the round's
timing stops.  `verify` runs once per process, after the last round, for
checks too costly to repeat.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import checks
# Timed calls go through the module (xp.probability_vs_k, cli.main), so the
# tracer's patches on module attributes see them.
from optising import cli
from optising import experiments as xp
from optising.anneal import Schedule, anneal
from optising.graph import gen_regular
from optising.ising import from_graph
from optising.optics import HrvEvaluator
from optising.spectral import build_ensemble, eigendecompose

# Labels keeping the benchmark's input streams apart under one workload seed.
# Seeds and sampled spin states come from the benchmark's own helpers, not the
# program's, so they do not move when the program's RNG use changes.
LBL_GRAPH, LBL_SPAN, LBL_STUDY, LBL_VERIFY, LBL_CLI = 1, 2, 3, 4, 5


def sub_seed(seed: int, label: int) -> int:
    return int(np.random.SeedSequence([seed, label]).generate_state(1, np.uint32)[0])


@dataclass
class Op:
    """One timed call into the program; `out` is its result or what it raised."""

    name: str
    start: float
    end: float
    out: object


def timed(name, fn, *args, **kwargs) -> Op:
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except (Exception, SystemExit) as exc:  # a failed operation, counted by its check
        out = exc
    return Op(name, t0, time.perf_counter(), out)


def random_spins(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(count, n)) * 2 - 1).astype(float)


class Plateau:
    """Probability of the optimal cut vs K on the paper's n=20, degree-5 instance."""

    name = "plateau"
    N, DEGREE = 20, 5
    KS = (3, 13, 20)                   # low, mid (K/N = 0.65) and full K
    RUNS, RATE, ITERS = 40, 0.995, 3000
    NOISE_K, NOISE_LEVELS, SPAN_SAMPLES = 20, (0.02,), 1000
    VERIFY_STATES = 64

    def __init__(self, seed: int, work_root: str):
        self.seed = seed

    @property
    def tasks_per_round(self) -> int:  # annealing runs
        return self.RUNS * (len(self.KS) + len(self.NOISE_LEVELS))

    @property
    def frames_per_round(self) -> int:  # sum of K over every readout
        per_run = self.ITERS + 1
        prob = sum(self.RUNS * per_run * K for K in self.KS)
        noise = self.NOISE_K * (self.SPAN_SAMPLES + len(self.NOISE_LEVELS) * self.RUNS * per_run)
        return prob + noise

    def setup(self) -> None:
        self.graph = gen_regular(self.N, self.DEGREE, 0.0, 1.0, seed=sub_seed(self.seed, LBL_GRAPH))
        J = from_graph(self.graph).J
        # t0 is the readout span over random states; at K=N the readout is x^T J x
        X = random_spins(self.N, self.SPAN_SAMPLES, sub_seed(self.seed, LBL_SPAN))
        h = np.einsum("ij,ij->i", X @ J, X)
        self.schedule = Schedule(t0=float(h.max() - h.min()), rate=self.RATE, iters=self.ITERS)
        # warm-up: one annealing run through the full-K readout
        ens = build_ensemble(eigendecompose(from_graph(self.graph)), self.N)
        anneal(HrvEvaluator(ens), self.graph, self.schedule, self.seed)

    def run_round(self) -> list[Op]:
        study_seed = sub_seed(self.seed, LBL_STUDY)
        return [
            timed("probability_vs_k", xp.probability_vs_k, self.graph, list(self.KS),
                  [self.schedule], self.RUNS, study_seed),
            timed("noise_sweep", xp.noise_sweep, self.graph, self.NOISE_K, list(self.NOISE_LEVELS),
                  self.schedule, self.RUNS, study_seed, span_samples=self.SPAN_SAMPLES),
        ]

    def check_round(self, ops):
        prob, noise = ops
        yield prob.name, checks.check_prob_table(prob.out, self.N, self.KS, self.RUNS)
        yield noise.name, checks.check_noise_table(noise.out, self.NOISE_LEVELS, self.RUNS)

    def verify(self):
        m = from_graph(self.graph)
        X = random_spins(self.N, self.VERIFY_STATES, sub_seed(self.seed, LBL_VERIFY))
        try:
            ev = HrvEvaluator(build_ensemble(eigendecompose(m), self.N))
            readouts = [ev.evaluate(x) for x in X]
        except Exception as exc:
            readouts = exc
        yield "verify.full_readout", checks.check_full_readout(readouts, m.J, X)

    def tasks(self, ops):
        """(kind, start, end, count): `count` tasks of one kind ran in [start, end]."""
        return [("anneal-run", ops[0].start, ops[-1].end, self.tasks_per_round)]

    def hits_runs(self, ops):
        hits = runs = 0
        for op in ops:
            if not isinstance(op.out, BaseException):
                hits += sum(c.hits for c in op.out.cells)
                runs += sum(c.runs for c in op.out.cells)
        return hits, runs

    def close(self) -> None:
        pass


class RmseN128:
    """Readout RMSE vs K at N=128, averaged over sparse regular graphs."""

    name = "rmse-n128"
    N, DEGREE, SAMPLES, GRAPHS = 128, 3, 1000, 8

    def __init__(self, seed: int, work_root: str):
        self.seed = seed

    @property
    def tasks_per_round(self) -> int:  # graphs
        return self.GRAPHS

    @property
    def frames_per_round(self) -> int:
        # each sampled state shows all N frames; prefix sums give every K
        return self.GRAPHS * self.SAMPLES * self.N

    def setup(self) -> None:
        self.ks = list(range(1, self.N + 1))
        self.study_seed = sub_seed(self.seed, LBL_STUDY)
        xp.rmse_curve_averaged(16, range(1, 17), 100, 1, self.study_seed, degree=self.DEGREE)

    def run_round(self) -> list[Op]:
        return [timed("rmse_curve_averaged", xp.rmse_curve_averaged, self.N, self.ks, self.SAMPLES,
                      self.GRAPHS, self.study_seed, degree=self.DEGREE)]

    def check_round(self, ops):
        (op,) = ops
        yield op.name, checks.check_rmse_curve(op.out, self.N, xp.fit_exponential)

    def verify(self):
        g = gen_regular(self.N, self.DEGREE, 0.0, 1.0, seed=sub_seed(self.seed, LBL_VERIFY))
        m = from_graph(g)
        bundle = timed("eigendecompose", eigendecompose, m).out
        yield "verify.eigen_quality", checks.check_eigen(bundle, m.J)
        rep = timed("rmse_vs_k", xp.rmse_vs_k, m, [self.N], self.SAMPLES, self.seed).out
        full = rep if isinstance(rep, BaseException) else rep.by_k(self.N)
        yield "verify.k_full_rmse", checks.check_k_full_rmse(full)

    def tasks(self, ops):
        return [("graph", ops[0].start, ops[-1].end, self.tasks_per_round)]

    def hits_runs(self, ops):
        return 0, 0

    def close(self) -> None:
        pass


def run_cli(argv, files=()):
    """cli.main in-process; returns (exit code, stdout, fingerprint of stdout and files)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    stdout = buf.getvalue()
    blobs = [stdout.encode()]
    for path in files:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return rc, stdout, tuple(blobs)


class CliPipeline:
    """A user's session of in-process CLI commands: gen, decompose, solve."""

    name = "cli-pipeline"
    N, DEGREE = 22, 5                   # the instance every command works on
    DENSE_N, DENSE_DEGREE = 20, 17      # dense gen, run with the CLI's default seed
    FIELD_ITERS, NOISE_LEVEL, ITERS, SPAN_SAMPLES = 200, 0.02, 3000, 1000
    SOLVES = ("solve-oracle", "solve-field", "solve-noise")

    def __init__(self, seed: int, work_root: str):
        self.seed = seed
        self.work_root = work_root
        self.first: dict[str, tuple] = {}

    @property
    def tasks_per_round(self) -> int:  # annealing runs, one per solve
        return len(self.SOLVES)

    @property
    def frames_per_round(self) -> int:
        readouts = (3 * self.SPAN_SAMPLES + (self.ITERS + 1) * 2 + self.FIELD_ITERS + 1)
        return readouts * self.N

    def _path(self, name):
        return os.path.join(self.work, name)

    def _pipeline(self, n, degree, dense, iters, field_iters):
        """(op name, argv, files written) for one session on an n-vertex instance."""
        s = str(sub_seed(self.seed, LBL_CLI))
        w, sparse = self.work, self._path("sparse.json")
        trace = self._path("trace.csv")
        out = [("gen-sparse", ["gen", "--n", str(n), "--degree", str(degree), "--seed", s,
                               "--out", w, "--name", "sparse"],
                [self._path("sparse.rud"), sparse])]
        if dense:
            out.append(("gen-dense", ["gen", "--n", str(self.DENSE_N), "--degree",
                                      str(self.DENSE_DEGREE), "--out", w, "--name", "dense"],
                        [self._path("dense.rud"), self._path("dense.json")]))
        out += [
            ("decompose", ["decompose", "--graph", sparse], []),
            ("solve-oracle", ["solve", "--graph", sparse, "--oracle", "--trace-out", trace,
                              "--iters", str(iters), "--seed", s], [trace]),
            ("solve-field", ["solve", "--graph", sparse, "--backend", "field",
                             "--iters", str(field_iters), "--seed", s], []),
            ("solve-noise", ["solve", "--graph", sparse, "--noise-level", str(self.NOISE_LEVEL),
                             "--iters", str(iters), "--seed", s], []),
        ]
        return out

    def setup(self) -> None:
        os.makedirs(self.work_root, exist_ok=True)
        self.work = os.path.join(self.work_root, f"cli-{os.getpid()}-{self.seed}")
        os.makedirs(self.work, exist_ok=True)
        # warm-up: the same commands on a small instance, so lazy imports and
        # first-call costs are paid here and not by the first timed solve
        for _, argv, files in self._pipeline(10, 3, False, 100, 10):
            rc, _, _ = run_cli(argv, files)
            if rc != 0:
                raise RuntimeError(f"warm-up command {argv[0]} exited {rc}")
        self.commands = self._pipeline(self.N, self.DEGREE, True, self.ITERS, self.FIELD_ITERS)

    def run_round(self) -> list[Op]:
        return [timed(name, run_cli, argv, files) for name, argv, files in self.commands]

    def _optimum(self, ops):
        for op in ops:
            if op.name == "solve-oracle" and not isinstance(op.out, BaseException):
                value = checks.parse_fields(op.out[1]).get("optimal_cut")
                return float(value) if value is not None else None
        return None

    def check_round(self, ops):
        optimum = self._optimum(ops)
        for op in ops:
            fails = checks.raised(op.out)
            if not fails:
                rc, stdout, fingerprint = op.out
                fails = checks.check_exit(rc)
                if not fails:
                    try:
                        fails = self._check_output(op.name, stdout, optimum)
                    except (OSError, ValueError, KeyError, IndexError) as exc:
                        fails = [f"unreadable output: {exc!r}"]
                    self.first.setdefault(op.name, fingerprint)
                    fails += checks.check_repeat(fingerprint, self.first[op.name])
            yield op.name, fails

    def _check_output(self, name, stdout, optimum):
        if name.startswith("gen-"):
            path, n, degree = {"gen-sparse": ("sparse.json", self.N, self.DEGREE),
                               "gen-dense": ("dense.json", self.DENSE_N, self.DENSE_DEGREE)}[name]
            with open(self._path(path)) as fh:
                return checks.check_degrees(json.load(fh), n, degree)
        if name == "decompose":
            return checks.check_decompose(stdout, self.N)
        return checks.check_cut(stdout, optimum)

    def verify(self):
        return ()

    def tasks(self, ops):
        return [(op.name, op.start, op.end, 1) for op in ops if op.name in self.SOLVES]

    def hits_runs(self, ops):
        optimum = self._optimum(ops)
        hits = runs = 0
        for op in ops:
            if op.name in self.SOLVES and not isinstance(op.out, BaseException):
                runs += 1
                cut = checks.parse_fields(op.out[1]).get("final_cut")
                if optimum is not None and cut is not None:
                    hits += abs(float(cut) - optimum) <= checks.EXACT_TOL
        return hits, runs

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Plateau, RmseN128, CliPipeline)}
