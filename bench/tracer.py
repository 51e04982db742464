"""Timing wrappers around the program's public functions, for traced runs only.

The tracer patches each traced function wherever callers look it up: every
module attribute under the `optising` package that holds the original
function object is replaced by the wrapper, and the original is restored on
exit.  `HrvEvaluator.evaluate` is patched on the class.  Nothing is patched
while tracing is off.

Each wrapped call pushes a frame on an in-memory stack.  A call's self time is
its duration minus the time of the wrapped calls it made, so every second of a
traced round is attributed to exactly one layer (or to the root frame, for
time spent outside all traced functions).  Each call is also kept as a span
(id, parent id, name, start, end), except per-readout `HrvEvaluator.evaluate`
calls (about 3000 per annealing run), which are only counted and timed in
aggregate.  Time spent in the wrappers' bookkeeping hooks is charged to
`hook_s` in the span dump, not to the caller, so it shows up only in the
tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MODULES = ("graph", "ising", "spectral", "optics", "anneal", "experiments", "cli")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)  # empty for per-readout calls


# ---------------------------------------------------------------------------
# Hooks: read counts off a call's arguments and result.  They run after the
# call's timing has stopped.  `fn` is the traced function.
# ---------------------------------------------------------------------------

def _count_states(tr, fn, args, kwargs, result):
    n = (args[0] if args else kwargs["g"]).n
    tr.counters["ising.states"] += 2 ** (n - 1) if n > 1 else 1


def _eigen_residuals(tr, fn, args, kwargs, result):
    J = np.asarray((args[0] if args else kwargs["m"]).J, dtype=float)
    V, lam = np.asarray(result.vectors), np.asarray(result.lam)
    fro = float(np.linalg.norm(J))
    rec = float(np.linalg.norm((V * lam) @ V.T - J)) / fro if fro > 0 else 0.0
    orth = float(np.max(np.abs(V.T @ V - np.eye(V.shape[1])))) if V.size else 0.0
    tr.maxima["spectral.recon_residual"] = max(tr.maxima["spectral.recon_residual"], rec)
    tr.maxima["spectral.orth_residual"] = max(tr.maxima["spectral.orth_residual"], orth)


def _span_readouts(tr, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    samples = int(bound.arguments["samples"])
    tr.counters["optics.readouts"] += samples
    tr.counters["optics.frames"] += samples * bound.arguments["ensemble"].K


def _anneal_iterations(tr, fn, args, kwargs, result):
    accepted = getattr(result, "accepted", None)
    if accepted is not None:
        tr.counters["anneal.iterations"] += int(np.size(accepted))
        tr.counters["anneal.accepted"] += int(np.count_nonzero(accepted))


# (span name, module, attribute, hook)
TARGETS = (
    ("graph.gen_regular", "optising.graph", "gen_regular", None),
    ("ising.brute_force_maxcut", "optising.ising", "brute_force_maxcut", _count_states),
    ("spectral.eigendecompose", "optising.spectral", "eigendecompose", _eigen_residuals),
    ("spectral.build_ensemble", "optising.spectral", "build_ensemble", None),
    ("optics.estimate_span", "optising.optics", "estimate_span", _span_readouts),
    ("anneal.anneal", "optising.anneal", "anneal", _anneal_iterations),
    ("experiments.probability_vs_k", "optising.experiments", "probability_vs_k", None),
    ("experiments.noise_sweep", "optising.experiments", "noise_sweep", None),
    ("experiments.rmse_vs_k", "optising.experiments", "rmse_vs_k", None),
    ("cli.gen", "optising.cli", "cmd_gen", None),
    ("cli.decompose", "optising.cli", "cmd_decompose", None),
    ("cli.solve", "optising.cli", "cmd_solve", None),
)

ROOT = "bench.root"

LAYER_UNITS = {
    "graph.gen_regular.calls": "count",
    "graph.gen_regular.self_s": "s",
    "ising.brute_force_maxcut.self_s": "s",
    "ising.brute_force_maxcut.states_per_s": "1/s",
    "spectral.eigendecompose.calls": "count",
    "spectral.eigendecompose.ms_p50": "ms",
    "spectral.eigendecompose.self_s": "s",
    "spectral.build_ensemble.self_s": "s",
    "spectral.recon_residual_max": "ratio",
    "spectral.orth_residual_max": "ratio",
    "optics.readouts": "count",
    "optics.frames": "count",
    "optics.evaluate.self_us_mean": "us",
    "optics.evaluate_field.self_us_mean": "us",
    "optics.estimate_span.self_s": "s",
    "anneal.anneal.calls": "count",
    "anneal.anneal.self_s": "s",
    "anneal.iter_self_us": "us",
    "anneal.accept_ratio": "ratio",
    "anneal.hit_ratio": "ratio",
    "experiments.probability_vs_k.self_s": "s",
    "experiments.noise_sweep.self_s": "s",
    "experiments.rmse_vs_k.calls": "count",
    "experiments.rmse_vs_k.self_s": "s",
    "cli.gen.self_s": "s",
    "cli.decompose.self_s": "s",
    "cli.solve.self_s": "s",
    **{f"{m}.self_frac": "ratio" for m in MODULES},
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Per-layer call counts, self times and spans over the traced rounds."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {k: 0 for k in (
            "ising.states", "optics.readouts", "optics.frames",
            "anneal.iterations", "anneal.accepted")}
        self.maxima: dict[str, float] = {"spectral.recon_residual": 0.0,
                                         "spectral.orth_residual": 0.0}
        self.spans: list[tuple] = []
        self.rounds = 0
        self.round_s = 0.0
        self.hook_s = 0.0
        self._stack: list[list] = []
        self._next_id = 0

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, name, fn, hook):
        """Span-keeping wrapper; `hook` runs after the call with its arguments and result."""
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._new_id()]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                stat.calls += 1
                stat.total_s += d
                stat.self_s += d - frame[0]
                parent[0] += d
                spans.append((frame[1], parent[1], name, t0, t1))
                stat.durations.append(d)
            if hook is not None:
                h0 = perf()
                hook(self, fn, args, kwargs, result)
                h = perf() - h0
                parent[0] += h
                self.hook_s += h
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        """HrvEvaluator.evaluate, split by backend and counted per readout."""
        stack, perf, counters = self._stack, time.perf_counter, self.counters
        stats = {"analytic": self._stat("optics.evaluate"),
                 "field": self._stat("optics.evaluate_field")}

        @functools.wraps(fn)
        def evaluate(ev, *args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(ev, *args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                stat = stats["field" if getattr(ev, "backend", None) == "field" else "analytic"]
                stat.calls += 1
                stat.total_s += d
                stat.self_s += d - frame[0]
                parent[0] += d
                counters["optics.readouts"] += 1
                counters["optics.frames"] += ev.K

        return evaluate

    def _patches(self):
        """(owner, attribute, original, replacement) for every traced lookup site."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "optising" or name.startswith("optising."))]
        out = []
        for name, mod_name, attr, hook in TARGETS:
            try:
                orig = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                continue  # layer not present in this version of the program
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        out.append((mod, key, orig, wrapper))
        cls = getattr(sys.modules.get("optising.optics"), "HrvEvaluator", None)
        if cls is not None and "evaluate" in vars(cls):
            orig = vars(cls)["evaluate"]
            out.append((cls, "evaluate", orig, self._wrap_evaluate(orig)))
        return out

    @contextmanager
    def traced_round(self):
        """Install the wrappers for one round and attribute its whole duration."""
        patches = self._patches()
        root = [0.0, 0]
        self._stack.append(root)
        for owner, key, _, wrapper in patches:
            setattr(owner, key, wrapper)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            d = time.perf_counter() - t0
            for owner, key, orig, _ in reversed(patches):
                setattr(owner, key, orig)
            self._stack.pop()
            stat = self._stat(ROOT)
            stat.calls += 1
            stat.total_s += d
            stat.self_s += d - root[0]
            self.rounds += 1
            self.round_s += d

    # -- reporting ----------------------------------------------------------

    def module_self_s(self, module: str) -> float:
        return sum(s.self_s for name, s in self.stats.items()
                   if name.split(".", 1)[0] == module)

    def layer_metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Per-round counts and self times, per-call means and medians, ratios.

        Times are multiplied by `time_scale`, the traced rounds' calibrated
        over raw duration, so they read in the same seconds as `wall_s`.
        """
        r = max(self.rounds, 1)

        def st(name):
            return self.stats.get(name, Stat())

        def self_s(name):
            return st(name).self_s * time_scale / r

        def per_call_us(name):
            s = st(name)
            return s.self_s * time_scale / s.calls * 1e6 if s.calls else 0.0

        eig = st("spectral.eigendecompose")
        brute_s = st("ising.brute_force_maxcut").self_s * time_scale
        iters = self.counters["anneal.iterations"]
        out = {
            "graph.gen_regular.calls": st("graph.gen_regular").calls / r,
            "graph.gen_regular.self_s": self_s("graph.gen_regular"),
            "ising.brute_force_maxcut.self_s": brute_s / r,
            "ising.brute_force_maxcut.states_per_s":
                self.counters["ising.states"] / brute_s if brute_s > 0 else 0.0,
            "spectral.eigendecompose.calls": eig.calls / r,
            "spectral.eigendecompose.ms_p50":
                statistics.median(eig.durations) * time_scale * 1e3 if eig.durations else 0.0,
            "spectral.eigendecompose.self_s": self_s("spectral.eigendecompose"),
            "spectral.build_ensemble.self_s": self_s("spectral.build_ensemble"),
            "spectral.recon_residual_max": self.maxima["spectral.recon_residual"],
            "spectral.orth_residual_max": self.maxima["spectral.orth_residual"],
            "optics.readouts": self.counters["optics.readouts"] / r,
            "optics.frames": self.counters["optics.frames"] / r,
            "optics.evaluate.self_us_mean": per_call_us("optics.evaluate"),
            "optics.evaluate_field.self_us_mean": per_call_us("optics.evaluate_field"),
            "optics.estimate_span.self_s": self_s("optics.estimate_span"),
            "anneal.anneal.calls": st("anneal.anneal").calls / r,
            "anneal.anneal.self_s": self_s("anneal.anneal"),
            "anneal.iter_self_us":
                st("anneal.anneal").self_s * time_scale / iters * 1e6 if iters else 0.0,
            "anneal.accept_ratio": self.counters["anneal.accepted"] / iters if iters else 0.0,
            "experiments.probability_vs_k.self_s": self_s("experiments.probability_vs_k"),
            "experiments.noise_sweep.self_s": self_s("experiments.noise_sweep"),
            "experiments.rmse_vs_k.calls": st("experiments.rmse_vs_k").calls / r,
            "experiments.rmse_vs_k.self_s": self_s("experiments.rmse_vs_k"),
            "cli.gen.self_s": self_s("cli.gen"),
            "cli.decompose.self_s": self_s("cli.decompose"),
            "cli.solve.self_s": self_s("cli.solve"),
        }
        for module in MODULES:
            out[f"{module}.self_frac"] = (self.module_self_s(module) / self.round_s
                                         if self.round_s > 0 else 0.0)
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the spans and aggregates kept in memory during the run."""
        payload = {
            **meta,
            "rounds": self.rounds,
            "round_s": self.round_s,
            "hook_s": self.hook_s,
            "counters": self.counters,
            "maxima": self.maxima,
            "stats": {k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                      for k, s in sorted(self.stats.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
