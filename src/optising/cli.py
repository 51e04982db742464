"""Command-line surface: generate instances, inspect spectra, solve, run studies.

Commands
--------
gen         write a random weighted graph (rudy + JSON) at a given degree
            or density
decompose   eigenvalue table of an instance, sorted by |eigenvalue|, with
            the truncation error ratio at every K; a note on stderr names
            every K that splits a degenerate eigenvalue cluster
solve       anneal one instance with a chosen truncation/backend/noise
experiment  run a named study (rmse | prob | noise | trace) from a config
            file and/or flags, writing CSV + JSON reports

All randomness flows from --seed; subsystem streams are derived from it by
fixed labels, so any command rerun with the same inputs reproduces its
outputs byte for byte.  Exit codes: 0 ok, 2 usage, 3 input/config parse
error, 4 guard or parameter violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import experiments as xp
from .anneal import DEFAULT_ITERS, Schedule, anneal, reaches_optimum
from .graph import GraphFormatError, WeightedGraph, density, generate, read_graph, write_graph
from .ising import MatrixFormatError, brute_force_maxcut, from_graph, read_matrix
from .optics import HrvEvaluator
from .spectral import build_ensemble, dump_bundle, eigendecompose, error_ratio, splits_cluster

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARD = 4


class ConfigError(Exception):
    """One or more config problems; collects every message before raising."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# Config files: '#' comments, 'key = value' lines.
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value.strip()
    if errors:
        raise ConfigError(errors)
    return raw


def _parse_int_list(s):
    """Comma list of ints; 'a..b' is the inclusive range a..b (b >= a).

    Every part stays an unexpanded `range`, which the study checks against
    1..n before it expands it."""
    out = []
    for part in s.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = (int(v) for v in part.split("..", 1))
            if hi < lo:
                raise ValueError(f"reversed range {part!r}")
        else:
            lo = hi = int(part)
        out.append(range(lo, hi + 1))
    return out


def _parse_float_list(s):
    return [float(part.strip()) for part in s.split(",")]


_COMMON_SCHEMA = {
    "seed": (int, 0),
    "n": (int, 20),
    "degree": (int, None),
    "density": (float, None),
    "wlow": (float, 0.0),
    "whigh": (float, 1.0),
    "instance": (str, None),
}

_ANNEAL_SCHEMA = {
    "iters": (int, DEFAULT_ITERS),
    "runs": (int, 200),
    "t0": (float, None),
}

_STUDY_SCHEMA = {
    "rmse": {
        **_COMMON_SCHEMA,
        "ks": (_parse_int_list, None),
        "samples": (int, 1000),
        "graph_seeds": (int, 20),
    },
    "prob": {
        **_COMMON_SCHEMA,
        "ks": (_parse_int_list, None),
        "rates": (_parse_float_list, [0.99, 0.995, 0.999]),
        **_ANNEAL_SCHEMA,
    },
    "noise": {
        **_COMMON_SCHEMA,
        "k": (int, None),
        "levels": (_parse_float_list, [0.0, 0.01, 0.02, 0.05]),
        "rate": (float, 0.995),
        **_ANNEAL_SCHEMA,
    },
    "trace": {
        **_COMMON_SCHEMA,
        "ks": (_parse_int_list, None),
        "rate": (float, 0.995),
        **_ANNEAL_SCHEMA,
        "runs": (int, 20),
    },
}

# Every study key with its parser, in first-declared order; the `experiment`
# flags are generated from it.
_EXPERIMENT_KEYS = {key: parser for schema in _STUDY_SCHEMA.values()
                    for key, (parser, _) in schema.items()}

# The settings that generate a graph; an instance file replaces them all.
_GENERATOR_KEYS = ("n", "degree", "density", "wlow", "whigh", "graph_seeds")


def resolve_config(study: str, config_path: str | None, overrides: dict) -> dict:
    """Defaults <- config file <- CLI flags, validating everything at once.

    Next to an instance, a generator setting given in the file or as a flag
    is an error, and the resolved config holds none of them (the study sets
    `n` from the instance)."""
    schema = _STUDY_SCHEMA[study]
    cfg = {key: default for key, (_, default) in schema.items()}
    given = set()
    errors = []

    # (source, key, value): the config file's values, then the flags'
    given_values = []
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError([f"cannot read config: {exc}"]) from None
        given_values += [("config key", key, value) for key, value in raw.items()]
    given_values += [("option", key, value) for key, value in overrides.items()
                     if value is not None]
    for source, key, value in given_values:
        if key not in schema:
            errors.append(f"unknown config key {key!r}" if source == "config key"
                          else f"option {key!r} does not apply to study {study!r}")
            continue
        given.add(key)
        try:
            cfg[key] = schema[key][0](value)
        except ValueError:
            errors.append(f"{source} {key!r}: cannot parse {value!r}")

    if cfg["instance"] is None:
        if (cfg["degree"] is None) == (cfg["density"] is None):
            errors.append("specify exactly one of degree/density (or an instance path)")
    else:
        errors.extend(f"{key!r} does not apply next to an instance"
                      for key in _GENERATOR_KEYS if key in given)
        cfg = {key: value for key, value in cfg.items() if key not in _GENERATOR_KEYS}
    if errors:
        raise ConfigError(errors)
    return cfg


def _load_instance(cfg) -> WeightedGraph:
    """The study's graph.  An instance file sets the echoed `n`."""
    if cfg["instance"] is not None:
        g = read_graph(cfg["instance"])
        cfg["n"] = g.n
        return g
    return generate(cfg["n"], cfg["degree"], cfg["density"], cfg["wlow"], cfg["whigh"],
                    seed=xp.derive_seed(cfg["seed"], xp.LBL_GRAPH, 0))


def _schedules(cfg, g, rates, K) -> list[Schedule]:
    """One schedule per rate; t0 defaults to the K-truncated readout span."""
    t0 = cfg["t0"]
    if t0 is None:
        ens = build_ensemble(eigendecompose(from_graph(g)), K)
        t0 = _span_t0(xp.readout_span(ens, cfg["seed"]))
    return [Schedule(t0=float(t0), rate=rate, iters=cfg["iters"]) for rate in rates]


def _check_seed(seed: int) -> None:
    """Refuse a negative master seed before any work; numpy's own refusal
    does not name the seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _span_t0(span: float) -> float:
    """The readout span as the default t0; a graph without edges has none."""
    if not span > 0:
        raise ValueError("the readout span is 0, so t0 has no default: give t0")
    return span


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if (args.degree is None) == (args.density is None):
        print("gen: specify exactly one of --degree or --density", file=sys.stderr)
        return EXIT_USAGE
    _check_seed(args.seed)
    g = generate(args.n, args.degree, args.density, args.wlow, args.whigh, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    rudy_path = os.path.join(args.out, f"{args.name}.rud")
    json_path = os.path.join(args.out, f"{args.name}.json")
    write_graph(g, rudy_path, "rudy")
    write_graph(g, json_path, "json")
    print(f"n={g.n} edges={g.num_edges} density={density(g)!r}")
    print(f"wrote {rudy_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    if (args.graph is None) == (args.matrix is None):
        print("decompose: specify exactly one of --graph or --matrix", file=sys.stderr)
        return EXIT_USAGE
    m = from_graph(read_graph(args.graph)) if args.graph is not None else read_matrix(args.matrix)
    b = eigendecompose(m)
    rows = [(rank, lam, sign, error_ratio(b, rank)) for rank, (lam, sign) in
            enumerate(zip(b.lam[b.order].tolist(), b.signs[b.order].tolist()), start=1)]
    print(f"{'rank':>4} {'eigenvalue':>24} {'sign':>4} {'error_ratio_at_K':>20}")
    for rank, lam, sign, mu in rows:
        print(f"{rank:>4} {lam!r:>24} {sign:>4} {mu!r:>20}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        xp.write_csv(os.path.join(args.out, "spectrum.csv"),
                     ["rank", "eigenvalue", "sign", "error_ratio_at_K"], rows)
    if args.dump_bundle:
        dump_bundle(b, args.dump_bundle)
    split = [K for K in range(1, b.n) if splits_cluster(b, K)]
    if split:
        print(f"note: K in {split} splits a degenerate eigenvalue cluster; "
              "truncated readouts there depend on the eigenbasis", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    _check_seed(args.seed)
    if not (args.noise_level >= 0 and math.isfinite(args.noise_level)):
        raise ValueError("noise level must be finite and non-negative")
    g = read_graph(args.graph)
    b = eigendecompose(from_graph(g))
    K = args.k if args.k is not None else g.n
    ens = build_ensemble(b, K)

    span = xp.readout_span(ens, args.seed)
    evaluator = HrvEvaluator(ens, backend=args.backend, sigma=args.noise_level * span)
    t0 = args.t0 if args.t0 is not None else _span_t0(span)
    schedule = Schedule(t0=float(t0), rate=args.rate, iters=args.iters)
    # the oracle runs first, so a graph too large to enumerate fails before
    # any annealing output is printed
    best = brute_force_maxcut(g)[0] if args.oracle else None

    trace = anneal(evaluator, g, schedule, args.seed)
    bits = "".join("+" if v > 0 else "-" for v in trace.final_state)
    print(f"final_cut={trace.final_cut!r}")
    print(f"final_hrv={trace.final_hrv!r}")
    print(f"state={bits}")
    print(f"split_cluster={int(splits_cluster(b, K))}")
    if args.oracle:
        print(f"optimal_cut={best!r}")
        print(f"optimal_match={int(reaches_optimum(trace.final_cut, best, g))}")
    if args.trace_out:
        xp.write_csv(args.trace_out, ["iter", "temperature", "flips", "hrv", "cut", "accepted"],
                     zip(range(trace.iters), trace.temperature.tolist(), trace.flips.tolist(),
                         trace.hrv.tolist(), trace.cut.tolist(), trace.accepted.tolist()))
        print(f"wrote {args.trace_out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides = {key: getattr(args, key) for key in _EXPERIMENT_KEYS}
    cfg = resolve_config(args.study, args.config, overrides)
    _check_seed(cfg["seed"])
    runner = {"rmse": _run_rmse, "prob": _run_prob, "noise": _run_noise,
              "trace": _run_trace}[args.study]
    tables, results = runner(cfg)
    # the studies expand the parsed ranges once they are checked; echo the ks
    if cfg.get("ks") is not None:
        cfg["ks"] = [k for r in cfg["ks"] for k in r]
    # the report directory is made only once the study has run and its
    # summary is known to be strict JSON, so a study that fails its checks
    # or yields a non-finite result leaves nothing behind
    summary = xp.json_summary({"study": args.study, **cfg}, results)
    os.makedirs(args.out, exist_ok=True)
    for name, header, rows in tables:
        path = os.path.join(args.out, name)
        xp.write_csv(path, header, rows)
        print(f"wrote {path}")
    path = os.path.join(args.out, f"{args.study}.json")
    with open(path, "w") as fh:
        fh.write(summary)
    print(f"wrote {path}")
    return EXIT_OK


# Each runner returns (tables, results): the (file name, header, rows) of
# every CSV report in write order, and the `results` of the JSON summary.

def _run_rmse(cfg):
    g = _load_instance(cfg) if cfg["instance"] is not None else None
    n = cfg["n"]
    ks = cfg["ks"] or [range(1, n + 1)]
    if g is not None:
        rep = xp.rmse_vs_k(from_graph(g), ks, cfg["samples"], cfg["seed"])
        ks, mean_rmse, mean_rel, mean_r2 = map(list, zip(
            *[(rec.K, rec.rmse, rec.rmse_relative, rec.r2) for rec in rep.records]))
    else:
        ks, *means = xp.rmse_curve_averaged(
            n, ks, cfg["samples"], cfg["graph_seeds"], cfg["seed"],
            degree=cfg["degree"], density=cfg["density"],
            weight_low=cfg["wlow"], weight_high=cfg["whigh"])
        mean_rmse, mean_rel, mean_r2 = (m.tolist() for m in means)

    curve = [(k / n, r) for k, r in zip(ks, mean_rmse)]
    results = {"ks": ks, "rmse": mean_rmse, "rmse_relative": mean_rel,
               "fit_r2": mean_r2}
    try:
        fit = xp.fit_exponential(curve)
        results["exp_fit"] = {"A": fit.A, "B": fit.B, "D": fit.D, "r2": fit.r2,
                              "decaying": fit.decaying}
    except ValueError:
        results["exp_fit"] = None
    return [("rmse.csv", ["K", "rmse", "rmse_relative", "fit_r2"],
             list(zip(ks, mean_rmse, mean_rel, mean_r2))),
            ("rmse_vs_k_over_n.dat", ["k_over_n", "rmse"], curve)], results


def _run_prob(cfg):
    g = _load_instance(cfg)
    schedules = _schedules(cfg, g, cfg["rates"], g.n)
    table = xp.probability_vs_k(g, cfg["ks"] or [range(1, g.n + 1)], schedules, cfg["runs"],
                                cfg["seed"])

    results = {"optimum": table.optimum,
               "schedules": [vars(s) for s in schedules],
               "cells": [vars(c) for c in table.cells],
               "split_cluster": table.split_cluster}
    return [("prob.csv", ["schedule", "rate", "K", "runs", "hits", "probability",
                          "wilson_low", "wilson_high", "is_reference"],
             [dataclasses.astuple(c) for c in table.cells])] + [
        (f"prob_schedule{si}.dat", ["K", "probability"],
         [(c.K, c.probability) for c in table.cells if c.schedule_index == si])
        for si in range(len(schedules))], results


def _run_noise(cfg):
    g = _load_instance(cfg)
    K = cfg["k"] if cfg["k"] is not None else g.n
    (schedule,) = _schedules(cfg, g, [cfg["rate"]], K)
    table = xp.noise_sweep(g, K, cfg["levels"], schedule, cfg["runs"], cfg["seed"])
    results = {"optimum": table.optimum, "span": table.span, "K": table.K,
               "schedule": vars(schedule),
               "cells": [vars(c) for c in table.cells],
               "split_cluster": table.split_cluster}
    return [("noise.csv", [f.name for f in dataclasses.fields(xp.NoiseCell)],
             [dataclasses.astuple(c) for c in table.cells]),
            ("prob_vs_noise.dat", ["level", "probability"],
             [(c.level, c.probability) for c in table.cells])], results


def _run_trace(cfg):
    g = _load_instance(cfg)
    (schedule,) = _schedules(cfg, g, [cfg["rate"]], g.n)
    study = xp.anneal_trace_study(g, cfg["ks"] or [g.n], schedule, cfg["runs"], cfg["seed"])
    results = {"ks": study.ks,
               "schedule": vars(schedule),
               "final_hrv_mean": study.final_hrv_mean,
               "final_hrv_std": study.final_hrv_std,
               "final_cut_mean": study.final_cut_mean,
               "final_cut_std": study.final_cut_std,
               "split_cluster": study.split_cluster}
    return [(f"trace_k{K}.csv", ["iter", "mean_hrv", "mean_cut"],
             list(zip(range(schedule.iters), study.mean_hrv[K].tolist(),
                      study.mean_cut[K].tolist())))
            for K in study.ks], results


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; a parse leaves no state in it."""
    # allow_abbrev=False here and on each command: flags are spelled in full
    parser = argparse.ArgumentParser(prog="optising", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random weighted graph", allow_abbrev=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--wlow", type=float, default=0.0)
    p.add_argument("--whigh", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--name", default="graph")

    p = sub.add_parser("decompose", help="eigenvalue table with truncation error ratios",
                       allow_abbrev=False)
    p.add_argument("--graph")
    p.add_argument("--matrix")
    p.add_argument("--out")
    p.add_argument("--dump-bundle")

    p = sub.add_parser("solve", help="anneal one Max-cut instance", allow_abbrev=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--backend", choices=["analytic", "field"], default="analytic")
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--rate", type=float, default=0.995)
    p.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    p.add_argument("--t0", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--trace-out")

    p = sub.add_parser("experiment", help="run a study and write reports", allow_abbrev=False)
    p.add_argument("study", choices=list(_STUDY_SCHEMA))
    p.add_argument("--config")
    p.add_argument("--out", default="reports")
    for key, parse in _EXPERIMENT_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=parse if parse in (int, float) else None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a command patched on the module is the one run
    command = {"gen": cmd_gen, "decompose": cmd_decompose, "solve": cmd_solve,
               "experiment": cmd_experiment}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphFormatError, MatrixFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
