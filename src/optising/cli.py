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
import json
import math
import os
import sys

import numpy as np

from . import experiments as xp
from .anneal import CUT_MATCH_TOL, DEFAULT_ITERS, Schedule, anneal
from .graph import GraphError, GraphFormatError, WeightedGraph, density, gen_density, gen_regular, read_graph, write_graph
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
    """Comma list of ints; 'a..b' expands to an inclusive range."""
    out = []
    for part in s.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
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
    "flip_floor": (int, 1),
    "t0": (float, None),
    "span_samples": (int, 1000),
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

    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError([f"cannot read config: {exc}"]) from None
        for key, value in raw.items():
            if key not in schema:
                errors.append(f"unknown config key {key!r}")
                continue
            given.add(key)
            parser = schema[key][0]
            try:
                cfg[key] = parser(value)
            except ValueError:
                errors.append(f"config key {key!r}: cannot parse {value!r}")

    for key, value in overrides.items():
        if value is None:
            continue
        if key not in schema:
            errors.append(f"option {key!r} does not apply to study {study!r}")
            continue
        given.add(key)
        parser = schema[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError:
            errors.append(f"option {key!r}: cannot parse {value!r}")

    if cfg.get("instance") is None:
        if (cfg.get("degree") is None) == (cfg.get("density") is None):
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
    if cfg.get("instance"):
        g = read_graph(cfg["instance"])
        cfg["n"] = g.n
        return g
    seed = xp.derive_seed(cfg["seed"], xp.LBL_GRAPH, 0)
    if cfg.get("degree") is not None:
        return gen_regular(cfg["n"], cfg["degree"], cfg["wlow"], cfg["whigh"], seed=seed)
    return gen_density(cfg["n"], cfg["density"], cfg["wlow"], cfg["whigh"], seed=seed)


def _schedules(cfg, g, rates, K) -> list[Schedule]:
    """One schedule per rate; t0 defaults to the K-truncated readout span."""
    t0 = cfg["t0"]
    if t0 is None:
        ens = build_ensemble(eigendecompose(from_graph(g)), K)
        t0 = _span_t0(xp.readout_span(ens, cfg["seed"], cfg["span_samples"]))
    return [Schedule(t0=float(t0), rate=rate, iters=cfg["iters"], flip_floor=cfg["flip_floor"])
            for rate in rates]


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
    if args.degree is not None:
        g = gen_regular(args.n, args.degree, args.wlow, args.whigh, seed=args.seed)
    else:
        g = gen_density(args.n, args.density, args.wlow, args.whigh, seed=args.seed)
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
    rows = []
    print(f"{'rank':>4} {'eigenvalue':>24} {'sign':>4} {'error_ratio_at_K':>20}")
    for rank, idx in enumerate(b.order, start=1):
        mu = error_ratio(b, rank)
        rows.append((rank, float(b.lam[idx]), int(b.signs[idx]), mu))
        print(f"{rank:>4} {float(b.lam[idx])!r:>24} {int(b.signs[idx]):>4} {mu!r:>20}")
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
    if not (args.noise_level >= 0 and math.isfinite(args.noise_level)):
        raise ValueError("noise level must be finite and non-negative")
    g = read_graph(args.graph)
    b = eigendecompose(from_graph(g))
    K = args.k if args.k is not None else g.n
    ens = build_ensemble(b, K, P=args.p)

    span = None
    if args.t0 is None or args.noise_level > 0:
        span = xp.readout_span(ens, args.seed, args.span_samples)
    sigma = args.noise_level * span if args.noise_level > 0 else 0.0
    evaluator = HrvEvaluator(ens, backend=args.backend, sigma=sigma)
    t0 = args.t0 if args.t0 is not None else _span_t0(span)
    schedule = Schedule(t0=float(t0), rate=args.rate, iters=args.iters,
                        flip_floor=args.flip_floor)

    trace = anneal(evaluator, g, schedule, args.seed)
    bits = "".join("+" if v > 0 else "-" for v in trace.final_state)
    print(f"final_cut={trace.final_cut!r}")
    print(f"final_hrv={trace.final_hrv!r}")
    print(f"state={bits}")
    print(f"split_cluster={int(splits_cluster(b, K))}")
    if args.oracle:
        best, _ = brute_force_maxcut(g)
        print(f"optimal_cut={best!r}")
        print(f"optimal_match={int(abs(trace.final_cut - best) <= CUT_MATCH_TOL)}")
    if args.trace_out:
        xp.write_csv(args.trace_out, ["iter", "temperature", "flips", "hrv", "cut", "accepted"],
                     zip(range(trace.iters), trace.temperature, trace.flips, trace.hrv,
                         trace.cut, trace.accepted))
        print(f"wrote {args.trace_out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides = {key: getattr(args, key) for key in _EXPERIMENT_KEYS}
    cfg = resolve_config(args.study, args.config, overrides)
    runner = {"rmse": _run_rmse, "prob": _run_prob, "noise": _run_noise,
              "trace": _run_trace}[args.study]
    tables, results = runner(cfg)
    # the report directory is made only once the study has run, so a study
    # that fails its checks leaves nothing behind
    os.makedirs(args.out, exist_ok=True)
    for name, header, rows in tables:
        path = os.path.join(args.out, name)
        xp.write_csv(path, header, rows)
        print(f"wrote {path}")
    path = os.path.join(args.out, f"{args.study}.json")
    xp.write_json_summary(path, {"study": args.study, **cfg}, results)
    print(f"wrote {path}")
    return EXIT_OK


# Each runner returns (tables, results): the (file name, header, rows) of
# every CSV report in write order, and the `results` of the JSON summary.

def _run_rmse(cfg):
    g = _load_instance(cfg) if cfg.get("instance") else None
    n = g.n if g is not None else cfg["n"]
    ks = cfg["ks"] if cfg["ks"] is not None else list(range(1, n + 1))
    if any(k < 1 or k > n for k in ks):
        raise ValueError(f"ks must lie in 1..{n}")
    if g is not None:
        rep = xp.rmse_vs_k(from_graph(g), ks, cfg["samples"], cfg["seed"])
        mean_rmse = np.array([rep.by_k(k).rmse for k in ks])
        mean_rel = np.array([rep.by_k(k).rmse_relative for k in ks])
        mean_r2 = np.array([rep.by_k(k).r2 for k in ks])
    else:
        ks, mean_rmse, mean_rel, mean_r2 = xp.rmse_curve_averaged(
            n, ks, cfg["samples"], cfg["graph_seeds"], cfg["seed"],
            degree=cfg["degree"], density=cfg["density"],
            weight_low=cfg["wlow"], weight_high=cfg["whigh"])

    curve = [(k / n, r) for k, r in zip(ks, mean_rmse)]
    results = {"ks": list(ks), "rmse": list(mean_rmse), "rmse_relative": list(mean_rel),
               "fit_r2": list(mean_r2)}
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
    ks = cfg["ks"] if cfg["ks"] is not None else list(range(1, g.n + 1))
    schedules = _schedules(cfg, g, cfg["rates"], g.n)
    table = xp.probability_vs_k(g, ks, schedules, cfg["runs"], cfg["seed"])

    rows = [(c.schedule_index, c.rate, c.K, c.runs, c.hits, c.probability,
             c.wilson_low, c.wilson_high, c.is_reference) for c in table.cells]
    results = {"optimum": table.optimum,
               "schedules": [vars(s) for s in schedules],
               "cells": [vars(c) for c in table.cells],
               "split_cluster": table.split_cluster}
    return [("prob.csv", ["schedule", "rate", "K", "runs", "hits", "probability",
                          "wilson_low", "wilson_high", "is_reference"], rows)] + [
        (f"prob_schedule{si}.dat", ["K", "probability"],
         [(c.K, c.probability) for c in table.cells if c.schedule_index == si])
        for si in range(len(schedules))], results


def _run_noise(cfg):
    g = _load_instance(cfg)
    K = cfg["k"] if cfg["k"] is not None else g.n
    (schedule,) = _schedules(cfg, g, [cfg["rate"]], K)
    table = xp.noise_sweep(g, K, cfg["levels"], schedule, cfg["runs"], cfg["seed"],
                           span_samples=cfg["span_samples"])
    rows = [(c.level, c.sigma, c.K, c.runs, c.hits, c.probability,
             c.wilson_low, c.wilson_high) for c in table.cells]
    results = {"optimum": table.optimum, "span": table.span, "K": table.K,
               "schedule": vars(schedule),
               "cells": [vars(c) for c in table.cells],
               "split_cluster": table.split_cluster}
    return [("noise.csv", ["level", "sigma", "K", "runs", "hits", "probability",
                           "wilson_low", "wilson_high"], rows),
            ("prob_vs_noise.dat", ["level", "probability"],
             [(c.level, c.probability) for c in table.cells])], results


def _run_trace(cfg):
    g = _load_instance(cfg)
    ks = cfg["ks"] if cfg["ks"] is not None else [g.n]
    (schedule,) = _schedules(cfg, g, [cfg["rate"]], g.n)
    study = xp.anneal_trace_study(g, ks, schedule, cfg["runs"], cfg["seed"])
    results = {"ks": study.ks,
               "schedule": vars(schedule),
               "final_hrv_mean": study.final_hrv_mean,
               "final_hrv_std": study.final_hrv_std,
               "final_cut_mean": study.final_cut_mean,
               "final_cut_std": study.final_cut_std,
               "split_cluster": study.split_cluster}
    return [(f"trace_k{K}.csv", ["iter", "mean_hrv", "mean_cut"],
             [(i, study.mean_hrv[K][i], study.mean_cut[K][i]) for i in range(schedule.iters)])
            for K in study.ks], results


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="eigenvalue table with truncation error ratios",
                       allow_abbrev=False)
    p.add_argument("--graph")
    p.add_argument("--matrix")
    p.add_argument("--out")
    p.add_argument("--dump-bundle")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("solve", help="anneal one Max-cut instance", allow_abbrev=False)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--backend", choices=["analytic", "field"], default="analytic")
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--rate", type=float, default=0.995)
    p.add_argument("--iters", type=int, default=DEFAULT_ITERS)
    p.add_argument("--t0", type=float)
    p.add_argument("--flip-floor", type=int, default=1)
    p.add_argument("--span-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="run a study and write reports", allow_abbrev=False)
    p.add_argument("study", choices=list(_STUDY_SCHEMA))
    p.add_argument("--config")
    p.add_argument("--out", default="reports")
    for key, parse in _EXPERIMENT_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=parse if parse in (int, float) else None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphFormatError, MatrixFormatError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
