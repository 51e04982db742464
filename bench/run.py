"""Benchmark of the optising simulator: one workload per process.

    python3 bench/run.py --workload plateau --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, and scratch files go to `.bench_build/` at the repository root.
The process sets up the workload several times (set-up time is the import
time plus the median of those), then runs rounds of the workload for
`--seconds` seconds (at least two rounds).  Every round repeats the same
calls on the same inputs; metrics are medians over rounds.  Round and task
times, and set-up time, are calibrated by the machine-speed probe in
`probe.py`: seconds at the probe's reference speed, which removes most of a
shared host's speed swings.

With `--trace 0` the last line of stdout holds the end-to-end metrics.  With
`--trace 1` rounds alternate between untraced and traced, and the last line
holds the per-layer metrics of the traced rounds plus `trace.overhead_frac`
(traced over untraced median round time, minus 1); the spans are written to
`.bench_build/traces/`.  The line before the last is a report with the
environment stamp, each metric's median and quartiles, and any failed checks.
Exit status is 2 when the program's sources are missing.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_REPS = 5
MIN_ROUNDS = 2
# One BLAS thread: the single-core baseline, and steadier on a shared host.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("plateau", "rmse-n128", "cli-pipeline")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "tasks_per_s": "1/s", "frames_per_s": "1/s",
                    "task_p50_ms": "ms", "peak_rss_mb": "MB"}


def summary(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def git_stamp() -> dict:
    """sha and dirty flag of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env, check=True).stdout

    try:
        return {"sha": git("rev-parse", "HEAD").strip(),
                "dirty": bool(git("status", "--porcelain").strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def environment(seed: int) -> dict:
    import inspect

    import numpy as np

    from optising.experiments import probability_vs_k

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    jobs = inspect.signature(probability_vs_k).parameters.get("jobs")
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git": git_stamp(),
        "seed": seed,
        "jobs": jobs.default if jobs is not None else None,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optising" / "__init__.py").is_file():
        print(f"bench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        return run(args, probe)


def run(args, probe) -> int:
    import optising

    if SRC not in Path(optising.__file__).resolve().parents:
        print(f"bench: optising was imported from {optising.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from tracer import LAYER_UNITS, Tracer

    import_s = probe.calibrate(_T_START, time.perf_counter())

    wl = workloads.WORKLOADS[args.workload](args.seed, str(WORK))
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(probe.calibrate(t0, time.perf_counter()))

        tracer = Tracer() if args.trace else None
        ledger = checks.Ledger()
        raw, plain, traced, traced_raw, hits, runs = [], [], [], [], 0, 0
        task_ms: dict[str, list] = {}
        t_start = time.perf_counter()
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() - t_start < args.seconds:
            tracing = tracer is not None and i % 2 == 1
            with tracer.traced_round() if tracing else nullcontext():
                t0 = time.perf_counter()
                ops = wl.run_round()
                t1 = time.perf_counter()
            for op, failures in wl.check_round(ops):
                ledger.record(op, failures)
            if tracing:
                traced_raw.append(t1 - t0)
                traced.append(probe.calibrate(t0, t1))
                h, r = wl.hits_runs(ops)
                hits, runs = hits + h, runs + r
            else:
                raw.append(t1 - t0)
                plain.append(probe.calibrate(t0, t1))
                for kind, s, e, n in wl.tasks(ops):
                    task_ms.setdefault(kind, []).append(probe.calibrate(s, e) / n * 1e3)
            i += 1
        for op, failures in wl.verify():
            ledger.record(op, failures)
    finally:
        wl.close()

    series = {
        "wall_s": plain,
        "tasks_per_s": [wl.tasks_per_round / d for d in plain],
        "frames_per_s": [wl.frames_per_round / d for d in plain],
        **{f"task_ms.{kind}": v for kind, v in task_ms.items()},
    }
    if tracer is None:
        metrics = {name: statistics.median(series[name])
                   for name in ("wall_s", "tasks_per_s", "frames_per_s")}
        # median over task kinds of each kind's median: one kind per command,
        # so the result cannot fall between two kinds' time ranges
        metrics["task_p50_ms"] = statistics.median(statistics.median(v) for v in task_ms.values())
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    else:
        metrics = tracer.layer_metrics(time_scale=sum(traced) / sum(traced_raw))
        metrics["anneal.hit_ratio"] = hits / runs if runs else 0.0
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = LAYER_UNITS
        os.makedirs(WORK / "traces", exist_ok=True)
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed})

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "spread": {name: summary(v) for name, v in series.items()},
        "raw_wall_s": summary(raw),
        "probe_us": summary(d * 1e6 for _, d in probe.samples),
        "failed_frac": ledger.failed_frac,
        "failures": ledger.messages,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
