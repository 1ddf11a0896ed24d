#!/usr/bin/env python3
"""moocteams benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload pipeline-1x --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout.  With ``--trace 0`` the measured operation is
repeated until ``--seconds`` have passed (at least twice, so outputs can
be compared) and the end-to-end metrics are reported, ``run_s`` as the
mean time of one execution; with ``--trace 1`` one untraced and one
traced execution give the per-layer metrics.  The metric names and
units are read from BENCHMARK.json.  Human-readable lines start with
``#``; the last line of standard output is the JSON result.  Inputs and
outputs go to ``.bench_work/<workload>/``.  README.md beside this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_EXECUTIONS = 2


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    try:
        with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def pin_threads() -> None:
    """One process, no BLAS worker threads; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program(root: Path):
    """Import the workloads (and through them moocteams) from this checkout."""
    src = root / "src"
    if not (src / "moocteams" / "__init__.py").is_file():
        raise HarnessError(f"no moocteams sources under {src}")
    sys.path.insert(0, str(src))
    import moocteams
    import numpy
    import workloads
    if Path(moocteams.__file__).resolve().parent != (src / "moocteams").resolve():
        raise HarnessError(f"moocteams imported from {moocteams.__file__}, not {src}")
    return workloads, numpy.__version__


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("Threads:"))


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def execute(wl, state, outcome_type):
    """One measured execution; an exception is a failed execution."""
    start = time.perf_counter()
    try:
        return wl.execute(state), None
    except Exception as exc:   # counted in error_rate, never fatal
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return outcome_type(seconds, wl.ops_per_execution,
                            failed=wl.ops_per_execution,
                            problems=[f"{type(exc).__name__}: {exc}"]), exc


def report(index: int, out) -> None:
    note(f"execution {index}: {out.seconds:.4f} s, "
         f"{out.attempted} attempted, {out.failed} failed")
    for problem in out.problems:
        note(f"FAIL {problem}")


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 work: Path, import_s: float, module) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    module.fresh_dir(work)
    start = time.perf_counter()
    toy = wl.toy()
    warm, _ = execute(toy, toy.setup(seed, work / "warmup"), module.Outcome)
    warmup_s = time.perf_counter() - start
    for problem in warm.problems:
        note(f"warm-up: {problem}")

    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        state = wl.setup(seed, work / "input")
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + warmup_s + statistics.median(setup_times)
    note(f"setup_s = import {import_s:.4f} + warm-up {warmup_s:.4f} + median of "
         f"{[round(t, 4) for t in setup_times]}")

    measured = []
    start = time.perf_counter()
    while True:
        out, exc = execute(wl, state, module.Outcome)
        measured.append(out)
        report(len(measured), out)
        if exc is not None or trace:
            break
        if len(measured) >= MIN_EXECUTIONS and time.perf_counter() - start >= seconds:
            break
    extra = []
    layers: dict[str, float] = {}
    if trace and not measured[0].problems:
        tracer = module.Tracer(f"{wl.name}:{seed}")
        traced = module.Outcome(0.0, wl.ops_per_execution)
        try:
            layers, traced.problems = wl.traced(state, measured[0], tracer)
        except Exception as exc:   # counted in error_rate, never fatal
            traceback.print_exc()
            traced.problems = [f"traced: {type(exc).__name__}: {exc}"]
        traced.failed = min(len(traced.problems), traced.attempted)
        extra.append(traced)
        for problem in traced.problems:
            note(f"FAIL {problem}")
        tracer.write(work / "spans.jsonl")
        note(f"{len(tracer.spans)} spans written to {work / 'spans.jsonl'}")

    for name, digest in sorted(measured[0].digests.items()):
        note(f"sha256 {name} {digest}")
    values = {}
    for key in sorted({k for o in measured for k in o.values}):
        values[key] = statistics.fmean(o.values[key] for o in measured
                                       if key in o.values)
    return {
        "attempted": sum(o.attempted for o in measured + extra),
        "failed": sum(o.failed for o in measured + extra),
        # mean, not median: on a shared machine the speed switches between
        # phases lasting seconds, and the median of a run's executions
        # jumps between them while the mean follows their proportion
        "run_s": statistics.fmean(o.seconds for o in measured),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "values": values,
        "layers": layers,
    }


def summary_lines(res: dict) -> list[str]:
    """The seven end-to-end figures of README.md, by name and unit."""
    v = res["values"]

    def opt(key, unit, why):
        return f"{v[key]:.6g} {unit}" if key in v else f"n/a ({why})"

    rate = res["failed"] / res["attempted"]
    return [
        f"run_s {res['run_s']:.6g} s",
        f"setup_s {res['setup_s']:.6g} s",
        "rewire_ms_per_iter " + opt("rewire_ms_per_iter", "ms",
                                    "only the rewire workload rewires"),
        f"peak_rss_mb {res['peak_rss_mb']:.6g} MB",
        f"error_rate {res['failed']}/{res['attempted']} = {rate:.6g} ratio",
        "teams_objective " + opt("teams_objective", "score",
                                 "only pipeline workloads form teams"),
        "rewire_improvement " + opt("rewire_improvement", "score",
                                    "only the rewire workload rewires"),
    ]


def main(argv=None, workload_table=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    pin_threads()
    try:
        end_to_end, per_layer = declared_metrics(ROOT)
        start = time.perf_counter()
        module, numpy_version = load_program(ROOT)
        import_s = time.perf_counter() - start
    except (HarnessError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    table = workload_table if workload_table is not None else module.WORKLOADS
    if args.workload not in table:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2

    note(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
         f"trace={args.trace} nproc={nproc} python={platform.python_version()} "
         f"numpy={numpy_version}")
    work = ROOT / ".bench_work" / args.workload
    res = run_workload(table[args.workload], args.seed, args.seconds,
                       bool(args.trace), work, import_s, module)
    note(f"os threads at exit: {os_threads()}")
    if args.trace:
        units = per_layer
        values = {name: res["layers"].get(name, 0.0) for name in per_layer}
        for name in ("trace.overhead_s", "trace.metrics_gap",
                     "trace.metrics_self_ratio"):
            if name in res["layers"]:
                note(f"{name} {res['layers'][name]:.6g}")
    else:
        units = end_to_end
        values = {name: res[name] for name in end_to_end}
        for line in summary_lines(res):
            note(line)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
