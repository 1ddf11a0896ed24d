#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy scale.

    python3 bench/selftest.py

Runs every workload's toy-sized version through ``run.main`` with and
without tracing and checks the result line against BENCHMARK.json:
every declared metric is printed, with its declared unit, and every
per-layer metric is measured by at least one workload.  It also checks
that a failing operation (a corpus file that is missing when the
pipeline runs) is counted as failed instead of crashing the harness, and
that the benchmark refuses to run in a directory holding only
BENCHMARK.json and bench/.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def call_main(argv: list[str], table: dict) -> tuple[int, dict | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, workload_table=table)
    lines = buf.getvalue().strip().splitlines()
    try:
        return code, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return code, None


def args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace)]


def main() -> int:
    run.pin_threads()
    end_to_end, per_layer = run.declared_metrics(run.ROOT)
    module, _ = run.load_program(run.ROOT)
    toys = {name: wl.toy() for name, wl in module.WORKLOADS.items()}
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for name in toys:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            code, res = call_main(args(name, trace), toys)
            label = f"{name} --trace {trace}"
            expect(code == 0, f"{label}: exit code {code}")
            if res is None:
                failures.append(f"{label}: last line is not a JSON object")
                continue
            expect(set(res) == RESULT_KEYS, f"{label}: result keys {sorted(res)}")
            expect(res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{label}: correct={res['correct']} failed={res['failed']} "
                   f"attempted={res['attempted']}")
            metrics = res["metrics"]
            expect(set(metrics) == set(declared),
                   f"{label}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(metrics) ^ set(declared))}")
            for metric, unit in declared.items():
                got = metrics.get(metric, {})
                expect(got.get("unit") == unit, f"{label}: {metric} unit {got.get('unit')!r}")
                expect(isinstance(got.get("value"), (int, float)),
                       f"{label}: {metric} value {got.get('value')!r}")
                if trace == 0:
                    expect(got.get("value", 0) > 0, f"{label}: {metric} is not positive")

    covered: set[str] = set()
    for name, toy in toys.items():
        with contextlib.redirect_stdout(io.StringIO()):
            res = run.run_workload(toy, 3, 0.1, True, run.ROOT / ".bench_work" / name,
                                   0.0, module)
        covered |= set(res["layers"])
    expect(covered <= set(per_layer),
           f"layer metrics missing from BENCHMARK.json: {sorted(covered - set(per_layer))}")
    expect(covered >= set(per_layer),
           f"per-layer metrics no workload measures: {sorted(set(per_layer) - covered)}")

    pipeline = toys["pipeline-1x"]

    class MissingCorpus(type(pipeline)):
        def setup(self, seed, work):
            state = super().setup(seed, work)
            Path(state.config.input_path).unlink()
            return state

    broken = {"pipeline-1x": MissingCorpus(pipeline.name, pipeline.counts)}
    for trace in (0, 1):
        code, res = call_main(args("pipeline-1x", trace), broken)
        expect(code == 0 and res is not None and res["correct"] is False
               and res["failed"] >= 1 and res["attempted"] >= res["failed"],
               f"missing corpus, --trace {trace}: exit {code}, result {res}")

    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", *args("pipeline-1x", 0)],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'FAILED' if failures else 'ok'} "
          f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
