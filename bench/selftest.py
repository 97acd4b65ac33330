#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 bench/selftest.py

For each workload, untraced and traced, it checks that the run emits exactly
the metrics BENCHMARK.json names, each with its unit, and that no output
fails its check.  Then it breaks one framelab function per workload so that
its outputs are wrong and checks that the failure fraction rises.  Exits 1
on any problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import run


@contextlib.contextmanager
def sabotaged(module, name: str, wrong):
    original = getattr(module, name)
    setattr(module, name, wrong(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def main() -> int:
    run.configure_blas()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            record = run.run_benchmark(workload, 3, 0.0, bool(trace), run.TINY)
            units = {name: m["unit"] for name, m in record["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if record["summary"]["failed_frac"] != 0:
                problems.append(f"{workload} trace={trace}: failed_frac {record['summary']['failed_frac']}")

    from framelab import cli, frames, sparse

    def no_support(solve):
        return lambda *a, **k: dataclasses.replace(solve(*a, **k), support=())

    def fails_bound(check):
        return lambda *a, **k: dataclasses.replace(check(*a, **k), holds1=False)

    cases = (
        ("cue-sweep", False, frames, "support_measure", lambda measure: lambda *a, **k: 0.0),
        ("sparse", False, sparse, "l0_brute_force", no_support),
        ("cli", True, cli, "uncertainty_check", fails_bound),  # in-process replay
    )
    for workload, trace, module, name, wrong in cases:
        with sabotaged(module, name, wrong):
            record = run.run_benchmark(workload, 3, 0.0, trace, run.TINY)
        if not record["summary"]["failed_frac"] > 0:
            problems.append(f"{workload}: wrong {module.__name__}.{name} output went unnoticed")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
