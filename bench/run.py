#!/usr/bin/env python3
"""framelab benchmark: one closed-loop client timing framelab's public API.

Usage (from the repository root):

    python3 bench/run.py --workload {cue-sweep,sparse,cli} --seed N \\
        --seconds S --trace {0,1}

The program under test is ``src/framelab`` next to this directory; nothing
is installed.  A run builds the workload from ``--seed`` (timed as set-up),
then runs rounds of fixed work until it has measured at least ``--seconds``
seconds, at least three rounds and at least 100 ops.  Every round's outputs
are checked after its timed section.

Set-up, round and op times are CPU times of the benchmark process and of
the children it has reaped (``workloads.cpu_seconds``): on a shared VM the
hypervisor's steal time moves wall time from run to run, and the kernel
leaves it out of CPU time.  Wall-clock counterparts go to the result file.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer span metrics (per round, median over traced rounds) and the
tracing overhead.  The last stdout line is the result object; the line
before it lists every metric with its unit, the failure fraction and the op
count.  A fuller record, with the environment, goes to
``.bench_results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# One closed-loop client on one thread: a single BLAS thread keeps the
# process's CPU use at one core (at or below nproc everywhere), and on a
# two-vCPU VM gave steadier timings than two.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

FULL = {
    "min_ops": 100,
    "min_rounds": 3,
    "setup_repeats": 7,
    "cue-sweep": {
        "vectors_per_pair": 8,
        "fourier_dims": (16, 64, 256),
        "extremal": ((16, 1000), (64, 500)),
    },
    "sparse": {
        # (solver, atoms, planted cardinality, frames per kind) in rising
        # cost.  Counts are 1:3:1, so the median op falls mid-way through
        # the count solves of three atoms and p90 mid-way through the weight
        # solves; neither sits on the edge between two cost levels.
        "levels": (("l0", (12, 14), 2, 1), ("l0", (12, 13, 14), 3, 2), ("measure", (14,), 2, 2)),
        "probe_frames": 2,
        "probe_atoms": 14,
        "probe_trials": 8,
        "reference_per_round": 2,
    },
    "cli": {
        "harmonic": (32, 512),
        "sparse_atoms": 14,
        "probe_atoms": 12,
        "probe_trials": 4,
        "extremal_budget": 200,
        "setup_repeats": 5,
    },
}

# Sizes for the harness self-test (bench/selftest.py).
TINY = {
    "min_ops": 1,
    "min_rounds": 1,
    "setup_repeats": 1,
    "cue-sweep": {"vectors_per_pair": 1, "fourier_dims": (16, 64), "extremal": ((16, 40), (64, 10))},
    "sparse": {"levels": (("l0", (10,), 2, 1), ("measure", (10,), 2, 1)), "probe_frames": 1, "probe_atoms": 8, "probe_trials": 2, "reference_per_round": 1},
    "cli": {"harmonic": (8, 32), "sparse_atoms": 8, "probe_atoms": 8, "probe_trials": 2, "extremal_budget": 20},
}

SPANS = (
    "frames.cross_coherence",
    "frames.analysis",
    "frames.support_measure",
    "frames.uncertainty_check",
    "frames.synthesis",
    "frames.extremal_search",
    "frames.validate_frame",
    "sparse.l0_brute_force",
    "sparse.measure_min_brute_force",
    "sparse.conjecture_probe",
    "sparse.gram_coherence",
    "frame_io.load_frame",
    "frame_io.frame_from_obj",
    "frame_io.save_frame",
    "frame_io.frame_to_obj",
    "frame_io.frame_json",
    "frame_io.frame_digest",
    "zoo.build_frames",
    "cli.main",
)


def configure_blas() -> None:
    """Fix the BLAS thread count before numpy is first imported; children
    inherit it."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def check_sources() -> None:
    if not (SRC / "framelab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no framelab sources under {SRC}")


def import_program():
    """Import framelab from this checkout's src/ and nowhere else."""
    check_sources()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import framelab

    if Path(framelab.__file__).resolve().parent != SRC / "framelab":
        raise SystemExit(f"bench: imported framelab from {framelab.__file__}, not {SRC}")
    return framelab


def build() -> None:
    """Compile framelab's and the benchmark's bytecode, so every interpreter
    (this one and each ``python -m framelab`` child) loads the same cached
    code whether or not the environment lets imports write it."""
    import compileall

    for directory in (SRC / "framelab", BENCH):
        if not compileall.compile_dir(directory, quiet=1):
            raise SystemExit(f"bench: cannot compile {directory}")


def setup(workload: str, seed: int, workdir: Path, profile: dict, in_process: bool):
    """Import framelab, build the workload and round 0's inputs: (workload,
    round-0 inputs, CPU seconds)."""
    start = time.process_time()
    import_program()
    import workloads

    cls = workloads.WORKLOADS[workload]
    kwargs = {"in_process": True} if in_process else {}
    wl = cls(seed, workdir, profile[workload], **kwargs)
    inputs = wl.prepare(0)
    return wl, inputs, time.process_time() - start


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def measure(wl, inputs0, seconds: float, profile: dict, framelab, trace: bool, between_rounds) -> dict:
    """Run rounds; with ``trace`` odd rounds are traced.  After each round's
    check, ``between_rounds`` gets the share of ``seconds`` measured so far."""
    from tracer import Tracer
    from workloads import cpu_seconds

    tracer = Tracer(framelab) if trace else None
    cpus, traced_cpus, walls, per_round = [], [], [], []
    # Compact accumulators: the peak RSS should not grow with the run length.
    latencies, wall_latencies = array("d"), array("d")
    attempted = failed = 0
    ops = 0
    busy = 0.0
    r = 0
    min_rounds = profile["min_rounds"] * (2 if trace else 1)
    while r < min_rounds or busy < seconds or ops < profile["min_ops"]:
        inputs = inputs0 if r == 0 else wl.prepare(r)
        traced = trace and r % 2 == 1
        # Objects the harness holds stay out of the collector's scans, so
        # collection cost inside a round does not grow with the run.
        gc.collect()
        gc.freeze()
        if traced:
            tracer.reset()
            with tracer:
                start, cpu = time.perf_counter(), cpu_seconds()
                out = wl.run(r, inputs)
                wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
            per_round.append((tracer.summary(), dict(tracer.counts)))
            traced_cpus.append(cpu)
        else:
            start, cpu = time.perf_counter(), cpu_seconds()
            out = wl.run(r, inputs)
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
            cpus.append(cpu)
            walls.append(wall)
            latencies.extend(out.latencies)
            wall_latencies.extend(out.wall_latencies)
        verdicts = wl.check(r, inputs, out)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        ops += len(out.latencies)
        busy += wall
        r += 1
        between_rounds(busy / seconds if seconds else 1.0)
    return {
        "rounds": r,
        "ops": ops,
        "cpus": cpus,
        "traced_cpus": traced_cpus,
        "walls": walls,
        "latencies": latencies,
        "wall_latencies": wall_latencies,
        "attempted": attempted,
        "failed": failed,
        "per_round": per_round,
    }


def percentile_ms(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e3


def layer_metrics(per_round: list, startup_ms: float, overhead_s: float) -> dict:
    from tracer import COMPUTED

    metrics = {}
    for span in SPANS:
        rows = [summary.get(span, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}) for summary, _ in per_round]
        metrics[f"{span}.calls"] = (statistics.median_low(row["calls"] for row in rows), "count")
        for key in ("total_ms", "self_ms"):
            metrics[f"{span}.{key}"] = (statistics.median(row[key] for row in rows), "ms")
    for name, unit in COMPUTED.items():
        metrics[name] = (statistics.median_low(counts.get(name, 0) for _, counts in per_round), unit)
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def startup_ms(repeats: int) -> float:
    """Median time of ``import framelab`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import framelab; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        samples.append(float(proc.stdout) * 1e3)
    return statistics.median(samples)


def blas_threads_in_effect():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "framelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_configured": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "client": "one closed-loop client in one process",
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, profile: dict = FULL) -> dict:
    """Run one benchmark invocation; returns the full record."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        in_process = trace and workload == "cli"
        wl, inputs0, setup_s = setup(workload, seed, workdir / "main", profile, in_process)
        # setup_s is an end-to-end metric: the traced run does not report it.
        repeats = 1 if trace else profile[workload].get("setup_repeats", profile["setup_repeats"])
        setups = [setup_s]

        def sample_setups(progress: float) -> None:
            # Host speed drifts over seconds, so the set-up timings are
            # spread over the run rather than taken back to back.
            while len(setups) < min(repeats, 1 + int(progress * (repeats - 1))):
                setups.append(setup_in_child(workload, seed))

        run = measure(wl, inputs0, seconds, profile, sys.modules["framelab"], trace, sample_setups)
        sample_setups(1.0)
        if workload == "cli" and not in_process:
            peak_rss_mb = wl.peak_child_rss_kb / 1024.0
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final = wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = run["attempted"] + len(final)
    failed = run["failed"] + final.count(False)
    summary = {
        "ops": run["ops"],
        "op_samples": len(run["latencies"]),
        "rounds": run["rounds"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "setup_cpu_samples_s": setups,
        "round_cpus_s": run["cpus"],
        # Wall-clock counterparts, for reference; they move with host load.
        "round_walls_s": run["walls"],
        "op_wall_p50_ms": percentile_ms(run["wall_latencies"], 50),
        "op_wall_p90_ms": percentile_ms(run["wall_latencies"], 90),
    }
    if trace:
        overhead = statistics.median(run["traced_cpus"]) - statistics.median(run["cpus"])
        metrics = layer_metrics(run["per_round"], startup_ms(5), overhead)
        summary["traced_round_cpus_s"] = run["traced_cpus"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "round_cpu_s": (statistics.median(run["cpus"]), "s"),
            "op_cpu_p50_ms": (percentile_ms(run["latencies"], 50), "ms"),
            "op_cpu_p90_ms": (percentile_ms(run["latencies"], 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "env": environment(workload, seed, seconds, trace),
        "summary": summary,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "spans": run["per_round"][0][0] if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cue-sweep", "sparse", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up in this process and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    check_sources()
    configure_blas()
    build()

    if args.setup_only:
        workdir = WORK / f"setup-{args.workload}-{args.seed}-{os.getpid()}"
        try:
            setup_s = setup(args.workload, args.seed, workdir, FULL, in_process=False)[2]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    summary = record["summary"]
    print(
        "bench "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "metrics": {k: f"{v['value']} {v['unit']}" for k, v in record["metrics"].items()},
                "failed_frac": summary["failed_frac"],
                "op_samples": summary["op_samples"],
                "rounds": summary["rounds"],
                "result_file": str(Path(".bench_results") / name),
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
