"""The three benchmark workloads.

Each workload is built in ``__init__`` (the set-up the benchmark times as
``setup_s``) and then runs in rounds.  A round is a fixed amount of work: a
list of ops, each timed on its own, followed by a batch phase that only the
round's wall time sees.  ``prepare(r)`` makes a round's inputs before it is
timed, ``run(r, inputs)`` is the timed section, and ``check(r, inputs, out)``
verifies the outputs afterwards, returning one verdict per op and per batch
call.  ``final_checks()`` returns verdicts of checks made once per run.

Every input comes from the workload seed.  framelab functions are looked up
as module attributes at call time (``frames.uncertainty_check``), so the
tracer's wrappers see the benchmark's calls as well as framelab's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from framelab import cli, frame_io, frames, sparse, zoo

from reference import reference_solve


@dataclass
class RoundOutput:
    latencies: list[float] = field(default_factory=list)  # CPU seconds, one per op
    wall_latencies: list[float] = field(default_factory=list)  # wall seconds, one per op
    ops: list = field(default_factory=list)  # op outputs (or the exception raised)
    batch: list = field(default_factory=list)  # batch-phase outputs


def cpu_seconds() -> float:
    """CPU time of this process plus that of its reaped children.

    The timings the benchmark reports are CPU times: a guest kernel with
    paravirtual steal accounting leaves out the time a hypervisor steals
    from the VM, which on a shared host moves wall time by tens of percent
    from one minute to the next, and so does any time spent waiting to be
    scheduled.  The in-process ops run on one thread with one BLAS thread
    and wait on nothing, so on an idle host their CPU and wall times agree;
    a ``python -m framelab`` child's waits on file reads are not counted.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_call(fn, *args, **kwargs):
    """(result or raised exception, wall seconds, CPU seconds)."""
    wall, cpu = time.perf_counter(), cpu_seconds()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed op is counted, not fatal
        result = exc
    return result, time.perf_counter() - wall, cpu_seconds() - cpu


def _record(out: RoundOutput, timed) -> None:
    result, wall, cpu = timed
    out.ops.append(result)
    out.wall_latencies.append(wall)
    out.latencies.append(cpu)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def planted_vector(rng: np.random.Generator, d: int, field_name: str) -> np.ndarray:
    """Nonzero vector with a uniformly drawn number of nonzero entries."""
    k = int(rng.integers(1, d + 1))
    support = rng.choice(d, size=k, replace=False)
    x = np.zeros(d, dtype=complex if field_name == frames.COMPLEX else float)
    x[support] = rng.standard_normal(k)
    if field_name == frames.COMPLEX:
        x[support] += 1j * rng.standard_normal(k)
    return x


def _within(value: float, target: float) -> bool:
    return abs(value - target) <= frames.CUE_TOLERANCE


class Workload:
    def final_checks(self) -> list[bool]:
        return []


# ------------------------------------------------------------- cue-sweep ---


class CueSweep(Workload):
    """uncertainty_check over every default_zoo() pair sharing (d, p, field)
    plus the Fourier pair at d = 64 and 256; batch: two extremal searches."""

    def __init__(self, seed: int, workdir: Path, profile: dict):
        self.seed = seed
        self.profile = profile
        groups: dict[tuple, list] = {}
        for name, frame in zoo.default_zoo():
            groups.setdefault((frame.dimension, frame.p, frame.field), []).append((name, frame))
        self.pairs = [(ff, fg) for members in groups.values() for _, ff in members for _, fg in members]
        self.fourier = {d: zoo.dft_pair(d) for d in profile["fourier_dims"]}
        self.pairs += [self.fourier[d] for d in profile["fourier_dims"] if d > 16]
        self.extremal = [(self.fourier[d], budget) for d, budget in profile["extremal"]]

    def prepare(self, r: int):
        rng = _rng(self.seed, r)
        ops = [
            (i, planted_vector(rng, ff.dimension, ff.field))
            for i, (ff, _) in enumerate(self.pairs)
            for _ in range(self.profile["vectors_per_pair"])
        ]
        return [ops[j] for j in rng.permutation(len(ops))]

    def run(self, r: int, inputs) -> RoundOutput:
        out = RoundOutput()
        for i, x in inputs:
            ff, fg = self.pairs[i]
            _record(out, timed_call(frames.uncertainty_check, ff, fg, x, eps=0.0))
        for (ff, fg), budget in self.extremal:
            out.batch.append(timed_call(frames.extremal_search, ff, fg, budget=budget, seed=self.seed + r)[0])
        return out

    def check(self, r: int, inputs, out: RoundOutput) -> list[bool]:
        verdicts = [isinstance(rep, frames.UncertaintyReport) and rep.holds1 and rep.holds2 for rep in out.ops]
        for ext in out.batch:
            verdicts.append(isinstance(ext, frames.ExtremalReport) and _within(ext.min_lhs1, ext.bound1))
        return verdicts

    def final_checks(self) -> list[bool]:
        # The picket fence attains equality against the Fourier pair.
        verdicts = []
        for d, (ff, fg) in self.fourier.items():
            rep = frames.uncertainty_check(ff, fg, zoo.picket_fence(d))
            verdicts.append(rep.holds1 and _within(rep.lhs1, rep.bound1) and _within(rep.lhs2, rep.bound2))
        return verdicts


# ---------------------------------------------------------------- sparse ---


# Frame recipes; every one has d >= 6, so the planted supports (2 or 3 atoms,
# none of them a split copy) are the unique minimal representations.  All are
# complex, so an op's cost depends on its atom count and cardinality, not on
# its kind, and the op percentiles do not sit on an edge between kinds.
SPARSE_KINDS = ("random_parseval", "harmonic", "split_parseval", "split_harmonic")


def _sparse_frame(kind: str, n: int, rng: np.random.Generator, slot: int):
    """A frame with n atoms and the split copies' indices (to avoid)."""
    if kind == "random_parseval":
        return zoo.random_parseval(6, n, seed=int(rng.integers(2**31)), field=frames.COMPLEX), ()
    if kind == "harmonic":
        # harmonic_discretization takes no seed: vary d and scaling by slot.
        return zoo.harmonic_discretization(6 + slot % 3, n, normalize=slot % 2 == 1), ()
    base = (
        zoo.random_parseval(6, n - 1, seed=int(rng.integers(2**31)), field=frames.COMPLEX)
        if kind == "split_parseval"
        else zoo.harmonic_discretization(6 + slot % 3, n - 1, normalize=slot % 2 == 1)
    )
    atom = int(rng.integers(n - 1))
    return zoo.weighted_split(base, atom, 2), (atom, atom + 1)


def _plant(frame, rng: np.random.Generator, k: int, avoid=()):
    choices = [i for i in range(frame.n_atoms) if i not in avoid]
    support = tuple(sorted(int(i) for i in rng.choice(choices, size=k, replace=False)))
    values = np.zeros(frame.n_atoms, dtype=frame.vectors.dtype)
    values[list(support)] = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    return support, frames.synthesis(frame, frames.CoefficientFunction(frame.space, values))


@dataclass
class SparseOp:
    mode: str  # "l0" or "measure"
    frame: object
    support: tuple[int, ...]
    target: np.ndarray


class Sparse(Workload):
    """One exact solve per op, each on its own freshly built frame with
    n = 12..14; batch: conjecture_probe on weighted (split) frames."""

    def __init__(self, seed: int, workdir: Path, profile: dict):
        self.seed = seed
        self.profile = profile

    def prepare(self, r: int):
        rng = _rng(self.seed, r)
        ops = []
        for mode, atoms, k, repeats in self.profile["levels"]:
            for kind in SPARSE_KINDS:
                for n in atoms:
                    for _ in range(repeats):
                        frame, avoid = _sparse_frame(kind, n, rng, len(ops))
                        support, target = _plant(frame, rng, k, avoid)
                        ops.append(SparseOp(mode, frame, support, target))
        probes = []
        for _ in range(self.profile["probe_frames"]):
            n = self.profile["probe_atoms"]
            base = zoo.random_parseval(6, n - 1, seed=int(rng.integers(2**31)))
            probes.append(zoo.weighted_split(base, int(rng.integers(n - 1)), 2))
        sample = rng.choice(len(ops), size=self.profile["reference_per_round"], replace=False)
        return ops, probes, sorted(int(i) for i in sample)

    def _solve(self, op: SparseOp):
        problem = sparse.SparseProblem(op.frame, op.target)
        if op.mode == "l0":
            return sparse.l0_brute_force(problem)
        return sparse.measure_min_brute_force(problem)

    def _probe(self, frame, r: int):
        return sparse.conjecture_probe(frame, trials=self.profile["probe_trials"], seed=self.seed + r)

    def run(self, r: int, inputs) -> RoundOutput:
        ops, probes, _ = inputs
        out = RoundOutput()
        for op in ops:
            _record(out, timed_call(self._solve, op))
        for frame in probes:
            out.batch.append(timed_call(self._probe, frame, r)[0])
        return out

    def check(self, r: int, inputs, out: RoundOutput) -> list[bool]:
        ops, probes, sample = inputs
        verdicts = [
            isinstance(sol, sparse.SparseSolution)
            and sol.status == sparse.SOLVED
            and sol.support == op.support
            and sol.unique
            for op, sol in zip(ops, out.ops)
        ]
        for i in sample:
            op, sol = ops[i], out.ops[i]
            tol = sparse.SparseProblem(op.frame, op.target).resolved_tolerance()
            expected = reference_solve(op.frame, op.target, tol, op.mode)
            if not isinstance(sol, sparse.SparseSolution) or expected != (sol.support, sol.unique):
                verdicts[i] = False
        texts = []
        for report in out.batch:
            ok = isinstance(report, dict) and report["trials_run"] == self.profile["probe_trials"]
            texts.append(json.dumps(report, indent=2, sort_keys=True) if ok else None)
            verdicts.append(ok)
        if r == 0:
            # Probe reports are byte-identical on rerun.
            rerun = [json.dumps(self._probe(frame, r), indent=2, sort_keys=True) for frame in probes]
            verdicts[len(ops):] = [ok and t == u for ok, t, u in zip(verdicts[len(ops):], texts, rerun)]
        return verdicts


# ------------------------------------------------------------------- cli ---


@dataclass
class CliOp:
    label: str
    argv: list[str]
    exit_code: int = cli.EXIT_OK


@dataclass
class CliResult:
    code: int
    stdout: str


class Cli(Workload):
    """``python -m framelab`` subprocesses, one at a time, covering all seven
    subcommands.  With ``in_process`` the same argv run through ``cli.main``
    in this interpreter (the traced run)."""

    def __init__(self, seed: int, workdir: Path, profile: dict, in_process: bool = False):
        self.seed = seed
        self.profile = profile
        self.in_process = in_process
        self.workdir = workdir
        self.peak_child_rss_kb = 0
        self.src = Path(frames.__file__).resolve().parents[1]
        rng = _rng(seed, 0)
        inp = workdir / "in"
        self.out = workdir / "out"
        inp.mkdir(parents=True)
        self.out.mkdir()
        d, N = profile["harmonic"]
        big = zoo.harmonic_discretization(d, N)
        split_atom = int(rng.integers(N))
        rp_seed = int(rng.integers(2**31))
        self.frames = {
            "big": big,
            "big_split": zoo.weighted_split(big, split_atom, 2),
            "rp": zoo.random_parseval(6, profile["sparse_atoms"], seed=rp_seed),
            "probe": zoo.weighted_split(
                zoo.random_parseval(6, profile["probe_atoms"] - 1, seed=int(rng.integers(2**31))), 0, 2
            ),
            "wide": zoo.random_parseval(4, 24, seed=int(rng.integers(2**31))),
        }
        self.frames["dft16_canonical"], self.frames["dft16_transform"] = zoo.dft_pair(16)
        self.files = {name: inp / f"{name}.json" for name in self.frames}
        for name, frame in self.frames.items():
            frame_io.save_frame(frame, self.files[name])

        def write_vector(name, x, field_name):
            path = inp / f"{name}.json"
            path.write_text(json.dumps(frame_io.vector_to_obj(x, field_name)))
            return str(path)

        self.planted = {}
        vectors = {}
        for mode, k in (("l0", 3), ("measure", 2)):
            self.planted[mode], target = _plant(self.frames["rp"], rng, k)
            vectors[mode] = write_vector(f"target_{mode}", target, frames.REAL)
        vectors["wide"] = write_vector("target_wide", _plant(self.frames["wide"], rng, 2)[1], frames.REAL)
        for i in range(2):
            vectors[f"x{i}"] = write_vector(f"x{i}", planted_vector(rng, 16, frames.COMPLEX), frames.COMPLEX)
        self.ops = self._ops(vectors, split_atom, rp_seed)
        self.probe_bytes: bytes | None = None

    def _ops(self, vectors, split_atom, rp_seed) -> list[CliOp]:
        f = {name: str(path) for name, path in self.files.items()}
        out = self.out
        d, N = self.profile["harmonic"]
        # Four identical writes of the big frame: with the split below they are
        # the costliest fifth of the ops, so p90 falls inside one op's spread.
        ops = [
            CliOp(f"gen big {i}", ["gen", "--kind", "harmonic", "--d", str(d), "--N", str(N),
                                   "--out", str(out / f"big.{i}.json")])
            for i in range(4)
        ]
        ops += [
            CliOp("gen big_split", ["gen", "--kind", "weighted-split", "--base", f["big"],
                                    "--split-index", str(split_atom), "--out", str(out / "big_split.json")]),
            CliOp("gen rp", ["gen", "--kind", "random-parseval", "--d", "6", "--n", str(self.profile["sparse_atoms"]),
                             "--seed", str(rp_seed), "--out", str(out / "rp.json")]),
            CliOp("gen dft16", ["gen", "--kind", "dft", "--d", "16", "--out", str(out / "dft16.json")]),
            CliOp("validate big", ["validate", "--frame", f["big"]]),
            CliOp("validate big_split", ["validate", "--frame", f["big_split"]]),
            CliOp("validate rp", ["validate", "--frame", f["rp"]]),
            CliOp("coherence big", ["coherence", "--frame", f["big"]]),
            CliOp("coherence rp", ["coherence", "--frame", f["rp"], "--normalized"]),
            CliOp("coherence dft16", ["coherence", "--frame", f["dft16_canonical"], "--frame-g", f["dft16_transform"]]),
        ]
        for i in range(2):
            pair = ["--frame-f", f["dft16_canonical"], "--frame-g", f["dft16_transform"], "--x-file", vectors[f"x{i}"]]
            ops.append(CliOp(f"check x{i} json", ["check", *pair]))
            ops.append(CliOp(f"check x{i} csv", ["check", *pair, "--format", "csv"]))
        ops += [
            CliOp("extremal dft16", ["extremal", "--frame-f", f["dft16_canonical"], "--frame-g", f["dft16_transform"],
                                     "--budget", str(self.profile["extremal_budget"]), "--seed", str(self.seed)]),
            CliOp("sparse l0", ["sparse", "--frame", f["rp"], "--target-file", vectors["l0"], "--mode", "l0"]),
            CliOp("sparse measure", ["sparse", "--frame", f["rp"], "--target-file", vectors["measure"], "--mode", "measure"]),
            CliOp("sparse wide l0", ["sparse", "--frame", f["wide"], "--target-file", vectors["wide"], "--mode", "l0"],
                  cli.EXIT_GUARD),
            CliOp("sparse wide measure", ["sparse", "--frame", f["wide"], "--target-file", vectors["wide"],
                                          "--mode", "measure"], cli.EXIT_GUARD),
            CliOp("probe", ["probe", "--frame", f["probe"], "--trials", str(self.profile["probe_trials"]),
                            "--seed", str(self.seed), "--out", str(out / "probe.json")]),
            # Reads of what this round's gen ops wrote.
            CliOp("validate out big", ["validate", "--frame", str(out / "big.0.json")]),
            CliOp("coherence out big_split", ["coherence", "--frame", str(out / "big_split.json")]),
            CliOp("check out dft16", ["check", "--frame-f", str(out / "dft16_canonical.json"),
                                      "--frame-g", str(out / "dft16_transform.json"), "--x-file", vectors["x0"]]),
            CliOp("validate out rp", ["validate", "--frame", str(out / "rp.json")]),
        ]
        return ops

    def prepare(self, r: int):
        # Each round's reads of written files must see that round's writes.
        for path in self.out.iterdir():
            path.unlink()
        return self.ops

    def _subprocess(self, argv: list[str]) -> CliResult:
        """One child, reaped with wait4 for its own peak RSS, so other
        children of the benchmark (set-up timings) do not count."""
        with open(self.workdir / "stdout", "w+") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "framelab", *argv],
                stdout=out,
                stderr=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": str(self.src)},
            )
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, stdout)

    @staticmethod
    def _main(argv: list[str]) -> CliResult:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return CliResult(code, stdout.getvalue())

    def run(self, r: int, inputs) -> RoundOutput:
        call = self._main if self.in_process else self._subprocess
        out = RoundOutput()
        for op in inputs:
            _record(out, timed_call(call, op.argv))
        return out

    def check(self, r: int, inputs, out: RoundOutput) -> list[bool]:
        results = {op.label: res for op, res in zip(inputs, out.ops)}
        verdicts = []
        for op, res in zip(inputs, out.ops):
            ok = isinstance(res, CliResult) and res.code == op.exit_code
            if ok and op.exit_code == cli.EXIT_OK:
                try:
                    ok = self._output_ok(op, res, results)
                except (ValueError, KeyError, TypeError, OSError):  # malformed or missing output
                    ok = False
            verdicts.append(ok)
        return verdicts

    def _output_ok(self, op: CliOp, res: CliResult, results: dict) -> bool:
        if op.label.endswith(" csv"):
            header, row = res.stdout.strip().splitlines()
            return _csv_row(header, row) == json.loads(results[op.label[: -len("csv")] + "json"].stdout)
        obj = json.loads(res.stdout)
        if op.label.startswith("gen "):
            return all(self._reloads(Path(p)) for p in obj["written"])
        if op.label.startswith("check"):
            return obj["holds1"] and obj["holds2"]
        if op.label == "coherence dft16":
            return math.isclose(obj["coh_fg"], 0.25) and math.isclose(obj["coh_gf"], 0.25)
        if op.label.startswith("validate"):
            return obj["passes"]
        if op.label == "extremal dft16":
            return _within(obj["min_lhs1"], obj["bound1"])
        if op.label.startswith("sparse"):
            mode = op.label.split()[-1]
            return obj["status"] == sparse.SOLVED and tuple(obj["support"]) == self.planted[mode] and obj["unique"]
        if op.label == "probe":
            data = Path(obj["out"]).read_bytes()
            if self.probe_bytes is None:
                self.probe_bytes = data
            return obj["trials_run"] == self.profile["probe_trials"] and data == self.probe_bytes
        return True

    def _reloads(self, path: Path) -> bool:
        """A written frame file equals the set-up file byte for byte and
        reloads to the same tables bit for bit."""
        name = path.stem.split(".")[0]  # big.2 was written as a copy of big
        if path.read_bytes() != self.files[name].read_bytes():
            return False
        a, b = frame_io.load_frame(path), self.frames[name]
        return (
            a.field == b.field
            and a.p == b.p
            and np.array_equal(a.space.weights, b.space.weights)
            and np.array_equal(a.functionals, b.functionals)
            and np.array_equal(a.vectors, b.vectors)
        )


def _csv_row(header: str, row: str) -> dict:
    def cell(text: str):
        if text in ("true", "false"):
            return text == "true"
        return float(text) if "." in text or "e" in text or "inf" in text else int(text)

    return {k: cell(v) for k, v in zip(header.split(","), row.split(","))}


WORKLOADS = {"cue-sweep": CueSweep, "sparse": Sparse, "cli": Cli}
