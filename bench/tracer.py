"""In-memory span tracer for framelab's public functions.

Inside ``with Tracer(framelab):`` every public framelab function, at every
module attribute that refers to it (``frames.analysis``, ``sparse.synthesis``,
``framelab.analysis``, ...), is replaced by one wrapper that records a span.
Calls that framelab makes internally go through those module attributes, so
nested calls get their own spans and a span's self time is its duration
minus the time its direct children cover.  Leaving the block puts the
originals back.

Spans are kept in memory as flat records and aggregated when asked.  A few
counts are computed from the call arguments rather than counted inside the
program, which has no counters yet; their names are listed in ``COMPUTED``
and their units end in ``.computed``.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time

MODULES = ("frames", "zoo", "sparse", "frame_io", "cli")


def _cross_coherence_macs(args, kwargs, result):
    # Two (n_f x d) @ (d x n_g) products per call.
    f, g = args[0], args[1]
    return 2 * f.n_atoms * g.n_atoms * f.dimension


def _l0_supports(args, kwargs, result):
    problem = args[0]
    n = problem.frame.n_atoms
    cap = kwargs.get("max_card", args[1] if len(args) > 1 else None)
    cap = n if cap is None else int(cap)
    return sum(math.comb(n, k) for k in range(cap + 1))


def _all_supports(args, kwargs, result):
    frame = args[0].frame if hasattr(args[0], "frame") else args[0]
    return 2**frame.n_atoms


def _file_size(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _read_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Units of the computed counts; the "computed" suffix marks them as derived
# from call arguments, not counted by the program.
COMPUTED = {
    "frames.cross_coherence.macs": "count.computed",
    "sparse.supports_bound": "count.computed",
    "frame_io.bytes_read": "B.computed",
    "frame_io.bytes_written": "B.computed",
}

# (span, computed count it adds to, function of the call giving the amount).
# Only calls that return normally count: a refused call enumerates nothing.
COUNTERS = (
    ("frames.cross_coherence", "frames.cross_coherence.macs", _cross_coherence_macs),
    ("sparse.l0_brute_force", "sparse.supports_bound", _l0_supports),
    ("sparse.measure_min_brute_force", "sparse.supports_bound", _all_supports),
    ("sparse.conjecture_probe", "sparse.supports_bound", _all_supports),
    ("frame_io.load_frame", "frame_io.bytes_read", _read_size),
    ("frame_io.save_frame", "frame_io.bytes_written", _file_size),
)


class Tracer:
    """Records [span id, start ns, end ns, parent index] for each traced call.

    Use as a context manager: the wrappers are in place only inside it.
    """

    def __init__(self, framelab):
        import importlib

        self.names: list[str] = []
        self.records: list[list[int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []  # module, attr, original, wrapper
        modules = [framelab] + [importlib.import_module(f"framelab.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("framelab.") or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    span = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(span, value)
                self._patches.append((mod, attr, value, wrappers[id(value)]))

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, span: str, fn):
        name_id = len(self.names)
        self.names.append(span)
        computed = [(name, f) for s, name, f in COUNTERS if s == span]
        records, stack, counts = self.records, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1]
            records.append(rec)
            stack.append(len(records) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            for name, count in computed:
                counts[name] = counts.get(name, 0) + count(args, kwargs, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def reset(self) -> None:
        self.records.clear()
        self.counts.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms and self_ms over the recorded spans.

        A recursive call (a span nested in one of the same name) adds to
        ``calls`` and ``self_ms`` but not again to ``total_ms``.
        """
        child_ns = [0] * len(self.records)
        for rec in self.records:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for i, (name_id, start, end, parent) in enumerate(self.records):
            name = self.names[name_id]
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
            if not self._inside_same(i):
                row["total_ms"] += (end - start) / 1e6
        return out

    def _inside_same(self, index: int) -> bool:
        name_id = self.records[index][0]
        parent = self.records[index][3]
        while parent >= 0:
            if self.records[parent][0] == name_id:
                return True
            parent = self.records[parent][3]
        return False
