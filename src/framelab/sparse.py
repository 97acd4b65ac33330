"""Exact sparse representation solvers over a frame's weighted synthesis map.

Both solvers are deliberately combinatorial: the underlying minimization
problems are NP-hard in general, so the implementations enumerate candidate
supports under an explicit work guard instead of approximating.  A target h
is "fit" by the support S when the least-squares synthesis restricted to S
reproduces h within the problem's residual tolerance.

``measure_min_brute_force`` minimizes the total weight of the active atoms
and ``l0_brute_force`` their number, which is the same search over unit
weights.  Both walk one plan of support levels by (weight, cardinality),
built over the classes of equal atom weight, so no table of all 2^n
supports is built; one guard on the support count refuses a plan before
any of it is built.  One R factor of [A_S | target] screens each chunk of
supports S, and the exact per-support least-squares fit makes every decision.
``conjecture_probe`` plans once, plants random low-weight supports and
reports, never asserts, whether weight minimization recovers them uniquely;
its totals and counterexamples are derived from its list of trial records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frame_io import frame_digest, frame_to_obj, json_number, vector_to_obj
from .frames import (
    CoefficientFunction,
    FrameError,
    PSchauderFrame,
    ResourceGuardError,
    _as_input_vector,
    _check_tolerance,
    _seeded_rng,
    _standard_normal,
    synthesis,
)

# Largest number of candidate supports a solver call may enumerate.
ENUMERATION_GUARD = 10_000_000

# Supports screened by one stacked QR of [A_S | t]: at most this many, and at
# most _SCREEN_ENTRIES entries, as d(k + 1) <= d n when a chunk has k < n.
_SCREEN_CHUNK = 256
_SCREEN_ENTRIES = 1 << 20

# Most trials one probe may run.  A trial took 0.2-0.6 ms (2 CPUs) and
# its record holds 0.7-2 KB, so at the guard a probe runs a few seconds and
# keeps at most about 20 MB of records on the frames measured (n = 3..14).
_PROBE_TRIALS_GUARD = 10_000

SOLVED = "solved"
INFEASIBLE = "infeasible"


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """Recover coefficients reproducing ``target`` through the frame's
    weighted synthesis.  ``eps_residual`` defaults to 1e-8 * ||target||_2."""

    frame: PSchauderFrame
    target: np.ndarray
    eps_residual: float | None = None

    def __post_init__(self):
        # a copy: the checked vector may alias the caller's array, which
        # must not be frozen
        h = _as_input_vector(self.frame, self.target).copy()
        h.setflags(write=False)
        object.__setattr__(self, "target", h)
        _check_tolerance("eps_residual", self.eps_residual)
        # an infinite norm would make every tolerance and bar infinite, so
        # the empty support would "fit" any target; refuse it without a warning
        with np.errstate(over="ignore"):
            if not math.isfinite(np.linalg.norm(h)):
                raise FrameError("the target's 2-norm overflows a double")

    def resolved_tolerance(self) -> float:
        if self.eps_residual is not None:
            return float(self.eps_residual)
        return 1e-8 * float(np.linalg.norm(self.target))


@dataclass(frozen=True, eq=False)
class SparseSolution:
    """Outcome of one solver run.

    ``support`` is the exact nonzero set of the fitted coefficients;
    ``unique`` is true when no distinct support of equal objective value
    (cardinality for the count solver, total weight for the measure solver)
    also fits within tolerance.
    """

    status: str
    support: tuple[int, ...]
    support_cardinality: int
    support_weight: float
    residual: float
    unique: bool
    coefficients: CoefficientFunction | None


def gram_coherence(frame: PSchauderFrame, normalized: bool = False) -> float:
    """Largest pairwise inner product magnitude among distinct atom vectors.

    Computed verbatim on the stored vectors: no unit-norm rescaling is
    applied unless ``normalized`` is set (classical statements assume unit
    atoms; the flag enables that comparison, skipping zero atoms, and
    refuses an atom whose norm overflows).  Orthogonal families return 0,
    which callers should treat as an unbounded sparsity threshold.
    """
    if frame.n_atoms < 2:
        raise FrameError("coherence needs at least two atoms")
    if frame.p != 2.0:
        raise FrameError("coherence uses the Hilbert pairing; p must be 2")
    v = frame.vectors
    # an overflowing diagonal entry is dropped below; it must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        products = v @ v.conj().T
        gram = np.abs(products)
        if normalized:
            norms = np.sqrt(np.real(np.diag(products)))
            if not np.isfinite(norms).all():
                raise FrameError("an atom norm is not a finite double: normalized coherence is undefined")
            keep = norms > 0
            if keep.sum() < 2:
                return 0.0
            gram = gram[np.ix_(keep, keep)] / np.outer(norms[keep], norms[keep])
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def uniqueness_threshold(coh: float) -> float:
    """Sparsity level below which a representation is guaranteed to be the
    unique count-minimal one: (1/2)(1 + 1/coherence).  Zero coherence means
    the guarantee is unbounded (returns inf)."""
    if not np.isfinite(coh) or coh < 0:
        raise FrameError("coherence must be a finite nonnegative number")
    if coh == 0.0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / coh)


def _synthesis_columns(frame: PSchauderFrame) -> np.ndarray:
    # Column i maps coefficient c_i to its synthesis contribution w_i * c_i * vec_i.
    return (frame.space.weights[:, None] * frame.vectors).T


def _restricted_fit(cols: np.ndarray, support: tuple[int, ...], target: np.ndarray):
    a = cols[:, list(support)]
    if a.shape[1] == 0:
        return np.zeros(0, dtype=cols.dtype), float(np.linalg.norm(target))
    coeff, *_ = np.linalg.lstsq(a, target, rcond=None)
    residual = float(np.linalg.norm(a @ coeff - target))
    return coeff, residual


def _padded_solution(
    frame: PSchauderFrame,
    support: tuple[int, ...],
    coeff: np.ndarray,
    residual: float,
    unique: bool,
) -> SparseSolution:
    values = np.zeros(frame.n_atoms, dtype=frame.vectors.dtype)
    values[list(support)] = coeff
    nonzero = tuple(int(i) for i in np.flatnonzero(values != 0))
    return SparseSolution(
        status=SOLVED,
        support=nonzero,
        support_cardinality=len(nonzero),
        support_weight=math.fsum(frame.space.weights[list(nonzero)].tolist()),
        residual=residual,
        unique=unique,
        coefficients=CoefficientFunction(frame.space, values),
    )


def _infeasible() -> SparseSolution:
    return SparseSolution(
        status=INFEASIBLE,
        support=(),
        support_cardinality=0,
        support_weight=0.0,
        residual=math.inf,
        unique=False,
        coefficients=None,
    )


def _weight_plan(weights: np.ndarray, max_card: int | None):
    """The supports of at most ``max_card`` atoms as levels of equal (total
    weight, cardinality), in that order.

    ``max_card`` None means all n atoms; otherwise it must lie in 0..n.
    The guard comes next: it sums C(n, k) for k up to that cap and refuses
    at the first partial total above ``ENUMERATION_GUARD``, so a refusal
    costs a few small integers at any n and nothing is built.

    Atoms of one exact weight form a class.  A support's weight depends only
    on how many atoms it takes from each class, and ``math.fsum`` is correctly
    rounded, so one ``fsum`` per count vector equals, bit for bit, the
    ``fsum`` over any support with those counts.  Returns the class members
    and the sorted list of ``(weight, cardinality, [count vectors])``.
    """
    n = weights.size
    cap = n if max_card is None else int(max_card)
    if not 0 <= cap <= n:
        raise FrameError("max_card must lie in 0..n_atoms")
    total = c = 1
    for k in range(cap):
        c = c * (n - k) // (k + 1)
        total += c
        if total > ENUMERATION_GUARD:
            raise ResourceGuardError(
                f"more than {ENUMERATION_GUARD} candidate supports of at most {cap} of {n} atoms"
            )
    classes: dict[float, list[int]] = {}
    for i, w in enumerate(weights.tolist()):
        classes.setdefault(w, []).append(i)
    members = list(classes.values())
    # (count vector, summands) rows in itertools.product order, none above cap
    rows = [((), ())]
    for v, m in zip(classes, members):
        rows = [(cv + (c,), t + (v,) * c) for cv, t in rows for c in range(min(len(m), cap - len(t)) + 1)]
    groups: dict[tuple[float, int], list[tuple[int, ...]]] = {}
    for cv, t in rows:
        groups.setdefault((math.fsum(t), len(t)), []).append(cv)
    # flat (float-first) tuples sort fastest; (weight, card) never ties
    return members, sorted((w, k, cvs) for (w, k), cvs in groups.items())


def _expand(members: list[list[int]], count_vectors):
    """The supports taking ``counts[j]`` atoms from class j, for any of the
    given count vectors, in lexicographic order.  A level drawn from one
    class streams that class's combinations, which are already in order."""
    drawn = [[(m, c) for m, c in zip(members, counts) if c] for counts in count_vectors]
    if len(drawn) == 1 and len(drawn[0]) == 1:
        return itertools.combinations(*drawn[0][0])
    return sorted(
        tuple(sorted(itertools.chain.from_iterable(parts)))
        for pairs in drawn
        for parts in itertools.product(*(itertools.combinations(m, c) for m, c in pairs))
    )


def _screen(cols: np.ndarray, target: np.ndarray, supports: list, bar: float) -> list:
    """The supports (all of one cardinality k) whose fit may reach the tolerance.

    One stacked QR factors [A_S | t] for each support S.  Householder
    reflectors depend only on the columns they reduce, so |R[k, k]| is the
    norm of t off the span of Q's first k columns, which holds A_S's column
    space: a lower bound on the least-squares residual.  A support is
    dropped only when that bound exceeds ``bar``, well above the tolerance.
    R[k, k] is read from ``mode="raw"``, which makes no triangular copy of R.
    """
    k = len(supports[0])
    if len(supports) < 2 or k == 0 or k >= cols.shape[0]:
        # one support screens at about the cost of fitting it; with k >= d,
        # the reflectors span the whole space and nothing could be dropped
        return supports
    index = np.fromiter(itertools.chain.from_iterable(supports), np.intp, len(supports) * k)
    # (k + 1, d) blocks, so the transpose hands LAPACK column-major [A_S | t]
    stacked = np.empty((len(supports), k + 1, cols.shape[0]), dtype=cols.dtype)
    stacked[:, :k] = cols.T[index.reshape(-1, k)]
    stacked[:, k] = target
    bound = np.abs(np.linalg.qr(stacked.transpose(0, 2, 1), mode="raw")[0][:, k, k])
    return [s for s, r in zip(supports, bound.tolist()) if not r > bar]


def _walk(problem: SparseProblem, members: list[list[int]], plan) -> SparseSolution:
    """Shared exhaustive search of both solvers and every probe trial.

    Visits the levels of a ``_weight_plan`` in order, expanding each one
    when it is reached.  The search stops after the last level of the first
    weight that has a fit; ``unique`` is true when no second support of that
    weight also fits.  Supports are screened in chunks and every survivor is
    decided, in order, by the exact ``_restricted_fit``.
    """
    frame, target = problem.frame, problem.target
    tol = problem.resolved_tolerance()
    bar = 2.0 * tol + 1e-9 * float(np.linalg.norm(target))
    cols = _synthesis_columns(frame)
    chunk_size = max(2, min(_SCREEN_CHUNK, _SCREEN_ENTRIES // cols.size))  # d * (k + 1) <= cols.size
    first = best = None
    for objective, _, count_vectors in plan:
        if first is not None and objective != best:
            break
        stream = iter(_expand(members, count_vectors))
        while chunk := list(itertools.islice(stream, chunk_size)):
            for support in _screen(cols, target, chunk, bar):
                coeff, residual = _restricted_fit(cols, support, target)
                if residual <= tol:
                    if first is not None:
                        return _padded_solution(frame, *first, unique=False)
                    first, best = (support, coeff, residual), objective
    if first is None:
        return _infeasible()
    return _padded_solution(frame, *first, unique=True)


def l0_brute_force(problem: SparseProblem, max_card: int | None = None) -> SparseSolution:
    """Minimize the number of active atoms: the weight search over unit weights.

    Supports are visited by increasing cardinality, lexicographic within a
    cardinality, so the returned solution is deterministic.  ``unique`` is
    true when no other support of the same cardinality also fits.  Only
    supports of at most ``max_card`` atoms (None: all n) are searched.
    """
    return _walk(problem, *_weight_plan(np.ones(problem.frame.n_atoms), max_card))


def measure_min_brute_force(problem: SparseProblem, max_card: int | None = None) -> SparseSolution:
    """Minimize the total weight of the active atoms by exhaustive search.

    Supports are visited by increasing total weight, ties broken by smaller
    cardinality then lexicographic order.  ``unique`` is true when no
    distinct support of exactly equal weight also fits.  Only supports of at
    most ``max_card`` atoms (None: all n) are searched.  Reduces to
    ``l0_brute_force`` under counting measure.
    """
    return _walk(problem, *_weight_plan(problem.frame.space.weights, max_card))


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Whether count minimization recovered a planted coefficient function.

    When the planted sparsity is below the coherence threshold the guarantee
    applies and ``ok`` demands exact unique recovery; outside the hypothesis
    the solver outcome is recorded but nothing is asserted.
    """

    coherence: float
    threshold: float
    planted_support: tuple[int, ...]
    planted_cardinality: int
    hypothesis_satisfied: bool
    solution: SparseSolution
    recovered_exactly: bool
    ok: bool


def donoho_elad_check(frame: PSchauderFrame, planted: CoefficientFunction) -> RecoveryReport:
    """Synthesize a planted coefficient function and test count-minimal
    recovery against the coherence threshold."""
    if planted.space != frame.space:
        raise FrameError("planted coefficients live on a different measure space")
    coherence = gram_coherence(frame)
    threshold = uniqueness_threshold(coherence)
    support = tuple(int(i) for i in np.flatnonzero(planted.values != 0))
    hypothesis = len(support) < threshold
    target = synthesis(frame, planted)
    solution = l0_brute_force(SparseProblem(frame, target))
    recovered = (
        solution.status == SOLVED and solution.support == support and solution.unique
    )
    return RecoveryReport(
        coherence=coherence,
        threshold=threshold,
        planted_support=support,
        planted_cardinality=len(support),
        hypothesis_satisfied=bool(hypothesis),
        solution=solution,
        recovered_exactly=bool(recovered),
        ok=bool(recovered if hypothesis else True),
    )


def _distinct_vector_coherence(frame: PSchauderFrame) -> float:
    """Variant of the raw coherence that skips index pairs whose vectors are
    bit-identical (as produced by atom splitting)."""
    v = frame.vectors
    distinct = np.triu(~(v[:, None] == v[None]).all(-1), 1)
    best = 0.0
    for j, k in zip(*np.nonzero(distinct)):  # every j < k, row by row
        best = max(best, float(np.abs(np.vdot(v[k], v[j]))))
    return best


def _planted_pool(members: list[list[int]], plan, threshold: float) -> list[tuple[int, ...]]:
    """The plan's nonempty supports of total weight below ``threshold``, by
    cardinality then lexicographic order."""
    light = [s for weight, card, cvs in plan if card and weight < threshold for s in _expand(members, cvs)]
    return sorted(light, key=lambda s: (len(s), s))


def conjecture_probe(
    frame: PSchauderFrame,
    trials: int,
    seed: int = 0,
    eps_residual: float | None = None,
) -> dict:
    """Plant random supports of total weight below the coherence threshold
    and record whether weight minimization recovers each uniquely.

    The threshold is computed verbatim over all distinct index pairs; the
    variant that skips bit-identical atom vectors is reported alongside for
    comparison.  One pass builds the trial records; the totals and the
    counterexamples are derived from them, and counterexamples carry the full
    frame inline for replay (one shared ``frame_to_obj`` dict).
    The returned report is a plain JSON-serializable dict and is a pure
    function of (frame, trials, seed, eps_residual).  More than
    ``_PROBE_TRIALS_GUARD`` trials are refused before anything is planned.
    """
    _check_tolerance("eps_residual", eps_residual)
    if frame.p != 2.0:
        raise FrameError("the probe uses the Hilbert pairing; p must be 2")
    if trials < 1:
        raise FrameError("trials must be at least 1")
    if trials > _PROBE_TRIALS_GUARD:
        raise ResourceGuardError(f"trials {trials} exceeds guard {_PROBE_TRIALS_GUARD}")
    rng = _seeded_rng(seed)
    n, w = frame.n_atoms, frame.space.weights
    members, plan = _weight_plan(w, None)
    coh_all = gram_coherence(frame)
    coh_distinct = _distinct_vector_coherence(frame)
    thr_all = uniqueness_threshold(coh_all)
    thr_distinct = uniqueness_threshold(coh_distinct)
    pool = _planted_pool(members, plan, thr_all)
    records = []
    for t in range(trials if pool else 0):
        support = pool[int(rng.integers(len(pool)))]
        values = np.zeros(n, dtype=frame.vectors.dtype)
        values[list(support)] = _standard_normal(rng, len(support), frame.field)
        target = synthesis(frame, CoefficientFunction(frame.space, values))
        solution = _walk(SparseProblem(frame, target, eps_residual), members, plan)
        weight = math.fsum(w[list(support)].tolist())
        records.append({
            "trial": t,
            "planted_support": list(support),
            "planted_coefficients": vector_to_obj(values, frame.field),
            "planted_weight": weight,
            "hypothesis_distinct_vectors": bool(weight < thr_distinct),
            "recovered_support": list(solution.support),
            "recovered_weight": solution.support_weight,
            "unique": solution.unique,
            "residual": json_number(solution.residual),
            "confirmed": solution.status == SOLVED and solution.support == support and solution.unique,
        })
    frame_obj = frame_to_obj(frame)
    report = {
        "schema_version": 1,
        "kind": "measure-minimization-probe",
        "seed": int(seed),
        "trials_requested": int(trials),
        "eps_residual": eps_residual,
        "eps_residual_policy": "1e-8 * l2(target) when eps_residual is null",
        "coherence_all_pairs": coh_all,
        "coherence_distinct_vectors": coh_distinct,
        "threshold_all_pairs": json_number(thr_all),
        "threshold_distinct_vectors": json_number(thr_distinct),
        "frame_sha256": frame_digest(frame),
        "hypothesis_satisfiable": bool(pool),
        "trials_run": len(records),
        "trials_skipped": int(trials) - len(records),
        "confirmations": sum(r["confirmed"] for r in records),
        "counterexamples": [{**r, "seed": int(seed), "frame": frame_obj} for r in records if not r["confirmed"]],
        "trial_records": records,
    }
    if not pool:
        report["note"] = "hypothesis unsatisfiable: no nonempty support has weight below the threshold"
    return report
