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
any of it is built.  Each level is built from its parent levels in one
enumeration tree (``_Tree``): a support is its parent, the support minus
its last atom, plus that atom, and one Gram-Schmidt step per level extends
every parent's orthonormal basis and target residual by the new atom.  The
residual's norm screens the supports, and the exact per-support
least-squares fit makes every decision.
``conjecture_probe`` plans once, plants random low-weight supports and
reports, never asserts, whether weight minimization recovers them uniquely;
its totals and counterexamples are derived from its list of trial records.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

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

# Most entries of screen state in one block of supports, and in all the
# batches one tree keeps for their children with one walk's residuals.
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
    (index arrays) and the sorted list of ``(weight, cardinality, [count
    vectors])``.
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
    members = [np.array(m, dtype=np.intp) for m in classes.values()]
    # (count vector, summands) rows in itertools.product order, none above cap
    rows = [((), ())]
    for v, m in zip(classes, members):
        rows = [(cv + (c,), t + (v,) * c) for cv, t in rows for c in range(min(len(m), cap - len(t)) + 1)]
    groups: dict[tuple[float, int], list[tuple[int, ...]]] = {}
    for cv, t in rows:
        groups.setdefault((math.fsum(t), len(t)), []).append(cv)
    # flat (float-first) tuples sort fastest; (weight, card) never ties
    return members, sorted((w, k, cvs) for (w, k), cvs in groups.items())


# conj(a) . b along the last axis, broadcasting; np.vecdot needs numpy 2
_rowdot = getattr(np, "vecdot", lambda a, b: np.einsum("...j,...j->...", a.conj(), b))


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(np.float64)  # a complex row as its real and imaginary parts
    return _rowdot(flat, flat)


def _project(residual: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each row's residual without its component along the row's unit vector q."""
    return residual - q * _rowdot(q, residual)[:, None]


def _groups(count_vectors):
    """(class j, parent count vector, count vector number) for every class
    that a support of one of the count vectors can have its last atom in."""
    return [(j, cv[:j] + (c - 1,) + cv[j + 1 :], i) for i, cv in enumerate(count_vectors) for j, c in enumerate(cv) if c]


@dataclass(eq=False)
class _Batch:
    """Plan levels ``start`` to ``end`` (exclusive), all of one cardinality,
    built together.  The rows of one count vector are contiguous.  ``parts``
    holds, per run of rows, where their parents are: ``()`` for the empty
    support, else the parents' batch and rows.  ``level`` is each row's plan
    number when the batch draws through several groups; with a screen,
    ``basis`` and ``independent`` are each row's orthonormal basis and flag."""

    start: int
    end: int
    supports: np.ndarray
    parts: list
    level: np.ndarray | None
    basis: np.ndarray | None
    independent: np.ndarray | None
    kept: bool = False


class _Tree:
    """The levels of one ``_weight_plan``, each built from its parent levels.

    A support's parent is the support minus its last atom.  When that atom
    lies in class j, the parent has the count vector c - e_j and sits on an
    earlier level, and the support is one of the parent's children through
    class j: the parent plus one class-j atom past its last atom.  Children
    of parents in lexicographic order come out in lexicographic order, so
    ``np.lexsort`` runs only where a batch draws through several (count
    vector, class) groups.  Consecutive levels of one cardinality are built
    as one batch while they fit in one block.

    With ``cols``, every support of 0 < k < d atoms has an orthonormal basis
    of its columns and a flag that is false on degenerate rows, and each walk
    carries the target's residual off that basis.  One modified Gram-Schmidt
    step extends a parent's basis by the new atom, and the residual's norm
    bounds the support's least-squares residual from below; Gram-Schmidt on
    [A | t] gives a backward-stable least-squares residual (Bjorck 1967).  A
    row is degenerate when its new atom keeps less than 1% of its norm off
    the parent's span, as a split copy or a zero atom does; its bound, and
    that of every descendant, is |R[k, k]| of one stacked raw QR of [A_S | t].
    The bases do not depend on the target, so the batches kept by one walk
    serve every later walk of the tree (the probe's trials share one tree).

    A block holds at most ``_SCREEN_ENTRIES`` entries of state, and so do the
    batches kept for their children, with one walk's residuals; the one-atom
    bases of all atoms take about the frame's own entries.  A level
    larger than one block, or with a parent that was not kept, is streamed
    and not kept: its supports are enumerated again from their own parents,
    and each block of them rebuilds its parents' states, once per distinct
    prefix.  One walk runs at a time.
    """

    def __init__(self, members: list[np.ndarray], plan, cols: np.ndarray | None = None):
        self.members, self.plan = members, plan
        self.d = 1 if cols is None else cols.shape[0]
        self.atoms = None
        if cols is not None:
            self.atoms = np.ascontiguousarray(cols.T)
            with np.errstate(over="ignore"):
                self.norms2 = _squared_norms(self.atoms)
            # 1%, squared: while each new atom keeps more of its norm off the
            # parent's span, the bound stays within 1e-13 * |t| of the stacked-QR
            # bound it replaces, the accuracy to which that bound is pinned
            self.floor = 1e-4 * self.norms2
        self.batches: dict[int, _Batch] = {}  # kept batches by the plan number of their first level
        self.kept: dict[tuple, tuple] = {}  # count vector -> (its kept batch, first row, end row)
        self.room = _SCREEN_ENTRIES
        self.target, self.ceiling, self.residuals = None, math.inf, {}

    def levels(self, target: np.ndarray | None = None, bar: float = math.inf, ceiling: float = math.inf):
        """One walk: (weight, supports as a list of tuples) per block of the
        plan's levels, in plan order and lexicographic order within a level,
        up to the first level heavier than ``ceiling``, which the caller may
        lower at any time.  With ``cols``, a level of 0 < k < d atoms keeps
        only the supports whose bound for ``target`` is not above ``bar``."""
        self.target, self.ceiling, self.residuals = target, ceiling, {}
        i = 0
        while i < len(self.plan) and self.plan[i][0] <= self.ceiling:
            weight, k, _ = self.plan[i]
            if k == 0:
                blocks, i = [(weight, [()])], i + 1
            else:
                batch = self.batches.get(i) or self._batch(i)
                blocks = self._stream(self.plan[i], bar) if batch is None else self._visit(batch, bar)
                i = i + 1 if batch is None else batch.end
            for weight, survivors in blocks:
                if weight > self.ceiling:
                    return
                yield weight, survivors

    @functools.cached_property
    def _singles(self):
        """Every one-atom support's basis and flag: the step from the empty
        support, taken for all atoms at once."""
        independent = self.norms2 > self.floor
        with np.errstate(invalid="ignore"):
            return (self.atoms * (independent / np.sqrt(self.norms2))[:, None])[:, None], independent

    def _rows_per_block(self, k: int) -> int:
        return max(1, _SCREEN_ENTRIES // (self.d * (k + 1)))

    def _size(self, count_vectors) -> int:
        return sum(math.prod(map(math.comb, map(len, self.members), cv)) for cv in count_vectors)

    def _screened(self, k: int) -> bool:
        return self.atoms is not None and k < self.d

    def _batch(self, i: int) -> _Batch | None:
        """Build the batch of levels from plan number i on, and keep it while
        it fits; None when level i must be streamed instead."""
        k = self.plan[i][1]
        rows = self._rows_per_block(k)
        j, size = i, 0
        while j < len(self.plan) and self.plan[j][1] == k and (j == i or self.plan[j][0] <= self.ceiling):
            size += self._size(self.plan[j][2])
            if size > rows:
                break
            j += 1
        cvs = [cv for level in self.plan[i:j] for cv in level[2]]
        groups = _groups(cvs)
        if j == i or any(any(pcv) and pcv not in self.kept for _, pcv, _ in groups):
            return None
        parts = [(s, source, c) for g, pcv, c in groups for s, source in self._children(g, pcv, rows)]
        supports = np.concatenate([p[0] for p in parts]) if len(parts) > 1 else parts[0][0]
        lengths = [len(p[0]) for p in parts]
        level = None
        if len(groups) > 1:
            level_of_cv = [i + n for n, level in enumerate(self.plan[i:j]) for _ in level[2]]
            level = np.repeat([level_of_cv[p[2]] for p in parts], lengths)
        basis = independent = None
        if self._screened(k) and k == 1:
            basis, independent = self._singles
            if len(supports) < len(self.atoms) or len(groups) > 1:  # else the rows are atoms 0..n-1
                basis, independent = basis[supports[:, 0]], independent[supports[:, 0]]
        elif self._screened(k):
            geometry = [self._parent_geometry(source, n) for (_, source, _), n in zip(parts, lengths)]
            basis, independent = (np.concatenate(a) if len(parts) > 1 else a[0] for a in zip(*geometry))
            with np.errstate(over="ignore", invalid="ignore"):
                basis, independent = self._step(basis, independent, supports[:, -1])
        batch = _Batch(i, j, supports, [(p[1], n) for p, n in zip(parts, lengths)], level, basis, independent)
        size = supports.size + (0 if basis is None else basis.size + independent.size + len(supports) * self.d)
        if size <= self.room:
            self.room -= size
            batch.kept, self.batches[i], start = True, batch, 0
            counts = [0] * len(cvs)
            for (_, _, c), n in zip(parts, lengths):
                counts[c] += n
            for cv, n in zip(cvs, counts):
                self.kept[cv] = (batch, start, start + n)
                start += n
        return batch

    def _visit(self, batch: _Batch, bar: float):
        """This walk's survivors of a batch, by level, and its residuals."""
        supports, found, keep = batch.supports, batch.supports, None
        if batch.basis is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                if supports.shape[1] == 1:  # every parent is the empty support
                    residual = self.target[None]
                else:
                    pieces = [self.residuals[parents][p] for (parents, p), _ in batch.parts]
                    residual = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
                residual = _project(residual, batch.basis[:, -1])
                keep = ~(self._bounds(supports, residual, batch.independent) > bar)
            if batch.kept:
                self.residuals[batch] = residual
            found = supports[keep]
        if batch.level is None:
            yield self.plan[batch.start][0], list(map(tuple, found.tolist()))
            return
        # several groups: the survivors by level, then in lexicographic order
        level = batch.level if keep is None else batch.level[keep]
        order = np.lexsort((*found.T[::-1], level))
        for i, rows in itertools.groupby(zip(level[order].tolist(), found[order].tolist()), itemgetter(0)):
            yield self.plan[i][0], [tuple(r) for _, r in rows]

    def _stream(self, level, bar: float):
        """One level, block by block, keeping none of it."""
        weight, k, cvs = level
        screened = self._screened(k)
        for supports, state in self._rows(cvs, self._rows_per_block(k), screened):
            if screened:
                with np.errstate(over="ignore", invalid="ignore"):
                    supports = supports[self._screen_rows(supports, state, bar)]
            yield weight, list(map(tuple, supports.tolist()))

    def _rows(self, count_vectors, rows: int, with_state: bool):
        """(supports, their parents' states or None) blocks of at most
        ``rows`` supports with one of the count vectors, in lexicographic order."""
        groups = _groups(count_vectors)
        if len(groups) == 1:
            for supports, source in self._children(*groups[0][:2], rows):
                yield supports, self._parent_state(source, len(supports)) if with_state else None
            return
        supports = np.concatenate([s for j, pcv, _ in groups for s, _ in self._children(j, pcv, rows)])
        supports = supports[np.lexsort(supports.T[::-1])]
        for lo in range(0, len(supports), rows):
            yield supports[lo : lo + rows], None

    def _children(self, j: int, pcv: tuple, rows: int):
        """(supports, where their parents are) blocks of the children of the
        supports with count vector ``pcv`` through class j: ``()`` for the
        empty support, (batch, rows) for a kept batch, None otherwise."""
        members = self.members[j]
        if not any(pcv):
            for lo in range(0, members.size, rows):
                yield members[lo : lo + rows, None], ()
            return
        if pcv in self.kept:
            batch, start, stop = self.kept[pcv]
            sources = [(batch.supports, batch, start, stop)]
        else:
            sources = ((s, None, 0, len(s)) for s, _ in self._rows([pcv], rows, False))
        step = max(1, rows // members.size)
        for supports, batch, start, stop in sources:
            last = supports[start:stop, -1:]
            for lo in range(0, stop - start, step):
                p, col = np.nonzero(members > last[lo : lo + step])
                p += start + lo
                children = np.concatenate((supports[p], members[col, None]), axis=1)
                yield children, None if batch is None else (batch, p)

    def _parent_geometry(self, source, n: int):
        if source == ():
            return np.zeros((n, 0, self.d), self.atoms.dtype), np.ones(n, dtype=bool)
        batch, p = source
        return batch.basis[p], batch.independent[p]

    def _parent_state(self, source, n: int):
        """The parents' (basis, residual, flag) in this walk, or None when
        they were not kept; the empty support's residual is the target."""
        if source is None:
            return None
        basis, independent = self._parent_geometry(source, n)
        return basis, self.target[None] if source == () else self.residuals[source[0]][source[1]], independent

    def _screen_rows(self, supports, state, bar: float):
        """Which supports the screen keeps, from their parents' states, which
        are rebuilt from the distinct prefixes when None."""
        basis, residual, independent = state or self._grow(supports[:, :-1])
        basis, independent = self._step(basis, independent, supports[:, -1])
        return ~(self._bounds(supports, _project(residual, basis[:, -1]), independent) > bar)

    def _grow(self, supports):
        """States of any supports, each built atom by atom once per run of
        equal supports; a block's supports are in lexicographic order."""
        head = np.ones(len(supports), dtype=bool)
        head[1:] = (supports[1:] != supports[:-1]).any(axis=1)
        distinct, inverse = supports[head], np.cumsum(head) - 1
        basis, residual, independent = self._parent_state((), len(distinct))
        for atoms in distinct.T:
            basis, independent = self._step(basis, independent, atoms)
            residual = _project(residual, basis[:, -1])
        return basis[inverse], residual[inverse], independent[inverse]

    def _step(self, basis, independent, atoms):
        """One modified Gram-Schmidt step: every row's basis extended by one atom."""
        v = self.atoms[atoms]
        for i in range(basis.shape[1]):
            q = basis[:, i]
            v -= q * _rowdot(q, v)[:, None]
        off = _squared_norms(v)
        independent = independent & (off > self.floor[atoms])
        q = v * (independent / np.sqrt(off))[:, None]  # NaN only on degenerate rows
        return np.concatenate((basis, q[:, None]), axis=1), independent

    def _bounds(self, supports, residual, independent):
        """Lower bounds on the least-squares residuals: the residual's norm,
        and on degenerate rows |R[k, k]| of one stacked raw QR of [A_S | t]."""
        bound = np.sqrt(_squared_norms(residual))
        if not independent.all():
            degenerate = ~independent
            rows = supports[degenerate]
            k = rows.shape[1]
            # (k + 1, d) blocks, so the transpose hands LAPACK column-major [A_S | t]
            stacked = np.empty((len(rows), k + 1, self.d), dtype=self.atoms.dtype)
            stacked[:, :k] = self.atoms[rows]
            stacked[:, k] = self.target
            bound[degenerate] = np.abs(np.linalg.qr(stacked.transpose(0, 2, 1), mode="raw")[0][:, k, k])
        return bound


def _screen(cols: np.ndarray, target: np.ndarray, supports: list, bar: float) -> list:
    """The supports (all of one cardinality k) whose fit may reach the tolerance.

    Each support's state is built from scratch through its prefix, as in a
    ``_Tree`` block whose parents were not kept, and a support is
    dropped only when its bound exceeds ``bar``, well above the tolerance.
    """
    k = len(supports[0])
    if k == 0 or k >= cols.shape[0]:
        # with k >= d the columns may span the whole space: nothing could be dropped
        return supports
    tree = _Tree([], [], cols)
    tree.target = target
    with np.errstate(over="ignore", invalid="ignore"):
        keep = tree._screen_rows(np.array(supports, dtype=np.intp), None, bar)
    return [s for s, kept in zip(supports, keep.tolist()) if kept]


def _walk(problem: SparseProblem, members: list[np.ndarray], plan) -> SparseSolution:
    """Shared exhaustive search of both solvers and every probe trial.

    Visits the levels of a ``_weight_plan`` in order, building each one
    from its parents in a ``_Tree`` when it is reached; ``plan`` may be such
    a tree, built over the problem's frame, to share its bases between
    walks.  The search stops after the last level of the first weight that
    has a fit; ``unique`` is true when no second support of that weight also
    fits.  Every support the screen keeps is decided, in order, by the exact
    ``_restricted_fit``.
    """
    frame, target = problem.frame, problem.target
    tol = problem.resolved_tolerance()
    bar = 2.0 * tol + 1e-9 * float(np.linalg.norm(target))
    cols = _synthesis_columns(frame)
    tree = plan if isinstance(plan, _Tree) else _Tree(members, plan, cols)
    first = None
    for objective, survivors in tree.levels(target, bar):
        for support in survivors:
            coeff, residual = _restricted_fit(cols, support, target)
            if residual <= tol:
                if first is not None:
                    return _padded_solution(frame, *first, unique=False)
                first = (support, coeff, residual)
                tree.ceiling = objective
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


def _planted_pool(members: list[np.ndarray], plan, threshold: float) -> list[tuple[int, ...]]:
    """The plan's nonempty supports of total weight below ``threshold``, by
    cardinality then lexicographic order."""
    levels = _Tree(members, plan).levels(ceiling=math.nextafter(threshold, -math.inf))
    light = [s for _, block in levels for s in block if s]
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
    # one tree for every trial's walk: its bases do not depend on the target
    tree = _Tree(members, plan, _synthesis_columns(frame))
    records = []
    for t in range(trials if pool else 0):
        support = pool[int(rng.integers(len(pool)))]
        values = np.zeros(n, dtype=frame.vectors.dtype)
        values[list(support)] = _standard_normal(rng, len(support), frame.field)
        target = synthesis(frame, CoefficientFunction(frame.space, values))
        solution = _walk(SparseProblem(frame, target, eps_residual), members, tree)
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
