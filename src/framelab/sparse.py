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
any of it is built.  A level is read from its cardinality layer: layer k
holds every k-atom support, each its parent in layer k - 1 plus one atom.
A plan and its layers' index arrays (``_Plan``) depend only on the weights
and the cap; they are memoised, least recently used out first, within
``_SCREEN_ENTRIES`` index entries, and shared safely between threads.  Per
solve, an enumeration tree (``_Tree``) extends every parent's orthonormal
basis and target residual by the new atom, one Gram-Schmidt step per
layer.  The residual's norm screens the supports; the exact fit decides.
``conjecture_probe`` plans once, plants random low-weight supports and
reports, never asserts, whether weight minimization recovers them uniquely;
its totals and counterexamples are derived from its list of trial records.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .frame_io import frame_digest, frame_to_obj, json_number, vector_to_obj
from .frames import (
    CoefficientFunction,
    FrameError,
    PSchauderFrame,
    ResourceGuardError,
    _as_input_vector,
    _check_table_guard,
    _check_tolerance,
    _gaussian,
    _seeded_rng,
    synthesis,
)

# Largest number of candidate supports a solver call may enumerate.
ENUMERATION_GUARD = 10_000_000

# Most count vectors one plan may hold.  ``_Plan`` builds a row per count
# vector before any support is screened, about 390-450 bytes each at its
# tracemalloc peak (n = 10..17 distinct weights), so a plan at the guard
# peaks near 60 MB; 2^17 admits 17 distinct weights.
PLAN_GUARD = 1 << 17

# Most entries of state in one block of supports, in the layers one tree
# keeps with one walk's residuals, and in the memo of plans.
_SCREEN_ENTRIES = 1 << 20

# Weight plans by (weights' bytes, cap), least recently used first, and the
# lock under which the memo and every plan's layers change.
_PLANS: OrderedDict = OrderedDict()
_LOCK = threading.Lock()

# Most trials one probe may run.  A trial took 0.2-0.6 ms (2 CPUs) and
# its record holds 0.7-2 KB, so at the guard a probe runs a few seconds and
# keeps at most about 20 MB of records on the frames measured (n = 3..14).
_PROBE_TRIALS_GUARD = 10_000

# Most supports one probe may plant from.  ``_planted_pool`` holds each as a
# tuple, about 180 bytes at its tracemalloc peak (n = 12..18), so a pool at
# the guard peaks near 23 MiB, and a one-trial probe of 2^17 - 1 supports
# near 38 MiB, within the scale ``PLAN_GUARD`` admits.
_PROBE_POOL_GUARD = 1 << 17

# Default eps_residual per unit of the target's 2-norm, as the probe report spells it.
_EPS_RESIDUAL_FACTOR = "1e-8"

SOLVED = "solved"
INFEASIBLE = "infeasible"


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """Recover coefficients reproducing ``target`` through the frame's weighted
    synthesis.  ``eps_residual`` defaults to ``_EPS_RESIDUAL_FACTOR`` * ``norm``, the target's 2-norm."""

    frame: PSchauderFrame
    target: np.ndarray
    eps_residual: float | None = None
    norm: float = field(init=False, repr=False)

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
            object.__setattr__(self, "norm", float(np.linalg.norm(h)))
        if not math.isfinite(self.norm):
            raise FrameError("the target's 2-norm overflows a double")

    def resolved_tolerance(self) -> float:
        if self.eps_residual is not None:
            return float(self.eps_residual)
        return float(_EPS_RESIDUAL_FACTOR) * self.norm


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
    which callers should treat as an unbounded sparsity threshold.  An
    (n, n) Gram beyond ``VALIDATION_GUARD`` scalars is refused first.
    """
    if frame.n_atoms < 2:
        raise FrameError("coherence needs at least two atoms")
    if frame.p != 2.0:
        raise FrameError("coherence uses the Hilbert pairing; p must be 2")
    _check_table_guard(frame.n_atoms, frame.n_atoms)
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


def _restricted_fit(cols: np.ndarray, support: tuple[int, ...], problem: SparseProblem):
    a = cols[:, list(support)]
    if a.shape[1] == 0:
        return np.zeros(0, dtype=cols.dtype), problem.norm
    coeff, *_ = np.linalg.lstsq(a, problem.target, rcond=None)
    residual = float(np.linalg.norm(a @ coeff - problem.target))
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
        support_weight=frame.space.measure(list(nonzero)),
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


def _weight_plan(weights: np.ndarray, max_card: int | None) -> _Plan:
    """The memoised ``_Plan`` of the supports of at most ``max_card`` atoms.

    ``max_card`` None means all n atoms; otherwise it must lie in 0..n.
    The guard comes next, on every call: it sums C(n, k) for k up to that
    cap and refuses at the first partial total above ``ENUMERATION_GUARD``,
    so a refusal costs a few small integers and builds or stores nothing.
    On a memo miss, ``_count_vectors`` then refuses a plan of more than
    ``PLAN_GUARD`` count vectors, before any of it is built.
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
    key = (weights.tobytes(), cap)
    with _LOCK:
        if key in _PLANS:
            _PLANS.move_to_end(key)
            return _PLANS[key]
        sizes = np.unique(weights, return_counts=True)[1].tolist()
        if _count_vectors(sizes, cap) > PLAN_GUARD:
            raise ResourceGuardError(
                f"more than {PLAN_GUARD} count vectors of at most {cap} of {n} atoms "
                f"in {len(sizes)} weight classes"
            )
        plan = _PLANS[key] = _Plan(weights, cap)
        _admit(plan, 0)
    return plan


def _count_vectors(sizes: list[int], cap: int) -> int:
    """The number of count vectors of at most ``cap`` atoms over classes of
    these sizes, or the first partial count above ``PLAN_GUARD``.

    ``ways[t]`` counts the vectors over the classes so far with t atoms;
    each class extends them by 0..size atoms, and totals above the cap are
    dropped.  The count never falls as classes are added, so it stops at
    the first class that takes it past the guard.
    """
    ways = [1] + [0] * cap
    for m in sizes:
        prefix = [0, *itertools.accumulate(ways)]
        ways = [prefix[t + 1] - prefix[max(0, t - m)] for t in range(cap + 1)]
        if sum(ways) > PLAN_GUARD:
            break
    return sum(ways)


def _admit(plan: _Plan, size: int) -> None:
    """Count ``size`` more entries of ``plan`` before they are built, then
    evict other plans, least recently used first, until the memo fits.  A
    plan larger than the whole memo is used but not stored."""
    plan.entries += size
    for key in [key for key, p in _PLANS.items() if p is plan and p.entries > _SCREEN_ENTRIES]:
        del _PLANS[key]
    total = sum(p.entries for p in _PLANS.values())
    for key in [key for key, p in _PLANS.items() if p is not plan]:
        if total <= _SCREEN_ENTRIES:
            break
        total -= _PLANS.pop(key).entries


@dataclass(eq=False)
class _Layer:
    """Every k-atom support in lexicographic order (new atoms last), each row's
    parent row in layer k - 1 and count-vector number, the rows of each plan
    level, and the binomials C(x, j), x < n, j <= k, that rank supports."""

    supports: np.ndarray
    parent: np.ndarray | None
    label: np.ndarray
    rows: dict
    binomials: np.ndarray

    def __post_init__(self):
        for a in (self.supports, self.parent, self.label, self.binomials, *self.rows.values()):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


class _Plan:
    """The supports of at most ``cap`` atoms as ``levels``, the sorted list of
    ``(total weight, cardinality, [count vectors])``, and the layers kept.

    Atoms of one exact weight form a class (``members``).  A support's weight
    depends only on how many atoms it takes from each class, and ``math.fsum``
    is correctly rounded, so one ``fsum`` per count vector equals, bit for
    bit, the ``fsum`` over any support with those counts.

    Layer k is every k-atom support in lexicographic order, built from layer
    k - 1 in one step: each parent (the support minus its last atom) extended
    by every atom past its last one.  Each row carries the number of its
    count vector, so a level is its layer's rows with its count vectors, in
    order after a stable sort.  None of this depends on a frame; a layer is
    built once, under ``_LOCK``, and never changes, so threads may share it.
    """

    def __init__(self, weights: np.ndarray, cap: int):
        values, self.class_of = np.unique(weights, return_inverse=True)
        self.members = [np.flatnonzero(self.class_of == j).tolist() for j in range(values.size)]
        # (count vector, summands) rows in itertools.product order, none above cap
        rows = [((), ())]
        for v, m in zip(values.tolist(), self.members):
            rows = [(cv + (c,), t + (v,) * c) for cv, t in rows for c in range(min(len(m), cap - len(t)) + 1)]
        groups: dict[tuple[float, int], list[tuple[int, ...]]] = {}
        for cv, t in rows:
            groups.setdefault((math.fsum(t), len(t)), []).append(cv)
        # flat (float-first) tuples sort fastest; (weight, card) never ties
        self.levels = sorted((w, k, cvs) for (w, k), cvs in groups.items())
        # count vector -> plan number, by cardinality; a row's label is its
        # count vector's place in its cardinality's dict
        self.count_vectors: dict[int, dict] = {}
        for i, (_, k, cvs) in enumerate(self.levels):
            for cv in cvs:
                self.count_vectors.setdefault(k, {})[cv] = i
        empty, ones = np.zeros((1, 0), dtype=np.intp), np.ones((weights.size, 1), dtype=np.int64)
        self.layers = {0: _Layer(empty, None, np.zeros(1, np.intp), {0: slice(None)}, ones)}
        # in 8-byte entries: about 5 KB a plan and 300 bytes a count vector
        self.entries = 640 + len(rows) * (len(self.members) + 36)

    def layer(self, k: int) -> _Layer:
        """Layer k, built from layer k - 1 on first use, its entries admitted first."""
        with _LOCK:
            if k not in self.layers:
                n = len(self.class_of)
                _admit(self, math.comb(n, k) * (k + 3) + n * (k + 1) + 64)
                self.layers[k] = self._layer(k, n)
            return self.layers[k]

    def _layer(self, k: int, n: int) -> _Layer:
        prev = self.layers[k - 1]
        last = prev.supports[:, -1] if k > 1 else np.full(1, -1)
        parent, atoms = np.nonzero(np.arange(n) > last[:, None])
        supports = np.concatenate((prev.supports[parent], atoms[:, None]), axis=1)
        level_of = self.count_vectors[k]
        label, ids = prev.label, sorted(set(level_of.values()))
        if len(self.members) > 1:
            number = dict(zip(self.count_vectors[k - 1], itertools.count()))
            table = np.zeros((len(number), len(self.members)), dtype=np.intp)
            for i, cv in enumerate(level_of):
                for j, c in enumerate(cv):
                    if c:
                        table[number[cv[:j] + (c - 1,) + cv[j + 1 :]], j] = i
            label = table[label[parent], self.class_of[atoms]]
        rows = {ids[0]: slice(None)}
        if len(ids) > 1:
            level = np.array(list(level_of.values()))[label]
            order = np.argsort(level, kind="stable")
            ends = np.cumsum(np.bincount(level)[ids]).tolist()
            rows = {i: order[start:end] for i, start, end in zip(ids, [0] + ends, ends)}
        binomials = np.array([[math.comb(x, j) for j in range(k + 1)] for x in range(n)], dtype=np.int64)
        return _Layer(supports, parent, label, rows, binomials)


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(np.float64)  # a complex row as its real and imaginary parts
    return np.vecdot(flat, flat)


def _project(residual: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each row's residual without its component along the row's unit vector q."""
    return residual - q * np.vecdot(q, residual)[:, None]


def _expand(members: list[list[int]], count_vectors, rows: int):
    """The supports taking ``cv[j]`` atoms from class j, for any of the given
    count vectors (all of one cardinality k > 0), in lexicographic order, as
    index arrays of at most ``rows`` supports.  A level drawn from one class
    streams that class's combinations, which are already in order; any other
    level is built whole as one index array and sorted."""
    drawn = [[(m, c) for m, c in zip(members, cv) if c] for cv in count_vectors]
    k = sum(count_vectors[0])
    if len(drawn) == 1 and len(drawn[0]) == 1:
        atoms = itertools.chain.from_iterable(itertools.combinations(*drawn[0][0]))
        while (block := np.fromiter(itertools.islice(atoms, rows * k), np.intp)).size:
            yield block.reshape(-1, k)
        return
    size = sum(math.prod(math.comb(len(m), c) for m, c in pairs) for pairs in drawn)
    picks = (p for pairs in drawn for p in itertools.product(*(itertools.combinations(m, c) for m, c in pairs)))
    atoms = itertools.chain.from_iterable(itertools.chain.from_iterable(picks))
    supports = np.sort(np.fromiter(atoms, np.intp, size * k).reshape(size, k), axis=1)
    order = np.lexsort(supports.T[::-1])
    for lo in range(0, size, rows):
        yield supports[order[lo : lo + rows]]


class _Tree:
    """One frame's screen over its synthesis columns ``cols`` (which ``_walk``
    fits on) and the layers of a memoised ``_Plan``, shared by its trees.

    Every support of 0 < k < d atoms has an orthonormal basis of its columns
    and a flag that is false on degenerate rows, and each walk carries the
    target's residual off that basis, one layer at a time.  One modified
    Gram-Schmidt step extends a parent's basis by the new atom, and the
    residual's norm bounds the support's least-squares residual from below;
    Gram-Schmidt on [A | t] gives a backward-stable least-squares residual
    (Bjorck 1967).  A row is degenerate when its new atom keeps less than 1%
    of its norm off the parent's span, as a split copy or a zero atom does;
    its bound, and that of every descendant, is |R[k, k]| of one stacked raw
    QR of [A_S | t], taken once per layer and walk.  The bases do not depend
    on the target, so the layers serve every walk of the tree (the probe's
    trials share one tree).  Layers are kept in order of k while their index
    arrays and bases, with one walk's residuals, fit in ``_SCREEN_ENTRIES``
    entries (on a tree's first walk, only until the walk has a fit).  A level
    above the last kept layer K is enumerated by ``_expand`` in blocks of at
    most as many entries of state, each support's state grown from its
    K-atom prefix's row.  One walk runs at a time; d = 0 screens nothing.
    """

    def __init__(self, plan: _Plan, cols: np.ndarray):
        self.plan, self.cols, self.d = plan, cols, cols.shape[0]
        self.atoms = np.ascontiguousarray(cols.T)
        # 1%, squared: while each new atom keeps more of its norm off the
        # parent's span, the bound stays within 1e-13 * |t| of the stacked-QR
        # bound it replaces, the accuracy to which that bound is pinned
        with np.errstate(over="ignore"):
            self.floor = 1e-4 * _squared_norms(self.atoms)
        # (basis, flag) of each kept layer, (None, None) from d atoms on
        self.bases = [(np.zeros((1, 0, self.d), self.atoms.dtype), np.ones(1, dtype=bool))]
        self.room, self.target, self.ceiling, self.screens, self.walks = _SCREEN_ENTRIES, None, math.inf, {}, 0

    def levels(self, target: np.ndarray, bar: float = math.inf):
        """One walk: (weight, supports as a list of tuples) per block of the
        plan's levels, in plan order and lexicographic order within a level,
        up to the first level heavier than ``self.ceiling``, which the caller
        may lower from inf at any time.  A level of 0 < k < d atoms keeps only
        the supports whose bound for ``target`` is not above ``bar``."""
        # the empty support's residual is the target; it is not screened
        self.target, self.ceiling, self.screens = target, math.inf, {0: (target[None], None)}
        self.walks += 1
        for i, (weight, k, cvs) in enumerate(self.plan.levels):
            if weight > self.ceiling:
                return
            if self._kept(k):
                rows = self.plan.layers[k].rows[i]
                found = self.plan.layers[k].supports[rows]
                if 0 < k < self.d:
                    found = found[~(self._screened(k)[1][rows] > bar)]
                yield weight, list(map(tuple, found.tolist()))
                continue
            # state per support: basis and residual below d atoms, else atoms
            state = self.d * (k + 1) if k < self.d else k
            for supports in _expand(self.plan.members, cvs, max(1, _SCREEN_ENTRIES // state)):
                if k < self.d:
                    supports = supports[self._rebuilt(supports, bar)]
                yield weight, list(map(tuple, supports.tolist()))

    def _kept(self, k: int) -> bool:
        """Whether layer k is kept.  Layers are kept in order of k (a walk
        reaches layer k - 1 first) while they fit in the room left; a first
        walk that has its fit keeps none, as the few levels of equal weight
        left cost less to rebuild, unless later walks reuse the layer."""
        # per row, the plan's k + 3 index entries, and below d atoms basis and residual
        size = math.comb(len(self.plan.class_of), k) * (k + 3 + self.d * (k + 1) * (k < self.d))
        if k == len(self.bases) and size <= self.room and (self.ceiling == math.inf or self.walks > 1):
            self.room -= size
            layer, (basis, independent) = self.plan.layer(k), self.bases[k - 1]
            if k < self.d:
                with np.errstate(over="ignore", invalid="ignore"):
                    basis, independent = self._step(
                        basis[layer.parent], independent[layer.parent], layer.supports[:, -1]
                    )
            self.bases.append((basis, independent) if k < self.d else (None, None))
        return k < len(self.bases)

    def _screened(self, k: int):
        """This walk's residuals of kept layer 0 < k < d and their bounds, once per walk."""
        if k not in self.screens:
            layer, (basis, independent) = self.plan.layers[k], self.bases[k]
            with np.errstate(over="ignore", invalid="ignore"):
                residual = _project(self._screened(k - 1)[0][layer.parent], basis[:, -1])
                self.screens[k] = residual, self._bounds(layer.supports, residual, independent)
        return self.screens[k]

    def _rebuilt(self, supports, bar: float):
        """Which supports of a level above the last kept layer K the screen
        keeps.  Each support's state starts from the row of its K-atom prefix
        s, the prefix's lexicographic rank C(n, K) - 1 - sum_i C(n - 1 - s_i,
        K - i), and is extended one atom at a time."""
        n, top = len(self.plan.class_of), len(self.bases) - 1
        binomials = self.plan.layers[top].binomials
        rank = math.comb(n, top) - 1 - binomials[n - 1 - supports[:, :top], top - np.arange(top)].sum(axis=1)
        (basis, independent), residual = (a[rank] for a in self.bases[top]), self._screened(top)[0][rank]
        with np.errstate(over="ignore", invalid="ignore"):
            for atoms in supports.T[top:]:
                basis, independent = self._step(basis, independent, atoms)
                residual = _project(residual, basis[:, -1])
            return ~(self._bounds(supports, residual, independent) > bar)

    def _step(self, basis, independent, atoms):
        """One modified Gram-Schmidt step: every row's basis extended by one atom."""
        v = self.atoms[atoms]
        for i in range(basis.shape[1]):
            q = basis[:, i]
            v -= q * np.vecdot(q, v)[:, None]
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


def _walk(problem: SparseProblem, tree: _Tree) -> SparseSolution:
    """Shared exhaustive search of both solvers and every probe trial.

    Visits the levels of the tree's plan in order, each read from the tree
    built over the problem's frame when it is reached; the probe's trials
    share one tree and so its bases.  The search stops after the last level
    of the first weight that has a fit; ``unique`` is true when no second
    support of that weight also fits.  Every support the screen keeps is
    decided, in order, by the exact ``_restricted_fit``.
    """
    frame, target = problem.frame, problem.target
    tol = problem.resolved_tolerance()
    bar = 2.0 * tol + 1e-9 * problem.norm
    first = None
    for objective, survivors in tree.levels(target, bar):
        for support in survivors:
            coeff, residual = _restricted_fit(tree.cols, support, problem)
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
    plan = _weight_plan(np.ones(problem.frame.n_atoms), max_card)
    return _walk(problem, _Tree(plan, _synthesis_columns(problem.frame)))


def measure_min_brute_force(problem: SparseProblem, max_card: int | None = None) -> SparseSolution:
    """Minimize the total weight of the active atoms by exhaustive search.

    Supports are visited by increasing total weight, ties broken by smaller
    cardinality then lexicographic order.  ``unique`` is true when no
    distinct support of exactly equal weight also fits.  Only supports of at
    most ``max_card`` atoms (None: all n) are searched.  Reduces to
    ``l0_brute_force`` under counting measure.
    """
    plan = _weight_plan(problem.frame.space.weights, max_card)
    return _walk(problem, _Tree(plan, _synthesis_columns(problem.frame)))


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
    j, k = np.nonzero(np.triu(~(v[:, None] == v[None]).all(-1), 1))
    # an overflowing pairing also overflows the Gram, whose coherence the probe refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(np.vecdot(v[k], v[j])).max(initial=0.0))


def _planted_pool(plan: _Plan, threshold: float) -> list[tuple[int, ...]]:
    """The plan's nonempty supports of total weight below ``threshold``, by
    cardinality then lexicographic order.  Their number is counted first from
    the count vectors, the product over classes of C(class size, count), and
    more than ``_PROBE_POOL_GUARD`` are refused before any is built."""
    light = [cvs for weight, k, cvs in plan.levels if k and weight < threshold]
    size = sum(math.prod(map(math.comb, map(len, plan.members), cv)) for cvs in light for cv in cvs)
    if size > _PROBE_POOL_GUARD:
        raise ResourceGuardError(f"{size} light supports exceed guard {_PROBE_POOL_GUARD}")
    blocks = (block for cvs in light for block in _expand(plan.members, cvs, _SCREEN_ENTRIES))
    return sorted((s for block in blocks for s in map(tuple, block.tolist())), key=lambda s: (len(s), s))


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
    ``_PROBE_TRIALS_GUARD`` trials are refused before anything is planned,
    and a pool of more than ``_PROBE_POOL_GUARD`` light supports before any
    is built.
    """
    _check_tolerance("eps_residual", eps_residual)
    if frame.p != 2.0:
        raise FrameError("the probe uses the Hilbert pairing; p must be 2")
    if trials < 1:
        raise FrameError("trials must be at least 1")
    if trials > _PROBE_TRIALS_GUARD:
        raise ResourceGuardError(f"trials {trials} exceeds guard {_PROBE_TRIALS_GUARD}")
    rng = _seeded_rng(seed)
    n = frame.n_atoms
    plan = _weight_plan(frame.space.weights, None)
    coh_all = gram_coherence(frame)
    coh_distinct = _distinct_vector_coherence(frame)
    thr_all = uniqueness_threshold(coh_all)
    thr_distinct = uniqueness_threshold(coh_distinct)
    pool = _planted_pool(plan, thr_all)
    # one tree for every trial's walk: its bases do not depend on the target
    tree = _Tree(plan, _synthesis_columns(frame))
    records = []
    for t in range(trials if pool else 0):
        support = pool[int(rng.integers(len(pool)))]
        values = np.zeros(n, dtype=frame.vectors.dtype)
        values[list(support)] = _gaussian(rng, len(support), frame.field, unit=True)
        target = synthesis(frame, CoefficientFunction(frame.space, values))
        solution = _walk(SparseProblem(frame, target, eps_residual), tree)
        weight = frame.space.measure(list(support))
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
        "eps_residual_policy": f"{_EPS_RESIDUAL_FACTOR} * l2(target) when eps_residual is null",
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
