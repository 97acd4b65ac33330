"""Weighted atomic index sets and paired functional/vector families.

A frame here is a pair of finite tables over a weighted index set: row i of
``functionals`` acts on a vector x through the bilinear pairing
``sum_j functionals[i, j] * x[j]``, and row i of ``vectors`` is the atom used
by synthesis.  A pair is valid for exponent p when, for every x,

* ``sum_i w_i * |f_i(x)|**p  == norm(x, p)**p``   (analysis preserves the p-norm)
* ``sum_i w_i * f_i(x) * vectors[i] == x``        (weighted reconstruction)

Hilbert-style constructions (p = 2) store the conjugated atom as the
functional row, so the pairing evaluates to the inner product <x, atom>; the
same bilinear pairing then serves real and complex families alike.

``uncertainty_check`` compares the support measures of the two analysis
images of one nonzero vector against the reciprocal of the largest pairing
between the two families.  ``uncertainty_batch`` does the same for the rows
of an (m, d) array in one pass, with the same bits as checking each row on
its own; ``uncertainty_check`` is its one-row case.  Both take the pair's
cross-coherence from a per-pair memo: it is computed by ``cross_coherence``
the first time a pair of frame objects is checked and kept, under weak
references, for as long as both frames live (frames are immutable).
``validate_frame`` estimates the two axiom residuals on seeded random
vectors, and ``extremal_search`` hunts for near-equality vectors of the
support product, checking its candidates in chunks with the batch kernel.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

# Additive slack when deciding whether an uncertainty inequality holds; both
# sides are O(1)..O(n) at the scales this package targets.
CUE_TOLERANCE = 1e-9

# Default relative magnitude below which an analysis coefficient counts as
# zero.  Pass eps=0 when the input has exact zeros by construction.
SUPPORT_EPS = 1e-9


class FrameError(ValueError):
    """A construction or operation contract was violated."""


class DegeneratePairError(FrameError):
    """Every cross pairing between two families vanishes; the uncertainty
    bound is undefined for such a pair."""


class ResourceGuardError(RuntimeError):
    """Requested combinatorial work exceeds the configured guard."""


def _finite_or_raise(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FrameError(f"{what} must be finite (no NaN/Inf)")


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite atomic measure: atom i carries the strictly positive weight
    ``weights[i]``.  Counting measure <=> all weights equal 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise FrameError("weights must be a nonempty 1-d sequence")
        _finite_or_raise(w, "weights")
        if np.any(w <= 0):
            raise FrameError("every atom weight must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @property
    def total_measure(self) -> float:
        return math.fsum(self.weights)

    @property
    def is_counting(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    def __len__(self) -> int:
        return self.n_atoms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)


def counting_measure(n: int) -> MeasureSpace:
    if n < 1:
        raise FrameError("need at least one atom")
    return MeasureSpace(np.ones(n))


def _conjugate_exponent(p: float) -> float:
    return p / (p - 1.0)


@dataclass(frozen=True, eq=False)
class PSchauderFrame:
    """Paired functional/vector tables over a weighted atomic index set.

    ``functionals`` and ``vectors`` are (n_atoms, dimension) tables over the
    scalar field (float64 or complex128).  The exponent p must satisfy
    1 < p < inf; its conjugate q = p / (p - 1) is always derived, never
    stored.  Construction validates shapes, finiteness and p, not the
    analytic axioms; use ``validate_frame`` for those.
    """

    space: MeasureSpace
    p: float
    functionals: np.ndarray
    vectors: np.ndarray
    field: str = REAL

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise FrameError(f"field must be '{REAL}' or '{COMPLEX}'")
        p = float(self.p)
        if not np.isfinite(p) or p <= 1.0:
            raise FrameError("exponent p must be finite with 1 < p < inf")
        object.__setattr__(self, "p", p)
        dtype = np.complex128 if self.field == COMPLEX else np.float64
        try:
            fun = np.array(self.functionals, dtype=dtype, copy=True)
            vec = np.array(self.vectors, dtype=dtype, copy=True)
        except (TypeError, ValueError) as exc:
            raise FrameError(f"cannot coerce tables to {self.field} scalars: {exc}") from None
        if fun.ndim != 2 or vec.ndim != 2:
            raise FrameError("functionals and vectors must be 2-d tables")
        if fun.shape != vec.shape:
            raise FrameError("functional and vector tables must have equal shape")
        if fun.shape[0] != self.space.n_atoms:
            raise FrameError("one table row per atom required")
        if fun.shape[1] < 1:
            raise FrameError("ambient dimension must be at least 1")
        _finite_or_raise(fun, "functionals")
        _finite_or_raise(vec, "vectors")
        fun.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "functionals", fun)
        object.__setattr__(self, "vectors", vec)

    @property
    def q(self) -> float:
        return _conjugate_exponent(self.p)

    @property
    def dimension(self) -> int:
        return int(self.functionals.shape[1])

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms


@dataclass(frozen=True, eq=False)
class CoefficientFunction:
    """Scalar values on the atoms of a measure space (an analysis image)."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, copy=True)
        if v.ndim != 1 or v.size != self.space.n_atoms:
            raise FrameError("one coefficient per atom required")
        if not np.issubdtype(v.dtype, np.number):
            raise FrameError("coefficients must be numeric")
        if np.issubdtype(v.dtype, np.integer):
            v = v.astype(float)
        _finite_or_raise(v, "coefficients")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class UncertaintyReport:
    """Both support-product inequalities of one vector against one frame pair.

    ``lhs1 = supp_f**(1/p) * supp_g**(1/q)`` must dominate ``1/coh_fg`` and
    ``lhs2 = supp_g**(1/p) * supp_f**(1/q)`` must dominate ``1/coh_gf``,
    each up to the additive tolerance ``CUE_TOLERANCE``.
    """

    supp_f: float
    supp_g: float
    lhs1: float
    lhs2: float
    coh_fg: float
    coh_gf: float
    bound1: float
    bound2: float
    holds1: bool
    holds2: bool


@dataclass(frozen=True)
class ValidationReport:
    """Worst relative residuals of the two frame axioms over random vectors."""

    trials: int
    tol: float
    rng_seed: int
    max_isometry_residual: float
    max_reconstruction_residual: float
    passes: bool


def _as_field(frame: PSchauderFrame, arr: np.ndarray) -> np.ndarray:
    if frame.field == REAL and np.iscomplexobj(arr):
        raise FrameError("real frames act on real vectors only")
    dtype = np.complex128 if frame.field == COMPLEX else np.float64
    arr = arr.astype(dtype, copy=False)
    _finite_or_raise(arr, "vector entries")
    return arr


def _as_input_vector(frame: PSchauderFrame, x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size != frame.dimension:
        raise FrameError(
            f"vector length {arr.size if arr.ndim == 1 else arr.shape} does not "
            f"match frame dimension {frame.dimension}"
        )
    return _as_field(frame, arr)


def _as_input_rows(frame: PSchauderFrame, X) -> np.ndarray:
    arr = np.asarray(X)
    if arr.ndim != 2 or arr.shape[1] != frame.dimension:
        raise FrameError(
            f"input rows of shape {arr.shape} do not form an (m, {frame.dimension}) array"
        )
    return _as_field(frame, arr)


def analysis(frame: PSchauderFrame, x) -> CoefficientFunction:
    """Evaluate every functional on x: coefficient i equals the bilinear
    pairing of row i with x.  Linear in x."""
    xv = _as_input_vector(frame, x)
    return CoefficientFunction(frame.space, frame.functionals @ xv)


def synthesis(frame: PSchauderFrame, coeffs: CoefficientFunction) -> np.ndarray:
    """Weighted superposition ``sum_i w_i * c_i * vectors[i]``.

    Inverts ``analysis`` on every valid frame.
    """
    if coeffs.space != frame.space:
        raise FrameError("coefficient function lives on a different measure space")
    return (frame.space.weights * coeffs.values) @ frame.vectors


def _support_measures(weights: np.ndarray, coeffs: np.ndarray, eps: float) -> list[float]:
    """Support measure of every row of the (m, n_atoms) array ``coeffs``.

    Row i keeps the atoms with ``|c_ij| > eps * max_j |c_ij|``; a row whose
    peak is 0 keeps none and measures 0.0.  ``math.fsum`` runs once per
    distinct mask, so split weights stay bit-exact and repeated masks cost
    nothing extra.
    """
    mags = np.abs(coeffs)
    masks = mags > eps * mags.max(axis=1, keepdims=True)
    if len(masks) == 1:
        # np.unique over rows has a fixed cost several times that of a
        # whole one-row check; a single row has nothing to group.
        return [math.fsum(weights[masks[0]])]
    _, first, inverse = np.unique(
        np.packbits(masks, axis=1), axis=0, return_index=True, return_inverse=True
    )
    sums = [math.fsum(weights[masks[i]]) for i in first]
    return [sums[k] for k in inverse.ravel()]


def support_measure(coeffs: CoefficientFunction, eps: float = SUPPORT_EPS) -> float:
    """Total weight of atoms whose coefficient magnitude exceeds
    ``eps * max_j |c_j|``.  The threshold is relative, which makes the result
    invariant under scaling the whole coefficient function; an identically
    zero function has support measure 0.

    Weights are totalled with correctly rounded summation, so atom splits
    whose parts sum exactly to the original weight leave the result
    bit-identical.
    """
    if eps < 0:
        raise FrameError("eps must be nonnegative")
    return _support_measures(coeffs.space.weights, coeffs.values[None, :], eps)[0]


def cross_coherence(frame_f: PSchauderFrame, frame_g: PSchauderFrame) -> tuple[float, float]:
    """Largest pairings between the two families:

    ``coh_fg = max_ij |f_i(omega_j)|`` (first family's functionals on the
    second family's vectors) and symmetrically ``coh_gf = max_ij |g_j(tau_i)|``.
    Raises ``DegeneratePairError`` when either maximum vanishes, since the
    reciprocal bound is then undefined.
    """
    if frame_f.dimension != frame_g.dimension:
        raise FrameError("frames must share the ambient dimension")
    if frame_f.field != frame_g.field:
        raise FrameError("frames must share the scalar field")
    coh_fg = float(np.abs(frame_f.functionals @ frame_g.vectors.T).max())
    coh_gf = float(np.abs(frame_g.functionals @ frame_f.vectors.T).max())
    if coh_fg == 0.0 or coh_gf == 0.0:
        raise DegeneratePairError("zero cross-coherence: support bound undefined")
    return coh_fg, coh_gf


# Cross-coherences of frame pairs already seen, keyed on the frames
# themselves: frames are frozen with read-only tables and hash by identity
# (eq=False), and weak keys never keep a frame alive.
_COHERENCE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pair_coherence(frame_f: PSchauderFrame, frame_g: PSchauderFrame) -> tuple[float, float]:
    """``cross_coherence(frame_f, frame_g)``, computed once per frame pair.

    Errors are never cached: a degenerate or mismatched pair raises on
    every call.
    """
    inner = _COHERENCE.get(frame_f)
    if inner is not None:
        coh = inner.get(frame_g)
        if coh is not None:
            return coh
    coh = cross_coherence(frame_f, frame_g)
    _COHERENCE.setdefault(frame_f, weakref.WeakKeyDictionary())[frame_g] = coh
    return coh


def _same_exponent(frame_f: PSchauderFrame, frame_g: PSchauderFrame) -> None:
    if frame_f.p != frame_g.p:
        raise FrameError("frames must share the exponent p")


def _uncertainty_rows(
    frame_f: PSchauderFrame, frame_g: PSchauderFrame, rows: np.ndarray, eps: float
) -> list[UncertaintyReport]:
    """Reports for validated (m, d) input rows; see ``uncertainty_batch``."""
    if not rows.any(axis=1).all():
        raise FrameError("theorem excludes x = 0")
    coh_fg, coh_gf = _pair_coherence(frame_f, frame_g)
    if eps < 0:
        raise FrameError("eps must be nonnegative")
    supports = []
    for frame in (frame_f, frame_g):
        # One stacked matrix-vector product per row: the same bits as
        # ``frame.functionals @ x`` for each row (a gemm would not be).
        coeffs = np.matmul(frame.functionals, rows[..., None])[..., 0]
        _finite_or_raise(coeffs, "coefficients")
        supports.append(_support_measures(frame.space.weights, coeffs, eps))
    p = frame_f.p
    q = frame_f.q
    bound1 = 1.0 / coh_fg
    bound2 = 1.0 / coh_gf
    reports = []
    for supp_f, supp_g in zip(*supports):
        lhs1 = supp_f ** (1.0 / p) * supp_g ** (1.0 / q)
        lhs2 = supp_g ** (1.0 / p) * supp_f ** (1.0 / q)
        reports.append(
            UncertaintyReport(
                supp_f=supp_f,
                supp_g=supp_g,
                lhs1=lhs1,
                lhs2=lhs2,
                coh_fg=coh_fg,
                coh_gf=coh_gf,
                bound1=bound1,
                bound2=bound2,
                holds1=lhs1 >= bound1 - CUE_TOLERANCE,
                holds2=lhs2 >= bound2 - CUE_TOLERANCE,
            )
        )
    return reports


def uncertainty_batch(
    frame_f: PSchauderFrame,
    frame_g: PSchauderFrame,
    X,
    eps: float = SUPPORT_EPS,
) -> list[UncertaintyReport]:
    """``uncertainty_check`` for every row of the (m, d) array X at once.

    The rows are validated once, the pair's cross-coherence is computed
    once (and remembered for the lifetime of the two frames), and each
    analysis is one stacked product.  Report i equals, bit for bit,
    ``uncertainty_check(frame_f, frame_g, X[i], eps)``; any zero row is
    rejected like x = 0 there.
    """
    _same_exponent(frame_f, frame_g)
    return _uncertainty_rows(frame_f, frame_g, _as_input_rows(frame_f, X), eps)


def uncertainty_check(
    frame_f: PSchauderFrame,
    frame_g: PSchauderFrame,
    x,
    eps: float = SUPPORT_EPS,
) -> UncertaintyReport:
    """Verify both support-product inequalities for one nonzero vector.

    With p the common exponent, q its conjugate, and S_f, S_g the support
    measures of the two analysis images of x:

        S_f**(1/p) * S_g**(1/q) >= 1 / coh_fg
        S_g**(1/p) * S_f**(1/q) >= 1 / coh_gf

    Each is accepted up to the additive ``CUE_TOLERANCE``.  x = 0 is outside
    the statement's domain and rejected.  This is the one-row case of
    ``uncertainty_batch``.
    """
    _same_exponent(frame_f, frame_g)
    return _uncertainty_rows(frame_f, frame_g, _as_input_vector(frame_f, x)[None, :], eps)[0]


# Hard cap on the scalars any one table may hold: trials x max(n_atoms,
# dimension) for ``validate_frame``, count x dimension for ``random_vectors``,
# and atoms x dimension for each table a zoo constructor sizes from its integer
# arguments.  At 10^7 a complex table takes 160 MB; larger requests are
# refused before anything is allocated.
VALIDATION_GUARD = 10_000_000


def _check_table_guard(rows: int, cols: int) -> None:
    if rows * cols > VALIDATION_GUARD:
        raise ResourceGuardError(
            f"{rows} x {cols} = {rows * cols} scalars exceeds guard {VALIDATION_GUARD}"
        )


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; a negative seed is a domain error."""
    if seed < 0:
        raise FrameError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def random_vectors(dimension: int, count: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """(count, dimension) array of i.i.d. standard normal entries; complex
    entries are standard complex normal.  Deterministic per seed.  Refuses
    tables beyond ``VALIDATION_GUARD`` scalars."""
    _check_table_guard(count, dimension)
    rng = _seeded_rng(seed)
    if field == COMPLEX:
        re = rng.standard_normal((count, dimension))
        im = rng.standard_normal((count, dimension))
        return (re + 1j * im) / np.sqrt(2.0)
    return rng.standard_normal((count, dimension))


def validate_frame(
    frame: PSchauderFrame,
    trials: int = 1000,
    tol: float = 1e-9,
    rng_seed: int = 0,
) -> ValidationReport:
    """Estimate the worst relative residuals of the two frame axioms.

    Draws ``trials`` seeded random vectors and reports

    * isometry: ``|sum_i w_i |f_i(x)|^p - norm(x,p)^p| / norm(x,p)^p``
    * reconstruction: ``norm(synthesis(analysis(x)) - x, p) / norm(x, p)``

    The report passes when both maxima are at most ``tol``.  Refuses
    ``trials * max(n_atoms, dimension)`` beyond ``VALIDATION_GUARD``.
    """
    if trials < 1:
        raise FrameError("trials must be at least 1")
    _check_table_guard(trials, max(frame.n_atoms, frame.dimension))
    xs = random_vectors(frame.dimension, trials, frame.field, rng_seed)
    p = frame.p
    w = frame.space.weights

    coeffs = xs @ frame.functionals.T                       # (trials, n)
    norms_p = np.sum(np.abs(xs) ** p, axis=1)               # ||x||_p^p
    iso = np.abs(np.sum(w * np.abs(coeffs) ** p, axis=1) - norms_p) / norms_p

    rebuilt = (w * coeffs) @ frame.vectors
    rec_err = np.sum(np.abs(rebuilt - xs) ** p, axis=1) ** (1.0 / p)
    rec = rec_err / norms_p ** (1.0 / p)

    max_iso = float(iso.max())
    max_rec = float(rec.max())
    return ValidationReport(
        trials=trials,
        tol=tol,
        rng_seed=rng_seed,
        max_isometry_residual=max_iso,
        max_reconstruction_residual=max_rec,
        passes=bool(max_iso <= tol and max_rec <= tol),
    )


@dataclass(frozen=True)
class ExtremalReport:
    """Smallest observed value of the first support product over a budgeted
    vector search, with the minimizing vector and its full report."""

    min_lhs1: float
    minimizer: np.ndarray
    report: UncertaintyReport
    bound1: float
    candidates_evaluated: int


# Hard cap on extremal-search budgets; beyond this the search is refused
# rather than silently truncated.
EXTREMAL_BUDGET_GUARD = 1_000_000

# Candidates synthesized and checked together by ``extremal_search``; bounds
# its working memory at O(EXTREMAL_CHUNK * max(n_atoms, dimension)).
EXTREMAL_CHUNK = 256


def extremal_search(
    frame_f: PSchauderFrame,
    frame_g: PSchauderFrame,
    budget: int = 1000,
    seed: int = 0,
    eps: float = SUPPORT_EPS,
    max_card: int | None = None,
) -> ExtremalReport:
    """Empirically minimize ``lhs1`` over vectors synthesized from sparse
    coefficient supports of the second frame.

    Candidates are the all-ones coefficient patterns on supports enumerated
    by increasing cardinality (lexicographic within a cardinality, capped at
    ``max_card``), followed by seeded random support/coefficient draws until
    ``budget`` evaluations are spent.  Candidates that synthesize to x = 0
    are skipped and not counted.  Returns the first minimal observed lhs1
    and the minimizing vector; the reported minimum is empirical only.

    Candidates are synthesized and checked ``EXTREMAL_CHUNK`` at a time with
    ``uncertainty_batch``; the result is the same as checking them one by
    one, bit for bit.
    """
    if budget < 1:
        raise FrameError("budget must be at least 1")
    if budget > EXTREMAL_BUDGET_GUARD:
        raise ResourceGuardError(f"budget {budget} exceeds guard {EXTREMAL_BUDGET_GUARD}")
    n = frame_g.n_atoms
    cap = n if max_card is None else min(int(max_card), n)
    if cap < 1:
        raise FrameError("max_card must be at least 1")

    rng = _seeded_rng(seed)
    dtype = frame_g.vectors.dtype
    best: UncertaintyReport | None = None
    best_x: np.ndarray | None = None
    evaluated = 0

    def consider(values: np.ndarray) -> None:
        # values: (k, n) coefficient rows, at most budget - evaluated of them,
        # so the budget is never overrun.  The stacked vector-matrix product
        # gives each row the same bits as ``synthesis`` does.
        nonlocal best, best_x, evaluated
        xs = np.matmul((frame_g.space.weights * values)[:, None, :], frame_g.vectors)[:, 0, :]
        xs = xs[xs.any(axis=1)]
        if not len(xs):
            return
        reports = uncertainty_batch(frame_f, frame_g, xs, eps)
        evaluated += len(reports)
        i = int(np.argmin([rep.lhs1 for rep in reports]))
        if best is None or reports[i].lhs1 < best.lhs1:
            best, best_x = reports[i], xs[i].copy()

    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), card) for card in range(1, cap + 1)
    )
    while evaluated < budget:
        chunk = list(itertools.islice(supports, min(EXTREMAL_CHUNK, budget - evaluated)))
        if not chunk:
            break
        values = np.zeros((len(chunk), n), dtype=dtype)
        for row, supp in zip(values, chunk):
            row[list(supp)] = 1.0
        consider(values)

    attempts = 0
    while evaluated < budget and attempts < 10 * budget:
        k = min(EXTREMAL_CHUNK, budget - evaluated, 10 * budget - attempts)
        attempts += k
        values = np.zeros((k, n), dtype=dtype)
        for row in values:
            card = int(rng.integers(1, cap + 1))
            supp = np.sort(rng.choice(n, size=card, replace=False))
            if frame_g.field == COMPLEX:
                row[supp] = (rng.standard_normal(card) + 1j * rng.standard_normal(card)) / np.sqrt(2.0)
            else:
                row[supp] = rng.standard_normal(card)
        consider(values)

    if best is None or best_x is None:
        raise FrameError("no nonzero candidate vector could be synthesized")
    return ExtremalReport(
        min_lhs1=best.lhs1,
        minimizer=best_x,
        report=best,
        bound1=best.bound1,
        candidates_evaluated=evaluated,
    )
