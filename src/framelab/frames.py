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
between the two families; it costs one matrix-vector product, one max and
one ``fsum`` per frame.  ``uncertainty_batch`` does the same for the rows
of an (m, d) array in one pass of stacked products, with the same bits and
the same errors as checking each row on its own.  Both take the
pair's cross-coherence from a per-pair memo: it is computed by
``cross_coherence`` the first time a pair of frame objects is checked and
kept, under weak references, for as long as both frames live (frames are
immutable).  Reports are frozen values of five floats, and equal ones are
shared: a bounded memo keeps the last 1,024 distinct reports.
``validate_frame`` estimates the two axiom residuals on seeded random
vectors, and ``extremal_search`` hunts for near-equality vectors of the
support product, checking its candidates in chunks with the batch kernel.
"""

from __future__ import annotations

import functools
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
        # every support weight is at most the total, so no later fsum overflows
        try:
            math.fsum(w)
        except OverflowError:
            raise FrameError("the total weight overflows a double") from None
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
    if frame.field == REAL and arr.dtype.kind == "c":
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


def _support(frame: PSchauderFrame, xv: np.ndarray, eps: float) -> float:
    """Support measure of the analysis image of one validated vector x.

    The atoms with ``|c_j| > eps * max_j |c_j|`` are kept; a peak of 0 keeps
    none and measures 0.0.  x = 0 gives the peak 0 exactly, so only then is
    x itself tested and refused.  A finite peak means finite coefficients;
    a non-finite one can also come from finite complex parts whose ``abs``
    overflows, so only then does the exact check run.
    """
    coeffs = frame.functionals @ xv
    mags = np.abs(coeffs)
    peak = mags.max()
    if peak == 0.0:
        if not xv.any():
            raise FrameError("theorem excludes x = 0")
        return 0.0
    if not math.isfinite(peak):
        _finite_or_raise(coeffs, "coefficients")
    # fsum of Python floats, not numpy scalars: the same sum, at less cost
    return math.fsum(frame.space.weights[mags > eps * peak].tolist())


def _support_measures(frame: PSchauderFrame, rows: np.ndarray, eps: float) -> list[float]:
    """``_support`` of every validated nonzero (m, d) row, in one pass.

    One row is ``_support`` itself: the stacked branch's fixed cost is
    larger than a whole one-row check.  With several weight classes
    ``math.fsum`` runs once per distinct mask, so split weights stay
    bit-exact and repeated masks cost nothing extra; with one class each row
    measures its atom count times the weight.
    """
    if len(rows) == 1:
        return [_support(frame, rows[0], eps)]
    weights = frame.space.weights
    # One stacked matrix-vector product per row: the same bits as
    # ``frame.functionals @ x`` for each row (a gemm would not be).
    coeffs = np.matmul(frame.functionals, rows[..., None])[..., 0]
    mags = np.abs(coeffs)
    peaks = mags.max(axis=1, keepdims=True)
    if not np.isfinite(peaks).all():
        _finite_or_raise(coeffs, "coefficients")
    masks = mags > eps * peaks
    w = weights[0]
    if (weights == w).all():
        # fsum of c copies of w is the real c*w rounded once, and so is one
        # IEEE product of the exact integer c by w: the same bits.
        return (masks.sum(axis=1) * w).tolist()
    _, first, inverse = np.unique(
        np.packbits(masks, axis=1), axis=0, return_index=True, return_inverse=True
    )
    sums = [math.fsum(weights[masks[i]].tolist()) for i in first]
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
    _check_tolerance("eps", eps)
    mags = np.abs(coeffs.values)
    return math.fsum(coeffs.space.weights[mags > eps * mags.max()].tolist())


def _same_space(frame_f: PSchauderFrame, frame_g: PSchauderFrame) -> None:
    if frame_f.dimension != frame_g.dimension:
        raise FrameError("frames must share the ambient dimension")
    if frame_f.field != frame_g.field:
        raise FrameError("frames must share the scalar field")


def cross_coherence(frame_f: PSchauderFrame, frame_g: PSchauderFrame) -> tuple[float, float]:
    """Largest pairings between the two families:

    ``coh_fg = max_ij |f_i(omega_j)|`` (first family's functionals on the
    second family's vectors) and symmetrically ``coh_gf = max_ij |g_j(tau_i)|``.
    Raises ``DegeneratePairError`` when either maximum vanishes, since the
    reciprocal bound is then undefined, and ``FrameError`` when either is not
    finite (a pairing overflows), since a bound of 0 would pass every vector,
    or when either reciprocal bound overflows, since it would fail every one.
    """
    _same_space(frame_f, frame_g)
    with np.errstate(over="ignore", invalid="ignore"):
        coh_fg = float(np.abs(frame_f.functionals @ frame_g.vectors.T).max())
        coh_gf = float(np.abs(frame_g.functionals @ frame_f.vectors.T).max())
    if not (math.isfinite(coh_fg) and math.isfinite(coh_gf)):
        raise FrameError("cross-coherence is not a finite double: a pairing magnitude overflows")
    if coh_fg == 0.0 or coh_gf == 0.0:
        raise DegeneratePairError("zero cross-coherence: support bound undefined")
    if not (math.isfinite(1.0 / coh_fg) and math.isfinite(1.0 / coh_gf)):
        raise FrameError("cross-coherence is too small: its reciprocal bound overflows")
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


def _batch_supports(
    frame_f: PSchauderFrame, frame_g: PSchauderFrame, X, eps: float
) -> tuple[tuple[float, float], list[float], list[float]]:
    """The pair's cross-coherences and both support measures of every row
    of X, checked as ``uncertainty_batch`` checks them."""
    _same_exponent(frame_f, frame_g)
    rows = _as_input_rows(frame_f, X)
    if not rows.any(axis=1).all():
        raise FrameError("theorem excludes x = 0")
    coh = _pair_coherence(frame_f, frame_g)
    _check_tolerance("eps", eps)
    return coh, _support_measures(frame_f, rows, eps), _support_measures(frame_g, rows, eps)


# Entries of the report memo.  Cue-sweep's traffic levels off near 420
# distinct reports of a few hundred bytes each; 1,024 keep it under 0.5 MB.
_REPORT_MEMO = 1024


@functools.lru_cache(maxsize=_REPORT_MEMO)
def _memo_report(
    p: float, coh_fg: float, coh_gf: float, supp_f: float, supp_g: float
) -> UncertaintyReport:
    """The report of one pair of support measures; see ``uncertainty_check``.

    A report is a frozen value fixed by these five Python floats, so equal
    inputs share one object.  Equal keys are equal bits: no key is NaN or
    -0.0, since p > 1, coherences are positive and supports are sums of
    positive weights.
    """
    inv_p, inv_q = 1.0 / p, 1.0 / _conjugate_exponent(p)
    bound1, bound2 = 1.0 / coh_fg, 1.0 / coh_gf
    lhs1 = supp_f ** inv_p * supp_g ** inv_q
    lhs2 = supp_g ** inv_p * supp_f ** inv_q
    return UncertaintyReport(supp_f, supp_g, lhs1, lhs2, coh_fg, coh_gf, bound1, bound2,
                             lhs1 >= bound1 - CUE_TOLERANCE, lhs2 >= bound2 - CUE_TOLERANCE)


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
    coh, supps_f, supps_g = _batch_supports(frame_f, frame_g, X, eps)
    return [_memo_report(frame_f.p, *coh, supp_f, supp_g) for supp_f, supp_g in zip(supps_f, supps_g)]


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
    the statement's domain and rejected.  The report and every error equal
    those of the one-row ``uncertainty_batch``; the checks run in the order
    exponent, x (length, field, finiteness), x = 0, the pair's coherence,
    eps, then each frame's coefficients.  The work is two matrix-vector
    products, and per frame one ``abs``, one max, one mask and one ``fsum``:
    x = 0 is tested only when a peak is 0 or a pair or eps check fails.
    """
    _same_exponent(frame_f, frame_g)
    xv = _as_input_vector(frame_f, x)
    try:
        coh = _pair_coherence(frame_f, frame_g)
        _check_tolerance("eps", eps)
    except Exception:
        # x = 0 wins over every pair or eps error, the TypeError of an eps
        # that cannot be compared included
        if not xv.any():
            raise FrameError("theorem excludes x = 0") from None
        raise
    return _memo_report(frame_f.p, *coh, _support(frame_f, xv, eps), _support(frame_g, xv, eps))


# Hard cap on the scalars any one table may hold: trials x max(n_atoms,
# dimension) for ``validate_frame``, count x dimension for ``random_vectors``,
# and atoms x dimension for each table a zoo constructor sizes from its integer
# arguments.  At 10^7 a complex table takes 160 MB; larger requests are
# refused before anything is allocated.  ``validate_frame`` holds one such
# (trials x n_atoms) table, beside its (trials x dimension) draw and rebuild
# and one row block of at most ``_VALIDATION_BLOCK`` scalars.
VALIDATION_GUARD = 10_000_000

# Scalars per row block of ``validate_frame``'s elementwise work: 2^16, so a
# block's temporaries take at most 1 MB (complex) each.  A row's sum does not
# depend on the blocking, so neither do the residuals.
_VALIDATION_BLOCK = 1 << 16

# Default largest residual ``validate_frame`` accepts for either axiom.
VALIDATION_TOL = 1e-9


def _check_table_guard(rows: int, cols: int) -> None:
    if rows * cols > VALIDATION_GUARD:
        raise ResourceGuardError(
            f"{rows} x {cols} = {rows * cols} scalars exceeds guard {VALIDATION_GUARD}"
        )


def _check_tolerance(name: str, value: float | None) -> None:
    """Refuse a negative, NaN or infinite tolerance; None means the default."""
    if value is None:
        return
    if value < 0:
        raise FrameError(f"{name} must be nonnegative")
    if not math.isfinite(value):
        raise FrameError(f"{name} must be finite, got {value}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; a negative seed is a domain error."""
    if seed < 0:
        raise FrameError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _gaussian(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """Standard normal entries; for a complex field, ``re + 1j*im`` with
    every real part drawn before the imaginary parts (unnormalized)."""
    if field == COMPLEX:
        re = rng.standard_normal(shape)
        return re + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _standard_normal(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    """``_gaussian`` entries; complex ones scaled to standard complex normal
    ``(re + 1j*im)/sqrt(2)``."""
    z = _gaussian(rng, shape, field)
    return z / np.sqrt(2.0) if field == COMPLEX else z


def random_vectors(dimension: int, count: int, field: str = REAL, seed: int = 0) -> np.ndarray:
    """(count, dimension) array of i.i.d. standard normal entries; complex
    entries are standard complex normal.  Deterministic per seed.  Refuses
    tables beyond ``VALIDATION_GUARD`` scalars."""
    _check_table_guard(count, dimension)
    return _standard_normal(_seeded_rng(seed), (count, dimension), field)


def _row_sums(term, rows: int, cols: int) -> np.ndarray:
    """``np.sum(term(block), axis=1)`` over consecutive row slices of at most
    ``_VALIDATION_BLOCK`` scalars of a (rows, cols) table, so ``term``'s
    temporaries are never larger than one block."""
    step = max(1, _VALIDATION_BLOCK // cols)
    return np.concatenate([np.sum(term(slice(i, i + step)), axis=1) for i in range(0, rows, step)])


def validate_frame(
    frame: PSchauderFrame,
    trials: int = 1000,
    tol: float = VALIDATION_TOL,
    rng_seed: int = 0,
) -> ValidationReport:
    """Estimate the worst relative residuals of the two frame axioms.

    Draws ``trials`` seeded random vectors and reports

    * isometry: ``|sum_i w_i |f_i(x)|^p - norm(x,p)^p| / norm(x,p)^p``
    * reconstruction: ``norm(synthesis(analysis(x)) - x, p) / norm(x, p)``

    The report passes when both maxima are at most ``tol``, which must be
    finite and nonnegative.  Refuses ``trials * max(n_atoms, dimension)``
    beyond ``VALIDATION_GUARD``, and raises when a residual overflows.

    The working set is the (trials, dimension) draw and its rebuild, one
    (trials, n_atoms) analysis table, scaled by the weights in place, and
    one row block of at most ``_VALIDATION_BLOCK`` scalars for the
    elementwise powers and their row sums.  Both products are taken whole,
    so the residuals have the same bits as the unblocked expressions.
    """
    _check_tolerance("tol", tol)
    if trials < 1:
        raise FrameError("trials must be at least 1")
    _check_table_guard(trials, max(frame.n_atoms, frame.dimension))
    xs = random_vectors(frame.dimension, trials, frame.field, rng_seed)
    p = frame.p
    w = frame.space.weights
    d, n = frame.dimension, frame.n_atoms

    # an overflow, or a p-norm that underflows to 0, is refused below, so it
    # must not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = xs @ frame.functionals.T                   # (trials, n)
        norms_p = _row_sums(lambda s: np.abs(xs[s]) ** p, trials, d)  # ||x||_p^p
        iso = np.abs(_row_sums(lambda s: w * np.abs(coeffs[s]) ** p, trials, n) - norms_p) / norms_p

        coeffs *= w
        rebuilt = coeffs @ frame.vectors
        del coeffs
        rec_err = _row_sums(lambda s: np.abs(rebuilt[s] - xs[s]) ** p, trials, d) ** (1.0 / p)
        rec = rec_err / norms_p ** (1.0 / p)

    max_iso = float(iso.max())
    max_rec = float(rec.max())
    if not (math.isfinite(max_iso) and math.isfinite(max_rec)):
        raise FrameError("frame axiom residuals are not finite doubles: the tables overflow")
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


def _extremal_candidates(frame_g: PSchauderFrame, cap: int, rng: np.random.Generator, draws: int):
    """``(support, coefficients)`` pairs of equal-length sequences in
    ``extremal_search`` order: every support of 1..cap atoms, lexicographic
    within a cardinality, with all coefficients 1, then ``draws`` seeded
    random supports with standard (complex) normal coefficients, drawn row
    by row."""
    n = frame_g.n_atoms
    for card in range(1, cap + 1):
        ones = (1.0,) * card
        for supp in itertools.combinations(range(n), card):
            yield supp, ones
    for _ in range(draws):
        card = int(rng.integers(1, cap + 1))
        supp = np.sort(rng.choice(n, size=card, replace=False))
        yield supp, _standard_normal(rng, card, frame_g.field)


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
    and the minimizing vector.  The minimum is observed, not proven: it is
    an upper bound on the exact minimum of lhs1, which it can exceed.

    Candidates are synthesized and checked ``EXTREMAL_CHUNK`` at a time in
    one pass: one scatter fills the chunk's coefficients, one stacked
    product synthesizes it, the rows are checked as ``uncertainty_batch``
    checks them, and only the chunk's first minimal row gets a full report.
    The result is the same as checking the candidates one by one, bit for
    bit.  The pair's exponent, dimension and field are checked once, before
    any candidate is drawn.
    """
    _same_exponent(frame_f, frame_g)
    _same_space(frame_f, frame_g)
    if budget < 1:
        raise FrameError("budget must be at least 1")
    if budget > EXTREMAL_BUDGET_GUARD:
        raise ResourceGuardError(f"budget {budget} exceeds guard {EXTREMAL_BUDGET_GUARD}")
    n = frame_g.n_atoms
    cap = n if max_card is None else min(int(max_card), n)
    if cap < 1:
        raise FrameError("max_card must be at least 1")

    candidates = _extremal_candidates(frame_g, cap, _seeded_rng(seed), 10 * budget)
    dtype = frame_g.vectors.dtype
    inv_p, inv_q = 1.0 / frame_f.p, 1.0 / frame_f.q
    best: UncertaintyReport | None = None
    best_x: np.ndarray | None = None
    evaluated = 0
    while evaluated < budget:
        # at most budget - evaluated rows, so the budget is never overrun
        chunk = list(itertools.islice(candidates, min(EXTREMAL_CHUNK, budget - evaluated)))
        if not chunk:
            break
        cards = [len(supp) for supp, _ in chunk]
        total = sum(cards)
        values = np.zeros((len(chunk), n), dtype=dtype)
        values[
            np.repeat(np.arange(len(chunk)), cards),
            np.fromiter(itertools.chain.from_iterable(supp for supp, _ in chunk), np.intp, total),
        ] = np.fromiter(itertools.chain.from_iterable(coeffs for _, coeffs in chunk), dtype, total)
        # the stacked vector-matrix product gives each row the same bits as
        # ``synthesis`` does
        xs = np.matmul((frame_g.space.weights * values)[:, None, :], frame_g.vectors)[:, 0, :]
        xs = xs[xs.any(axis=1)]
        if not len(xs):
            continue
        coh, supps_f, supps_g = _batch_supports(frame_f, frame_g, xs, eps)
        evaluated += len(xs)
        # lhs1 as ``_memo_report`` computes it, so the winner's report repeats it
        lhs1s = [supp_f ** inv_p * supp_g ** inv_q for supp_f, supp_g in zip(supps_f, supps_g)]
        i = lhs1s.index(min(lhs1s))
        if best is None or lhs1s[i] < best.lhs1:
            best = _memo_report(frame_f.p, *coh, supps_f[i], supps_g[i])
            best_x = xs[i].copy()

    if best is None or best_x is None:
        raise FrameError("no nonzero candidate vector could be synthesized")
    return ExtremalReport(best.lhs1, best_x, best, best.bound1, evaluated)
