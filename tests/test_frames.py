import dataclasses
import gc
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from framelab import (
    VALIDATION_GUARD,
    CoefficientFunction,
    DegeneratePairError,
    FrameError,
    MeasureSpace,
    PSchauderFrame,
    ResourceGuardError,
    alternate_dual,
    analysis,
    canonical_lp,
    counting_measure,
    cross_coherence,
    default_zoo,
    dft_pair,
    extremal_search,
    frames,
    gram_coherence,
    harmonic_discretization,
    mercedes_benz,
    picket_fence,
    random_parseval,
    random_vectors,
    support_measure,
    synthesis,
    uncertainty_batch,
    uncertainty_check,
    validate_frame,
    weighted_split,
)


# ------------------------------------------------------------ construction


def test_measure_space_rejects_bad_weights():
    with pytest.raises(FrameError):
        MeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(FrameError):
        MeasureSpace(np.array([1.0, -2.0]))
    with pytest.raises(FrameError):
        MeasureSpace(np.array([1.0, np.inf]))


def test_measure_space_length_and_equality():
    space = MeasureSpace([0.5, 1.0, 2.0])
    assert len(space) == 3
    assert space == MeasureSpace([0.5, 1.0, 2.0]) and space != MeasureSpace([0.5, 1.0, 1.0])
    # another type defers to Python's fallback, which compares identity
    assert space.__eq__([0.5, 1.0, 2.0]) is NotImplemented
    assert (space == [0.5, 1.0, 2.0]) is False


def test_measure_space_refuses_a_total_weight_that_overflows():
    # each weight is finite, but their sum is not a double
    with pytest.raises(FrameError, match="^the total weight overflows a double$"):
        MeasureSpace(np.array([1e308, 1e308]))
    assert MeasureSpace(np.array([1e308, 1e307])).total_measure == 1.1e308


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8),
    splits=st.lists(st.tuples(st.integers(0, 100), st.sampled_from([2, 3, 5])), max_size=2),
    data=st.data(),
)
def test_measure_is_the_correctly_rounded_sum_and_ignores_splits(weights, splits, data):
    # ``MeasureSpace.measure`` is the one place support weights are totalled:
    # a mask and its index list give the bits of fsum over Python floats, and
    # atoms split (once or twice over) leave the measure of the matching atom
    # sets, the split copies of each selected atom included, bit-identical.
    n = len(weights)
    base = PSchauderFrame(MeasureSpace(weights), 2.0, np.ones((n, 1)), np.ones((n, 1)))
    split, owner = base, np.arange(n)
    for atom, parts in splits:
        atom %= split.n_atoms
        split = weighted_split(split, atom, parts)
        owner = np.concatenate([owner[:atom], np.repeat(owner[atom], parts), owner[atom + 1 :]])
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    for space, selected in ((base.space, mask), (split.space, mask[owner])):
        expected = _bits(math.fsum(space.weights[selected].tolist()))
        assert _bits(space.measure(selected)) == expected
        assert _bits(space.measure(np.flatnonzero(selected).tolist())) == expected
    assert _bits(split.space.measure(mask[owner])) == _bits(base.space.measure(mask))
    assert _bits(split.space.total_measure) == _bits(base.space.total_measure)


def _construction_refusals():
    space = counting_measure(2)
    eye = np.eye(2)
    frame = lambda fun, vec, field="real": lambda: PSchauderFrame(space, 2.0, fun, vec, field)
    return [
        # (label, call, message)
        ("weights-empty", lambda: MeasureSpace(np.array([])), "weights must be a nonempty 1-d sequence"),
        ("weights-2d", lambda: MeasureSpace(np.ones((2, 2))), "weights must be a nonempty 1-d sequence"),
        ("counting-0", lambda: counting_measure(0), "need at least one atom"),
        ("field-unknown", frame(eye, eye, "quaternion"), "field must be 'real' or 'complex'"),
        ("tables-1d", frame([1.0, 0.0], [1.0, 0.0]), "functionals and vectors must be 2-d tables"),
        ("tables-unequal", frame(eye, np.eye(2, 3)), "functional and vector tables must have equal shape"),
        ("tables-rows", frame(np.eye(3, 2), np.eye(3, 2)), "one table row per atom required"),
        ("tables-dimension-0", frame(np.zeros((2, 0)), np.zeros((2, 0))), "ambient dimension must be at least 1"),
        ("coefficients-length", lambda: CoefficientFunction(space, np.ones(3)), "one coefficient per atom required"),
        ("coefficients-text", lambda: CoefficientFunction(space, np.array(["a", "b"])),
         "coefficients must be numeric"),
        ("validate-trials-0", lambda: validate_frame(canonical_lp(2, 2.0), trials=0), "trials must be at least 1"),
    ]


@pytest.mark.parametrize("case", _construction_refusals(), ids=lambda c: c[0])
def test_construction_refusals_keep_their_type_and_message(case):
    _, call, message = case
    with pytest.raises(FrameError) as info:
        call()
    assert type(info.value) is FrameError
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["real", "complex"])
def test_tables_that_cannot_be_coerced_are_refused(field):
    # the rest of the message is numpy's own wording
    with pytest.raises(FrameError) as info:
        PSchauderFrame(counting_measure(1), 2.0, [["a"]], [[1.0]], field)
    assert type(info.value) is FrameError
    assert str(info.value).startswith(f"cannot coerce tables to {field} scalars: ")


def test_integer_coefficients_are_stored_as_doubles():
    coeffs = CoefficientFunction(counting_measure(3), np.array([1, -2, 0]))
    assert coeffs.values.dtype == np.float64
    assert coeffs.values.tolist() == [1.0, -2.0, 0.0]


def test_counting_measure_flag():
    assert counting_measure(3).is_counting
    assert not MeasureSpace(np.array([1.0, 0.5])).is_counting


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.inf, np.nan])
def test_frame_rejects_bad_exponent(p):
    with pytest.raises(FrameError):
        canonical_lp(3, p)


def test_conjugate_exponent_identity():
    for p in (1.5, 2.0, 3.0, 7.0):
        frame = canonical_lp(2, p)
        assert frame.q == pytest.approx(p / (p - 1.0))
        assert 1.0 / frame.p + 1.0 / frame.q == pytest.approx(1.0)


def test_frame_tables_are_immutable():
    frame = canonical_lp(2, 2.0)
    with pytest.raises(ValueError):
        frame.functionals[0, 0] = 5.0


# ---------------------------------------------------------------- analysis


def test_analysis_identity_frame():
    frame = canonical_lp(3, 2.0)
    out = analysis(frame, np.array([1.0, -2.0, 0.0]))
    assert np.array_equal(out.values, [1.0, -2.0, 0.0])


def test_analysis_dft_picket_fence():
    # frozen from the direct Fourier evaluation: transform of (1,0,1,0) is
    # supported on the even bins with unit values
    _, fourier = dft_pair(4)
    out = analysis(fourier, picket_fence(4).astype(complex))
    assert np.allclose(out.values, [1.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_analysis_of_zero_vector_is_zero():
    frame = mercedes_benz()
    out = analysis(frame, np.zeros(2))
    assert np.array_equal(out.values, np.zeros(3))


def test_analysis_dimension_mismatch():
    frame = canonical_lp(3, 2.0)
    with pytest.raises(FrameError):
        analysis(frame, np.ones(4))


_LINEARITY_FRAMES = [
    mercedes_benz(),
    canonical_lp(3, 1.5),
    weighted_split(canonical_lp(3, 3.0), 0, 2),
    harmonic_discretization(3, 6),
]


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    which=st.integers(0, len(_LINEARITY_FRAMES) - 1),
    seed=st.integers(0, 2**20),
)
def test_analysis_is_linear(a, b, which, seed):
    frame = _LINEARITY_FRAMES[which]
    x, y = random_vectors(frame.dimension, 2, frame.field, seed)
    lhs = analysis(frame, a * x + b * y).values
    rhs = a * analysis(frame, x).values + b * analysis(frame, y).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------- synthesis


def test_synthesis_identity_frame():
    frame = canonical_lp(3, 2.0)
    c = CoefficientFunction(frame.space, np.array([1.0, -2.0, 0.0]))
    assert np.array_equal(synthesis(frame, c), [1.0, -2.0, 0.0])


def test_synthesis_inverts_analysis_on_split_frame():
    frame = weighted_split(canonical_lp(3, 2.0), 0, 2)
    x = np.array([0.3, -1.2, 4.0])
    assert np.allclose(synthesis(frame, analysis(frame, x)), x, atol=1e-14)


def test_synthesis_inverts_analysis_on_harmonic_frame():
    frame = harmonic_discretization(4, 8)
    x = np.array([1.0, 0, 0, 0], dtype=complex)
    assert np.linalg.norm(synthesis(frame, analysis(frame, x)) - x) <= 1e-10


def test_synthesis_space_mismatch():
    frame = canonical_lp(3, 2.0)
    other = CoefficientFunction(counting_measure(4), np.ones(4))
    with pytest.raises(FrameError):
        synthesis(frame, other)


# --------------------------------------------------------- support measure


def test_support_measure_counting():
    c = CoefficientFunction(counting_measure(3), np.array([1.0, 0.0, 2.0]))
    assert support_measure(c, eps=0.0) == 2.0


def test_support_measure_weighted():
    space = MeasureSpace(np.array([0.5, 0.5, 1.0]))
    c = CoefficientFunction(space, np.array([1.0, 1.0, 0.0]))
    assert support_measure(c, eps=0.0) == 1.0


def test_support_measure_threshold_suppresses_tiny_entries():
    c = CoefficientFunction(counting_measure(3), np.array([1.0, 1e-15, 0.0]))
    assert support_measure(c, eps=1e-9) == 1.0


def test_support_measure_all_zero():
    c = CoefficientFunction(counting_measure(3), np.zeros(3))
    assert support_measure(c, eps=0.0) == 0.0


def test_support_measure_rejects_negative_eps():
    c = CoefficientFunction(counting_measure(2), np.ones(2))
    with pytest.raises(FrameError):
        support_measure(c, eps=-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_every_eps_path_rejects_non_finite_eps(eps):
    # a NaN threshold would keep no atom, so every support would measure 0
    # and the check would report a false violation
    c = CoefficientFunction(counting_measure(2), np.ones(2))
    first = second = mercedes_benz()
    calls = [
        lambda: support_measure(c, eps=eps),
        lambda: uncertainty_check(first, second, np.array([1.0, 0.0]), eps=eps),
        lambda: uncertainty_batch(first, second, np.eye(2), eps=eps),
        lambda: extremal_search(first, second, budget=5, eps=eps),
    ]
    for call in calls:
        with pytest.raises(FrameError, match="eps must be finite"):
            call()


@settings(max_examples=80, deadline=None)
@given(k=st.integers(-30, 30), sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2**20))
def test_support_scale_invariance_for_exact_scalings(k, sign, seed):
    # powers of two scale every float exactly, so the relative threshold
    # makes support measure literally invariant
    frame = mercedes_benz()
    x = random_vectors(2, 1, "real", seed)[0]
    c = sign * 2.0**k
    base = support_measure(analysis(frame, x))
    scaled = support_measure(analysis(frame, c * x))
    assert scaled == base


# ------------------------------------------------------------ coherence


def test_cross_coherence_identity_pair():
    frame = canonical_lp(3, 2.0)
    assert cross_coherence(frame, frame) == (1.0, 1.0)


def test_cross_coherence_identity_vs_fourier():
    first, second = dft_pair(4)
    coh_fg, coh_gf = cross_coherence(first, second)
    assert coh_fg == pytest.approx(0.5, abs=1e-15)
    assert coh_gf == pytest.approx(0.5, abs=1e-15)


def test_cross_coherence_oblique_pair():
    # {e1,e2} against {e1,(e1+e2)/sqrt 2}: largest pairing is 1 either way
    s = 1.0 / np.sqrt(2.0)
    oblique = PSchauderFrame(
        counting_measure(2), 2.0, [[1.0, 0.0], [s, s]], [[1.0, 0.0], [s, s]], "real"
    )
    frame = canonical_lp(2, 2.0)
    assert cross_coherence(frame, oblique) == (1.0, 1.0)


def test_cross_coherence_degenerate_pair():
    zero = PSchauderFrame(counting_measure(2), 2.0, np.zeros((2, 2)), np.zeros((2, 2)))
    frame = canonical_lp(2, 2.0)
    with pytest.raises(DegeneratePairError):
        cross_coherence(frame, zero)
    # the degenerate-pair error propagates through the uncertainty checker
    with pytest.raises(DegeneratePairError):
        uncertainty_check(frame, zero, np.array([1.0, 0.0]))


OVERFLOWING_PAIRINGS = {
    # finite pairing 1.7e308 + 1.7e308j whose magnitude overflows
    "complex": PSchauderFrame(counting_measure(1), 2.0, [[1.7e308, 1.7e308j]], [[1.0, 1.0]], "complex"),
    # the pairing itself overflows
    "real": PSchauderFrame(counting_measure(1), 2.0, [[1.7e308, 1.7e308]], [[1.7e308, 1.7e308]], "real"),
}


@pytest.mark.parametrize("field", sorted(OVERFLOWING_PAIRINGS))
def test_cross_coherence_refuses_an_overflowing_pairing(field):
    frame = OVERFLOWING_PAIRINGS[field]
    message = "^cross-coherence is not a finite double: a pairing magnitude overflows$"
    with pytest.raises(FrameError, match=message):
        cross_coherence(frame, frame)
    for _ in range(2):  # the refusal is never memoized as a bound of 0
        with pytest.raises(FrameError, match=message):
            uncertainty_check(frame, frame, np.ones(2))


def test_cross_coherence_refuses_a_reciprocal_bound_that_overflows():
    # the pairing 1e-310 is finite and nonzero, but 1 / 1e-310 is not a double
    frame = PSchauderFrame(counting_measure(2), 2.0, 1e-155 * np.eye(2), 1e-155 * np.eye(2))
    message = "^cross-coherence is too small: its reciprocal bound overflows$"
    with pytest.raises(FrameError, match=message):
        cross_coherence(frame, frame)
    for _ in range(2):  # never memoized
        with pytest.raises(FrameError, match=message):
            uncertainty_check(frame, frame, np.array([1.0, 0.0]))


def test_cross_coherence_requires_matching_shapes():
    with pytest.raises(FrameError):
        cross_coherence(canonical_lp(2, 2.0), canonical_lp(3, 2.0))
    with pytest.raises(FrameError):
        cross_coherence(canonical_lp(2, 2.0), canonical_lp(2, 2.0, field="complex"))


# ----------------------------------------------------- uncertainty checks


def test_uncertainty_picket_fence_equality():
    first, second = dft_pair(4)
    rep = uncertainty_check(first, second, picket_fence(4))
    assert rep.supp_f == 2.0 and rep.supp_g == 2.0
    assert rep.supp_f * rep.supp_g == 4.0
    assert abs(rep.lhs1 - rep.bound1) <= 1e-9
    assert rep.holds1 and rep.holds2


def test_uncertainty_delta_has_full_transform_support():
    first, second = dft_pair(4)
    rep = uncertainty_check(first, second, np.array([1, 0, 0, 0], dtype=complex))
    assert rep.supp_f == 1.0 and rep.supp_g == 4.0
    assert rep.supp_f * rep.supp_g >= 4.0


def test_uncertainty_same_frame_p3():
    frame = canonical_lp(3, 3.0)
    rep = uncertainty_check(frame, frame, np.array([1.0, 1.0, 0.0]))
    assert rep.supp_f == 2.0 and rep.supp_g == 2.0
    # 2^(1/3) * 2^(2/3) = 2 >= 1/coherence = 1
    assert rep.lhs1 == pytest.approx(2.0, abs=1e-12)
    assert rep.bound1 == 1.0
    assert rep.holds1 and rep.holds2


def test_uncertainty_rejects_zero_vector():
    frame = canonical_lp(2, 2.0)
    with pytest.raises(FrameError, match="x = 0"):
        uncertainty_check(frame, frame, np.zeros(2))


def test_uncertainty_rejects_mismatched_exponent():
    with pytest.raises(FrameError):
        uncertainty_check(canonical_lp(2, 2.0), canonical_lp(2, 3.0), np.ones(2))


def test_uncertainty_soundness_on_planted_sparsity(zoo_frames):
    # small in-suite version of the acceptance sweep: exact-zero planted
    # vectors, eps = 0, no violations allowed
    rng = np.random.default_rng(42)
    groups = {}
    for name, frame in zoo_frames:
        groups.setdefault((frame.dimension, frame.p, frame.field), []).append(frame)
    checked = 0
    for (d, p, field), frames in groups.items():
        for ff in frames:
            for fg in frames:
                for _ in range(20):
                    k = int(rng.integers(1, d + 1))
                    support = rng.choice(d, size=k, replace=False)
                    x = np.zeros(d, dtype=complex if field == "complex" else float)
                    if field == "complex":
                        x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                    else:
                        x[support] = rng.standard_normal(k)
                    rep = uncertainty_check(ff, fg, x, eps=0.0)
                    assert rep.holds1 and rep.holds2
                    checked += 1
    assert checked > 0


def test_parseval_pair_squared_bound(zoo_frames):
    # counting measure + p = 2: multiplying the two inequalities gives the
    # product bound supp_f * supp_g >= 1 / coherence^2
    frames = [f for _, f in zoo_frames if f.p == 2.0 and f.space.is_counting and f.dimension == 2]
    rng = np.random.default_rng(7)
    for ff in frames:
        for fg in frames:
            if ff.field != fg.field:
                continue
            x = rng.standard_normal(2)
            rep = uncertainty_check(ff, fg, x)
            assert rep.supp_f * rep.supp_g >= 1.0 / rep.coh_fg**2 - 1e-9
            assert rep.lhs1 * rep.lhs2 == pytest.approx(rep.supp_f * rep.supp_g)


# ------------------------------------------------------------- validation


def test_validate_canonical_residuals_zero():
    rep = validate_frame(canonical_lp(4, 1.5), trials=100, rng_seed=5)
    assert rep.max_isometry_residual == 0.0
    assert rep.max_reconstruction_residual == 0.0
    assert rep.passes


def test_validate_harmonic_discretization():
    rep = validate_frame(harmonic_discretization(4, 8), trials=500, tol=1e-10, rng_seed=5)
    assert rep.passes


def test_validate_detects_corrupted_weight():
    frame = canonical_lp(3, 2.0)
    weights = frame.space.weights.copy()
    weights[0] = 0.5
    broken = PSchauderFrame(
        MeasureSpace(weights), frame.p, frame.functionals, frame.vectors, frame.field
    )
    rep = validate_frame(broken, trials=100, tol=1e-9, rng_seed=5)
    assert rep.max_isometry_residual > 1e-9
    assert not rep.passes


def test_validate_refuses_residuals_that_overflow():
    # |f_0(x)|^2 overflows; the refusal must not warn either
    table = [[1e200, 0.0], [0.0, 1.0]]
    frame = PSchauderFrame(counting_measure(2), 2.0, table, table)
    with pytest.raises(FrameError, match="^frame axiom residuals are not finite doubles"):
        validate_frame(frame, trials=3)


def test_random_vectors_deterministic():
    a = random_vectors(3, 5, "complex", seed=9)
    b = random_vectors(3, 5, "complex", seed=9)
    assert np.array_equal(a, b)


def test_validation_guard_refuses_before_allocating():
    # 10^12 scalars would be terabytes; the guard is arithmetic, so these
    # return at once instead of attempting the allocation
    frame = harmonic_discretization(4, 8)
    with pytest.raises(ResourceGuardError):
        validate_frame(frame, trials=10**12)
    with pytest.raises(ResourceGuardError):
        validate_frame(frame, trials=VALIDATION_GUARD // frame.n_atoms + 1)
    with pytest.raises(ResourceGuardError):
        random_vectors(VALIDATION_GUARD + 1, 1)
    with pytest.raises(ResourceGuardError):
        random_vectors(2, VALIDATION_GUARD // 2 + 1, "complex")


@pytest.mark.parametrize("dimension, count", [(3, -1), (-2, 3), (-2, -1)])
def test_random_vectors_refuses_a_negative_size(dimension, count):
    # the product of the two passes the table guard; numpy would then raise
    # its own ValueError
    with pytest.raises(FrameError) as info:
        random_vectors(dimension, count)
    assert type(info.value) is FrameError
    name, value = ("dimension", dimension) if dimension < 0 else ("count", count)
    assert str(info.value) == f"{name} must be nonnegative, got {value}"


def _quadratic_tables():
    # (label, call, table shape) for the tables that grow with the atom
    # count; each input is built here, outside the traced call
    one, wide, wider = (harmonic_discretization(1, n) for n in (1, 4000, 40000))
    return [
        ("gram", lambda: gram_coherence(wide), (4000, 4000)),
        ("cross", lambda: cross_coherence(wide, wide), (4000, 4000)),
        ("check", lambda: uncertainty_check(wide, wide, [1.0]), (4000, 4000)),
        ("batch", lambda: uncertainty_batch(wide, wide, np.ones((2, 1))), (4000, 4000)),
        ("alternate-dual", lambda: alternate_dual(wide), (4000, 4000)),
        ("extremal", lambda: extremal_search(one, wider), (256, 40000)),
    ]


@pytest.mark.parametrize("case", _quadratic_tables(), ids=lambda c: c[0])
def test_tables_that_grow_with_the_atom_count_are_refused_before_allocating(case):
    # at 16-24 B a scalar these would take 0.25-0.4 GB; refused in kilobytes
    _, call, (rows, cols) = case
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{rows} x {cols} = {rows * cols} scalars exceeds guard {VALIDATION_GUARD}"
    assert peak < 1 << 20


def test_a_refused_pair_caches_no_coherence_and_x_0_still_wins():
    wide = harmonic_discretization(1, 4000)
    for _ in range(2):
        with pytest.raises(ResourceGuardError):
            uncertainty_check(wide, wide, [1.0])
        assert wide not in frames._COHERENCE
    with pytest.raises(FrameError, match="^theorem excludes x = 0$"):
        uncertainty_check(wide, wide, [0.0])


def _traced_refusal(call):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError) as info:
            call()
        return str(info.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_coefficient_tables_are_refused_before_allocating():
    # the pairing tables are 3000 x 1, but 4,000 rows against 3,000 atoms
    # would take (4000, 3000) coefficient tables; X is built outside the trace
    wide, one, X = harmonic_discretization(1, 3000), harmonic_discretization(1, 1), np.ones((4000, 1))
    message, peak = _traced_refusal(lambda: uncertainty_batch(wide, one, X))
    assert message == f"4000 x 3000 = 12000000 scalars exceeds guard {VALIDATION_GUARD}"
    assert peak < 1 << 20
    # every earlier refusal keeps its place: x = 0, then eps
    with pytest.raises(FrameError, match="^theorem excludes x = 0$"):
        uncertainty_batch(wide, one, np.zeros((4000, 1)))
    with pytest.raises(FrameError, match="^eps must be nonnegative$"):
        uncertainty_batch(wide, one, X, eps=-1.0)


def test_extremal_refuses_the_pairing_tables_before_its_first_chunk():
    # a chunk of 256 x 10,000 scalars passes its guard, the 10,000^2 pairing
    # tables do not; an all-zero second family, whose candidates all vanish,
    # gets the same refusal
    wide = harmonic_discretization(1, 10000)
    zero = PSchauderFrame(counting_measure(10000), 2.0, np.ones((10000, 1)), np.zeros((10000, 1)), "complex")
    for frame_g in (wide, zero):
        message, peak = _traced_refusal(lambda: extremal_search(wide, frame_g))
        assert message == f"10000 x 10000 = 100000000 scalars exceeds guard {VALIDATION_GUARD}"
        assert peak < 1 << 20


# ``validate_frame`` sums its powers in row blocks and scales its one
# analysis table in place; ``oracles.legacy_validate_frame`` holds three
# whole tables.  The reports must agree bit for bit.


def _validate_cases():
    return default_zoo() + [
        ("weighted_split", weighted_split(harmonic_discretization(4, 8), 2, 3)),
        ("harmonic_32_512", harmonic_discretization(32, 512)),
        # 1000 trials of 4000 complex atoms span dozens of row blocks
        ("random_parseval_5_4000_complex", random_parseval(5, 4000, field="complex")),
    ]


@pytest.mark.parametrize("case", _validate_cases(), ids=lambda c: c[0])
def test_validate_matches_frozen_report(case):
    _, frame = case
    for trials in (1, 7, 1000, 2049):
        for seed in (0, 1, 5):
            expected = oracles.legacy_validate_frame(frame, trials, frames.VALIDATION_TOL, seed)
            assert _bits(validate_frame(frame, trials, rng_seed=seed)) == _bits(expected)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_validate_bits_do_not_depend_on_the_row_block(block, monkeypatch):
    # blocks smaller than a row (one row per block) and ragged last blocks
    monkeypatch.setattr(frames, "_VALIDATION_BLOCK", block)
    for frame in (weighted_split(mercedes_benz(), 1, 3), dft_pair(8)[1], canonical_lp(5, 3.0)):
        for trials in (1, 7, 100):
            expected = oracles.legacy_validate_frame(frame, trials, frames.VALIDATION_TOL, 1)
            assert _bits(validate_frame(frame, trials, rng_seed=1)) == _bits(expected)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_validate_overflow_refusal_matches_frozen_message(field):
    table = [[1e200, 0.0], [0.0, 1.0]]
    frame = PSchauderFrame(counting_measure(2), 2.0, table, table, field)
    got = _outcome(lambda: validate_frame(frame, trials=3))
    assert got == _outcome(lambda: oracles.legacy_validate_frame(frame, 3, frames.VALIDATION_TOL, 0))
    assert got == ("FrameError", "frame axiom residuals are not finite doubles: the tables overflow")


# Beyond its (trials, n) analysis table, validate_frame holds (trials, d)
# tables, here 1/250 of it, and a few row blocks of temporaries.
_VALIDATE_SLACK = 4 << 20


@pytest.mark.parametrize("field", ["real", "complex"])
def test_validate_holds_one_analysis_table(field):
    frame = random_parseval(8, 2000, field=field)
    trials = 1000
    table = trials * frame.n_atoms * frame.vectors.dtype.itemsize
    tracemalloc.start()
    try:
        validate_frame(frame, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table + _VALIDATE_SLACK


# ------------------------------------------------ batched kernel vs oracle
#
# ``uncertainty_batch`` and the chunked ``extremal_search`` must reproduce
# the frozen per-vector loops in oracles.py bit for bit.


def _bits(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    return (type(value).__name__, repr(value))


def _kernel_pairs():
    zoo = default_zoo()
    pairs = [
        (f"{nf}/{ng}", ff, fg)
        for nf, ff in zoo
        for ng, fg in zoo
        if (ff.dimension, ff.p, ff.field) == (fg.dimension, fg.p, fg.field)
    ]
    for d in (16, 64, 256):
        first, second = dft_pair(d)
        pairs += [(f"dft{d}", first, second), (f"dft{d}_swapped", second, first)]
    return pairs


def _kernel_rows(frame, seed):
    rng = np.random.default_rng(seed)
    d = frame.dimension
    dtype = complex if frame.field == "complex" else float
    rows = []
    for _ in range(6):
        k = int(rng.integers(1, d + 1))
        x = np.zeros(d, dtype=dtype)
        x[rng.choice(d, size=k, replace=False)] = 1.0 + rng.standard_normal(k)
        rows.append(x)
    rows.append(random_vectors(d, 1, frame.field, seed)[0])
    rows.append(np.ones(d, dtype=dtype))
    m = int(np.sqrt(d))
    if m * m == d:
        rows.append(picket_fence(d).astype(dtype))
    rows.append(rows[0])  # a repeated mask: its fsum is shared in the batch
    return np.array(rows)


@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3])
def test_uncertainty_batch_matches_frozen_per_vector_checker(eps):
    checked = 0
    for k, (label, ff, fg) in enumerate(_kernel_pairs()):
        rows = _kernel_rows(ff, k)
        batch = uncertainty_batch(ff, fg, rows, eps)
        assert len(batch) == len(rows)
        for x, rep in zip(rows, batch):
            expected = _bits(oracles.legacy_uncertainty_check(ff, fg, x, eps))
            assert _bits(rep) == expected, label
            assert _bits(uncertainty_check(ff, fg, x, eps)) == expected, label
            checked += 1
    assert checked > 700


def test_a_repeated_sweep_takes_every_report_from_the_memo():
    memo = frames._memo_report
    memo.cache_clear()
    test_uncertainty_batch_matches_frozen_per_vector_checker(1e-9)
    first = memo.cache_info()
    assert 0 < first.misses <= first.maxsize
    # the second pass compares every report with the frozen checker again
    test_uncertainty_batch_matches_frozen_per_vector_checker(1e-9)
    second = memo.cache_info()
    assert second.misses == first.misses
    assert second.hits - first.hits > 2 * 700
    ff, fg = dft_pair(4)
    assert uncertainty_check(ff, fg, np.ones(4)) is uncertainty_check(ff, fg, np.ones(4))


def test_report_memo_stays_within_its_bound():
    # weights 2^k give every one of the 2^12 - 1 supports its own measure,
    # so the batch asks for more distinct reports than the memo holds
    n = 12
    frame = PSchauderFrame(MeasureSpace(2.0 ** np.arange(n)), 2.0, np.eye(n), np.eye(n))
    rows = (np.arange(1, 2 ** n)[:, None] >> np.arange(n) & 1).astype(float)
    before = frames._memo_report.cache_info()
    reports = uncertainty_batch(frame, frame, rows, 0.0)
    after = frames._memo_report.cache_info()
    assert after.misses - before.misses > after.maxsize
    assert after.currsize <= after.maxsize
    for i in (0, 1000, len(rows) - 1):
        assert _bits(reports[i]) == _bits(oracles.legacy_uncertainty_check(frame, frame, rows[i], 0.0))


def _one_class_frame(weight, field, seed, n=12, d=4):
    # random tables with about half their entries exactly zero, so sparse
    # inputs give analysis images of many different support counts; the
    # tables need not form a valid frame
    rng = np.random.default_rng(seed)

    def table():
        t = rng.standard_normal((n, d))
        if field == "complex":
            t = t + 1j * rng.standard_normal((n, d))
        return t * (rng.random((n, d)) < 0.5)

    return PSchauderFrame(MeasureSpace(np.full(n, weight)), 2.0, table(), table(), field)


def _one_class_pairs():
    # non-dyadic weights, where count * weight is not trivially exact
    kinds = [(name, w, field) for name, w in (("0.1", 0.1), ("1/3", 1 / 3)) for field in ("real", "complex")]
    return [
        (f"w{name}-{field}", _one_class_frame(w, field, 2 * k), _one_class_frame(w, field, 2 * k + 1))
        for k, (name, w, field) in enumerate(kinds)
    ]


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("pair", _one_class_pairs(), ids=lambda c: c[0])
def test_one_class_non_dyadic_weights_match_frozen_checker(pair, eps):
    label, ff, fg = pair
    rows = [_kernel_rows(ff, seed) for seed in range(6)]
    rows = np.concatenate(rows + [random_vectors(ff.dimension, 8, ff.field, 1)])
    batch = uncertainty_batch(ff, fg, rows, eps)
    for x, rep in zip(rows, batch):
        expected = _bits(oracles.legacy_uncertainty_check(ff, fg, x, eps))
        assert _bits(rep) == expected
        assert _bits(uncertainty_check(ff, fg, x, eps)) == expected
    # many counts, most of them with a product c * w that is not exact
    counts = {round(rep.supp_f / ff.space.weights[0]) for rep in batch}
    assert len(counts) >= 5


@given(
    w=st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
    c=st.integers(0, 10**4),
)
@example(w=5e-324, c=10**4)
@example(w=0.1, c=3)
@example(w=1 / 3, c=10**4)
@example(w=1e300, c=0)
def test_count_times_weight_is_the_correctly_rounded_sum(w, c):
    # the one-class shortcut in frames._support_measures: fsum of c copies
    # of w and one product c * w both round the exact real c * w once
    assert (np.intp(c) * np.float64(w)).item().hex() == math.fsum([w] * c).hex()


def test_support_measure_matches_frozen_copy():
    split = weighted_split(canonical_lp(3, 2.0), 0, 3)
    for values in ([1.0, 0.0, 2.0, 1e-12, 3.0], [0.0] * 5, [1e-300, 0.0, 0.0, 0.0, 1.0]):
        c = CoefficientFunction(split.space, np.array(values))
        for eps in (0.0, 1e-9, 1e-3):
            assert _bits(support_measure(c, eps)) == _bits(oracles.legacy_support_measure(c, eps))


def _cancelling_frame():
    # atoms 0 and 1 cancel exactly, so the all-ones pattern on {0, 1}
    # synthesizes x = 0 exactly
    vectors = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    return PSchauderFrame(counting_measure(3), 2.0, vectors, vectors, "real")


def _extremal_cases():
    dft4, dft9, dft16 = dft_pair(4), dft_pair(9), dft_pair(16)
    zoo = dict(default_zoo())
    cases = [(f"dft16/b{b}", *dft16, b, None) for b in (1, 20, 300, 1000)]
    cases += [
        ("dft16/card2", *dft16, 300, 2),
        ("dft9/card1", *dft9, 300, 1),  # 9 support patterns, then random draws
        ("dft4/card2", *dft4, 300, 2),  # complex random draws
        ("mercedes", mercedes_benz(), mercedes_benz(), 20, None),
        ("mercedes/card3", mercedes_benz(), mercedes_benz(), 300, 3),
        ("cancelling", _cancelling_frame(), _cancelling_frame(), 300, None),
        ("split", zoo["split_mercedes"], zoo["mercedes"], 300, None),
        ("harmonic", zoo["split_harmonic_d4"], zoo["harmonic_d4_n8"], 1000, 3),
    ]
    for label, ff, fg in _one_class_pairs():
        cases += [(label, ff, fg, 300, None), (f"{label}/card2", ff, fg, 600, 2)]
    return cases


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("case", _extremal_cases(), ids=lambda c: c[0])
def test_extremal_search_matches_frozen_per_candidate_loop(case, eps):
    label, ff, fg, budget, max_card = case
    seed = budget + 7
    got = extremal_search(ff, fg, budget=budget, seed=seed, eps=eps, max_card=max_card)
    expected = oracles.legacy_extremal_search(ff, fg, budget, seed, eps, max_card)
    assert _bits(got) == _bits(expected)


def test_extremal_chunks_cross_a_cardinality_change():
    # 16 + 120 supports of cardinality 1 and 2, so the first chunk of
    # EXTREMAL_CHUNK candidates ends inside cardinality 3
    assert 16 + 120 < frames.EXTREMAL_CHUNK < 16 + 120 + 560
    first, second = dft_pair(16)
    assert extremal_search(first, second, budget=frames.EXTREMAL_CHUNK + 1).candidates_evaluated == (
        frames.EXTREMAL_CHUNK + 1
    )


def test_extremal_skips_zero_candidates_uncounted():
    frame = _cancelling_frame()
    # supports {0}, {1}, {2}, {0,2}, {1,2}, {0,1,2}: {0,1} alone cancels
    result = extremal_search(frame, frame, budget=6, max_card=3)
    assert result.candidates_evaluated == 6
    assert np.any(result.minimizer != 0)
    zero_atoms = PSchauderFrame(counting_measure(2), 2.0, [[1.0], [1.0]], [[0.0], [0.0]], "real")
    with pytest.raises(FrameError, match="no nonzero candidate"):
        extremal_search(zero_atoms, zero_atoms, budget=3)


def test_extremal_search_imports_numpy_random_only_when_its_draws_start():
    # dft16's 200 candidates are all all-ones patterns; dft4 has 15, so 185
    # of its 200 are random draws
    script = (
        "import sys\n"
        "from framelab import dft_pair, extremal_search\n"
        "extremal_search(*dft_pair(16), budget=200)\n"
        "print('numpy.random' in sys.modules)\n"
        "extremal_search(*dft_pair(4), budget=200)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={"PYTHONPATH": str(src)}
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def _extremal_error_cases():
    real2, real3 = canonical_lp(4, 2.0), canonical_lp(4, 3.0)
    complex2 = dft_pair(4)[1]
    complex3 = PSchauderFrame(counting_measure(4), 3.0, np.eye(4), np.eye(4), "complex")
    real2_d3, real3_d3, complex2_d3 = canonical_lp(3, 2.0), canonical_lp(3, 3.0), dft_pair(3)[1]
    exponent = (FrameError, "frames must share the exponent p")
    dimension = (FrameError, "frames must share the ambient dimension")
    field = (FrameError, "frames must share the scalar field")
    mismatched = {
        # (frame_f, frame_g) for the first order; the second swaps them
        "p": (real2, real3, exponent, exponent),
        "field": (real2, complex2, field, field),
        "dimension": (real2, real2_d3, dimension, dimension),
        "p+field": (real2, complex3, exponent, exponent),
        "p+dimension": (real2, real3_d3, exponent, exponent),
        "field+dimension": (real2, complex2_d3, dimension, dimension),
    }
    cases = []
    for label, (ff, fg, first, second) in mismatched.items():
        cases += [(label, (ff, fg), {}, first), (f"{label}/swapped", (fg, ff), {}, second)]
    cases += [
        ("eps-negative", (real2, real2), {"eps": -1.0}, (FrameError, "eps must be nonnegative")),
        ("eps-nan", (real2, real2), {"eps": float("nan")}, (FrameError, "eps must be finite, got nan")),
        ("eps-inf", (real2, real2), {"eps": float("inf")}, (FrameError, "eps must be finite, got inf")),
        ("budget-0", (real2, real2), {"budget": 0}, (FrameError, "budget must be at least 1")),
        ("budget-guard", (real2, real2), {"budget": frames.EXTREMAL_BUDGET_GUARD + 1},
         (ResourceGuardError, f"budget {frames.EXTREMAL_BUDGET_GUARD + 1} exceeds guard "
                              f"{frames.EXTREMAL_BUDGET_GUARD}")),
        ("max-card-0", (real2, real2), {"max_card": 0}, (FrameError, "max_card must be at least 1")),
        # refused although the budget ends before the first random draw
        ("seed-negative", (real2, real2), {"seed": -1}, (FrameError, "seed must be nonnegative, got -1")),
    ]
    # a chunk of min(256, budget) candidates over 40,000 atoms of either
    # frame is refused, after max_card
    one, wide = harmonic_discretization(1, 1), harmonic_discretization(1, 40000)
    chunk = (ResourceGuardError, f"256 x 40000 = 10240000 scalars exceeds guard {VALIDATION_GUARD}")
    cases += [
        ("chunk-guard", (one, wide), {"budget": 1000}, chunk),
        ("chunk-guard/swapped", (wide, one), {"budget": 1000}, chunk),
        ("chunk-guard/max-card-0", (one, wide), {"budget": 1000, "max_card": 0},
         (FrameError, "max_card must be at least 1")),
        ("chunk-guard/seed-negative", (one, wide), {"budget": 1000, "seed": -1}, chunk),
    ]
    half = PSchauderFrame(counting_measure(2), 2.0, [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    other_half = PSchauderFrame(counting_measure(2), 2.0, [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]])
    degenerate = (DegeneratePairError, "zero cross-coherence: support bound undefined")
    zero_atoms = PSchauderFrame(counting_measure(2), 2.0, np.ones((2, 2)), np.zeros((2, 2)))
    cases += [
        ("degenerate", (half, other_half), {}, degenerate),
        ("degenerate/swapped", (other_half, half), {}, degenerate),
        ("degenerate/seed-negative", (half, other_half), {"seed": -1},
         (FrameError, "seed must be nonnegative, got -1")),
        ("zero-atoms", (canonical_lp(2, 2.0), zero_atoms), {},
         (FrameError, "no nonzero candidate vector could be synthesized")),
        # the pair is checked before any candidate is drawn
        ("dimension/zero-atoms", (real2_d3, zero_atoms), {}, dimension),
        ("dimension/budget-0", (real2, real2_d3), {"budget": 0}, dimension),
    ]
    return cases


@pytest.mark.parametrize("case", _extremal_error_cases(), ids=lambda c: c[0])
def test_extremal_search_errors_keep_their_type_and_message(case):
    # the search checks the pair first (exponent, dimension, then field),
    # then its budget and max_card, then each chunk as uncertainty_batch
    # does: coherence, then eps
    label, frame_pair, kwargs, (kind, message) = case
    with pytest.raises(kind) as info:
        extremal_search(*frame_pair, **{"budget": 5, **kwargs})
    assert type(info.value) is kind
    assert str(info.value) == message


def _check_error_cases():
    real2, real3 = canonical_lp(2, 2.0), canonical_lp(2, 3.0)
    half = PSchauderFrame(counting_measure(2), 2.0, [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    other_half = PSchauderFrame(counting_measure(2), 2.0, [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]])
    overflow = PSchauderFrame(counting_measure(2), 2.0, [[1e308, 1e308], [0, 1]], [[1, 0], [0, 1]])
    huge = PSchauderFrame(counting_measure(2), 2.0, [[1.7e308, 1.7e308], [0, 1]], [[1.7e308, 1.7e308], [0, 1]])
    nan_x, zero_x = np.array([np.nan, 1.0]), np.zeros(2)
    degenerate = (DegeneratePairError, "zero cross-coherence: support bound undefined")
    zero = (FrameError, "theorem excludes x = 0")
    nan = (FrameError, "vector entries must be finite (no NaN/Inf)")
    return [
        # (label, (frame_f, frame_g), x, kwargs, (type, message))
        ("p+nan-x", (real2, real3), nan_x, {}, (FrameError, "frames must share the exponent p")),
        ("p+length", (real2, real3), np.ones(3), {}, (FrameError, "frames must share the exponent p")),
        ("length+degenerate", (half, other_half), np.ones(3),
         {}, (FrameError, "vector length 3 does not match frame dimension 2")),
        ("matrix+degenerate", (half, other_half), np.ones((1, 2)),
         {}, (FrameError, "vector length (1, 2) does not match frame dimension 2")),
        ("nan-x+degenerate", (half, other_half), nan_x, {}, nan),
        ("nan-x+eps-negative", (real2, real2), nan_x, {"eps": -1.0}, nan),
        ("zero-x+degenerate", (half, other_half), zero_x, {}, zero),
        ("zero-x+eps-negative", (real2, real2), zero_x, {"eps": -1.0}, zero),
        ("zero-x+eps-nan", (real2, real2), zero_x, {"eps": float("nan")}, zero),
        # an eps that cannot be compared raises TypeError, after x = 0
        ("zero-x+eps-str", (real2, real2), zero_x, {"eps": "0.1"}, zero),
        ("zero-x+eps-complex", (real2, real2), zero_x, {"eps": 1j}, zero),
        ("zero-x+dimension", (real2, canonical_lp(3, 2.0)), zero_x, {}, zero),
        ("zero-x+field", (dft_pair(2)[0], real2), zero_x, {}, zero),
        ("zero-x+coherence-overflow", (huge, huge), zero_x, {}, zero),
        ("complex-x+nan", (real2, real2), np.array([np.nan, 1j]),
         {}, (FrameError, "real frames act on real vectors only")),
        ("overflow+eps-nan", (overflow, real2), np.array([10.0, 10.0]),
         {"eps": float("nan")}, (FrameError, "eps must be finite, got nan")),
        ("overflow+eps-inf", (real2, overflow), np.array([10.0, 10.0]),
         {"eps": float("inf")}, (FrameError, "eps must be finite, got inf")),
        ("degenerate+eps-negative", (half, other_half), np.ones(2), {"eps": -1.0}, degenerate),
        ("dimension", (real2, canonical_lp(3, 2.0)), np.ones(2),
         {}, (FrameError, "frames must share the ambient dimension")),
        ("coherence-overflow", (huge, huge), np.ones(2),
         {}, (FrameError, "cross-coherence is not a finite double: a pairing magnitude overflows")),
        # half annihilates x, so its peak is 0 although x is not: a report
        # with that support measure 0.0, no error
        ("annihilated", (half, real2), np.array([0.0, 1.0]), {}, "supp_f"),
        ("annihilated/swapped", (real2, half), np.array([0.0, 1.0]), {}, "supp_g"),
    ]


@pytest.mark.parametrize("case", _check_error_cases(), ids=lambda c: c[0])
def test_uncertainty_check_errors_keep_their_type_and_message(case):
    # the check tests the exponent, then x (length, field, finiteness), then
    # x = 0 before anything about the pair or eps, then the pair's
    # coherence, then eps, then each frame's coefficients
    label, frame_pair, x, kwargs, expected = case
    if isinstance(expected, str):
        rep = uncertainty_check(*frame_pair, x, **kwargs)
        assert _bits(getattr(rep, expected)) == _bits(0.0)
        assert _bits(rep) == _bits(oracles.legacy_uncertainty_check(*frame_pair, x, frames.SUPPORT_EPS))
        return
    kind, message = expected
    with pytest.raises(kind) as info:
        uncertainty_check(*frame_pair, x, **kwargs)
    assert type(info.value) is kind
    assert str(info.value) == message


# ------------------------------------------ one-row vs stacked branch
#
# ``uncertainty_check`` and a one-row ``uncertainty_batch`` take the one-row
# path ``frames._support`` (one product, one max, one fsum per frame); a
# batch of several rows takes the stacked branch, which sums each distinct
# mask once.  Both must give the same bits or the same error.


def _outcome(call):
    try:
        return _bits(call())
    except FrameError as exc:
        return (type(exc).__name__, str(exc))


def _both_branches(ff, fg, x, eps=frames.SUPPORT_EPS):
    one_row = _outcome(lambda: uncertainty_check(ff, fg, x, eps))
    stacked = _outcome(lambda: uncertainty_batch(ff, fg, np.array([x, x]), eps)[1])
    return one_row, stacked


def test_branches_agree_on_real_coefficients_that_overflow():
    fine = canonical_lp(2, 2.0)
    for row in ([1e308, 1e308], [-1e308, -1e308]):
        overflow = PSchauderFrame(counting_measure(2), 2.0, [row, [0, 1]], [[1, 0], [0, 1]])
        for ff, fg in ((overflow, fine), (fine, overflow), (overflow, overflow)):
            with np.errstate(over="ignore"):
                one_row, stacked = _both_branches(ff, fg, np.array([10.0, 10.0]))
            assert one_row == stacked == ("FrameError", "coefficients must be finite (no NaN/Inf)")


_REFUSED = ("FrameError", "coefficients must be finite (no NaN/Inf)")


def _modulus_overflows(values) -> bool:
    """Finite real and imaginary parts, but some modulus is not a finite
    double.  The frozen copies measure such a vector with an inf peak, which
    keeps no atom; framelab refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(values).all() and not np.isfinite(np.abs(values)).all())


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_branches_agree_when_complex_abs_overflows(eps):
    # finite parts whose modulus overflows: |1.7e308 (1 + i)| > max float
    functionals = [[1.7e308, 1.7e308j], [1, 0], [0, 1]]
    frame = PSchauderFrame(counting_measure(3), 2.0, functionals, [[1, 0], [0, 1], [1, 0]], "complex")
    x = np.array([1.0, 1.0], dtype=complex)
    # an inf peak is refused, not measured as 0.0 (a false violation)
    with np.errstate(over="ignore", invalid="ignore"):
        one_row, stacked = _both_branches(frame, frame, x, eps)
        c = analysis(frame, x)
        assert _modulus_overflows(c.values)
        assert _outcome(lambda: support_measure(c, eps)) == _REFUSED
    assert one_row == stacked == _REFUSED
    # with a finite peak the same frame is measured as usual: only the huge atom counts
    assert uncertainty_check(frame, frame, np.array([1.0, 0.0], dtype=complex)).supp_f == 1.0


# ------------------------------------------------ the per-call reductions
#
# ``_finite_or_raise`` counts the finite entries, and ``_support`` and
# ``support_measure`` read their peak at ``argmax``.  Each must decide, and
# measure, exactly as ``np.isfinite(arr).all()`` and ``max`` did, except that
# a modulus that overflows from finite parts is refused, where the frozen
# copy's inf peak keeps no atom.

_SPECIAL = [0.0, -0.0, 1.0, -2.5, 5e-324, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(0,), (1,), (3,), (7,), (0, 3), (2, 0), (1, 1), (3, 4)]),
    field=st.sampled_from(["real", "complex"]),
    data=st.data(),
)
def test_finiteness_check_refuses_exactly_the_non_finite_arrays(shape, field, data):
    size = math.prod(shape)
    parts = st.lists(st.sampled_from(_SPECIAL), min_size=size, max_size=size)
    arr = np.array(data.draw(parts), dtype=float).reshape(shape)
    if field == "complex":
        # set the imaginary part in place: re + 1j * im would turn 0 * inf into NaN
        arr = arr.astype(complex)
        arr.imag = np.array(data.draw(parts), dtype=float).reshape(shape)
    finite = np.isfinite(arr).all()
    try:
        frames._finite_or_raise(arr, "entries")
    except FrameError as exc:
        assert not finite
        assert str(exc) == "entries must be finite (no NaN/Inf)"
    else:
        assert finite


# table and vector entries whose products tie, vanish, overflow to +-inf and
# cancel to NaN (1.7e308 - 1.7e308 after overflow), and whose complex
# moduli overflow with finite parts
_TABLE = [0.0, 1.0, -1.0, 2.0, 1.7e308, -1.7e308]


def _reduction_frame(draw, field):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(_TABLE), min_size=n * d, max_size=n * d)
    table = np.array(draw(cells)).reshape(n, d)
    if field == "complex":
        table = table + 1j * np.array(draw(cells)).reshape(n, d)
    weights = draw(st.lists(st.sampled_from([0.1, 1 / 3, 1.0, 2.0]), min_size=n, max_size=n))
    return PSchauderFrame(MeasureSpace(weights), 2.0, table, np.ones((n, d)), field)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["real", "complex"]), eps=st.sampled_from([0.0, 1e-9, 0.5]), data=st.data())
def test_support_reads_its_peak_as_the_frozen_copy_does(field, eps, data):
    frame = _reduction_frame(data.draw, field)
    entries = st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e308]), min_size=frame.dimension, max_size=frame.dimension)
    x = np.array(data.draw(entries), dtype=frame.functionals.dtype)
    if not x.any():
        x[0] = 1.0  # x = 0 is refused before any support is measured
    with np.errstate(all="ignore"):
        got = _outcome(lambda: frames._support(frame, x, eps))
        expected = _outcome(lambda: oracles.legacy_support_measure(analysis(frame, x), eps))
        if _modulus_overflows(frame.functionals @ x):
            expected = _REFUSED
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["real", "complex"]), eps=st.sampled_from([0.0, 1e-9, 0.5]), data=st.data())
def test_support_measure_reads_its_peak_as_the_frozen_copy_does(field, eps, data):
    n = data.draw(st.integers(1, 8))
    cells = st.lists(st.sampled_from(_TABLE), min_size=n, max_size=n)
    values = np.array(data.draw(cells))
    if field == "complex":
        values = values + 1j * np.array(data.draw(cells))
    weights = data.draw(st.lists(st.sampled_from([0.1, 1 / 3, 1.0, 2.0]), min_size=n, max_size=n))
    c = CoefficientFunction(MeasureSpace(weights), values)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: support_measure(c, eps))
        assert got == (_REFUSED if _modulus_overflows(values) else _bits(oracles.legacy_support_measure(c, eps)))


def test_support_matches_the_frozen_copy_on_ties_nan_inf_and_annihilated_x():
    # each case the two properties above draw, pinned on its own
    one = MeasureSpace([1.0, 1 / 3, 0.1])
    tie = PSchauderFrame(one, 2.0, [[2.0], [2.0], [0.0]], np.ones((3, 1)))
    nan = PSchauderFrame(one, 2.0, [[1.7e308, -1.7e308], [1.0, 0.0], [0.0, 1.0]], np.ones((3, 2)))
    inf = PSchauderFrame(one, 2.0, [[1.7e308, 1.7e308], [1.0, 0.0], [0.0, 1.0]], np.ones((3, 2)))
    modulus = PSchauderFrame(one, 2.0, [[1.7e308, 1.7e308j], [1.0, 0.0], [0.0, 1.0]], np.ones((3, 2)), "complex")
    annihilating = PSchauderFrame(one, 2.0, [[1.0, -1.0], [0.0, 0.0], [2.0, -2.0]], np.ones((3, 2)))
    cases = [
        (tie, [1.0], 1.0 + 1 / 3),  # the peak at two atoms
        (nan, [1e308, 1e308], _REFUSED),
        (inf, [1e308, 1e308], _REFUSED),
        (modulus, [1.0, 1.0], _REFUSED),  # an inf peak from finite parts
        (annihilating, [1.0, 1.0], 0.0),
    ]
    for frame, x, expected in cases:
        xv = np.array(x, dtype=frame.functionals.dtype)
        for eps in (0.0, 1e-9):
            with np.errstate(all="ignore"):
                got = _outcome(lambda: frames._support(frame, xv, eps))
                if frame is modulus:  # the frozen copy measures it as 0.0
                    assert _outcome(lambda: support_measure(analysis(frame, xv), eps)) == _REFUSED
                else:
                    assert got == _outcome(lambda: oracles.legacy_support_measure(analysis(frame, xv), eps))
            assert got == (expected if isinstance(expected, tuple) else _bits(expected))


def test_a_non_finite_x_is_refused_before_any_product_warns():
    # canonical_lp has zero entries, so a product with inf would compute
    # 0 * inf and warn "invalid value encountered in matmul" first
    frame = canonical_lp(3, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (uncertainty_check, lambda f, g, x: uncertainty_batch(f, g, [x])):
            with pytest.raises(FrameError) as info:
                call(frame, frame, np.array([np.inf, 1.0, 0.0]))
            assert type(info.value) is FrameError
            assert str(info.value) == "vector entries must be finite (no NaN/Inf)"


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_one_two_and_no_row_batches_match_the_single_checks(eps):
    # at eps = 0 a last-bit difference between the branches' products would
    # flip a support mask
    for k, (label, ff, fg) in enumerate(_kernel_pairs()):
        rows = _kernel_rows(ff, 90 + k)
        for m in (0, 1, 2):
            expected = [_bits(uncertainty_check(ff, fg, x, eps)) for x in rows[:m]]
            assert [_bits(rep) for rep in uncertainty_batch(ff, fg, rows[:m], eps)] == expected, (label, m)


# ------------------------------------------------ batched BLAS forms


def test_stacked_products_equal_per_vector_products():
    # The kernel relies on np.matmul with a trailing unit axis computing each
    # row exactly as the per-vector product does (gemv, not gemm); with
    # eps = 0 a last-bit difference could flip a support mask.  This is BLAS
    # behaviour, not a guarantee, so it is pinned here.
    frame_list = [f for _, f in default_zoo()] + [g for d in (16, 64, 256) for g in dft_pair(d)]
    for k, frame in enumerate(frame_list):
        X = random_vectors(frame.dimension, 16, frame.field, seed=k)
        stacked = np.matmul(frame.functionals, X[..., None])[..., 0]
        for x, row in zip(X, stacked):
            assert np.array_equal(row, frame.functionals @ x)
        V = random_vectors(frame.n_atoms, 16, frame.field, seed=100 + k)
        synth = np.matmul((frame.space.weights * V)[:, None, :], frame.vectors)[:, 0, :]
        for v, row in zip(V, synth):
            assert np.array_equal(row, synthesis(frame, CoefficientFunction(frame.space, v)))


def test_uncertainty_batch_rejects_bad_rows():
    first, second = dft_pair(4)
    good = picket_fence(4).astype(complex)
    with pytest.raises(FrameError, match="x = 0"):
        uncertainty_batch(first, second, np.array([good, np.zeros(4)]))
    with pytest.raises(FrameError):
        uncertainty_batch(first, second, good)  # one vector, not (m, d) rows
    with pytest.raises(FrameError):
        uncertainty_batch(first, second, np.ones((2, 3)))
    with pytest.raises(FrameError, match="finite"):
        uncertainty_batch(first, second, np.array([good, [np.nan, 1, 0, 0]]))
    with pytest.raises(FrameError, match="eps"):
        uncertainty_batch(first, second, good[None, :], eps=-1.0)
    with pytest.raises(FrameError):
        uncertainty_batch(canonical_lp(2, 2.0), canonical_lp(2, 3.0), np.ones((1, 2)))
    with pytest.raises(FrameError, match="real"):
        uncertainty_batch(canonical_lp(2, 2.0), canonical_lp(2, 2.0), np.ones((1, 2), dtype=complex))
    overflow = PSchauderFrame(counting_measure(2), 2.0, [[1e308, 1e308], [0, 1]], [[1, 0], [0, 1]])
    with np.errstate(over="ignore"), pytest.raises(FrameError, match="coefficients"):
        uncertainty_batch(overflow, canonical_lp(2, 2.0), np.array([[10.0, 10.0]]))
    assert uncertainty_batch(first, second, np.zeros((0, 4), dtype=complex)) == []


def test_degenerate_pair_raises_on_every_call():
    zero = PSchauderFrame(counting_measure(2), 2.0, np.zeros((2, 2)), np.zeros((2, 2)))
    frame = canonical_lp(2, 2.0)
    for _ in range(2):
        with pytest.raises(DegeneratePairError):
            uncertainty_batch(frame, zero, np.ones((3, 2)))


def test_pair_coherence_memo_holds_no_frame_alive():
    first, second = dft_pair(4)
    rep = uncertainty_check(first, second, picket_fence(4))
    assert frames._pair_coherence(first, second) == (rep.coh_fg, rep.coh_gf) == cross_coherence(first, second)
    refs = [weakref.ref(first), weakref.ref(second)]
    del first, second, rep
    gc.collect()
    assert all(ref() is None for ref in refs)
