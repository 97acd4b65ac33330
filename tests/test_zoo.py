import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelab import (
    VALIDATION_GUARD,
    FrameError,
    FrameSpec,
    PSchauderFrame,
    ResourceGuardError,
    analysis,
    alternate_dual,
    build_frames,
    canonical_lp,
    cross_coherence,
    default_zoo,
    dft_pair,
    frame_digest,
    harmonic_discretization,
    mercedes_benz,
    picket_fence,
    random_parseval,
    random_vectors,
    signed_permutation,
    support_measure,
    synthesis,
    uncertainty_check,
    validate_frame,
    weighted_split,
)

ZOO = default_zoo()


@pytest.mark.parametrize("name,frame", ZOO, ids=[n for n, _ in ZOO])
def test_every_zoo_frame_satisfies_the_axioms(name, frame):
    rep = validate_frame(frame, trials=1000, tol=1e-9, rng_seed=0)
    assert rep.passes, (name, rep)


# ------------------------------------------------------------- canonical


def test_canonical_singleton():
    frame = canonical_lp(1, 2.0)
    assert frame.n_atoms == 1
    assert np.array_equal(frame.functionals, [[1.0]])
    assert np.array_equal(frame.vectors, [[1.0]])


def test_canonical_p3_isometry_matches_norm():
    frame = canonical_lp(3, 3.0)
    x = np.array([1.0, -2.0, 0.5])
    coeffs = analysis(frame, x)
    lhs = float(np.sum(frame.space.weights * np.abs(coeffs.values) ** 3))
    assert lhs == pytest.approx(np.sum(np.abs(x) ** 3))


def test_canonical_rejects_bad_dimension():
    with pytest.raises(FrameError):
        canonical_lp(0, 2.0)


# ---------------------------------------------------- signed permutations


def test_identity_permutation_equals_canonical():
    frame = signed_permutation(3, 2.0, (0, 1, 2), (1.0, 1.0, 1.0))
    base = canonical_lp(3, 2.0)
    assert np.array_equal(frame.functionals, base.functionals)
    assert np.array_equal(frame.vectors, base.vectors)


def test_swap_has_unit_coherence_against_canonical():
    swap = signed_permutation(2, 2.0, (1, 0), (1.0, 1.0))
    assert cross_coherence(canonical_lp(2, 2.0), swap) == (1.0, 1.0)


def test_signed_cycle_validates():
    frame = signed_permutation(3, 1.5, (1, 2, 0), (1.0, -1.0, 1.0))
    rep = validate_frame(frame, trials=200, rng_seed=2)
    assert rep.max_isometry_residual <= 1e-15


def test_signed_permutation_rejects_bad_input():
    with pytest.raises(FrameError):
        signed_permutation(3, 2.0, (0, 0, 1), (1.0, 1.0, 1.0))
    with pytest.raises(FrameError):
        signed_permutation(2, 2.0, (0, 1), (2.0, 1.0))
    # an integer beyond the C range fails the bijection check, not the cast
    with pytest.raises(FrameError, match="bijection"):
        signed_permutation(3, 2.0, (0, 1, 10**20), (1.0, 1.0, 1.0))


def test_signed_permutation_defaults_to_identity_and_unit_signs():
    frame = signed_permutation(3, 2.0)
    assert np.array_equal(frame.vectors, canonical_lp(3, 2.0).vectors)
    assert frame.field == "real"


# ---------------------------------------------------------------- fourier


@pytest.mark.parametrize("d", list(range(1, 65)))
def test_fourier_pair_coherence_is_reciprocal_root_d(d):
    first, second = dft_pair(d)
    coh_fg, coh_gf = cross_coherence(first, second)
    assert abs(coh_fg - 1.0 / np.sqrt(d)) <= 1e-12
    assert abs(coh_gf - 1.0 / np.sqrt(d)) <= 1e-12


def test_fourier_pair_d1_trivial():
    first, second = dft_pair(1)
    assert np.allclose(second.vectors, [[1.0]])
    assert np.allclose(first.vectors, [[1.0]])


def test_fourier_product_bound_d9():
    first, second = dft_pair(9)
    rep = uncertainty_check(first, second, picket_fence(9))
    assert rep.supp_f * rep.supp_g == 9.0
    assert rep.holds1 and rep.holds2


# --------------------------------------------------------------- harmonic


@pytest.mark.parametrize("d,N", [(4, 8), (5, 5), (2, 2)])
def test_harmonic_is_exact_when_oversampled(d, N):
    rep = validate_frame(harmonic_discretization(d, N), trials=300, tol=1e-10, rng_seed=1)
    assert rep.passes


def test_harmonic_refuses_undersampling():
    with pytest.raises(FrameError, match="N must be >= d"):
        harmonic_discretization(8, 4)


def test_harmonic_d2_n2_is_fourier_with_half_weights():
    frame = harmonic_discretization(2, 2)
    assert np.array_equal(frame.space.weights, [0.5, 0.5])
    # unnormalized exponential atoms: rows (1, 1) and (1, -1)
    assert np.allclose(frame.vectors, [[1.0, 1.0], [1.0, -1.0]], atol=1e-15)


def test_harmonic_normalized_variant_keeps_axioms():
    frame = harmonic_discretization(3, 6, normalize=True)
    assert np.allclose(np.linalg.norm(frame.vectors, axis=1), 1.0)
    assert np.array_equal(frame.space.weights, np.full(6, 0.5))
    assert validate_frame(frame, trials=200, tol=1e-10, rng_seed=3).passes


# ---------------------------------------------------------- random parseval


def test_random_parseval_square_is_orthonormal():
    frame = random_parseval(3, 3, seed=1)
    assert np.allclose(frame.vectors @ frame.vectors.T, np.eye(3), atol=1e-12)


def test_random_parseval_rectangular_validates():
    rep = validate_frame(random_parseval(2, 3, seed=4), trials=500, tol=1e-10, rng_seed=0)
    assert rep.passes


def test_random_parseval_reproducible():
    a = random_parseval(3, 5, seed=12)
    b = random_parseval(3, 5, seed=12)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.functionals, b.functionals)


def test_random_parseval_complex_field():
    frame = random_parseval(2, 4, seed=2, field="complex")
    assert frame.field == "complex"
    assert validate_frame(frame, trials=200, tol=1e-10, rng_seed=1).passes


def test_random_parseval_needs_redundancy():
    with pytest.raises(FrameError):
        random_parseval(4, 3)


@pytest.mark.parametrize("d", [0, -1])
def test_random_parseval_rejects_bad_dimension(d):
    with pytest.raises(FrameError, match="dimension must be at least 1"):
        random_parseval(d, 3)


# ---------------------------------------------------------- mercedes benz


def test_mercedes_benz_is_tight():
    rep = validate_frame(mercedes_benz(), trials=500, tol=1e-12, rng_seed=1)
    assert rep.passes


def test_mercedes_benz_geometry():
    frame = mercedes_benz()
    v = frame.vectors
    for j in range(3):
        assert np.dot(v[j], v[j]) == pytest.approx(2.0 / 3.0)
        for k in range(j + 1, 3):
            assert abs(np.dot(v[j], v[k])) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------- alternate dual


def test_alternate_dual_zero_scale_returns_input():
    frame = mercedes_benz()
    dual = alternate_dual(frame, seed=3, scale=0.0)
    assert np.array_equal(dual.vectors, frame.vectors)
    assert np.array_equal(dual.functionals, frame.functionals)


def test_alternate_dual_keeps_reconstruction_but_not_parseval():
    frame = mercedes_benz()
    dual = alternate_dual(frame, seed=11)
    xs = random_vectors(2, 200, "real", 5)
    w = dual.space.weights
    worst = max(
        np.linalg.norm((w * (dual.functionals @ x)) @ dual.vectors - x) for x in xs
    )
    assert worst <= 1e-10
    # the perturbed vector family itself no longer preserves norms
    g = np.conj(dual.vectors)
    deviation = np.max(np.abs(g.conj().T @ (w[:, None] * g) - np.eye(2)))
    assert deviation > 1e-6


def test_alternate_dual_of_random_parseval():
    frame = random_parseval(2, 4, seed=9)
    dual = alternate_dual(frame, seed=10)
    xs = random_vectors(2, 100, "real", 6)
    w = dual.space.weights
    worst = max(
        np.linalg.norm((w * (dual.functionals @ x)) @ dual.vectors - x) for x in xs
    )
    assert worst <= 1e-10


def test_alternate_dual_requires_redundancy():
    with pytest.raises(FrameError):
        alternate_dual(canonical_lp(2, 2.0), seed=0)


def _draw_cases():
    # (label, zoo call, frozen oracle call)
    rp = lambda *args: (lambda: random_parseval(*args), lambda: oracles.legacy_random_parseval(*args))
    harmonic = harmonic_discretization(4, 8)
    return [
        ("parseval-real-3-5", *rp(3, 5, 7)),
        ("parseval-real-6-13", *rp(6, 13, 2)),
        ("parseval-complex-3-5", *rp(3, 5, 7, "complex")),
        ("parseval-complex-6-13", *rp(6, 13, 2, "complex")),
        ("dual-real-mercedes", lambda: alternate_dual(mercedes_benz(), 11),
         lambda: oracles.legacy_alternate_dual(mercedes_benz(), 11)),
        ("dual-real-parseval", lambda: alternate_dual(random_parseval(2, 4, 9), 10, 0.5),
         lambda: oracles.legacy_alternate_dual(random_parseval(2, 4, 9), 10, 0.5)),
        ("dual-complex-parseval", lambda: alternate_dual(random_parseval(3, 5, 4, "complex"), 2),
         lambda: oracles.legacy_alternate_dual(random_parseval(3, 5, 4, "complex"), 2)),
        ("dual-complex-harmonic", lambda: alternate_dual(harmonic, 5, 0.25),
         lambda: oracles.legacy_alternate_dual(harmonic, 5, 0.25)),
    ]


@pytest.mark.parametrize("case", _draw_cases(), ids=lambda c: c[0])
def test_seeded_draws_match_frozen_draws(case):
    # every byte of the frame file, so every bit of both tables
    label, make, frozen = case
    frame = make()
    assert frame_digest(frame) == frame_digest(frozen())
    assert frame.field == ("complex" if "complex" in label else "real")


def _zoo_refusals():
    mb = mercedes_benz()
    return [
        # (label, call, message)
        ("dual-p3", lambda: alternate_dual(canonical_lp(2, 3.0)), "alternate duals are built for p = 2 only"),
        ("dual-unpaired", lambda: alternate_dual(alternate_dual(mb, 1)),
         "input must pair each vector with its conjugate functional"),
        ("dual-not-isometric",
         lambda: alternate_dual(PSchauderFrame(mb.space, 2.0, 2 * mb.vectors, 2 * mb.vectors)),
         "input vector family is not norm-preserving"),
        ("permutation-sign-count", lambda: signed_permutation(3, 2.0, signs=(1.0, -1.0)),
         "one unimodular sign per atom required"),
        ("harmonic-0-0", lambda: harmonic_discretization(0, 0), "dimension must be at least 1"),
    ]


@pytest.mark.parametrize("case", _zoo_refusals(), ids=lambda c: c[0])
def test_zoo_refusals_keep_their_type_and_message(case):
    _, call, message = case
    with pytest.raises(FrameError) as info:
        call()
    assert type(info.value) is FrameError
    assert str(info.value) == message


# ---------------------------------------------------------- weighted split


def test_weighted_split_weights():
    frame = weighted_split(canonical_lp(2, 2.0), 0, 2)
    assert np.array_equal(frame.space.weights, [0.5, 0.5, 1.0])


def test_weighted_split_preserves_support_measure():
    base = mercedes_benz()
    split = weighted_split(base, 1, 2)
    for seed in range(20):
        x = random_vectors(2, 1, "real", seed)[0]
        assert support_measure(analysis(split, x)) == support_measure(analysis(base, x))


def test_weighted_split_total_measure_exact():
    base = mercedes_benz()
    for parts in (2, 3, 4, 5):
        split = weighted_split(base, 0, parts)
        assert split.space.total_measure == base.space.total_measure


def test_splitting_both_halves_equals_splitting_into_four():
    base = canonical_lp(2, 2.0)
    once = weighted_split(base, 0, 2)
    twice = weighted_split(weighted_split(once, 0, 2), 2, 2)
    quarters = weighted_split(base, 0, 4)
    assert np.array_equal(twice.space.weights, quarters.space.weights)
    assert np.array_equal(twice.vectors, quarters.vectors)
    assert np.array_equal(twice.functionals, quarters.functionals)


def test_split_analysis_values_repeat_original():
    base = mercedes_benz()
    split = weighted_split(base, 1, 3)
    x = np.array([0.4, -1.1])
    base_vals = analysis(base, x).values
    split_vals = analysis(split, x).values
    assert split_vals[1] == split_vals[2] == split_vals[3] == base_vals[1]


def test_weighted_split_rejects_bad_args():
    with pytest.raises(FrameError):
        weighted_split(canonical_lp(2, 2.0), 5, 2)
    with pytest.raises(FrameError):
        weighted_split(canonical_lp(2, 2.0), 0, 1)


@settings(max_examples=40, deadline=None)
@given(atom=st.integers(0, 2), parts=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_split_invariance_property(atom, parts, seed):
    base = mercedes_benz()
    split = weighted_split(base, atom, parts)
    x = random_vectors(2, 1, "real", seed)[0]
    assert support_measure(analysis(split, x)) == support_measure(analysis(base, x))


# ------------------------------------------------------------ picket fence


@pytest.mark.parametrize("d,period", [(4, 2), (9, 3), (16, 4)])
def test_picket_fence_structure(d, period):
    x = picket_fence(d)
    assert np.array_equal(np.flatnonzero(x), np.arange(0, d, period))


@pytest.mark.parametrize("d", [4, 9, 16])
def test_picket_fence_attains_equality(d):
    first, second = dft_pair(d)
    rep = uncertainty_check(first, second, picket_fence(d))
    assert abs(rep.lhs1 - rep.bound1) <= 1e-9


def test_picket_fence_rejects_non_square():
    with pytest.raises(FrameError):
        picket_fence(8)


# ---------------------------------------------------------- extremal search


def test_extremal_search_identity_pair():
    from framelab import extremal_search

    frame = canonical_lp(3, 2.0)
    result = extremal_search(frame, frame, budget=20, seed=0)
    assert result.min_lhs1 == pytest.approx(1.0, abs=1e-12)
    assert result.report.supp_f == 1.0 and result.report.supp_g == 1.0


@pytest.mark.parametrize("d,expected", [(4, 2.0), (9, 3.0)])
def test_extremal_search_fourier_minimum_is_root_d(d, expected):
    from framelab import extremal_search

    first, second = dft_pair(d)
    budget = 2**d if d == 4 else 550   # enough to exhaust supports of size <= 3
    result = extremal_search(first, second, budget=budget, seed=2)
    assert result.min_lhs1 == pytest.approx(expected, abs=1e-9)
    assert result.min_lhs1 >= result.bound1 - 1e-9


# ------------------------------------------------------------- frame specs


def test_build_frames_dispatch():
    assert len(build_frames(FrameSpec("dft_pair", d=3))) == 2
    assert len(build_frames(FrameSpec("mercedes_benz"))) == 1


def test_build_frames_requires_parameters():
    with pytest.raises(FrameError):
        build_frames(FrameSpec("canonical_lp"))
    with pytest.raises(FrameError):
        build_frames(FrameSpec("weighted_split"))


@pytest.mark.parametrize(
    "spec,missing",
    [
        (FrameSpec("canonical_lp"), "d"),
        (FrameSpec("random_parseval"), "d"),
        (FrameSpec("random_parseval", d=2), "n"),
        (FrameSpec("harmonic_discretization", N=8), "d"),
        (FrameSpec("harmonic_discretization", d=2), "N"),
        (FrameSpec("alternate_dual"), "base"),
        (FrameSpec("weighted_split"), "base"),
    ],
)
def test_build_frames_names_the_first_missing_parameter(spec, missing):
    with pytest.raises(FrameError) as excinfo:
        build_frames(spec)
    assert str(excinfo.value) == f"kind {spec.kind!r} requires parameter {missing!r}"


def test_build_frames_derived_kind_takes_an_explicit_base():
    mb = mercedes_benz()
    (split,) = build_frames(FrameSpec("weighted_split"), mb)
    assert np.array_equal(split.space.weights, weighted_split(mb, 0, 2).space.weights)


def test_build_frames_refuses_an_empty_permutation():
    # only a missing permutation defaults to the identity
    with pytest.raises(FrameError, match="bijection"):
        build_frames(FrameSpec("signed_permutation", d=3, permutation=()))


@pytest.mark.parametrize(
    "make",
    [
        lambda: canonical_lp(10**5, 2.0),
        lambda: signed_permutation(10**5, 2.0),
        lambda: dft_pair(10**5),
        lambda: harmonic_discretization(4, 10**9),
        lambda: random_parseval(4, 10**8),
        lambda: weighted_split(mercedes_benz(), 0, 10**8),
        lambda: weighted_split(mercedes_benz(), 0, 10**20),
    ],
)
def test_constructors_refuse_tables_beyond_the_guard(make):
    # each table is at least 10x over the guard and refused before allocation
    with pytest.raises(ResourceGuardError, match=str(VALIDATION_GUARD)):
        make()


def test_build_frames_unknown_kind():
    with pytest.raises(FrameError):
        build_frames(FrameSpec("banana"))
