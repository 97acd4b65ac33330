import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelab import sparse
from framelab import (
    CoefficientFunction,
    FrameError,
    MeasureSpace,
    PSchauderFrame,
    ResourceGuardError,
    SparseProblem,
    canonical_lp,
    conjecture_probe,
    counting_measure,
    default_zoo,
    donoho_elad_check,
    gram_coherence,
    harmonic_discretization,
    l0_brute_force,
    measure_min_brute_force,
    mercedes_benz,
    random_parseval,
    synthesis,
    uniqueness_threshold,
    weighted_split,
)


# -------------------------------------------------------------- coherence


def test_gram_coherence_orthonormal_is_zero():
    assert gram_coherence(canonical_lp(3, 2.0)) == 0.0


def test_gram_coherence_three_atom(three_atom_frame):
    assert gram_coherence(three_atom_frame) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_gram_coherence_mercedes():
    assert gram_coherence(mercedes_benz()) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_gram_coherence_ignores_an_overflowing_diagonal_without_warning():
    # |atom 0|^2 overflows, but only the finite pairing 1.7e308 is compared
    frame = PSchauderFrame(counting_measure(2), 2.0, np.eye(2), [[1.7e308, 1.7e308], [1.0, 0.0]], "real")
    assert gram_coherence(frame) == 1.7e308


def test_gram_coherence_normalized_refuses_an_overflowing_atom_norm():
    frame = PSchauderFrame(counting_measure(2), 2.0, np.eye(2), [[1.7e308, 1.7e308], [1.0, 0.0]], "real")
    with pytest.raises(FrameError, match="^an atom norm is not a finite double"):
        gram_coherence(frame, normalized=True)


def _gram_cases():
    cases = [(name, frame) for name, frame in default_zoo() if frame.p == 2.0]
    eye = np.eye(2)
    cases += [
        ("zero-atom", PSchauderFrame(counting_measure(3), 2.0, np.ones((3, 2)), [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])),
        ("one-nonzero-atom", PSchauderFrame(counting_measure(2), 2.0, eye, [[0.0, 0.0], [0.0, 3.0]])),
        ("overflowing-norm", PSchauderFrame(counting_measure(2), 2.0, eye, [[1.7e308, 1.7e308], [1.0, 0.0]])),
    ]
    return cases


def _gram_outcome(call):
    try:
        return float.hex(call())
    except FrameError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("case", _gram_cases(), ids=lambda c: c[0])
def test_gram_coherence_matches_frozen_copy(case, normalized):
    # one Gram product serves the magnitudes and the normalizing diagonal
    _, frame = case
    got = _gram_outcome(lambda: gram_coherence(frame, normalized=normalized))
    assert got == _gram_outcome(lambda: oracles.legacy_gram_coherence(frame, normalized))


def test_gram_coherence_normalized_variant():
    # raw pairings of the tight triangle are 1/3; unit-norm pairings are 1/2
    assert gram_coherence(mercedes_benz(), normalized=True) == pytest.approx(0.5, abs=1e-12)


def test_gram_coherence_needs_two_atoms_and_p2():
    with pytest.raises(FrameError):
        gram_coherence(canonical_lp(1, 2.0))
    with pytest.raises(FrameError):
        gram_coherence(canonical_lp(3, 3.0))


def test_uniqueness_threshold_values():
    assert uniqueness_threshold(1.0) == 1.0
    assert uniqueness_threshold(1.0 / np.sqrt(2.0)) == pytest.approx((1 + np.sqrt(2)) / 2, abs=1e-15)
    assert uniqueness_threshold(1.0 / 3.0) == pytest.approx(2.0, abs=1e-15)
    assert uniqueness_threshold(0.0) == math.inf
    with pytest.raises(FrameError):
        uniqueness_threshold(-1.0)


# ------------------------------------------------------------- l0 solver


def test_l0_single_atom_in_canonical_basis():
    frame = canonical_lp(3, 2.0)
    sol = l0_brute_force(SparseProblem(frame, np.array([0.0, 0.0, 2.5])))
    assert sol.status == "solved"
    assert sol.support == (2,)
    assert sol.support_cardinality == 1
    assert sol.unique


def test_l0_three_atom_coordinate_target(three_atom_frame):
    sol = l0_brute_force(SparseProblem(three_atom_frame, np.array([1.0, 0.0])))
    assert sol.support == (0,) and sol.unique
    # 1 < (1+sqrt 2)/2, so uniqueness here is the guaranteed regime
    assert 1 < uniqueness_threshold(gram_coherence(three_atom_frame))


def test_l0_three_atom_diagonal_target(three_atom_frame):
    sol = l0_brute_force(SparseProblem(three_atom_frame, np.array([1.0, 1.0])))
    assert sol.support == (2,) and sol.unique
    assert sol.coefficients.values[2] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_l0_zero_target_has_empty_support():
    frame = canonical_lp(2, 2.0)
    sol = l0_brute_force(SparseProblem(frame, np.zeros(2)))
    assert sol.status == "solved" and sol.support == ()


def test_l0_reports_non_unique_fits():
    # two parallel atoms: either singleton reproduces the target
    frame = PSchauderFrame(
        counting_measure(2), 2.0, [[1.0], [1.0]], [[1.0], [1.0]], "real"
    )
    sol = l0_brute_force(SparseProblem(frame, np.array([3.0])))
    assert sol.support == (0,)
    assert not sol.unique


def test_l0_infeasible_when_capped():
    frame = canonical_lp(3, 2.0)
    sol = l0_brute_force(SparseProblem(frame, np.array([1.0, 1.0, 0.0])), max_card=1)
    assert sol.status == "infeasible"


def test_l0_guard_refuses_huge_enumerations():
    frame = canonical_lp(30, 2.0)
    with pytest.raises(ResourceGuardError):
        l0_brute_force(SparseProblem(frame, np.zeros(30)))


@pytest.mark.parametrize(
    "solve",
    [
        lambda frame: l0_brute_force(SparseProblem(frame, np.ones(1))),
        lambda frame: measure_min_brute_force(SparseProblem(frame, np.ones(1))),
        lambda frame: conjecture_probe(frame, trials=1),
    ],
    ids=["l0", "measure", "probe"],
)
def test_guard_refuses_many_atoms_in_one_short_line(solve):
    with pytest.raises(ResourceGuardError) as excinfo:
        solve(harmonic_discretization(1, 5000))
    message = str(excinfo.value)
    assert len(message) < 200
    assert message == "more than 10000000 candidate supports of at most 5000 of 5000 atoms"


def test_l0_small_cap_on_many_atoms_still_solves():
    # 1 + 4000 candidate supports: far under the guard, although 2^4000 is not
    sol = l0_brute_force(SparseProblem(harmonic_discretization(1, 4000), np.ones(1)), max_card=1)
    assert sol.status == "solved"
    assert sol.support == (0,)
    assert sol.unique is False  # every atom of the d = 1 frame is the same vector


def test_measure_min_honours_max_card():
    # the two light atoms fit together at weight 0.5; one atom fits alone
    # only at weight 1
    vectors = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    frame = PSchauderFrame(MeasureSpace(np.array([0.25, 0.25, 1.0])), 2.0, vectors, vectors, "real")
    problem = SparseProblem(frame, np.array([1.0, 1.0]))
    for cap in (None, 3, 2):
        assert measure_min_brute_force(problem, max_card=cap).support == (0, 1)
    capped = measure_min_brute_force(problem, max_card=1)
    assert (capped.support, capped.support_weight, capped.unique) == ((2,), 1.0, True)
    assert measure_min_brute_force(problem, max_card=0).status == "infeasible"


# ------------------------------------------------------------ measure min


def test_measure_min_reduces_to_l0_under_counting_measure(three_atom_frame):
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = int(rng.integers(1, 3))
        support = rng.choice(3, size=k, replace=False)
        values = np.zeros(3)
        values[support] = rng.standard_normal(k)
        target = synthesis(three_atom_frame, CoefficientFunction(three_atom_frame.space, values))
        a = l0_brute_force(SparseProblem(three_atom_frame, target))
        b = measure_min_brute_force(SparseProblem(three_atom_frame, target))
        assert a.support == b.support
        assert a.unique == b.unique
        assert b.support_weight == a.support_cardinality


def test_measure_min_prefers_cheap_split_copy():
    # splitting makes a half-weight copy available, so weight minimization
    # moves the whole coefficient onto a single copy
    split = weighted_split(canonical_lp(2, 2.0), 0, 2)  # weights .5, .5, 1
    planted = CoefficientFunction(split.space, np.array([1.0, 1.0, 0.0]))
    target = synthesis(split, planted)
    sol = measure_min_brute_force(SparseProblem(split, target))
    assert sol.support == (0,)
    assert sol.support_weight == 0.5
    assert not sol.unique  # the twin copy fits at the same weight


def test_measure_min_equal_weight_tie_prefers_smaller_cardinality():
    # weight-1 stratum holds both the singleton {2} and the pair {0,1}; the
    # singleton is tried first and wins
    frame = PSchauderFrame(
        MeasureSpace(np.array([0.5, 0.5, 1.0])),
        2.0,
        [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        "real",
    )
    target = np.array([1.0, 1.0])
    sol = measure_min_brute_force(SparseProblem(frame, target))
    assert sol.support == (2,)
    assert sol.support_cardinality == 1
    assert sol.support_weight == 1.0
    assert not sol.unique  # {0, 1} fits at the same total weight


def test_measure_min_tie_across_weight_classes_is_lexicographic():
    # weight-1 pairs {1, 3} (0.5 + 0.5) and {0, 2} (0.25 + 0.75) both fit,
    # and no cheaper support does; the lexicographically first one wins
    vectors = [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    frame = PSchauderFrame(MeasureSpace(np.array([0.25, 0.5, 0.75, 0.5])), 2.0, vectors, vectors, "real")
    problem = SparseProblem(frame, np.array([1.0, 1.0, 0.0]))
    sol = measure_min_brute_force(problem)
    assert sol.support == (0, 2)
    assert sol.support_weight == 1.0
    assert not sol.unique
    assert _solution_bits(sol) == _solution_bits(oracles.legacy_measure_min(problem))


def test_measure_min_harmonic_quarter_weight():
    frame = harmonic_discretization(2, 4)
    planted = CoefficientFunction(frame.space, np.array([1, 0, 0, 0], dtype=complex))
    target = synthesis(frame, planted)
    sol = measure_min_brute_force(SparseProblem(frame, target))
    assert sol.support == (0,)
    assert sol.support_weight == 0.25
    assert sol.unique


def test_measure_min_guard():
    frame = canonical_lp(25, 2.0)
    with pytest.raises(ResourceGuardError):
        measure_min_brute_force(SparseProblem(frame, np.zeros(25)))


# ------------------------------------------------------- oracle equivalence


@pytest.mark.parametrize("seed", range(10))
def test_solvers_match_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    frame = random_parseval(2, 4, seed=seed)
    k = int(rng.integers(1, 3))
    support = rng.choice(4, size=k, replace=False)
    values = np.zeros(4)
    values[support] = rng.standard_normal(k)
    target = synthesis(frame, CoefficientFunction(frame.space, values))
    problem = SparseProblem(frame, target)
    tol = problem.resolved_tolerance()

    sol = l0_brute_force(problem)
    best_card, card_supports = oracles.exhaustive_l0(frame, target, tol)
    assert sol.status == "solved" and best_card is not None
    assert sol.support_cardinality == best_card
    assert sol.support in card_supports
    assert sol.unique == (len(card_supports) == 1)

    msol = measure_min_brute_force(problem)
    best_weight, weight_supports = oracles.exhaustive_measure_min(frame, target, tol)
    assert msol.support_weight == best_weight
    assert msol.support in weight_supports
    assert msol.unique == (len(weight_supports) == 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scale=st.sampled_from([1.0, 10.0, 100.0]))
def test_relaxing_residual_never_increases_objective(seed, scale):
    rng = np.random.default_rng(seed)
    frame = mercedes_benz()
    target = rng.standard_normal(2)
    tight = SparseProblem(frame, target, eps_residual=1e-10)
    loose = SparseProblem(frame, target, eps_residual=1e-10 * scale)
    a = l0_brute_force(tight)
    b = l0_brute_force(loose)
    if a.status == "solved":
        assert b.status == "solved"
        assert b.support_cardinality <= a.support_cardinality
    ma = measure_min_brute_force(tight)
    mb = measure_min_brute_force(loose)
    if ma.status == "solved":
        assert mb.status == "solved"
        assert mb.support_weight <= ma.support_weight


# --------------------------------------------------------- recovery check


def test_recovery_single_spike_below_threshold():
    frame = mercedes_benz()
    planted = CoefficientFunction(frame.space, np.array([0.0, 1.3, 0.0]))
    report = donoho_elad_check(frame, planted)
    assert report.hypothesis_satisfied
    assert report.recovered_exactly
    assert report.ok


def test_recovery_three_atom_guaranteed_regime(three_atom_frame):
    planted = CoefficientFunction(three_atom_frame.space, np.array([0.0, 0.0, 2.0]))
    report = donoho_elad_check(three_atom_frame, planted)
    assert report.threshold == pytest.approx((1 + np.sqrt(2)) / 2, abs=1e-15)
    assert report.hypothesis_satisfied and report.ok
    assert report.solution.support == (2,)


def test_recovery_outside_hypothesis_is_not_asserted(three_atom_frame):
    planted = CoefficientFunction(three_atom_frame.space, np.array([1.0, 1.0, 0.0]))
    report = donoho_elad_check(three_atom_frame, planted)
    assert not report.hypothesis_satisfied  # cardinality 2 >= 1.207...
    assert report.ok  # nothing asserted outside the hypothesis


# ----------------------------------------------------------------- probe


def test_probe_counting_measure_matches_recovery_check():
    frame = mercedes_benz()
    report = conjecture_probe(frame, trials=30, seed=8)
    assert report["trials_run"] == 30
    for record in report["trial_records"]:
        values = np.array(record["planted_coefficients"])
        planted = CoefficientFunction(frame.space, values)
        check = donoho_elad_check(frame, planted)
        assert check.solution.support == tuple(record["recovered_support"])
        assert check.solution.unique == record["unique"]
        assert check.recovered_exactly == record["confirmed"]


def test_probe_on_weighted_split_runs_clean(three_atom_frame):
    frame = weighted_split(three_atom_frame, 0, 2)
    report = conjecture_probe(frame, trials=100, seed=4)
    assert report["trials_run"] + report["trials_skipped"] == 100
    assert report["confirmations"] + len(report["counterexamples"]) == report["trials_run"]
    # split copies are bit-identical vectors, so the two threshold variants
    # must differ: all-pairs coherence sees the self-pairing of the copies
    assert report["coherence_all_pairs"] >= report["coherence_distinct_vectors"]
    for counterexample in report["counterexamples"]:
        assert counterexample["frame"]["atoms"]  # replay data inline


def test_probe_unsatisfiable_threshold_skips_all_trials():
    # parallel unit atoms force coherence 1, threshold 1, and every nonempty
    # support has weight >= 1
    frame = PSchauderFrame(
        counting_measure(2), 2.0, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], "real"
    )
    report = conjecture_probe(frame, trials=10, seed=0)
    assert not report["hypothesis_satisfiable"]
    assert report["trials_run"] == 0
    assert report["trials_skipped"] == 10
    assert "unsatisfiable" in report["note"]


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_eps_residual_is_refused(eps):
    with pytest.raises(FrameError, match="eps_residual must be finite"):
        SparseProblem(mercedes_benz(), np.array([1.0, 0.0]), eps)
    # refused before the pool is drawn, so also when it is empty
    parallel = PSchauderFrame(
        counting_measure(2), 2.0, [[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], "real"
    )
    for frame in (mercedes_benz(), parallel):
        with pytest.raises(FrameError, match="eps_residual must be finite"):
            conjecture_probe(frame, trials=3, eps_residual=eps)


@pytest.mark.parametrize("eps_residual", [None, 1e-6])
def test_target_whose_norm_overflows_is_refused(eps_residual):
    # an infinite norm made every tolerance infinite, so the empty support
    # "solved" any target; the refusal itself must not warn
    from framelab import dft_pair

    complex_frame = dft_pair(2)[1]
    for frame, target in ((mercedes_benz(), [1e300, 1e300]), (complex_frame, [1e300, 1e300j])):
        with pytest.raises(FrameError, match="^the target's 2-norm overflows a double$"):
            SparseProblem(frame, np.array(target), eps_residual)
    # a large finite norm is still solved as before
    solution = l0_brute_force(SparseProblem(mercedes_benz(), np.array([1e150, 1e150]), eps_residual))
    assert solution.status == "solved" and solution.support_cardinality == 2


def test_probe_counterexamples_carry_the_frozen_frame_encoding():
    frame = weighted_split(random_parseval(6, 13, seed=0), 0, 2)
    report = conjecture_probe(frame, trials=20, seed=3)
    assert report["counterexamples"]
    frozen = json.dumps(oracles.legacy_frame_to_obj(frame), indent=2)
    for counterexample in report["counterexamples"]:
        assert json.dumps(counterexample["frame"], indent=2) == frozen


def test_probe_reports_are_deterministic():
    frame = weighted_split(mercedes_benz(), 0, 2)
    a = conjecture_probe(frame, trials=25, seed=99)
    b = conjecture_probe(frame, trials=25, seed=99)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_probe_handles_unbounded_threshold_as_valid_json():
    report = conjecture_probe(canonical_lp(3, 2.0), trials=5, seed=1)
    text = json.dumps(report, sort_keys=True)
    assert "Infinity" not in text
    assert report["threshold_all_pairs"] == "unbounded"
    assert report["confirmations"] == 5


def test_probe_requires_p2():
    with pytest.raises(FrameError):
        conjecture_probe(canonical_lp(3, 3.0), trials=5)


def test_probe_guard():
    with pytest.raises(ResourceGuardError):
        conjecture_probe(canonical_lp(25, 2.0), trials=1)


def _sparse_refusals():
    mb, guard = mercedes_benz(), sparse._PROBE_TRIALS_GUARD
    problem = SparseProblem(mb, np.array([1.0, 0.0]))
    cap = (FrameError, "max_card must lie in 0..n_atoms")
    return [
        # (label, call, (type, message))
        ("l0-max-card-negative", lambda: l0_brute_force(problem, max_card=-1), cap),
        ("l0-max-card-above-n", lambda: l0_brute_force(problem, max_card=4), cap),
        ("measure-max-card-negative", lambda: measure_min_brute_force(problem, max_card=-1), cap),
        ("measure-max-card-above-n", lambda: measure_min_brute_force(problem, max_card=4), cap),
        ("donoho-elad-other-space", lambda: donoho_elad_check(mb, CoefficientFunction(counting_measure(4), np.ones(4))),
         (FrameError, "planted coefficients live on a different measure space")),
        ("probe-trials-0", lambda: conjecture_probe(mb, trials=0), (FrameError, "trials must be at least 1")),
        ("probe-trials-guard", lambda: conjecture_probe(mb, trials=guard + 1),
         (ResourceGuardError, f"trials {guard + 1} exceeds guard {guard}")),
        # the trials guard is arithmetic, checked before the support plan's
        ("probe-trials-guard-before-plan", lambda: conjecture_probe(harmonic_discretization(1, 5000), trials=10**20),
         (ResourceGuardError, f"trials {10**20} exceeds guard {guard}")),
    ]


@pytest.mark.parametrize("case", _sparse_refusals(), ids=lambda c: c[0])
def test_sparse_refusals_keep_their_type_and_message(case):
    _, call, (kind, message) = case
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_probe_runs_at_its_trials_guard(monkeypatch):
    monkeypatch.setattr(sparse, "_PROBE_TRIALS_GUARD", 3)
    assert conjecture_probe(mercedes_benz(), trials=3)["trials_run"] == 3


# ------------------------------------------- engine vs frozen per-support path


def _with_weights(frame, weights):
    return PSchauderFrame(MeasureSpace(weights), 2.0, frame.functionals, frame.vectors, frame.field)


def _engine_frames():
    rng = np.random.default_rng(2003)
    low_rank = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 4))
    return {
        "parseval-real": random_parseval(3, 7, seed=1),
        "parseval-complex": random_parseval(4, 8, seed=2, field="complex"),
        "harmonic": harmonic_discretization(3, 7),
        "harmonic-split": weighted_split(harmonic_discretization(4, 7, normalize=True), 5, 2),
        "double-split-real": weighted_split(weighted_split(random_parseval(3, 6, seed=3), 0, 3), 4, 2),
        "split-complex": weighted_split(random_parseval(3, 7, seed=4, field="complex"), 2, 2),
        # few weight classes, so several count vectors share a (weight, cardinality) level
        "class-weights": _with_weights(random_parseval(3, 8, seed=5), rng.choice([0.25, 0.5, 0.75, 1.0], 8)),
        "distinct-weights": _with_weights(random_parseval(4, 8, seed=6, field="complex"), rng.uniform(0.1, 2.0, 8)),
        "rank-deficient": PSchauderFrame(
            MeasureSpace(rng.choice([0.5, 1.0], 8)), 2.0, low_rank, low_rank, "real"
        ),
    }


ENGINE_FRAMES = _engine_frames()


def _engine_targets(frame, rng):
    """The zero target, a dense one (it fits only at k >= d, or not at all
    when eps is 0) and planted ones; then the planted ones nudged off their
    span by 0.5x and 2x the default tolerance."""
    cplx = frame.field == "complex"

    def gaussian(size):
        return rng.standard_normal(size) + (1j * rng.standard_normal(size) if cplx else 0)

    targets = [np.zeros(frame.dimension), gaussian(frame.dimension)]
    nudged = []
    for k in (1, 2, 3):
        values = np.zeros(frame.n_atoms, dtype=frame.vectors.dtype)
        values[rng.choice(frame.n_atoms, size=k, replace=False)] = gaussian(k)
        h = synthesis(frame, CoefficientFunction(frame.space, values))
        targets.append(h)
        for scale in (0.5, 2.0):
            nudge = gaussian(frame.dimension)
            nudged.append(h + nudge / np.linalg.norm(nudge) * scale * 1e-8 * np.linalg.norm(h))
    return targets, nudged


def _screen_sweep():
    """(frame, columns, target, level) for every support level with
    0 < k < d of ENGINE_FRAMES (the splits hold exactly parallel columns)
    and of two more frames: one with a zero column and one with two
    columns 1e-6 from parallel."""
    base = random_parseval(3, 6, seed=8)
    zero, near = base.vectors.copy(), base.vectors.copy()
    zero[2] = 0.0
    near[4] = near[3] + 1e-6 * near[0]
    frames = dict(ENGINE_FRAMES)
    frames["zero-column"] = PSchauderFrame(base.space, 2.0, base.functionals, zero, "real")
    frames["near-parallel"] = PSchauderFrame(base.space, 2.0, base.functionals, near, "real")
    for name, frame in sorted(frames.items()):
        cols = sparse._synthesis_columns(frame)
        targets, nudged = _engine_targets(frame, np.random.default_rng(len(name)))
        for target in targets + nudged:
            for k in range(1, frame.dimension):
                yield frame, cols, target, list(itertools.combinations(range(frame.n_atoms), k))


def test_screen_bound_matches_frozen_projection_residual():
    # A chunk of [s, s] keeps s iff its bound is at most bar, so bars just
    # above and just below the frozen residual pin the bound between them.
    for frame, cols, target, level in _screen_sweep():
        slack = 1e-13 * float(np.linalg.norm(target))
        for s, legacy in zip(level, oracles.legacy_screen_residuals(cols, target, level).tolist()):
            assert sparse._screen(cols, target, [s, s], legacy + slack) == [s, s], s
            assert sparse._screen(cols, target, [s, s], np.nextafter(legacy - slack, -1.0)) == [], s


def test_screen_never_drops_a_fit():
    for frame, cols, target, level in _screen_sweep():
        residuals = [sparse._restricted_fit(cols, s, target)[1] for s in level]
        for eps in (None, 0.0, 1e-12):
            tol = SparseProblem(frame, target, eps).resolved_tolerance()
            bar = 2.0 * tol + 1e-9 * float(np.linalg.norm(target))  # as in sparse._walk
            kept = set(sparse._screen(cols, target, level, bar))
            assert all(s in kept for s, r in zip(level, residuals) if r <= tol), (level[0], eps)


def _solution_bits(sol):
    coeff = None if sol.coefficients is None else sol.coefficients.values.tobytes()
    return (
        sol.status,
        sol.support,
        sol.support_cardinality,
        sol.support_weight.hex(),
        sol.residual.hex(),
        sol.unique,
        coeff,
    )


@pytest.mark.parametrize("name", sorted(ENGINE_FRAMES))
def test_engine_matches_frozen_per_support_solvers(name):
    frame = ENGINE_FRAMES[name]
    rng = np.random.default_rng(len(name))
    targets, nudged = _engine_targets(frame, rng)
    cases = [(t, h, eps) for t, h in enumerate(targets) for eps in (None, 0.0, 1e-12)]
    cases += [(len(targets) + t, h, None) for t, h in enumerate(nudged)]
    for t, target, eps in cases:
        problem = SparseProblem(frame, target, eps)
        caps = (None, 1, frame.dimension) if t < 3 else (None,)
        for cap in caps:
            assert _solution_bits(l0_brute_force(problem, max_card=cap)) == _solution_bits(
                oracles.legacy_l0(problem, max_card=cap)
            ), (t, eps, cap)
        assert _solution_bits(measure_min_brute_force(problem)) == _solution_bits(
            oracles.legacy_measure_min(problem)
        ), (t, eps)


@pytest.mark.parametrize("name", sorted(ENGINE_FRAMES))
def test_capped_solvers_match_exhaustive_oracle(name):
    # the lightest (l0: smallest) fits among the supports of at most cap atoms
    frame = ENGINE_FRAMES[name]
    cols, w = oracles.synthesis_matrix(frame), frame.space.weights
    targets, _ = _engine_targets(frame, np.random.default_rng(len(name)))
    for t, target in enumerate(targets):
        problem = SparseProblem(frame, target)
        tol = problem.resolved_tolerance()
        fits = [s for s in oracles.all_supports(frame.n_atoms) if oracles.fit_residual(cols, s, target) <= tol]
        for cap in range(frame.n_atoms + 1):
            for solve, cost in ((measure_min_brute_force, lambda s: math.fsum(w[list(s)])), (l0_brute_force, len)):
                sol = solve(problem, max_card=cap)
                costs = {s: cost(s) for s in fits if len(s) <= cap}
                if not costs:
                    assert sol.status == "infeasible", (t, cap)
                    continue
                best = min(costs.values())
                optimal = {s for s, c in costs.items() if c == best}
                assert sol.support in optimal, (t, cap)
                assert sol.unique == (len(optimal) == 1), (t, cap)


@pytest.mark.parametrize("name", sorted(ENGINE_FRAMES))
def test_probe_support_pool_matches_frozen_list(name):
    w = ENGINE_FRAMES[name].space.weights
    members, plan = sparse._weight_plan(w, w.size)
    for threshold in (0.0, float(w.min()), 1.0, 1.6, 2.5, math.inf):
        assert sparse._planted_pool(members, plan, threshold) == oracles.legacy_light_supports(w, threshold)


@pytest.mark.parametrize("name", ["harmonic-split", "split-complex", "class-weights", "distinct-weights"])
@pytest.mark.parametrize("eps", [None, 1e-12])
def test_probe_report_bytes_match_frozen_path(name, eps, monkeypatch):
    frame = ENGINE_FRAMES[name]

    def report():
        return json.dumps(conjecture_probe(frame, trials=12, seed=31, eps_residual=eps), indent=2, sort_keys=True)

    calls = {"trials": 0, "pools": 0}

    def frozen_trial(problem, members, plan):
        calls["trials"] += 1
        return oracles.legacy_measure_min(problem)

    def frozen_pool(members, plan, threshold):
        calls["pools"] += 1
        return oracles.legacy_light_supports(frame.space.weights, threshold)

    engine = report()
    monkeypatch.setattr(sparse, "_walk", frozen_trial)
    monkeypatch.setattr(sparse, "_planted_pool", frozen_pool)
    monkeypatch.setattr(sparse, "vector_to_obj", oracles.legacy_encode_values)
    assert engine == report()
    # the frozen path really ran: one frozen solve per trial, one frozen pool
    assert calls == {"trials": 12, "pools": 1}


def _probe_frames():
    """The five frames of scripts/probe_weighted_frames.py, a complex split,
    an orthonormal basis (unbounded threshold), a parallel pair (empty pool)
    and a split random Parseval frame with counterexamples."""
    parallel = [[1.0, 0.0], [1.0, 0.0]]
    return {
        "split_mercedes": weighted_split(mercedes_benz(), 0, 2),
        "split_twice_mercedes": weighted_split(weighted_split(mercedes_benz(), 0, 2), 2, 2),
        "split_random_parseval_3_5": weighted_split(random_parseval(3, 5, seed=5), 1, 2),
        "harmonic_2_4": harmonic_discretization(2, 4),
        "harmonic_3_6": harmonic_discretization(3, 6),
        "split-complex": ENGINE_FRAMES["split-complex"],
        "canonical": canonical_lp(3, 2.0),
        "parallel": PSchauderFrame(counting_measure(2), 2.0, parallel, parallel, "real"),
        "split-parseval-6-13": weighted_split(random_parseval(6, 13, seed=0), 0, 2),
    }


PROBE_FRAMES = _probe_frames()


@pytest.mark.parametrize("name", sorted(PROBE_FRAMES))
def test_probe_report_matches_frozen_probe(name):
    frame = PROBE_FRAMES[name]
    for seed in (0, 5):
        for eps in (None, 1e-12):
            report = conjecture_probe(frame, trials=8, seed=seed, eps_residual=eps)
            frozen = oracles.legacy_conjecture_probe(frame, trials=8, seed=seed, eps_residual=eps)
            assert json.dumps(report, indent=2, sort_keys=True) == json.dumps(frozen, indent=2, sort_keys=True)
            assert json.dumps(report) == json.dumps(frozen), (seed, eps)  # key order too


# ------------------------------------------------------------- targets


@pytest.mark.parametrize(
    "target,message",
    [
        (np.ones(3), "vector length 3 does not match frame dimension 2"),
        (np.array([1j, 0.0]), "real frames act on real vectors only"),
        (np.array([np.nan, 0.0]), r"vector entries must be finite \(no NaN/Inf\)"),
    ],
    ids=["length", "complex", "non-finite"],
)
def test_sparse_problem_refuses_targets_like_any_input_vector(target, message):
    with pytest.raises(FrameError, match=f"^{message}$"):
        SparseProblem(canonical_lp(2, 2.0), target)


def test_sparse_problem_freezes_its_own_copy_of_the_target():
    target = np.array([1.0, 2.0])
    problem = SparseProblem(canonical_lp(2, 2.0), target)
    assert target.flags.writeable and not problem.target.flags.writeable
    target[0] = 5.0
    assert problem.target.tolist() == [1.0, 2.0]
