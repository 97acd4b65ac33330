import gc
import itertools
import json
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

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
    # a large finite norm is still solved as before.  Against the absolute
    # 1e-6 a fit's residual at this scale is a rounding error, 0.0 on some
    # BLAS kernels and not on others, so there only the frozen solver's
    # decision on the same kernel is required.
    problem = SparseProblem(mercedes_benz(), np.array([1e150, 1e150]), eps_residual)
    solution = l0_brute_force(problem)
    if eps_residual is None:
        assert solution.status == "solved" and solution.support_cardinality == 2
    else:
        frozen = oracles.legacy_l0(problem)
        assert (solution.status, solution.support, solution.unique) == (frozen.status, frozen.support, frozen.unique)


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


def _distinct_weights_frame(n):
    # n atoms on the line, each its own weight class: 2^n count vectors
    return PSchauderFrame(MeasureSpace(1.0 + np.arange(n) / 64), 2.0, np.ones((n, 1)), np.ones((n, 1)))


def _sparse_refusals():
    mb, guard = mercedes_benz(), sparse._PROBE_TRIALS_GUARD
    problem = SparseProblem(mb, np.array([1.0, 0.0]))
    cap = (FrameError, "max_card must lie in 0..n_atoms")
    distinct = _distinct_weights_frame(23)
    plan_guard = (ResourceGuardError, "more than 131072 count vectors of at most 23 of 23 atoms in 23 weight classes")
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
        # 8.4M supports pass the enumeration guard; 2^23 count vectors do not
        ("measure-plan-guard", lambda: measure_min_brute_force(SparseProblem(distinct, np.ones(1))), plan_guard),
        ("probe-plan-guard", lambda: conjecture_probe(distinct, trials=1), plan_guard),
    ]


@pytest.mark.parametrize("case", _sparse_refusals(), ids=lambda c: c[0])
def test_sparse_refusals_keep_their_type_and_message(case):
    _, call, (kind, message) = case
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_the_plan_guard_refuses_in_kilobytes_and_stores_nothing(monkeypatch):
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    problem = SparseProblem(_distinct_weights_frame(23), np.ones(1))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match="^more than 131072 count vectors of at most 23 of 23 atoms"):
            measure_min_brute_force(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    assert not sparse._PLANS
    # a cap bounds the count vectors too: 1 + 23 + C(23, 2) + C(23, 3)
    assert measure_min_brute_force(problem, max_card=3).status == "solved"


def test_a_plan_at_the_plan_guard_still_builds(monkeypatch):
    # the default admits 17 distinct weights (2^17 count vectors) and refuses 18
    assert sparse._count_vectors([1] * 17, 17) == sparse.PLAN_GUARD == 1 << 17
    assert sparse._count_vectors([1] * 18, 18) > sparse.PLAN_GUARD
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    monkeypatch.setattr(sparse, "PLAN_GUARD", 1 << 10)
    at_guard = SparseProblem(_distinct_weights_frame(10), np.ones(1))
    assert measure_min_brute_force(at_guard).support == (0,)
    assert sum(len(cvs) for _, _, cvs in sparse._PLANS[(at_guard.frame.space.weights.tobytes(), 10)].levels) == 1 << 10
    refused = "^more than 1024 count vectors of at most 11 of 11 atoms in 11 weight classes$"
    with pytest.raises(ResourceGuardError, match=refused):
        measure_min_brute_force(SparseProblem(_distinct_weights_frame(11), np.ones(1)))
    assert len(sparse._PLANS) == 1


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6), data=st.data())
def test_count_vectors_are_counted_as_the_plan_builds_them(sizes, data):
    cap = data.draw(st.integers(0, sum(sizes)))
    weights = np.repeat(1.0 + np.arange(len(sizes)), sizes)
    built = sum(len(cvs) for _, _, cvs in sparse._Plan(weights, cap).levels)
    assert sparse._count_vectors(sizes, cap) == built
    assert built == sum(1 for cv in itertools.product(*(range(m + 1) for m in sizes)) if sum(cv) <= cap)


def test_probe_runs_at_its_trials_guard(monkeypatch):
    monkeypatch.setattr(sparse, "_PROBE_TRIALS_GUARD", 3)
    assert conjecture_probe(mercedes_benz(), trials=3)["trials_run"] == 3


def _pool_guard_frames():
    # coherence 0 plants from all 2^n - 1 supports; the others from the
    # supports below a finite threshold, over one or several weight classes
    return [canonical_lp(6, 2.0), weighted_split(canonical_lp(5, 2.0), 2, 3), mercedes_benz(),
            weighted_split(mercedes_benz(), 1, 2), weighted_split(random_parseval(3, 7, seed=4), 0, 3)]


@pytest.mark.parametrize(
    "frame", _pool_guard_frames(), ids=["canonical", "canonical-split", "mb", "mb-split", "parseval-split"]
)
def test_the_pool_guard_counts_the_pool_it_would_build(frame, monkeypatch):
    plan = sparse._weight_plan(frame.space.weights, None)
    size = len(sparse._planted_pool(plan, uniqueness_threshold(gram_coherence(frame))))
    assert size
    monkeypatch.setattr(sparse, "_PROBE_POOL_GUARD", size)
    assert conjecture_probe(frame, trials=2)["trials_run"] == 2
    monkeypatch.setattr(sparse, "_PROBE_POOL_GUARD", size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError) as info:
            conjecture_probe(frame, trials=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{size} light supports exceed guard {size - 1}"
    assert peak < 256_000


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
    and of four more frames: one with a zero column, one with two columns
    1e-6 from parallel, and two at d = 5 whose first atom is zero or is
    exactly repeated by the second, so degenerate prefixes reach three
    levels deep."""
    base = random_parseval(3, 6, seed=8)
    zero, near = base.vectors.copy(), base.vectors.copy()
    zero[2] = 0.0
    near[4] = near[3] + 1e-6 * near[0]
    wide = random_parseval(5, 8, seed=9)
    first_zero, repeated = wide.vectors.copy(), wide.vectors.copy()
    first_zero[0] = 0.0
    repeated[1] = repeated[0]
    frames = dict(ENGINE_FRAMES)
    frames["zero-column"] = PSchauderFrame(base.space, 2.0, base.functionals, zero, "real")
    frames["near-parallel"] = PSchauderFrame(base.space, 2.0, base.functionals, near, "real")
    frames["first-atom-zero"] = PSchauderFrame(wide.space, 2.0, wide.functionals, first_zero, "real")
    frames["first-atom-repeated"] = PSchauderFrame(wide.space, 2.0, wide.functionals, repeated, "real")
    for name, frame in sorted(frames.items()):
        cols = sparse._synthesis_columns(frame)
        targets, nudged = _engine_targets(frame, np.random.default_rng(len(name)))
        for target in targets + nudged:
            for k in range(1, frame.dimension):
                yield frame, cols, target, list(itertools.combinations(range(frame.n_atoms), k))


def _screened_levels():
    """(frame, columns, target, level, the level's bounds) for every level of
    _screen_sweep, read from one tree per (frame, target) after one walk of
    its levels of 0 < k < d atoms (unit weights: one level per cardinality)."""
    tree = None
    for frame, cols, target, level in _screen_sweep():
        if tree is None or tree.target is not target:
            tree = sparse._Tree(sparse._weight_plan(np.ones(frame.n_atoms), frame.dimension - 1), cols)
            assert all(survivors for _, survivors in tree.levels(target))  # no bar: every level whole
        yield frame, cols, target, level, tree.screens[len(level[0])][1]


def test_screen_bound_matches_frozen_projection_residual():
    # A support survives a bar iff its bound is not above it, so bars just
    # above and just below the frozen residual pin the bound between them.
    for frame, cols, target, level, bound in _screened_levels():
        slack = 1e-13 * float(np.linalg.norm(target))
        legacy = oracles.legacy_screen_residuals(cols, target, level)
        assert bound.shape == legacy.shape
        for s, b, r in zip(level, bound.tolist(), legacy.tolist()):
            assert not b > r + slack, s
            assert b > np.nextafter(r - slack, -1.0), s


def test_screen_never_drops_a_fit():
    tree = None
    for frame, cols, target, level in _screen_sweep():
        if tree is None or tree.target is not target:
            # one tree per (frame, target); each walk keeps the survivors of every level
            tree = sparse._Tree(sparse._weight_plan(np.ones(frame.n_atoms), frame.dimension - 1), cols)
            kept = {}
            for eps in (None, 0.0, 1e-12):
                tol = SparseProblem(frame, target, eps).resolved_tolerance()
                bar = 2.0 * tol + 1e-9 * float(np.linalg.norm(target))  # as in sparse._walk
                kept[eps] = tol, {s for _, survivors in tree.levels(target, bar) for s in survivors}
        residuals = [sparse._restricted_fit(cols, s, SparseProblem(frame, target))[1] for s in level]
        for eps, (tol, survivors) in kept.items():
            assert all(s in survivors for s, r in zip(level, residuals) if r <= tol), (level[0], eps)


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
    plan = sparse._weight_plan(w, w.size)
    for threshold in (0.0, float(w.min()), 1.0, 1.6, 2.5, math.inf):
        assert sparse._planted_pool(plan, threshold) == oracles.legacy_light_supports(w, threshold)


@settings(max_examples=20, deadline=None)
@given(
    classes=st.lists(st.integers(0, 2), min_size=1, max_size=9),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_tree_levels_hold_each_level_in_sorted_order(classes, d, seed):
    # Each level the walk visits holds exactly the supports of its (weight,
    # cardinality), in sorted order (the order of a sorted list of tuples),
    # with and without screen state, kept or rebuilt parents, one or many
    # blocks, and again on a second walk of the same tree.
    n = len(classes)
    weights = np.array([0.3, 0.7, 1.1])[classes]
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, n))
    cols[:, 0] = 0.0  # a zero atom, and a repeated one, make degenerate rows
    if n > 2:
        cols[:, 2] = cols[:, 1]
    target = rng.standard_normal(d)
    for max_card in range(n + 1):
        plan = sparse._weight_plan(weights, max_card)
        levels = {}
        for k in range(max_card + 1):
            for s in itertools.combinations(range(n), k):
                levels.setdefault((math.fsum(weights[list(s)].tolist()), k), []).append(s)
        expected = [s for weight, k, _ in plan.levels for s in sorted(levels[weight, k])]
        # at 256 entries a block holds 256 // (d (k + 1)) supports and few levels are kept
        for entries in (sparse._SCREEN_ENTRIES, 256):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sparse, "_SCREEN_ENTRIES", entries)
                screened = sparse._Tree(plan, cols)
                for tree in (sparse._Tree(plan, cols[:0]), screened, screened):
                    blocks = list(tree.levels(target))
                    assert [s for _, block in blocks for s in block] == expected, (max_card, entries)
                    assert all(w == math.fsum(weights[list(s)].tolist()) for w, block in blocks for s in block)


@pytest.mark.parametrize("name", sorted(ENGINE_FRAMES))
def test_small_screen_blocks_give_the_same_solutions_and_probe_bytes(name, monkeypatch):
    frame = ENGINE_FRAMES[name]
    targets, nudged = _engine_targets(frame, np.random.default_rng(len(name)))

    def run():
        bits = [
            _solution_bits(solve(SparseProblem(frame, target)))
            for target in targets + nudged
            for solve in (l0_brute_force, measure_min_brute_force)
        ]
        return bits, json.dumps(conjecture_probe(frame, trials=6, seed=11), indent=2, sort_keys=True)

    default = run()
    rebuild, rebuilt = sparse._Tree._rebuilt, []
    monkeypatch.setattr(sparse._Tree, "_rebuilt", lambda tree, s, bar: rebuilt.append(len(s)) or rebuild(tree, s, bar))
    # a block of k-atom supports holds 32 // (d (k + 1)) of them, and no
    # level of more than a few supports is kept
    monkeypatch.setattr(sparse, "_SCREEN_ENTRIES", 32)
    assert run() == default
    assert rebuilt  # states were rebuilt from the rows of their prefixes


def test_a_level_larger_than_one_block_peaks_below_its_bound(monkeypatch):
    # C(28, 3) = 3276 supports of three atoms in C^4 and no fit: at 2048
    # entries a block holds 2048 // 16 = 128 of them, and the kept levels and
    # one block's state hold at most 2048 complex entries each
    problem = SparseProblem(random_parseval(4, 28, seed=12, field="complex"), np.array([1.0, 2.0, -1.0, 0.5j]))

    def peak():
        tracemalloc.start()
        try:
            assert l0_brute_force(problem, max_card=3).status == "infeasible"
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    entries = 2048
    bound = 8 * entries * 16 + 100_000  # blocks and their temporaries, plus the frame-sized arrays
    whole_levels = peak()
    monkeypatch.setattr(sparse, "_SCREEN_ENTRIES", entries)
    assert peak() < bound < whole_levels


# ------------------------------------------------------------ the plan memo


def _memo_frame(weights, d, seed):
    """Gaussian real atoms in R^d with these weights; the first atom is zero
    and the third repeats the second, so some rows are degenerate."""
    vectors = np.random.default_rng(seed).standard_normal((weights.size, d))
    vectors[0] = 0.0
    if weights.size > 2:
        vectors[2] = vectors[1]
    return PSchauderFrame(MeasureSpace(weights), 2.0, vectors, vectors, "real")


def _memo_targets(frame, seed):
    """A dense target and one planted on the last one or two atoms."""
    rng = np.random.default_rng(seed)
    values = np.zeros(frame.n_atoms)
    values[-min(2, frame.n_atoms):] = rng.uniform(0.5, 2.0, min(2, frame.n_atoms))
    return [rng.standard_normal(frame.dimension), synthesis(frame, CoefficientFunction(frame.space, values))]


def _memo_solves(frame, targets, caps=None):
    """Both solvers' bits on every target at every cap, then one probe's bytes."""
    bits = [
        _solution_bits(solve(SparseProblem(frame, target), max_card=cap))
        for target in targets
        for cap in (range(frame.n_atoms + 1) if caps is None else caps)
        for solve in (l0_brute_force, measure_min_brute_force)
    ]
    return bits, json.dumps(conjecture_probe(frame, trials=3, seed=5), indent=2, sort_keys=True)


@settings(max_examples=15, deadline=None)
@given(
    classes=st.lists(st.integers(0, 2), min_size=2, max_size=9),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_a_warm_memo_gives_the_cold_solutions_and_probe_bytes(classes, d, seed):
    # Warm: the memo holds other plans and these weights' plans with the
    # layers of a frame of one more dimension, and trees built under 32
    # entries have walked every cap's plans.  Cold: the memo starts empty.
    weights = np.array([0.3, 0.7, 1.1])[classes]
    frame = _memo_frame(weights, d, seed)
    targets = _memo_targets(frame, seed)
    entries, caps = sparse._SCREEN_ENTRIES, range(frame.n_atoms + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "_PLANS", OrderedDict())
        cold = _memo_solves(frame, targets)
        patch.setattr(sparse, "_PLANS", OrderedDict())
        others = [ENGINE_FRAMES["class-weights"], ENGINE_FRAMES["split-complex"], _memo_frame(weights, d + 1, seed)]
        for other in others:
            _memo_solves(other, _memo_targets(other, seed), caps=(None, 2))
        plans = [(sparse._weight_plan(np.ones(frame.n_atoms), cap), sparse._weight_plan(weights, cap)) for cap in caps]
        patch.setattr(sparse, "_SCREEN_ENTRIES", 32)
        trees = [[sparse._Tree(plan, sparse._synthesis_columns(frame)) for plan in pair] for pair in plans]
        patch.setattr(sparse, "_SCREEN_ENTRIES", entries)
        small = [
            _solution_bits(sparse._walk(SparseProblem(frame, target), tree))
            for target in targets
            for pair in trees
            for tree in pair
        ]
        warm = _memo_solves(frame, targets)
        assert any(len(plan.layers) > 1 for plan in sparse._PLANS.values())
    assert small == cold[0]
    assert warm == cold


def test_refusals_keep_their_messages_with_a_warm_memo_and_store_no_plan(monkeypatch):
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    mb = mercedes_benz()
    problem = SparseProblem(mb, np.array([1.0, 0.0]))
    for cap in (None, 0, 1, 2):
        l0_brute_force(problem, max_card=cap)
        measure_min_brute_force(problem, max_card=cap)
    conjecture_probe(mb, trials=2)
    held = list(sparse._PLANS.items())
    big = SparseProblem(harmonic_discretization(1, 5000), np.ones(1))
    guard = (ResourceGuardError, "more than 10000000 candidate supports of at most 5000 of 5000 atoms")

    def probe(problem):
        return conjecture_probe(problem.frame, trials=1)

    refusals = [case[1:] for case in _sparse_refusals()]
    refusals += [(lambda solve=solve: solve(big), guard) for solve in (l0_brute_force, measure_min_brute_force, probe)]
    for call, (kind, message) in refusals:
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind
        assert str(info.value) == message
        assert list(sparse._PLANS.items()) == held  # nothing stored, nothing reordered
    # the guard is arithmetic on every call, so a memoised plan is refused too
    monkeypatch.setattr(sparse, "ENUMERATION_GUARD", 7)
    with pytest.raises(ResourceGuardError, match="^more than 7 candidate supports of at most 3 of 3 atoms$"):
        l0_brute_force(problem)
    assert list(sparse._PLANS.items()) == held
    assert l0_brute_force(problem, max_card=2).status == "solved"  # 7 supports


def test_the_memo_stays_within_its_entries_after_more_plans_than_fit(monkeypatch):
    # 60 one-class plans of distinct weights, each about 1,500 entries with
    # its layers, against a memo of 2^14 entries: the least recently used
    # go, and what stays costs about 8 bytes an entry (6-9 measured)
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    monkeypatch.setattr(sparse, "_SCREEN_ENTRIES", 1 << 14)
    base = random_parseval(3, 7, seed=1)
    problems = [SparseProblem(_with_weights(base, np.full(7, 1.0 + i)), np.array([1.0, -2.0, 0.5])) for i in range(60)]
    keys = [(problem.frame.space.weights.tobytes(), 7) for problem in problems]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for problem in problems:
            assert measure_min_brute_force(problem).status == "solved"
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    plans = sparse._PLANS
    assert all(len(plan.layers) > 1 for plan in plans.values())
    assert 1 < len(plans) < len(problems)
    assert list(plans) == keys[-len(plans) :]  # least recently used out first
    assert sum(plan.entries for plan in plans.values()) <= sparse._SCREEN_ENTRIES
    assert held < 2 * 8 * sparse._SCREEN_ENTRIES


def test_a_plan_larger_than_the_memo_is_used_but_not_stored(monkeypatch):
    # 15 distinct weights: 2^15 count vectors of 51 entries pass the memo's
    # 2^20 entries on their own; admitting that plan once evicted every
    # plan, itself included, so each repeat rebuilt it
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    assert l0_brute_force(SparseProblem(mercedes_benz(), np.array([1.0, 0.0]))).status == "solved"
    (kept,) = sparse._PLANS.values()
    distinct = SparseProblem(_distinct_weights_frame(15), np.ones(1))
    first = _solution_bits(measure_min_brute_force(distinct))
    assert list(sparse._PLANS.values()) == [kept]
    assert _solution_bits(measure_min_brute_force(distinct)) == first
    assert list(sparse._PLANS.values()) == [kept]
    assert sparse._weight_plan(distinct.frame.space.weights, None).entries > sparse._SCREEN_ENTRIES
    assert list(sparse._PLANS.values()) == [kept]


def test_four_threads_on_one_shared_plan_give_the_serial_results(monkeypatch):
    # Every frame has unit weights, so both solvers and the probe share one
    # plan.  The threads start together on a cold memo and each runs every
    # job, from its own place in the list; then four threads build every
    # layer of one fresh n = 16 plan at once, where a layer built or counted
    # twice would show (without the lock it did, on each of 20 tries).
    frames = [random_parseval(4, 10, seed=seed) for seed in range(5)]
    jobs = [
        (lambda problem, solve=solve: _solution_bits(solve(problem)), SparseProblem(frame, target))
        for frame in frames
        for target in _memo_targets(frame, 3)
        for solve in (l0_brute_force, measure_min_brute_force)
    ]
    jobs += [(lambda frame: json.dumps(conjecture_probe(frame, trials=4, seed=2)), frame) for frame in frames[:2]]
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    serial = [job(arg) for job, arg in jobs]
    (plan,) = sparse._PLANS.values()
    built = set(plan.layers), plan.entries
    alone, fresh = sparse._Plan(np.ones(16), 16), sparse._Plan(np.ones(16), 16)
    for k in range(1, 17):
        alone.layer(k)
    monkeypatch.setattr(sparse, "_PLANS", OrderedDict())
    start = threading.Barrier(4, timeout=60)

    def run(offset):
        start.wait()
        return [job(arg) for job, arg in jobs[offset:] + jobs[:offset]]

    def build(_):
        start.wait()
        return [fresh.layer(k) for k in range(1, 17)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside layer builds too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, (0, 3, 6, 9), timeout=300))
            layers = list(pool.map(build, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial[i:] + serial[:i] for i in (0, 3, 6, 9)]
    (plan,) = sparse._PLANS.values()
    assert (set(plan.layers), plan.entries) == built and len(plan.layers) > 1
    assert all(each == layers[0] for each in layers)  # the same layer objects
    assert fresh.entries == alone.entries
    assert all((fresh.layers[k].supports == alone.layers[k].supports).all() for k in range(17))


@pytest.mark.parametrize("name", ["harmonic-split", "split-complex", "class-weights", "distinct-weights"])
@pytest.mark.parametrize("eps", [None, 1e-12])
def test_probe_report_bytes_match_frozen_path(name, eps, monkeypatch):
    frame = ENGINE_FRAMES[name]

    def report():
        return json.dumps(conjecture_probe(frame, trials=12, seed=31, eps_residual=eps), indent=2, sort_keys=True)

    calls = {"trials": 0, "pools": 0}

    def frozen_trial(problem, tree):
        calls["trials"] += 1
        return oracles.legacy_measure_min(problem)

    def frozen_pool(plan, threshold):
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


def test_documented_constants_and_default_tolerance_keep_their_values():
    # literal values, not the library's own names, so a changed default
    # fails here even where an oracle reads the same constant
    from framelab import frames

    assert frames.SUPPORT_EPS == frames.CUE_TOLERANCE == frames.VALIDATION_TOL == 1e-9
    assert frames.VALIDATION_GUARD == sparse.ENUMERATION_GUARD == 10**7
    assert frames.EXTREMAL_BUDGET_GUARD == 10**6
    assert sparse.PLAN_GUARD == sparse._PROBE_POOL_GUARD == 2**17
    assert sparse._PROBE_TRIALS_GUARD == 10**4
    tolerance = SparseProblem(mercedes_benz(), [3.0, 4.0]).resolved_tolerance()
    assert tolerance == 1e-8 * 5.0
    policy = conjecture_probe(mercedes_benz(), trials=1)["eps_residual_policy"]
    assert policy == "1e-8 * l2(target) when eps_residual is null"
    assert float(policy.split(" * ")[0]) * 5.0 == tolerance
