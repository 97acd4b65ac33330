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
