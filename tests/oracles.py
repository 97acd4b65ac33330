"""Independent brute-force oracles used to cross-check the solvers.

These deliberately avoid the production enumeration/selection logic: every
one of the 2^n supports is scored with a pseudoinverse fit and the optima
are taken over the complete table.
"""

import itertools
import math

import numpy as np


def synthesis_matrix(frame) -> np.ndarray:
    """Column i sends coefficient c_i to w_i * c_i * vector_i."""
    return (frame.space.weights[:, None] * frame.vectors).T


def fit_residual(cols: np.ndarray, support, target: np.ndarray) -> float:
    sub = cols[:, list(support)]
    if sub.shape[1] == 0:
        return float(np.linalg.norm(target))
    coeff = np.linalg.pinv(sub) @ target
    return float(np.linalg.norm(sub @ coeff - target))


def all_supports(n: int):
    for k in range(n + 1):
        yield from itertools.combinations(range(n), k)


def exhaustive_l0(frame, target, tol):
    """(min cardinality or None, set of feasible supports at that cardinality)."""
    cols = synthesis_matrix(frame)
    feasible = [s for s in all_supports(frame.n_atoms) if fit_residual(cols, s, target) <= tol]
    if not feasible:
        return None, set()
    best = min(len(s) for s in feasible)
    return best, {s for s in feasible if len(s) == best}


def exhaustive_measure_min(frame, target, tol):
    """(min support weight or None, set of feasible supports at that weight)."""
    cols = synthesis_matrix(frame)
    w = frame.space.weights
    feasible = [s for s in all_supports(frame.n_atoms) if fit_residual(cols, s, target) <= tol]
    if not feasible:
        return None, set()
    weights = {s: math.fsum(w[list(s)]) for s in feasible}
    best = min(weights.values())
    return best, {s for s, wt in weights.items() if wt == best}


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the per-support solver loops as they were before the
# sparse engine (one shared walker over weight-class levels with batched QR
# screening) replaced them.  Every candidate support gets its own lstsq fit,
# and the weight solver sorts all 2^n supports by (fsum weight, cardinality,
# lexicographic order).  The differential tests in test_sparse.py require the
# engine to reproduce these bit for bit.  Do not speed them up or share code
# with the engine; only the solution assembly is taken from framelab.


def legacy_fit(cols: np.ndarray, support, target: np.ndarray):
    a = cols[:, list(support)]
    if a.shape[1] == 0:
        return np.zeros(0, dtype=cols.dtype), float(np.linalg.norm(target))
    coeff, *_ = np.linalg.lstsq(a, target, rcond=None)
    residual = float(np.linalg.norm(a @ coeff - target))
    return coeff, residual


def legacy_l0(problem, max_card=None):
    from framelab import sparse

    frame = problem.frame
    n = frame.n_atoms
    cap = n if max_card is None else int(max_card)
    tol = problem.resolved_tolerance()
    cols = synthesis_matrix(frame)
    for card in range(cap + 1):
        first = None
        unique = True
        for support in itertools.combinations(range(n), card):
            coeff, residual = legacy_fit(cols, support, problem.target)
            if residual <= tol:
                if first is None:
                    first = (support, coeff, residual)
                else:
                    unique = False
                    break
        if first is not None:
            support, coeff, residual = first
            return sparse._padded_solution(frame, support, coeff, residual, unique)
    return sparse._infeasible()


def legacy_measure_min(problem):
    from framelab import sparse

    frame = problem.frame
    n = frame.n_atoms
    tol = problem.resolved_tolerance()
    cols = synthesis_matrix(frame)
    w = frame.space.weights
    supports = [(math.fsum(w[list(s)]), len(s), s) for s in all_supports(n)]
    supports.sort()
    first = None
    unique = True
    for weight, _, support in supports:
        if first is not None and weight != first[3]:
            break
        coeff, residual = legacy_fit(cols, support, problem.target)
        if residual <= tol:
            if first is None:
                first = (support, coeff, residual, weight)
            else:
                unique = False
                break
    if first is not None:
        support, coeff, residual, _ = first
        return sparse._padded_solution(frame, support, coeff, residual, unique)
    return sparse._infeasible()


def legacy_light_supports(weights, threshold):
    """The probe's planted-support pool: nonempty supports of weight below
    the threshold, by cardinality then lexicographic order."""
    n = weights.size
    return [
        s
        for k in range(1, n + 1)
        for s in itertools.combinations(range(n), k)
        if math.fsum(weights[list(s)]) < threshold
    ]


def legacy_encode_values(values, field):
    if field == "complex":
        return [[float(z.real), float(z.imag)] for z in values]
    return [float(np.real(z)) for z in values]
