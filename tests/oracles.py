"""Independent brute-force oracles used to cross-check the solvers.

These deliberately avoid the production enumeration/selection logic: every
one of the 2^n supports is scored with a pseudoinverse fit and the optima
are taken over the complete table.
"""

import itertools
import json
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


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the support screen as it was before it took one R factor
# of [columns | target] per support: one stacked reduced QR of the support's
# columns, the target projected onto span(Q) and the norm of what is left.
# test_sparse.py requires the screen's bound to match it.  Do not share code
# with the screen.


def legacy_screen_residuals(cols: np.ndarray, target: np.ndarray, supports) -> np.ndarray:
    q, _ = np.linalg.qr(cols.T[np.array(supports)].transpose(0, 2, 1))
    coeff = q.conj().transpose(0, 2, 1) @ target
    return np.linalg.norm(target - (q @ coeff[..., None])[..., 0], axis=1)


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the frame-file writer as it was before ``frame_json``
# wrote the canonical text directly and before one array conversion made
# every JSON cell: a per-atom, per-scalar encoder fed to ``json.dumps``.
# The layout contract of frame files is defined as these bytes;
# test_frame_io.py requires the writer, the digest and ``frame_to_obj`` to
# reproduce them.  Do not share code with framelab.frame_io.


def _encode_scalar(value, field):
    if field == "complex":
        z = complex(value)
        return [float(z.real), float(z.imag)]
    return float(np.real(value))


def legacy_frame_to_obj(frame):
    atoms = []
    for i in range(frame.n_atoms):
        atoms.append(
            {
                "weight": float(frame.space.weights[i]),
                "functional": [_encode_scalar(v, frame.field) for v in frame.functionals[i]],
                "vector": [_encode_scalar(v, frame.field) for v in frame.vectors[i]],
            }
        )
    return {
        "field": frame.field,
        "p": float(frame.p),
        "dimension": frame.dimension,
        "atoms": atoms,
    }


def legacy_frame_json(frame):
    return json.dumps(legacy_frame_to_obj(frame), indent=2)


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the per-vector uncertainty checker and extremal search as
# they were before the batched kernel (``uncertainty_batch``: one
# cross-coherence per frame pair, stacked analyses, one fsum per distinct
# support mask, chunked candidate synthesis) replaced them.  Each vector
# recomputes both cross-coherence products, builds its own coefficient
# functions and sums its support on its own.  The differential tests in
# test_frames.py require the kernel to reproduce these bit for bit.  Do not
# speed them up or share code with the kernel; only the report types and the
# public analysis/synthesis/cross_coherence are taken from framelab.


def legacy_support_measure(coeffs, eps):
    from framelab import FrameError

    if eps < 0:
        raise FrameError("eps must be nonnegative")
    mags = np.abs(coeffs.values)
    peak = mags.max() if mags.size else 0.0
    if peak == 0.0:
        return 0.0
    return math.fsum(coeffs.space.weights[mags > eps * peak])


def legacy_uncertainty_check(frame_f, frame_g, x, eps):
    from framelab import CUE_TOLERANCE, FrameError, UncertaintyReport, analysis, cross_coherence

    # valid inputs only: the shape, field and finiteness checks are left out
    if frame_f.p != frame_g.p:
        raise FrameError("frames must share the exponent p")
    xv = np.asarray(x).astype(np.complex128 if frame_f.field == "complex" else np.float64, copy=False)
    if not np.any(xv != 0):
        raise FrameError("theorem excludes x = 0")
    coh_fg, coh_gf = cross_coherence(frame_f, frame_g)
    supp_f = legacy_support_measure(analysis(frame_f, xv), eps)
    supp_g = legacy_support_measure(analysis(frame_g, xv), eps)
    p = frame_f.p
    q = frame_f.q
    lhs1 = supp_f ** (1.0 / p) * supp_g ** (1.0 / q)
    lhs2 = supp_g ** (1.0 / p) * supp_f ** (1.0 / q)
    bound1 = 1.0 / coh_fg
    bound2 = 1.0 / coh_gf
    return UncertaintyReport(
        supp_f=supp_f,
        supp_g=supp_g,
        lhs1=float(lhs1),
        lhs2=float(lhs2),
        coh_fg=coh_fg,
        coh_gf=coh_gf,
        bound1=bound1,
        bound2=bound2,
        holds1=bool(lhs1 >= bound1 - CUE_TOLERANCE),
        holds2=bool(lhs2 >= bound2 - CUE_TOLERANCE),
    )


def legacy_extremal_search(frame_f, frame_g, budget, seed, eps, max_card=None):
    from framelab import COMPLEX, CoefficientFunction, ExtremalReport, FrameError, synthesis

    n = frame_g.n_atoms
    cap = n if max_card is None else min(int(max_card), n)
    rng = np.random.default_rng(seed)
    best = None
    best_x = None
    evaluated = 0

    def consider(x):
        nonlocal best, best_x, evaluated
        if not np.any(x != 0):
            return
        rep = legacy_uncertainty_check(frame_f, frame_g, x, eps)
        evaluated += 1
        if best is None or rep.lhs1 < best.lhs1:
            best, best_x = rep, x

    for card in range(1, cap + 1):
        for supp in itertools.combinations(range(n), card):
            if evaluated >= budget:
                break
            values = np.zeros(n, dtype=frame_g.vectors.dtype)
            values[list(supp)] = 1.0
            consider(synthesis(frame_g, CoefficientFunction(frame_g.space, values)))
        if evaluated >= budget:
            break

    attempts = 0
    while evaluated < budget and attempts < 10 * budget:
        attempts += 1
        card = int(rng.integers(1, cap + 1))
        supp = np.sort(rng.choice(n, size=card, replace=False))
        values = np.zeros(n, dtype=frame_g.vectors.dtype)
        if frame_g.field == COMPLEX:
            values[supp] = (rng.standard_normal(card) + 1j * rng.standard_normal(card)) / np.sqrt(2.0)
        else:
            values[supp] = rng.standard_normal(card)
        consider(synthesis(frame_g, CoefficientFunction(frame_g.space, values)))

    if best is None:
        raise FrameError("no nonzero candidate vector could be synthesized")
    return ExtremalReport(
        min_lhs1=best.lhs1,
        minimizer=best_x,
        report=best,
        bound1=best.bound1,
        candidates_evaluated=evaluated,
    )


def legacy_validate_frame(frame, trials, tol, rng_seed):
    """``validate_frame`` as it was before its row blocks: three whole
    (trials, n) tables, the weights applied out of place."""
    from framelab import FrameError, ValidationReport

    # valid inputs only: the tolerance, trials and guard checks are left out
    rng = np.random.default_rng(rng_seed)
    shape = (trials, frame.dimension)
    if frame.field == "complex":
        re = rng.standard_normal(shape)
        xs = (re + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    else:
        xs = rng.standard_normal(shape)
    p = frame.p
    w = frame.space.weights
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = xs @ frame.functionals.T
        norms_p = np.sum(np.abs(xs) ** p, axis=1)
        iso = np.abs(np.sum(w * np.abs(coeffs) ** p, axis=1) - norms_p) / norms_p
        rebuilt = (w * coeffs) @ frame.vectors
        rec_err = np.sum(np.abs(rebuilt - xs) ** p, axis=1) ** (1.0 / p)
        rec = rec_err / norms_p ** (1.0 / p)
    max_iso = float(iso.max())
    max_rec = float(rec.max())
    if not (math.isfinite(max_iso) and math.isfinite(max_rec)):
        raise FrameError("frame axiom residuals are not finite doubles: the tables overflow")
    return ValidationReport(trials, tol, rng_seed, max_iso, max_rec, bool(max_iso <= tol and max_rec <= tol))


def legacy_gram_coherence(frame, normalized=False):
    """``sparse.gram_coherence`` with its two Gram products: one for the
    magnitudes and one more for the norms on its diagonal."""
    from framelab import FrameError

    # valid inputs only: the atom-count and exponent checks are left out
    v = frame.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.abs(v @ v.conj().T)
        if normalized:
            norms = np.sqrt(np.real(np.diag(v @ v.conj().T)))
            if not np.isfinite(norms).all():
                raise FrameError("an atom norm is not a finite double: normalized coherence is undefined")
            keep = norms > 0
            if keep.sum() < 2:
                return 0.0
            gram = gram[np.ix_(keep, keep)] / np.outer(norms[keep], norms[keep])
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def legacy_cue_sweep_rows(zoo, vectors, seed):
    """CSV rows of scripts/cue_sweep.py as the per-vector loop printed them."""
    groups = {}
    for name, frame in zoo:
        groups.setdefault((frame.dimension, frame.p, frame.field), []).append((name, frame))
    rows = []
    pair_index = 0
    for (d, p, field), members in sorted(groups.items()):
        for name_f, ff in members:
            for name_g, fg in members:
                rng = np.random.default_rng(seed + pair_index)
                pair_index += 1
                violations = 0
                min_slack1 = np.inf
                min_slack2 = np.inf
                for _ in range(vectors):
                    k = int(rng.integers(1, d + 1))
                    support = rng.choice(d, size=k, replace=False)
                    x = np.zeros(d, dtype=complex if field == "complex" else float)
                    if field == "complex":
                        x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                    else:
                        x[support] = rng.standard_normal(k)
                    rep = legacy_uncertainty_check(ff, fg, x, 0.0)
                    min_slack1 = min(min_slack1, rep.lhs1 - rep.bound1)
                    min_slack2 = min(min_slack2, rep.lhs2 - rep.bound2)
                    if not (rep.holds1 and rep.holds2):
                        violations += 1
                rows.append(
                    f"1,{name_f},{name_g},{d},{p!r},{field},{vectors},"
                    f"{violations},{min_slack1!r},{min_slack2!r}"
                )
    return rows


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the CLI report rows as they were when ``cli`` copied each
# field of ``UncertaintyReport``, ``ValidationReport`` and ``SparseSolution``
# by hand.  The rows are
# now derived from the records; test_cli.py requires the same bytes.

LEGACY_CHECK_CSV_COLUMNS = (
    "schema_version",
    "supp_f",
    "supp_g",
    "lhs1",
    "lhs2",
    "coh_fg",
    "coh_gf",
    "bound1",
    "bound2",
    "holds1",
    "holds2",
)


def legacy_check_row(report):
    return {
        "schema_version": 1,
        "supp_f": report.supp_f,
        "supp_g": report.supp_g,
        "lhs1": report.lhs1,
        "lhs2": report.lhs2,
        "coh_fg": report.coh_fg,
        "coh_gf": report.coh_gf,
        "bound1": report.bound1,
        "bound2": report.bound2,
        "holds1": report.holds1,
        "holds2": report.holds2,
    }


def legacy_check_stdout(report, fmt):
    row = legacy_check_row(report)
    if fmt == "json":
        return json.dumps(row, indent=2) + "\n"

    def cell(v):
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    return ",".join(LEGACY_CHECK_CSV_COLUMNS) + "\n" + ",".join(cell(row[c]) for c in LEGACY_CHECK_CSV_COLUMNS) + "\n"


def legacy_validate_stdout(report):
    row = {
        "schema_version": 1,
        "trials": report.trials,
        "tol": report.tol,
        "max_isometry_residual": report.max_isometry_residual,
        "max_reconstruction_residual": report.max_reconstruction_residual,
        "passes": report.passes,
    }
    return json.dumps(row, indent=2) + "\n"


def legacy_sparse_stdout(frame, solution, mode):
    out = {
        "schema_version": 1,
        "mode": mode,
        "status": solution.status,
        "support": list(solution.support),
        "support_cardinality": solution.support_cardinality,
        "support_weight": solution.support_weight,
        "residual": solution.residual if np.isfinite(solution.residual) else "inf",
        "unique": solution.unique,
        "coefficients": None,
    }
    if solution.coefficients is not None:
        out["coefficients"] = legacy_encode_values(solution.coefficients.values, frame.field)
    return json.dumps(out, indent=2) + "\n"


# ---------------------------------------------------------------------------
# FROZEN REFERENCE: the measure-minimization probe as it was when it kept
# running tallies beside its trial records and wrote its report in two
# stages.  Every trial is solved by the frozen weight solver above, the
# planted pool is the frozen light-support list, the coherences are the raw
# Gram maximum and the distinct-vector double loop, and the frame is encoded
# by the frozen per-scalar writer.  test_sparse.py requires the probe to
# reproduce these reports byte for byte.  Valid inputs only: the probe's own
# argument checks are left out.  Do not share code with framelab.sparse;
# only the problem type and the public synthesis are taken from framelab.


def legacy_conjecture_probe(frame, trials, seed=0, eps_residual=None):
    import hashlib

    from framelab import CoefficientFunction, SparseProblem, synthesis

    def number(value):
        return value if math.isfinite(value) else "unbounded"

    def threshold(coh):
        return math.inf if coh == 0.0 else 0.5 * (1.0 + 1.0 / coh)

    rng = np.random.default_rng(seed)
    n, w, v = frame.n_atoms, frame.space.weights, frame.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.abs(v @ v.conj().T)
    np.fill_diagonal(gram, 0.0)
    coh_all = float(gram.max())
    coh_distinct = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            if np.array_equal(v[j], v[k]):
                continue
            coh_distinct = max(coh_distinct, float(np.abs(np.vdot(v[k], v[j]))))
    thr_all, thr_distinct = threshold(coh_all), threshold(coh_distinct)
    feasible = legacy_light_supports(w, thr_all)
    report = {
        "schema_version": 1,
        "kind": "measure-minimization-probe",
        "seed": int(seed),
        "trials_requested": int(trials),
        "eps_residual": eps_residual,
        "eps_residual_policy": "1e-8 * l2(target) when eps_residual is null",
        "coherence_all_pairs": coh_all,
        "coherence_distinct_vectors": coh_distinct,
        "threshold_all_pairs": number(thr_all),
        "threshold_distinct_vectors": number(thr_distinct),
        "frame_sha256": hashlib.sha256(legacy_frame_json(frame).encode()).hexdigest(),
    }
    records = []
    counterexamples = []
    confirmations = 0
    frame_obj = legacy_frame_to_obj(frame)
    for t in range(trials if feasible else 0):
        support = feasible[int(rng.integers(len(feasible)))]
        k = len(support)
        if frame.field == "complex":
            coeff = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
        else:
            coeff = rng.standard_normal(k)
        values = np.zeros(n, dtype=np.complex128 if frame.field == "complex" else np.float64)
        values[list(support)] = coeff
        target = synthesis(frame, CoefficientFunction(frame.space, values))
        solution = legacy_measure_min(SparseProblem(frame, target, eps_residual))
        confirmed = bool(solution.status == "solved" and solution.support == support and solution.unique)
        weight = math.fsum(w[list(support)])
        record = {
            "trial": t,
            "planted_support": list(support),
            "planted_coefficients": legacy_encode_values(values, frame.field),
            "planted_weight": weight,
            "hypothesis_distinct_vectors": bool(weight < thr_distinct),
            "recovered_support": list(solution.support),
            "recovered_weight": solution.support_weight,
            "unique": solution.unique,
            "residual": number(solution.residual),
            "confirmed": confirmed,
        }
        records.append(record)
        if confirmed:
            confirmations += 1
        else:
            counterexamples.append({**record, "seed": int(seed), "frame": frame_obj})
    report.update(
        {
            "hypothesis_satisfiable": bool(feasible),
            "trials_run": len(records),
            "trials_skipped": int(trials) - len(records),
            "confirmations": confirmations,
            "counterexamples": counterexamples,
            "trial_records": records,
        }
    )
    if not feasible:
        report["note"] = "hypothesis unsatisfiable: no nonempty support has weight below the threshold"
    return report


# Frozen copies of the zoo's two seeded Gaussian draws, each with its own
# ``if field == complex`` branch (real parts drawn first, unnormalized).  The
# frame is built through framelab's public PSchauderFrame; the argument
# checks are left out.


def legacy_random_parseval(d, n, seed=0, field="real"):
    """``zoo.random_parseval`` on valid input: Gram-Schmidt on the columns
    of a seeded (n, d) Gaussian matrix."""
    from framelab import PSchauderFrame, counting_measure

    rng = np.random.default_rng(seed)
    if field == "complex":
        raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    else:
        raw = rng.standard_normal((n, d))
    q = np.zeros_like(raw)
    for col in range(d):
        v = raw[:, col].copy()
        for prev in range(col):
            v -= (np.conj(q[:, prev]) @ v) * q[:, prev]
        q[:, col] = v / np.linalg.norm(v)
    return PSchauderFrame(counting_measure(n), 2.0, np.conj(q), q, field)


def legacy_alternate_dual(frame, seed=0, scale=1.0):
    """``zoo.alternate_dual`` on a valid redundant Parseval pair: the vectors
    plus a seeded mix of the kernel of weighted synthesis."""
    from framelab import PSchauderFrame

    n, d = frame.n_atoms, frame.dimension
    _, _, vh = np.linalg.svd(frame.functionals.T * frame.space.weights)
    null_basis = vh[d:].conj().T
    rng = np.random.default_rng(seed)
    if frame.field == "complex":
        mix = rng.standard_normal((n - d, d)) + 1j * rng.standard_normal((n - d, d))
    else:
        mix = rng.standard_normal((n - d, d))
    perturbation = scale * (null_basis @ mix)
    return PSchauderFrame(frame.space, frame.p, frame.functionals, frame.vectors + perturbation, frame.field)
