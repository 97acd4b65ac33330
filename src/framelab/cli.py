"""Command-line front end: generate frames, validate them, compute
coherences, run the uncertainty checker, search for extremal vectors, solve
sparse problems, and probe the measure-minimization conjecture.

Machine-readable output (JSON, or CSV where offered) goes to stdout; prose
goes to stderr.  Exit codes: 0 success, 1 usage error, 2 domain violation,
3 infeasible problem, 4 resource guard exceeded.  The environment variable
``FRAMELAB_SEED`` supplies a default seed; explicit flags take precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import frame_io, sparse, zoo
from .frames import (
    COMPLEX,
    REAL,
    SUPPORT_EPS,
    VALIDATION_TOL,
    FrameError,
    ResourceGuardError,
    cross_coherence,
    extremal_search,
    uncertainty_check,
    validate_frame,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4

SCHEMA_VERSION = 1
# ``sparse`` reports an infinite residual as "unbounded" (``json_number``),
# where schema 1 wrote "inf"
SPARSE_SCHEMA_VERSION = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this project
    # reserves 2 for domain violations.  Every failure is one stderr line,
    # so the usage synopsis is left to --help.
    def error(self, message):
        print(f"{self.prog}: error: {message} (see {self.prog} --help)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed(value):
    if value is not None:
        return int(value)
    env = os.environ.get("FRAMELAB_SEED")
    return _parse_int(env) if env else 0


def _parse_scalar(token: str):
    token = token.strip()
    try:
        if ":" in token:
            re_part, im_part = token.split(":", 1)
            return complex(float(re_part), float(im_part))
        return float(token)
    except ValueError:
        raise FrameError(f"not a number: {token!r}") from None


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FrameError(f"not an integer: {token!r}") from None


def _parse_inline_vector(text: str) -> np.ndarray:
    values = [_parse_scalar(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise FrameError("empty vector")
    if any(isinstance(v, complex) for v in values):
        return np.array([complex(v) for v in values], dtype=np.complex128)
    return np.array(values, dtype=np.float64)


def _load_vector(inline: str | None, path: str | None, field: str) -> np.ndarray:
    if (inline is None) == (path is None):
        raise FrameError("provide the vector inline or as a file, not both")
    if inline is not None:
        return _parse_inline_vector(inline)
    return frame_io.vector_from_obj(frame_io.read_json(path, "vector"), field)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


# ----------------------------------------------------------------- gen ---


KIND_ALIASES = {"harmonic": "harmonic_discretization", "dft": "dft_pair"}


def _spec_from_args(args) -> zoo.FrameSpec:
    perm = tuple(_parse_int(t) for t in args.perm.split(",")) if args.perm is not None else None
    signs = tuple(_parse_scalar(t) for t in args.signs.split(",")) if args.signs is not None else None
    kind = args.kind.replace("-", "_")
    return zoo.FrameSpec(
        kind=KIND_ALIASES.get(kind, kind),
        d=args.d,
        N=args.N,
        n=args.n,
        p=args.p,
        seed=_default_seed(args.seed),
        field=args.field,
        permutation=perm,
        signs=signs,
        split_index=args.split_index,
        split_count=args.split_count,
        normalize=args.normalize,
        scale=args.scale,
    )


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    derived = "base" in zoo._KINDS[spec.kind][0]
    base_frame = frame_io.load_frame(args.base) if args.base and derived else None
    frames = zoo.build_frames(spec, base_frame)
    out = Path(args.out)
    if len(frames) == 1:
        frame_io.save_frame(frames[0], out)
        written = [str(out)]
    else:
        stem = out.with_suffix("") if out.suffix == ".json" else out
        paths = [Path(f"{stem}_{suffix}.json") for suffix in zoo.PAIR_SUFFIXES]
        for frame, path in zip(frames, paths):
            frame_io.save_frame(frame, path)
        written = [str(p) for p in paths]
    _emit({"schema_version": SCHEMA_VERSION, "written": written})
    return EXIT_OK


# ------------------------------------------------------------ validate ---


def cmd_validate(args) -> int:
    frame = frame_io.load_frame(args.frame)
    report = validate_frame(frame, trials=args.trials, tol=args.tol, rng_seed=_default_seed(args.seed))
    out = {"schema_version": SCHEMA_VERSION, **vars(report)}
    del out["rng_seed"]  # not in the row: it is --seed or FRAMELAB_SEED
    _emit(out)
    if not report.passes:
        print("frame axioms violated beyond tolerance", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


# ----------------------------------------------------------- coherence ---


def cmd_coherence(args) -> int:
    frame = frame_io.load_frame(args.frame)
    if args.frame_g is None:
        coh = sparse.gram_coherence(frame)
        out = {
            "schema_version": SCHEMA_VERSION,
            "gram_coherence": coh,
            "uniqueness_threshold": frame_io.json_number(sparse.uniqueness_threshold(coh)),
        }
        if args.normalized:
            coh_n = sparse.gram_coherence(frame, normalized=True)
            out["gram_coherence_normalized"] = coh_n
            out["uniqueness_threshold_normalized"] = frame_io.json_number(sparse.uniqueness_threshold(coh_n))
        _emit(out)
        return EXIT_OK
    other = frame_io.load_frame(args.frame_g)
    coh_fg, coh_gf = cross_coherence(frame, other)
    _emit({"schema_version": SCHEMA_VERSION, "coh_fg": coh_fg, "coh_gf": coh_gf})
    return EXIT_OK


# --------------------------------------------------------------- check ---


def cmd_check(args) -> int:
    frame_f = frame_io.load_frame(args.frame_f)
    frame_g = frame_io.load_frame(args.frame_g)
    x = _load_vector(args.x, args.x_file, frame_f.field)
    report = uncertainty_check(frame_f, frame_g, x, eps=args.eps)
    row = {"schema_version": SCHEMA_VERSION, **vars(report)}
    if args.format == "csv":
        # repr, not json.dumps, for floats: a non-finite bound reads "inf"
        print(",".join(row))
        print(",".join(repr(v) if isinstance(v, float) else json.dumps(v) for v in row.values()))
    else:
        _emit(row)
    return EXIT_OK


# ------------------------------------------------------------- extremal ---


def cmd_extremal(args) -> int:
    frame_f = frame_io.load_frame(args.frame_f)
    frame_g = frame_io.load_frame(args.frame_g)
    result = extremal_search(
        frame_f,
        frame_g,
        budget=args.budget,
        seed=_default_seed(args.seed),
        eps=args.eps,
        max_card=args.max_card,
    )
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "min_lhs1": result.min_lhs1,
            "bound1": result.bound1,
            "supp_f": result.report.supp_f,
            "supp_g": result.report.supp_g,
            "candidates_evaluated": result.candidates_evaluated,
            "minimizer": frame_io.vector_to_obj(result.minimizer, frame_f.field),
        }
    )
    return EXIT_OK


# --------------------------------------------------------------- sparse ---


def _solution_obj(frame, solution, mode: str) -> dict:
    out = {"schema_version": SPARSE_SCHEMA_VERSION, "mode": mode, **vars(solution)}
    out["residual"] = frame_io.json_number(solution.residual)
    if solution.coefficients is not None:
        out["coefficients"] = frame_io.vector_to_obj(solution.coefficients.values, frame.field)
    return out


def cmd_sparse(args) -> int:
    frame = frame_io.load_frame(args.frame)
    target = _load_vector(args.target, args.target_file, frame.field)
    problem = sparse.SparseProblem(frame, target, args.eps_residual)
    solve = sparse.l0_brute_force if args.mode == "l0" else sparse.measure_min_brute_force
    solution = solve(problem, max_card=args.max_card)
    _emit(_solution_obj(frame, solution, args.mode))
    if solution.status != sparse.SOLVED:
        print("no support fits the target within tolerance", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------- probe ---


def cmd_probe(args) -> int:
    frame = frame_io.load_frame(args.frame)
    report = sparse.conjecture_probe(
        frame, trials=args.trials, seed=_default_seed(args.seed), eps_residual=args.eps_residual
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "out": str(args.out),
                "trials_run": report["trials_run"],
                "trials_skipped": report["trials_skipped"],
                "confirmations": report["confirmations"],
                "counterexamples": len(report["counterexamples"]),
            }
        )
    else:
        print(text)
    return EXIT_OK


# ----------------------------------------------------------------- main ---


def _build_parser() -> _Parser:
    parser = _Parser(prog="framelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a frame file from a named construction")
    kind_choices = [k.replace("_", "-") for k in zoo.FRAME_KINDS] + sorted(KIND_ALIASES)
    gen.add_argument("--kind", required=True, choices=kind_choices)
    gen.add_argument("--d", type=int)
    gen.add_argument("--N", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=float, default=2.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    gen.add_argument("--perm", help="comma-separated permutation of 0..d-1")
    gen.add_argument("--signs", help="comma-separated unimodular scalars (re:im for complex)")
    gen.add_argument("--split-index", type=int, default=0)
    gen.add_argument("--split-count", type=int, default=2)
    gen.add_argument("--normalize", action="store_true")
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--base", help="input frame file for alternate-dual / weighted-split")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    val = sub.add_parser("validate", help="check the two frame axioms on random vectors")
    val.add_argument("--frame", required=True)
    val.add_argument("--trials", type=int, default=1000)
    val.add_argument("--tol", type=float, default=VALIDATION_TOL)
    val.add_argument("--seed", type=int, default=None)
    val.set_defaults(func=cmd_validate)

    coh = sub.add_parser("coherence", help="gram coherence of one frame, or cross-coherence of two")
    coh.add_argument("--frame", required=True)
    coh.add_argument("--frame-g")
    coh.add_argument("--normalized", action="store_true", help="also report unit-norm coherence")
    coh.set_defaults(func=cmd_coherence)

    chk = sub.add_parser("check", help="support-uncertainty report for one vector and two frames")
    chk.add_argument("--frame-f", required=True)
    chk.add_argument("--frame-g", required=True)
    chk.add_argument("--x", help="inline vector: comma-separated reals or re:im pairs")
    chk.add_argument("--x-file", help="JSON array file")
    chk.add_argument("--eps", type=float, default=SUPPORT_EPS)
    chk.add_argument("--format", choices=["json", "csv"], default="json")
    chk.set_defaults(func=cmd_check)

    ext = sub.add_parser(
        "extremal",
        help="search for vectors minimizing the support product; the reported min_lhs1 is an "
        "upper bound on the exact minimum of lhs1",
    )
    ext.add_argument("--frame-f", required=True)
    ext.add_argument("--frame-g", required=True)
    ext.add_argument("--budget", type=int, default=1000)
    ext.add_argument("--seed", type=int, default=None)
    ext.add_argument("--eps", type=float, default=SUPPORT_EPS)
    ext.add_argument("--max-card", type=int, default=None)
    ext.set_defaults(func=cmd_extremal)

    sp = sub.add_parser("sparse", help="exact sparse recovery (count or weight minimal)")
    sp.add_argument("--frame", required=True)
    sp.add_argument("--target", help="inline vector")
    sp.add_argument("--target-file", help="JSON array file")
    sp.add_argument("--mode", choices=["l0", "measure"], default="l0")
    sp.add_argument("--max-card", type=int, default=None)
    sp.add_argument("--eps-residual", type=float, default=None)
    sp.set_defaults(func=cmd_sparse)

    pr = sub.add_parser("probe", help="plant low-weight supports and test unique recovery")
    pr.add_argument("--frame", required=True)
    pr.add_argument("--trials", type=int, default=100)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--eps-residual", type=float, default=None)
    pr.add_argument("--out", help="write the full report to this path")
    pr.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every overflow that matters is refused by a check that names it;
        # numpy's own warning would only add lines to stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (FrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
