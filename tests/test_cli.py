import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelab import FRAME_KINDS, default_specs, load_frame, mercedes_benz, save_frame
from framelab.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def dft_files(tmp_path, capsys):
    code, out, _ = run_cli("gen", "--kind", "dft-pair", "--d", "4", "--out", str(tmp_path / "dft.json"), capsys=capsys)
    assert code == 0
    written = json.loads(out)["written"]
    return written


# ---------------------------------------------------------------- gen


def test_gen_writes_two_files_for_fourier_pair(dft_files):
    assert len(dft_files) == 2
    for path in dft_files:
        assert Path(path).exists()
    assert [Path(p).name for p in dft_files] == ["dft_canonical.json", "dft_transform.json"]
    assert np.array_equal(load_frame(dft_files[0]).vectors, np.eye(4))


def test_gen_harmonic_weights(tmp_path, capsys):
    out_path = tmp_path / "h.json"
    code, out, _ = run_cli(
        "gen", "--kind", "harmonic-discretization", "--d", "4", "--N", "8", "--out", str(out_path), capsys=capsys
    )
    assert code == 0
    frame = load_frame(out_path)
    assert np.array_equal(frame.space.weights, np.full(8, 0.125))


def test_gen_refuses_undersampled_harmonic(tmp_path, capsys):
    code, _, err = run_cli(
        "gen", "--kind", "harmonic", "--d", "8", "--N", "4", "--out", str(tmp_path / "h.json"), capsys=capsys
    )
    assert code == 2
    assert "N must be >= d" in err


def test_gen_harmonic_short_alias(tmp_path, capsys):
    out_path = tmp_path / "h.json"
    code, _, _ = run_cli("gen", "--kind", "harmonic", "--d", "4", "--N", "8", "--out", str(out_path), capsys=capsys)
    assert code == 0
    assert np.array_equal(load_frame(out_path).space.weights, np.full(8, 0.125))


def test_gen_then_validate_round_trip_for_every_spec(tmp_path, capsys):
    # derived kinds need their base written first
    for name, spec in default_specs():
        base_path = None
        if spec.base is not None:
            from framelab import build_frames

            base_path = tmp_path / f"{name}_base.json"
            save_frame(build_frames(spec.base)[0], base_path)
        argv = ["gen", "--kind", spec.kind.replace("_", "-"), "--out", str(tmp_path / f"{name}.json")]
        if spec.d is not None:
            argv += ["--d", str(spec.d)]
        if spec.N is not None:
            argv += ["--N", str(spec.N)]
        if spec.n is not None:
            argv += ["--n", str(spec.n)]
        argv += ["--p", str(spec.p), "--seed", str(spec.seed), "--field", spec.field]
        if spec.permutation is not None:
            argv += ["--perm", ",".join(str(i) for i in spec.permutation)]
        if spec.signs is not None:
            argv += ["--signs", ",".join(str(float(s)) for s in spec.signs)]
        argv += ["--split-index", str(spec.split_index), "--split-count", str(spec.split_count)]
        if base_path is not None:
            argv += ["--base", str(base_path)]
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 0, (name, err)
        for path in json.loads(out)["written"]:
            code, _, err = run_cli("validate", "--frame", path, "--trials", "300", capsys=capsys)
            assert code == 0, (name, err)


# Flags that satisfy every parameter each kind requires; the derived kinds
# take their input frame from a file.
GEN_REQUIRED = {
    "canonical_lp": {"d": ["--d", "3"]},
    "signed_permutation": {"d": ["--d", "3"]},
    "dft_pair": {"d": ["--d", "4"]},
    "random_parseval": {"d": ["--d", "2"], "n": ["--n", "4"]},
    "harmonic_discretization": {"d": ["--d", "2"], "N": ["--N", "4"]},
    "alternate_dual": {"base": ["--base", None]},
    "weighted_split": {"base": ["--base", None]},
    "mercedes_benz": {},
}


def _gen_flags(fields, base_path):
    return [base_path if v is None else v for flags in fields.values() for v in flags]


def test_frame_kinds_keep_their_catalogue_order():
    # the order of the gen --kind choices
    assert FRAME_KINDS == tuple(GEN_REQUIRED)


@pytest.mark.parametrize("kind", FRAME_KINDS)
def test_gen_accepts_every_kind_spelling(kind, tmp_path, capsys):
    base = tmp_path / "mb.json"
    save_frame(mercedes_benz(), base)
    aliases = {"dft": "dft_pair", "harmonic": "harmonic_discretization"}
    spellings = [kind.replace("_", "-")] + [alias for alias, full in aliases.items() if full == kind]
    for spelling in spellings:
        argv = ["gen", "--kind", spelling, *_gen_flags(GEN_REQUIRED[kind], str(base))]
        code, out, err = run_cli(*argv, "--out", str(tmp_path / f"{spelling}.json"), capsys=capsys)
        assert code == 0, (spelling, err)
        assert len(json.loads(out)["written"]) == (2 if kind == "dft_pair" else 1)


@pytest.mark.parametrize(
    "kind,field", [(kind, field) for kind, fields in GEN_REQUIRED.items() for field in fields]
)
def test_gen_missing_required_parameter(kind, field, tmp_path, capsys):
    base = tmp_path / "mb.json"
    save_frame(mercedes_benz(), base)
    kept = {name: flags for name, flags in GEN_REQUIRED[kind].items() if name != field}
    argv = ["gen", "--kind", kind.replace("_", "-"), *_gen_flags(kept, str(base)), "--out", str(tmp_path / "o.json")]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: kind '{kind}' requires parameter '{field}'\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "signed-permutation", "--d", "3", "--perm", "a,b,c"], "error: not an integer: 'a'"),
        (["--kind", "signed-permutation", "--d", "3", "--perm", ",1"], "error: not an integer: ''"),
        (["--kind", "signed-permutation", "--d", "3", "--perm", "0,1,99999999999999999999"],
         "error: permutation must be a bijection of 0..d-1"),
        (["--kind", "random-parseval", "--d", "-1", "--n", "3"], "error: dimension must be at least 1"),
        (["--kind", "signed-permutation", "--d", "3", "--perm", ""], "error: not an integer: ''"),
        (["--kind", "signed-permutation", "--d", "3", "--signs", ""], "error: not a number: ''"),
    ],
)
def test_gen_malformed_input_is_one_line_domain_error(argv, message, tmp_path, capsys):
    code, out, err = run_cli("gen", *argv, "--out", str(tmp_path / "o.json"), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == message + "\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "weighted-split", "--split-count", str(10**20)],
        ["--kind", "weighted-split", "--split-count", str(10**8)],
        ["--kind", "harmonic", "--d", "4", "--N", str(10**9)],
        ["--kind", "dft", "--d", str(10**5)],
        ["--kind", "canonical-lp", "--d", str(10**5)],
        ["--kind", "signed-permutation", "--d", str(10**5)],
        ["--kind", "random-parseval", "--d", "4", "--n", str(10**8)],
    ],
)
def test_gen_table_guard_refuses_without_allocating(argv, tmp_path, capsys):
    # every table here is at least 10x over the guard, refused arithmetically
    base = tmp_path / "mb.json"
    save_frame(mercedes_benz(), base)
    code, out, err = run_cli("gen", *argv, "--base", str(base), "--out", str(tmp_path / "o.json"), capsys=capsys)
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("resource guard: ")


def test_gen_ignores_base_for_kinds_without_an_input_frame(tmp_path, capsys):
    with_base, without = tmp_path / "with.json", tmp_path / "without.json"
    code, _, _ = run_cli("gen", "--kind", "mercedes-benz", "--base", "/nonexistent/base.json", "--out", str(with_base),
                         capsys=capsys)
    assert code == 0
    code, _, _ = run_cli("gen", "--kind", "mercedes-benz", "--out", str(without), capsys=capsys)
    assert code == 0
    assert with_base.read_bytes() == without.read_bytes()


def test_gen_derived_kind_still_loads_its_base(tmp_path, capsys):
    code, out, err = run_cli("gen", "--kind", "alternate-dual", "--base", "/nonexistent/base.json",
                             "--out", str(tmp_path / "o.json"), capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# ------------------------------------------------------------- validate


def test_validate_reports_and_fails_on_broken_frame(tmp_path, capsys):
    from framelab import MeasureSpace, PSchauderFrame, canonical_lp

    good = canonical_lp(2, 2.0)
    weights = good.space.weights.copy()
    weights[0] = 0.25
    broken = PSchauderFrame(MeasureSpace(weights), 2.0, good.functionals, good.vectors)
    path = tmp_path / "broken.json"
    save_frame(broken, path)
    code, out, _ = run_cli("validate", "--frame", str(path), capsys=capsys)
    assert code == 2
    assert not json.loads(out)["passes"]


@pytest.mark.parametrize("broken", [False, True])
def test_validate_stdout_bytes(broken, tmp_path, capsys):
    from framelab import MeasureSpace, PSchauderFrame, validate_frame, weighted_split

    frame = weighted_split(mercedes_benz(), 1, 3)
    if broken:
        frame = PSchauderFrame(MeasureSpace(frame.space.weights * 2), 2.0, frame.functionals, frame.vectors)
    path = tmp_path / "f.json"
    save_frame(frame, path)
    code, out, _ = run_cli("validate", "--frame", str(path), "--trials", "200", "--seed", "5", capsys=capsys)
    assert code == (2 if broken else 0)
    assert out == oracles.legacy_validate_stdout(validate_frame(frame, trials=200, tol=1e-9, rng_seed=5))


def test_validate_malformed_complex_scalar_is_one_line_domain_error(dft_files, tmp_path, capsys):
    obj = json.loads(Path(dft_files[1]).read_text())
    obj["atoms"][0]["vector"][0] = ["a", 0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("validate", "--frame", str(path), capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "complex scalar" in err


def test_validate_trials_guard_refuses_without_allocating(dft_files, capsys):
    # 10^15 trials x 4 scalars could never be allocated; the guard is checked
    # arithmetically first and exits 4
    code, out, err = run_cli("validate", "--frame", dft_files[0], "--trials", str(10**15), capsys=capsys)
    assert code == 4
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "guard" in err


# ------------------------------------------------------------ coherence


def test_coherence_single_frame(tmp_path, capsys):
    from framelab import mercedes_benz

    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    code, out, _ = run_cli("coherence", "--frame", str(path), "--normalized", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gram_coherence"] == pytest.approx(1 / 3, abs=1e-12)
    assert data["uniqueness_threshold"] == pytest.approx(2.0, abs=1e-12)
    assert data["gram_coherence_normalized"] == pytest.approx(0.5, abs=1e-12)


def test_coherence_unbounded_threshold(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "ortho.json"
    save_frame(canonical_lp(3, 2.0), path)
    code, out, _ = run_cli("coherence", "--frame", str(path), capsys=capsys)
    assert code == 0
    assert json.loads(out)["uniqueness_threshold"] == "unbounded"


@pytest.mark.parametrize("which", ["mercedes_benz", "canonical"])
def test_coherence_threshold_bytes(which, tmp_path, capsys):
    # finite thresholds print as numbers, the +inf of an orthogonal frame as "unbounded"
    from framelab import canonical_lp, gram_coherence, mercedes_benz, uniqueness_threshold
    from framelab.cli import SCHEMA_VERSION

    frame = mercedes_benz() if which == "mercedes_benz" else canonical_lp(3, 2.0)
    path = tmp_path / "f.json"
    save_frame(frame, path)
    code, out, _ = run_cli("coherence", "--frame", str(path), "--normalized", capsys=capsys)
    coh, coh_n = gram_coherence(frame), gram_coherence(frame, normalized=True)
    thr, thr_n = uniqueness_threshold(coh), uniqueness_threshold(coh_n)
    finite = which == "mercedes_benz"
    if not finite:
        assert thr == thr_n == float("inf")
    expected = {
        "schema_version": SCHEMA_VERSION,
        "gram_coherence": coh,
        "uniqueness_threshold": thr if finite else "unbounded",
        "gram_coherence_normalized": coh_n,
        "uniqueness_threshold_normalized": thr_n if finite else "unbounded",
    }
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_coherence_pair(dft_files, capsys):
    code, out, _ = run_cli("coherence", "--frame", dft_files[0], "--frame-g", dft_files[1], capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coh_fg"] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- check


def test_check_picket_fence_json(dft_files, capsys):
    code, out, _ = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x", "1,0,1,0", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["holds1"] and data["holds2"]
    assert data["supp_f"] == 2.0 and data["supp_g"] == 2.0
    assert abs(data["lhs1"] - data["bound1"]) <= 1e-9


def test_check_csv_format(dft_files, capsys):
    code, out, _ = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x", "1,0,1,0",
        "--format", "csv", capsys=capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("schema_version,supp_f,supp_g")
    cells = row.split(",")
    assert cells[0] == "1"
    assert cells[-1] == "true" and cells[-2] == "true"
    # floats round-trip through repr
    assert float(cells[1]) == 2.0


def _check_pair(name):
    from framelab import alternate_dual, dft_pair

    if name == "dft4":
        return (*dft_pair(4), "1,0,1,0")  # the picket fence
    mb = mercedes_benz()
    return mb, alternate_dual(mb, seed=11), "0.3,-1"


@pytest.mark.parametrize("pair", ["dft4", "mercedes"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_stdout_bytes(pair, fmt, tmp_path, capsys):
    from framelab import uncertainty_check

    frame_f, frame_g, text = _check_pair(pair)
    path_f, path_g = tmp_path / "f.json", tmp_path / "g.json"
    save_frame(frame_f, path_f)
    save_frame(frame_g, path_g)
    code, out, err = run_cli(
        "check", "--frame-f", str(path_f), "--frame-g", str(path_g), "--x", text, "--format", fmt, capsys=capsys
    )
    assert code == 0 and err == ""
    x = np.array([float(t) for t in text.split(",")])
    assert out == oracles.legacy_check_stdout(uncertainty_check(frame_f, frame_g, x, eps=1e-9), fmt)
    if fmt == "csv":
        assert out.splitlines()[0] == "schema_version,supp_f,supp_g,lhs1,lhs2,coh_fg,coh_gf,bound1,bound2,holds1,holds2"


def test_check_rejects_zero_vector(dft_files, capsys):
    code, _, err = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x", "0,0,0,0", capsys=capsys
    )
    assert code == 2
    assert "theorem excludes x = 0" in err


def test_check_accepts_vector_file(dft_files, tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    code, out, _ = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x-file", str(xfile), capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["supp_f"] == 2.0


def test_check_complex_inline_tokens(dft_files, capsys):
    code, out, _ = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x", "1:0,0:1,1:0,0:1", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["holds1"]


@pytest.mark.parametrize("text", ["a,1,0,0", "1,0,0:b,1"])
def test_check_rejects_non_numeric_inline_vector(dft_files, capsys, text):
    code, out, err = run_cli(
        "check", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x", text, capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "not a number" in err


# ------------------------------------------------------------- extremal


def test_extremal_identity_pair_minimum_one(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "c.json"
    save_frame(canonical_lp(3, 2.0), path)
    code, out, _ = run_cli(
        "extremal", "--frame-f", str(path), "--frame-g", str(path), "--budget", "50", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_lhs1"] == pytest.approx(1.0, abs=1e-9)
    assert data["min_lhs1"] >= data["bound1"] - 1e-9


def test_extremal_fourier_pair_minimum_two(dft_files, capsys):
    code, out, _ = run_cli(
        "extremal", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--budget", "64", "--seed", "1", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_lhs1"] == pytest.approx(2.0, abs=1e-9)


def test_extremal_fourier_d9_minimum_three(tmp_path, capsys):
    code, out, _ = run_cli("gen", "--kind", "dft-pair", "--d", "9", "--out", str(tmp_path / "dft9.json"), capsys=capsys)
    assert code == 0
    written = json.loads(out)["written"]
    # budget covers every support of size <= 3, where the spike train lives
    code, out, _ = run_cli(
        "extremal", "--frame-f", written[0], "--frame-g", written[1], "--budget", "550", "--seed", "0", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["min_lhs1"] == pytest.approx(3.0, abs=1e-9)
    assert data["min_lhs1"] >= data["bound1"] - 1e-9


def test_extremal_budget_guard(dft_files, capsys):
    code, _, err = run_cli(
        "extremal", "--frame-f", dft_files[0], "--frame-g", dft_files[1], "--budget", "2000000", capsys=capsys
    )
    assert code == 4
    assert "guard" in err.lower()


# --------------------------------------------------------------- sparse


def test_sparse_l0_canonical(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "c.json"
    save_frame(canonical_lp(3, 2.0), path)
    code, out, _ = run_cli(
        "sparse", "--frame", str(path), "--target", "0,0,1", "--mode", "l0", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["support"] == [2] and data["unique"]


def test_sparse_modes_agree_under_counting_measure(tmp_path, capsys):
    from framelab import mercedes_benz

    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    results = {}
    for mode in ("l0", "measure"):
        code, out, _ = run_cli(
            "sparse", "--frame", str(path), "--target", "0.2,-1.0", "--mode", mode, capsys=capsys
        )
        assert code == 0
        results[mode] = json.loads(out)["support"]
    assert results["l0"] == results["measure"]


def test_sparse_weighted_frame_picks_minimal_weight(tmp_path, capsys):
    from framelab import canonical_lp, weighted_split

    split = weighted_split(canonical_lp(2, 2.0), 0, 2)
    path = tmp_path / "split.json"
    save_frame(split, path)
    code, out, _ = run_cli(
        "sparse", "--frame", str(path), "--target", "3,0", "--mode", "measure", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["support_weight"] == 0.5


def test_sparse_infeasible_exit_code(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "c.json"
    save_frame(canonical_lp(2, 2.0), path)
    code, out, _ = run_cli(
        "sparse", "--frame", str(path), "--target", "1,1", "--mode", "l0", "--max-card", "0", capsys=capsys
    )
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"


@pytest.mark.parametrize("case", ["complex_l0", "complex_measure", "infeasible"])
def test_sparse_stdout_bytes(case, tmp_path, capsys):
    # frame files round-trip bit-exactly, so the in-memory frame solves alike
    from framelab import SparseProblem, canonical_lp, l0_brute_force, measure_min_brute_force, random_parseval

    if case == "infeasible":
        frame, text, target, mode, extra = canonical_lp(2, 2.0), "1,1", np.array([1.0, 1.0]), "l0", ["--max-card", "0"]
    else:
        frame = random_parseval(3, 5, seed=7, field="complex")
        text, target, extra = "1:2,0:-1,0.5:0.25", np.array([1 + 2j, -1j, 0.5 + 0.25j]), []
        mode = case.split("_")[1]
    path = tmp_path / "f.json"
    save_frame(frame, path)
    code, out, _ = run_cli("sparse", "--frame", str(path), "--target", text, "--mode", mode, *extra, capsys=capsys)
    problem = SparseProblem(frame, target)
    if mode == "l0":
        solution = l0_brute_force(problem, max_card=0 if extra else None)
    else:
        solution = measure_min_brute_force(problem)
    assert out == oracles.legacy_sparse_stdout(frame, solution, mode)
    if case == "infeasible":
        assert code == 3
        assert '"residual": "inf"' in out and '"coefficients": null' in out
    else:
        assert code == 0
        assert all(len(c) == 2 for c in json.loads(out)["coefficients"])  # [re, im] pairs


def test_sparse_rejects_non_numeric_inline_target(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "c.json"
    save_frame(canonical_lp(2, 2.0), path)
    code, out, err = run_cli("sparse", "--frame", str(path), "--target", "a,1", capsys=capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "not a number" in err


# ---------------------------------------------------------------- probe


def test_probe_writes_deterministic_report(tmp_path, capsys):
    from framelab import mercedes_benz

    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out_path in (out1, out2):
        code, out, _ = run_cli(
            "probe", "--frame", str(path), "--trials", "50", "--seed", "3", "--out", str(out_path), capsys=capsys
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["trials_run"] == 50
        # counting measure with planted sizes in the guaranteed regime:
        # every trial confirms
        assert summary["confirmations"] == 50
    assert out1.read_bytes() == out2.read_bytes()


def test_probe_guard_exit_code(tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "big.json"
    save_frame(canonical_lp(25, 2.0), path)
    code, _, err = run_cli("probe", "--frame", str(path), "--trials", "1", capsys=capsys)
    assert code == 4


@pytest.fixture(scope="module")
def wide_frame(tmp_path_factory):
    from framelab import harmonic_discretization

    path = tmp_path_factory.mktemp("wide") / "wide.json"
    save_frame(harmonic_discretization(1, 20000), path)
    return path


@pytest.mark.parametrize("mode", ["l0", "measure"])
def test_sparse_guard_refuses_many_atoms_in_one_line(mode, wide_frame, capsys):
    code, out, err = run_cli("sparse", "--frame", str(wide_frame), "--target", "1", "--mode", mode, capsys=capsys)
    assert code == 4
    assert out == ""
    assert err == "resource guard: more than 10000000 candidate supports of at most 20000 of 20000 atoms\n"


# ----------------------------------------------------------- plumbing


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--kind", "nonsense", "--out", "x.json"])
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_missing_file_is_domain_error(capsys):
    code, _, err = run_cli("validate", "--frame", "/nonexistent/frame.json", capsys=capsys)
    assert code == 2


def test_env_seed_used_when_flag_absent(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_SEED", "17")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out_path in (a, b):
        code, _, _ = run_cli(
            "gen", "--kind", "random-parseval", "--d", "2", "--n", "4", "--out", str(out_path), capsys=capsys
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # explicit flag overrides the environment
    c = tmp_path / "c.json"
    code, _, _ = run_cli(
        "gen", "--kind", "random-parseval", "--d", "2", "--n", "4", "--seed", "18", "--out", str(c), capsys=capsys
    )
    assert code == 0
    assert c.read_bytes() != a.read_bytes()


def test_non_integer_env_seed_is_one_line_domain_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_SEED", "abc")
    code, out, err = run_cli("gen", "--kind", "mercedes-benz", "--out", str(tmp_path / "mb.json"), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: not an integer: 'abc'\n"


NEGATIVE_SEED_ARGV = {
    "gen-random-parseval": ["gen", "--kind", "random-parseval", "--d", "2", "--n", "3", "--out", "{dir}/o.json"],
    "gen-alternate-dual": ["gen", "--kind", "alternate-dual", "--base", "{mb}", "--out", "{dir}/o.json"],
    "validate": ["validate", "--frame", "{mb}"],
    "extremal": ["extremal", "--frame-f", "{mb}", "--frame-g", "{mb}"],
    "probe": ["probe", "--frame", "{mb}", "--trials", "2"],
}


@pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_ARGV))
def test_negative_seed_is_one_line_domain_error(command, from_env, tmp_path, capsys, monkeypatch):
    mb = tmp_path / "mb.json"
    save_frame(mercedes_benz(), mb)
    argv = [a.format(dir=tmp_path, mb=mb) for a in NEGATIVE_SEED_ARGV[command]]
    if from_env:
        monkeypatch.setenv("FRAMELAB_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "o.json").exists()


def test_negative_seed_is_accepted_by_kinds_that_ignore_it(tmp_path, capsys):
    for seed, name in (("-1", "negative.json"), ("0", "zero.json")):
        code, _, _ = run_cli("gen", "--kind", "canonical-lp", "--d", "2", "--seed", seed, "--out", str(tmp_path / name),
                             capsys=capsys)
        assert code == 0
    assert (tmp_path / "negative.json").read_bytes() == (tmp_path / "zero.json").read_bytes()


def test_console_entry_point_runs(tmp_path):
    out = tmp_path / "mb_cli.json"
    result = subprocess.run(
        [sys.executable, "-m", "framelab", "gen", "--kind", "mercedes-benz", "--out", str(out)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["written"] == [str(out)]


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    from framelab import mercedes_benz

    path = tmp_path_factory.mktemp("fuzz") / "mb.json"
    save_frame(mercedes_benz(), path)
    return path


_GEN_SPELLINGS = [k.replace("_", "-") for k in FRAME_KINDS] + ["dft", "harmonic", "banana"]
_TOKENS = st.lists(st.sampled_from(["0", "1", "2", "-1", "", " 1", "x", "1.5", "0:1", "nan", "99999999999999999999"]))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(_GEN_SPELLINGS),
    ints=st.fixed_dictionaries(
        {},
        optional={flag: st.integers(-3, 8) for flag in ("--d", "--N", "--n", "--split-index", "--split-count")},
    ),
    perm=st.none() | _TOKENS,
    signs=st.none() | _TOKENS,
    with_base=st.booleans(),
    field=st.sampled_from(["real", "complex"]),
)
def test_gen_fuzz_never_raises(fuzz_base, kind, ints, perm, signs, with_base, field):
    argv = ["gen", "--kind", kind, "--field", field, "--out", str(fuzz_base.with_name("out.json"))]
    for flag, value in ints.items():
        argv += [flag, str(value)]
    for flag, tokens in (("--perm", perm), ("--signs", signs)):
        if tokens is not None:
            argv += [flag, ",".join(tokens)]
    if with_base:
        argv += ["--base", str(fuzz_base)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2, 3, 4)
