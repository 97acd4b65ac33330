import contextlib
import hashlib
import importlib
import io
import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from framelab import FRAME_KINDS, default_specs, frame_digest, load_frame, mercedes_benz, save_frame
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
        written = [Path(path) for path in json.loads(out)["written"]]
        assert len(written) == (2 if kind == "dft_pair" else 1)
        for path in written:  # a digest hashes the saved text, less its last newline
            text = path.read_bytes()
            assert frame_digest(load_frame(path)) == hashlib.sha256(text.removesuffix(b"\n")).hexdigest()


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


@pytest.mark.parametrize(
    "tol, message",
    [("nan", "tol must be finite, got nan"), ("inf", "tol must be finite, got inf"), ("-1", "tol must be nonnegative")],
    ids=["nan", "inf", "negative"],
)
def test_validate_bad_tol_is_one_line_domain_error(tol, message, tmp_path, capsys):
    # NaN would fail every frame and inf pass every frame; neither is JSON
    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    code, out, err = run_cli("validate", "--frame", str(path), f"--tol={tol}", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("command", ["check", "coherence"])
def test_overflowing_cross_coherence_is_one_line_domain_error(command, field, tmp_path, capsys):
    from framelab import PSchauderFrame, counting_measure

    if field == "complex":  # a finite pairing whose magnitude overflows
        frame = PSchauderFrame(counting_measure(1), 2.0, [[1.7e308, 1.7e308j]], [[1.0, 1.0]], "complex")
    else:  # a pairing that overflows
        frame = PSchauderFrame(counting_measure(1), 2.0, [[1.7e308, 1.7e308]], [[1.7e308, 1.7e308]], "real")
    path = str(tmp_path / "f.json")
    save_frame(frame, path)
    if command == "check":
        argv = ["check", "--frame-f", path, "--frame-g", path, "--x", "1,1"]
    else:
        argv = ["coherence", "--frame", path, "--frame-g", path]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: cross-coherence is not a finite double: a pairing magnitude overflows\n"


def test_coherence_with_an_overflowing_atom_norm_prints_no_warning(tmp_path, capsys):
    from framelab import PSchauderFrame, counting_measure

    frame = PSchauderFrame(counting_measure(2), 2.0, np.eye(2), [[1.7e308, 1.7e308], [1.0, 0.0]], "real")
    path = tmp_path / "f.json"
    save_frame(frame, path)
    code, out, err = run_cli("coherence", "--frame", str(path), capsys=capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["gram_coherence"] == 1.7e308


@pytest.mark.parametrize(
    "command,extra", [("check", ["--x", "1,1"]), ("extremal", ["--budget", "3"])], ids=["check", "extremal"]
)
def test_a_coefficient_modulus_that_overflows_is_one_line_domain_error(command, extra, tmp_path, capsys):
    from framelab import PSchauderFrame, canonical_lp, counting_measure

    # finite pairings, but f's coefficient of x = (1, 1) is 1.7e308 (1 + i),
    # whose modulus overflows: measured as 0 it would read as a violation
    frame_f = PSchauderFrame(counting_measure(2), 2.0, [[1.7e308, 1.7e308j], [0, 1]], np.eye(2), "complex")
    save_frame(frame_f, tmp_path / "f.json")
    save_frame(canonical_lp(2, 2.0, "complex"), tmp_path / "g.json")
    argv = [command, "--frame-f", str(tmp_path / "f.json"), "--frame-g", str(tmp_path / "g.json"), *extra]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: coefficients must be finite (no NaN/Inf)\n"


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


@pytest.mark.parametrize(
    "command, sources, message",
    [
        ("check", [], "one of the arguments --x --x-file is required"),
        ("check", ["--x", "1,0", "--x-file", "x.json"], "argument --x-file: not allowed with argument --x"),
        ("sparse", [], "one of the arguments --target --target-file is required"),
        ("sparse", ["--target", "1,0", "--target-file", "t.json"],
         "argument --target-file: not allowed with argument --target"),
    ],
    ids=["check-neither", "check-both", "sparse-neither", "sparse-both"],
)
def test_missing_or_doubled_vector_source_is_a_usage_error(command, sources, message, capsys):
    # the frame paths do not exist: the parser refuses before any file is read
    frames = ["--frame-f", "/nonexistent/f.json", "--frame-g", "/nonexistent/g.json"]
    if command == "sparse":
        frames = ["--frame", "/nonexistent/f.json"]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *frames, *sources])
    assert excinfo.value.code == 1
    assert capsys.readouterr() == ("", f"framelab {command}: error: {message} (see framelab {command} --help)\n")


@pytest.mark.parametrize("command", ["validate", "check", "sparse"])
def test_string_or_boolean_complex_part_in_a_file_is_one_line_domain_error(command, dft_files, tmp_path, capsys):
    obj = json.loads(Path(dft_files[1]).read_text())
    obj["atoms"][0]["vector"][0][0] = "1_0"
    bad_frame = tmp_path / "bad.json"
    bad_frame.write_text(json.dumps(obj))
    bad_vector = tmp_path / "x.json"
    bad_vector.write_text(json.dumps([[1.0, 0.0], [True, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    argv = {
        "validate": ["--frame", str(bad_frame)],
        "check": ["--frame-f", dft_files[0], "--frame-g", dft_files[1], "--x-file", str(bad_vector)],
        "sparse": ["--frame", dft_files[1], "--target-file", str(bad_vector)],
    }[command]
    assert run_cli(command, *argv, capsys=capsys) == (2, "", "error: complex scalar parts must be numbers\n")


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


@pytest.mark.parametrize(
    "pair,message",
    [
        (("c4", "c3"), "frames must share the ambient dimension"),
        (("c3", "c4"), "frames must share the ambient dimension"),
        (("c4", "dft4"), "frames must share the scalar field"),
        (("dft4", "c4"), "frames must share the scalar field"),
    ],
    ids=["dimension", "dimension/swapped", "field", "field/swapped"],
)
def test_extremal_mismatched_pair_is_one_line_domain_error(pair, message, dft_files, tmp_path, capsys):
    from framelab import canonical_lp

    paths = {"dft4": dft_files[1]}
    for name, d in (("c4", 4), ("c3", 3)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_frame(canonical_lp(d, 2.0), paths[name])
    frame_f, frame_g = (paths[name] for name in pair)
    code, out, err = run_cli("extremal", "--frame-f", frame_f, "--frame-g", frame_g, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    # schema 2: the infinite residual is spelled as every other report spells
    # a non-finite number
    assert out == (
        '{\n  "schema_version": 2,\n  "mode": "l0",\n  "status": "infeasible",\n  "support": [],\n'
        '  "support_cardinality": 0,\n  "support_weight": 0.0,\n  "residual": "unbounded",\n'
        '  "unique": false,\n  "coefficients": null\n}\n'
    )


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
    # schema 2 differs from the frozen schema 1 bytes in the version and in
    # the spelling of an infinite residual alone
    expected = oracles.legacy_sparse_stdout(frame, solution, mode).replace(
        '"schema_version": 1,', '"schema_version": 2,'
    )
    assert out == expected.replace('"residual": "inf",', '"residual": "unbounded",')
    if case == "infeasible":
        assert code == 3
        assert '"residual": "unbounded"' in out and '"coefficients": null' in out
    else:
        assert code == 0
        assert all(len(c) == 2 for c in json.loads(out)["coefficients"])  # [re, im] pairs


@pytest.mark.parametrize("mode", ["l0", "measure"])
def test_sparse_max_card_caps_both_modes(mode, tmp_path, capsys):
    # on the Mercedes-Benz frame (1, 0) needs two atoms
    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    argv = ["sparse", "--frame", str(path), "--target", "1,0", "--mode", mode]
    code, out, _ = run_cli(*argv, capsys=capsys)
    assert code == 0 and json.loads(out)["support_cardinality"] == 2
    for cap in ("0", "1"):
        code, out, err = run_cli(*argv, "--max-card", cap, capsys=capsys)
        assert code == 3 and json.loads(out)["status"] == "infeasible"
    code, out, err = run_cli(*argv, "--max-card", "4", capsys=capsys)
    assert (code, out, err) == (2, "", "error: max_card must lie in 0..n_atoms\n")


@pytest.mark.parametrize(
    "target,message",
    [
        ("1,2,3", "vector length 3 does not match frame dimension 2"),
        ("nan,1", "vector entries must be finite (no NaN/Inf)"),
        # refused by the library, in the one wording of every entry point
        ("1:1,2", "real frames act on real vectors only"),
    ],
    ids=["length", "non-finite", "complex"],
)
def test_sparse_bad_target_is_one_line_domain_error(target, message, tmp_path, capsys):
    from framelab import canonical_lp

    path = tmp_path / "c.json"
    save_frame(canonical_lp(2, 2.0), path)
    code, out, err = run_cli("sparse", "--frame", str(path), "--target", target, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("extra", [[], ["--eps-residual", "1e-6"]], ids=["default-tolerance", "eps-residual"])
def test_sparse_target_whose_norm_overflows_is_one_line_domain_error(extra, tmp_path, capsys):
    # it used to warn, answer "solved" with the empty support and exit 0
    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    code, out, err = run_cli("sparse", "--frame", str(path), "--target", "1e300,1e300", *extra, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the target's 2-norm overflows a double\n"


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


@pytest.mark.parametrize("trials", ["10001", "99999999999999999999"])
def test_probe_trials_guard_is_one_line(trials, tmp_path, capsys):
    # refused in arithmetic, before any support plan or trial record
    from framelab import sparse

    path = tmp_path / "mb.json"
    save_frame(mercedes_benz(), path)
    assert int(trials) > sparse._PROBE_TRIALS_GUARD
    code, out, err = run_cli("probe", "--frame", str(path), "--trials", trials, capsys=capsys)
    assert (code, out) == (4, "")
    assert err == f"resource guard: trials {trials} exceeds guard {sparse._PROBE_TRIALS_GUARD}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["coherence", "--frame", "{wide}"],
        ["coherence", "--frame", "{wide}", "--frame-g", "{wide}"],
        ["check", "--frame-f", "{wide}", "--frame-g", "{wide}", "--x", "1"],
        ["gen", "--kind", "alternate-dual", "--base", "{wide}", "--out", "{out}"],
    ],
    ids=["coherence", "cross-coherence", "check", "alternate-dual"],
)
def test_tables_quadratic_in_the_atom_count_are_refused_in_one_line(argv, wide_frame, tmp_path, capsys):
    # a Gram, two pairing tables or an SVD factor of 20,000^2 scalars
    out = tmp_path / "dual.json"
    code, stdout, err = run_cli(*(a.format(wide=wide_frame, out=out) for a in argv), capsys=capsys)
    assert (code, stdout) == (4, "")
    assert err == "resource guard: 20000 x 20000 = 400000000 scalars exceeds guard 10000000\n"
    assert not out.exists()


def test_extremal_refuses_the_pairing_tables_in_one_line(wide_frame, capsys):
    # refused before the first 256 x 20,000 candidate chunk is built
    code, out, err = run_cli("extremal", "--frame-f", str(wide_frame), "--frame-g", str(wide_frame), capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "resource guard: 20000 x 20000 = 400000000 scalars exceeds guard 10000000\n"


def test_probe_pool_guard_is_one_line(tmp_path, capsys):
    # coherence 0: every one of the 2^18 - 1 supports is light, and the
    # default guard admits 2^17
    from framelab import canonical_lp

    path = tmp_path / "canonical18.json"
    save_frame(canonical_lp(18, 2.0), path)
    code, out, err = run_cli("probe", "--frame", str(path), "--trials", "1", capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "resource guard: 262143 light supports exceed guard 131072\n"


def test_sparse_plan_guard_refuses_distinct_weights_in_kilobytes(tmp_path, capsys):
    # 23 atoms pass the support guard (8.4M supports), but with 23 distinct
    # weights the plan would hold 2^23 count vectors, about 3.4 GB
    from framelab import MeasureSpace, PSchauderFrame

    path = tmp_path / "distinct.json"
    save_frame(PSchauderFrame(MeasureSpace(1.0 + np.arange(23) / 64), 2.0, np.ones((23, 1)), np.ones((23, 1))), path)
    tracemalloc.start()
    try:
        code, out, err = run_cli("sparse", "--frame", str(path), "--target", "1", "--mode", "measure", capsys=capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "")
    assert err == "resource guard: more than 131072 count vectors of at most 23 of 23 atoms in 23 weight classes\n"
    assert peak < 256_000


# ------------------------------------------------------------ overflow


def _write_real_frame(path, weights, functionals, vectors):
    # written by hand: a frame the library refuses cannot be saved
    atoms = [{"weight": w, "functional": f, "vector": v} for w, f, v in zip(weights, functionals, vectors)]
    path.write_text(json.dumps({"field": "real", "p": 2.0, "dimension": len(functionals[0]), "atoms": atoms}))
    return str(path)


_HEAVY_ARGV = {
    "check": ["check", "--frame-f", "{f}", "--frame-g", "{f}", "--x", "1,1"],
    "extremal": ["extremal", "--frame-f", "{f}", "--frame-g", "{f}"],
    "sparse": ["sparse", "--frame", "{f}", "--mode", "measure", "--target", "1,1"],
    "probe": ["probe", "--frame", "{f}", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_HEAVY_ARGV))
def test_total_weight_that_overflows_is_one_line_domain_error(command, tmp_path, capsys):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path = _write_real_frame(tmp_path / "heavy.json", [1e308, 1e308], eye, eye)
    code, out, err = run_cli(*[a.format(f=path) for a in _HEAVY_ARGV[command]], capsys=capsys)
    assert (code, out, err) == (2, "", "error: the total weight overflows a double\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "--frame-f", "{t}", "--frame-g", "{t}", "--x", "1,0"],
         "cross-coherence is too small: its reciprocal bound overflows"),
        (["extremal", "--frame-f", "{t}", "--frame-g", "{t}"],
         "cross-coherence is too small: its reciprocal bound overflows"),
        (["coherence", "--frame", "{n}", "--normalized"],
         "an atom norm is not a finite double: normalized coherence is undefined"),
        (["validate", "--frame", "{v}", "--trials", "3"],
         "frame axiom residuals are not finite doubles: the tables overflow"),
    ],
    ids=["check-tiny-coherence", "extremal-tiny-coherence", "normalized-norm", "validate-residuals"],
)
def test_non_finite_derived_number_is_one_line_domain_error(argv, message, tmp_path, capsys):
    tiny = [[1e-155, 0.0], [0.0, 1e-155]]
    big = [[1e200, 0.0], [0.0, 1.0]]
    paths = {
        "t": _write_real_frame(tmp_path / "tiny.json", [1.0, 1.0], tiny, tiny),
        "n": _write_real_frame(tmp_path / "norm.json", [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]],
                               [[1.7e308, 1.7e308], [1.0, 0.0]]),
        "v": _write_real_frame(tmp_path / "big.json", [1.0, 1.0], big, big),
    }
    code, out, err = run_cli(*[a.format(**paths) for a in argv], capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def _fuzz_bases():
    from framelab import PSchauderFrame, counting_measure, dft_pair, frame_to_obj

    # real d = 2, complex d = 2, and a real d = 1 frame whose functional
    # exceeds 1 where its vector does not
    doubled = PSchauderFrame(counting_measure(1), 2.0, [[2.0]], [[0.5]])
    return [frame_to_obj(frame) for frame in (mercedes_benz(), dft_pair(2)[1], doubled)]


_FUZZ_BASES = _fuzz_bases()
# JSON values of every kind; floats include NaN and the infinities, which
# json writes as the NaN/Infinity tokens that json.loads reads back
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1.0", " 2 ", "nan", "-inf", "1e999", "0x1", "real", "complex"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
_POSITIONS = ("field", "p", "dimension", "atoms", "atom", "weight", "functional", "vector", "cell", "part")


def _place(obj: dict, position: str, k: int, j: int, value) -> None:
    """Put value at one position of a frame object; a position the object
    no longer has (an earlier value replaced it) is left alone."""
    if position in ("field", "p", "dimension", "atoms"):
        obj[position] = value
        return
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        return
    k %= len(atoms)
    if position == "atom":
        atoms[k] = value
        return
    atom = atoms[k]
    if not isinstance(atom, dict):
        return
    if position in ("weight", "functional", "vector"):
        atom[position] = value
        return
    row = atom.get("functional" if j % 2 else "vector")
    if not isinstance(row, list) or not row:
        return
    j %= len(row)
    if position == "cell":
        row[j] = value
    elif isinstance(row[j], list) and row[j]:  # one part of a complex [re, im] cell
        row[j][0] = value


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(range(len(_FUZZ_BASES))),
    edits=st.lists(
        st.tuples(st.sampled_from(_POSITIONS), st.integers(0, 7), st.integers(0, 7), _JSON_VALUES),
        min_size=1,
        max_size=3,
    ),
)
# p = 2000 on the doubled frame: |x|^p underflows to 0 where w |2x|^p does
# not, so the isometry residual divides a finite number by 0
@example(base=2, edits=[("p", 0, 0, 2000)])
@example(base=1, edits=[("part", 0, 1, "1e999")])
def test_validate_fuzz_of_frame_json_is_exit_0_or_one_line(fuzz_base, base, edits):
    obj = json.loads(json.dumps(_FUZZ_BASES[base]))
    for position, k, j, value in edits:
        _place(obj, position, k, j, value)
    path = fuzz_base.with_name("fuzz_frame.json")
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate", "--frame", str(path)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "data,reason",
    [
        # the decoder's wording after this prefix varies across Python versions
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"\xff\xfe[]", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[1,", "Expecting value: line 1 column 4 (char 3)"),
    ],
    ids=["deep-nesting", "not-utf8", "not-json"],
)
@pytest.mark.parametrize("what", ["frame", "vector"])
def test_unreadable_json_file_is_one_line_domain_error(what, data, reason, tmp_path, capsys):
    path, mb = tmp_path / "bad.json", tmp_path / "mb.json"
    path.write_bytes(data)
    save_frame(mercedes_benz(), mb)
    if what == "frame":
        argv = ["validate", "--frame", str(path)]
    else:
        argv = ["check", "--frame-f", str(mb), "--frame-g", str(mb), "--x-file", str(path)]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: not a JSON {what} file: {reason}") and err.count("\n") == 1


CHECK_MB = ["check", "--frame-f", "{mb}", "--frame-g", "{mb}", "--x", "1,0"]
SPARSE_MB = ["sparse", "--frame", "{mb}", "--target", "1,0"]
BAD_TOLERANCE_ARGV = {
    "check-eps-nan": (CHECK_MB + ["--eps", "nan"], "eps must be finite, got nan"),
    "check-eps-inf": (CHECK_MB + ["--eps", "inf"], "eps must be finite, got inf"),
    "check-eps-negative": (CHECK_MB + ["--eps", "-1"], "eps must be nonnegative"),
    "extremal-eps-nan": (["extremal", "--frame-f", "{mb}", "--frame-g", "{mb}", "--eps", "nan"],
                         "eps must be finite, got nan"),
    "sparse-eps-residual-nan": (SPARSE_MB + ["--eps-residual", "nan"], "eps_residual must be finite, got nan"),
    "sparse-eps-residual-inf": (SPARSE_MB + ["--eps-residual", "inf"], "eps_residual must be finite, got inf"),
    "sparse-eps-residual-negative": (SPARSE_MB + ["--eps-residual=-inf"], "eps_residual must be nonnegative"),
    "probe-eps-residual-nan": (["probe", "--frame", "{mb}", "--trials", "2", "--eps-residual", "nan",
                                "--out", "{dir}/o.json"], "eps_residual must be finite, got nan"),
    # parallel unit atoms: no light support, so no trial and no SparseProblem
    "probe-empty-pool-eps-residual-inf": (["probe", "--frame", "{parallel}", "--trials", "2", "--eps-residual", "inf",
                                           "--out", "{dir}/o.json"], "eps_residual must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_TOLERANCE_ARGV))
def test_bad_tolerance_is_one_line_domain_error(case, tmp_path, capsys):
    from framelab import PSchauderFrame, counting_measure

    mb, parallel = tmp_path / "mb.json", tmp_path / "parallel.json"
    save_frame(mercedes_benz(), mb)
    save_frame(PSchauderFrame(counting_measure(2), 2.0, [[1.0, 0.0]] * 2, [[1.0, 0.0]] * 2, "real"), parallel)
    argv, message = BAD_TOLERANCE_ARGV[case]
    code, out, err = run_cli(*(a.format(dir=tmp_path, mb=mb, parallel=parallel) for a in argv), capsys=capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o.json").exists()


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Small frame and vector files, valid and broken, and output paths, by
    name."""
    from framelab import PSchauderFrame, canonical_lp, counting_measure, dft_pair, frame_to_obj, weighted_split

    root = tmp_path_factory.mktemp("argv")

    def unit(row):
        return PSchauderFrame(counting_measure(1), 2.0, [row], [row])

    nan_frame = frame_to_obj(mercedes_benz())
    nan_frame["atoms"][0]["vector"][0] = float("nan")
    texts = {
        "mb": mercedes_benz(), "dft": dft_pair(2)[1], "split": weighted_split(canonical_lp(2, 2.0), 0, 2),
        "d3": canonical_lp(3, 2.0), "p3": canonical_lp(2, 3.0), "e1": unit([1.0, 0.0]), "e2": unit([0.0, 1.0]),
        # products, moduli and syntheses that overflow
        "huge": PSchauderFrame(counting_measure(2), 2.0, [[1e300, 0.0], [0.0, 1e300]], [[1.7e308, 1.7e308]] * 2),
        "huge-complex": PSchauderFrame(counting_measure(3), 2.0, [[1.7e308, 1.7e308j], [1, 0], [0, 1]],
                                       [[1, 0], [0, 1], [1, 0]], "complex"),
        "nan": json.dumps(nan_frame), "not-json": "[1,", "no-keys": "{}",
        "v": "[1.0, 0.0]", "v-zero": "[0, 0]", "v-long": "[1, 2, 3]", "v-complex": "[[1, 0], [0, 1]]",
        "v-nan": "[NaN, 1]", "v-big": "[1e308, 1e308]", "v-object": "{}", "v-word": '["x", 1]',
    }
    paths = {"missing": root / "missing.json", "dir": root, "out": root / "o.json",
             "missing-dir": root / "no" / "o.json"}
    for name, content in texts.items():
        paths[name] = root / f"{name}.json"
        if isinstance(content, str):
            paths[name].write_text(content)
        else:
            save_frame(content, paths[name])
    return {name: str(path) for name, path in paths.items()}


_FRAMES = ["mb", "dft", "split", "d3", "p3", "e1", "e2", "huge", "huge-complex", "nan", "not-json", "no-keys", "missing", "dir"]
_VECTOR_FILES = ["v", "v-zero", "v-long", "v-complex", "v-nan", "v-big", "v-object", "v-word", "not-json", "missing"]
_INLINE = st.sampled_from(["1,0", "0,0", "1,0,0", "1:1,0", "0:0,1", "nan,1", "1e308,1e308", "x", "", ","])
_INTS = st.sampled_from(["0", "1", "2", "-1", "x", "1.5", "99999999999999999999"])
_SMALL = st.sampled_from(["0", "1", "2", "-1", "x"])  # counts whose work grows with the value
_REALS = st.sampled_from(["0", "-0", "1e-9", "0.5", "-1", "nan", "inf", "1e308", "x"])
_FRAME = st.sampled_from(_FRAMES).map("@{}".format)
_VECTOR = st.sampled_from(_VECTOR_FILES).map("@{}".format)
# per subcommand: flag -> value strategy; "@name" is the path of an
# ``argv_files`` entry, None a bare switch
_ARGV_FLAGS = {
    "check": {"--frame-f": _FRAME, "--frame-g": _FRAME, "--x": _INLINE, "--x-file": _VECTOR, "--eps": _REALS,
              "--format": st.sampled_from(["json", "csv", "xml"])},
    "sparse": {"--frame": _FRAME, "--target": _INLINE, "--target-file": _VECTOR,
               "--mode": st.sampled_from(["l0", "measure", "l1"]), "--max-card": _INTS, "--eps-residual": _REALS},
    "validate": {"--frame": _FRAME, "--trials": _INTS, "--tol": _REALS, "--seed": _INTS},
    "coherence": {"--frame": _FRAME, "--frame-g": _FRAME, "--normalized": st.none()},
    "extremal": {"--frame-f": _FRAME, "--frame-g": _FRAME, "--budget": _INTS, "--seed": _INTS, "--eps": _REALS,
                 "--max-card": _INTS},
    "probe": {"--frame": _FRAME, "--trials": _SMALL, "--seed": _INTS, "--eps-residual": _REALS,
              "--out": st.sampled_from(["@out", "@dir", "@missing-dir"])},
}
_REQUIRED = {"--frame", "--frame-f", "--frame-g"}
_SOURCES = {"check": ["--x", "--x-file"], "sparse": ["--target", "--target-file"]}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    flags = _ARGV_FLAGS[command]
    # a required flag is given nine times in ten and any other one time in
    # two, and half the vector sources are one source, so most runs get
    # past argparse and the source check
    sources = _SOURCES.get(command, [])
    chosen = [flag for flag in flags
              if flag not in sources and draw(st.sampled_from([True] * 9 + [False]) if flag in _REQUIRED else st.booleans())]
    if sources:
        chosen += draw(st.sampled_from([sources[:1], sources[1:], sources, []]))
    return [command] + [(flag, draw(flags[flag])) for flag in chosen]


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["check"])  # a usage error
@example(argv=["check", ("--frame-f", "@e1"), ("--frame-g", "@e2"), ("--x", "1,0")])
@example(argv=["coherence", ("--frame", "@huge"), ("--normalized", None)])
# numpy warns on these overflows (and on the NaN of inf - inf in a complex
# product) before framelab refuses them
@example(argv=["extremal", ("--frame-f", "@mb"), ("--frame-g", "@huge")])
@example(argv=["extremal", ("--frame-f", "@mb"), ("--frame-g", "@mb"), ("--eps", "1e308")])
@example(argv=["check", ("--frame-f", "@dft"), ("--frame-g", "@huge-complex"), ("--x", "1e308,1e308")])
@example(argv=["probe", ("--frame", "@split"), ("--trials", "2"), ("--out", "@dir")])
@example(argv=["validate", ("--frame", "@mb"), ("--trials", "99999999999999999999")])
def test_argv_fuzz_is_a_known_exit_with_one_line_on_failure(argv_files, argv):
    words = [argv[0]]
    for flag, value in argv[1:]:
        if value is None:
            words.append(flag)
        else:
            words.append(f"{flag}={argv_files[value[1:]] if value.startswith('@') else value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(words)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2, 3, 4), words
    if code == 0:
        assert err.getvalue() == "", words
    else:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n"), (words, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_closed_stdout_pipe_exits_141_without_a_message(tmp_path):
    # `framelab probe ... | head -c 10`: the reader leaves after 10 bytes of a
    # report (about 330 KB) far larger than a pipe buffer
    from framelab import random_parseval, weighted_split

    frame = tmp_path / "split.json"
    save_frame(weighted_split(random_parseval(6, 13, seed=0), 0, 2), frame)
    proc = subprocess.Popen(
        [sys.executable, "-m", "framelab", "probe", "--frame", str(frame), "--trials", "50", "--seed", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_console_script_target_runs_the_ci_entry_point_commands(tmp_path, capsys):
    # the target pyproject names in [project.scripts], resolved as an
    # installed console script resolves it, on the commands of the CI's
    # "Installed entry point" step; tomllib is in the standard library from 3.11
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["framelab"]
    module, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module), attribute)
    frame = tmp_path / "mb.json"
    assert entry(["gen", "--kind", "mercedes-benz", "--out", str(frame)]) == 0
    assert json.loads(capsys.readouterr().out)["written"] == [str(frame)]
    assert entry(["validate", "--frame", str(frame)]) == 0
    assert json.loads(capsys.readouterr().out)["passes"] is True
    with pytest.raises(SystemExit) as excinfo:
        entry(["check", "--frame-f", str(frame), "--frame-g", str(frame)])
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    big = [tmp_path / "h1.json", tmp_path / "h2.json"]
    for path in big:
        assert entry(["gen", "--kind", "harmonic", "--d", "32", "--N", "512", "--out", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["written"] == [str(path)]
    assert big[0].read_bytes() == big[1].read_bytes()
    assert entry(["validate", "--frame", str(big[0])]) == 0
    assert json.loads(capsys.readouterr().out)["passes"] is True
    assert entry(["coherence", "--frame", str(big[0])]) == 0
    assert json.loads(capsys.readouterr().out)["gram_coherence"] > 0
    wide = tmp_path / "wide.json"
    assert entry(["gen", "--kind", "harmonic", "--d", "1", "--N", "4000", "--out", str(wide)]) == 0
    assert json.loads(capsys.readouterr().out)["written"] == [str(wide)]
    assert entry(["coherence", "--frame", str(wide)]) == 4
    assert capsys.readouterr() == ("", "resource guard: 4000 x 4000 = 16000000 scalars exceeds guard 10000000\n")
    pair = [tmp_path / "dft16_canonical.json", tmp_path / "dft16_transform.json"]
    assert entry(["gen", "--kind", "dft", "--d", "16", "--out", str(tmp_path / "dft16.json")]) == 0
    assert json.loads(capsys.readouterr().out)["written"] == [str(path) for path in pair]
    assert all(path.is_file() for path in pair)
    argv = ["extremal", "--frame-f", str(pair[0]), "--frame-g", str(pair[1]), "--budget", "200"]
    assert entry(argv) == 0
    assert json.loads(capsys.readouterr().out)["candidates_evaluated"] == 200
