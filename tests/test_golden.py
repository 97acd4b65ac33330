"""Golden outputs: the sha256 and length of each output that keeps its bytes
across BLAS builds, regenerated in-process and compared with
``tests/golden/manifest.json``.

Pinned in full: the files ``framelab gen`` writes for every catalog spec
(with gen's stdout and each file's ``frame_digest``), the 2.7 MB
``harmonic_discretization(32, 512)`` file, and the stdout of the README's
dft4 ``coherence``, ``check`` (JSON and CSV) and ``extremal`` commands.
Three gen files take their tables from BLAS (``alternate_dual``'s SVD, the
``random_parseval`` Gram-Schmidt), so their bytes move with the OpenBLAS
kernel: for them only field, p, dimension, atom count and weight bytes are
pinned (and ``mercedes_dual``'s functional bytes), and of the digest only
that it hashes the file's own text.  Pinned as decisions only (supports,
weights and flags, no residuals or coefficients): the README's ``sparse``
target in both modes, the README probe and the five
``scripts/probe_weighted_frames.py`` probes.

Editing an entry is an explicit change of output, recorded in CHANGES.md.
``python tests/test_golden.py`` prints the manifest of the current code.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import framelab
from framelab import FrameSpec, conjecture_probe, default_specs, frame_digest, load_frame
from framelab.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
DFT4 = ["--frame-f", "dft4_canonical.json", "--frame-g", "dft4_transform.json"]
README_STDOUT = {
    "coherence_dft4": ["coherence", "--frame", "dft4_canonical.json", "--frame-g", "dft4_transform.json"],
    "check_dft4.json": ["check", *DFT4, "--x", "1,0,1,0"],
    "check_dft4.csv": ["check", *DFT4, "--x", "1,0,1,0", "--format", "csv"],
    "extremal_dft4": ["extremal", *DFT4, "--budget", "200"],
}
# gen files whose bytes depend on the BLAS kernel, mapped to whether their
# functionals (copied from a BLAS-free base) are pinned
BLAS_DEPENDENT = {
    "mercedes_dual.json": True,
    "random_parseval_d2_n4.json": False,
    "random_parseval_d3_n5.json": False,
}
TRIAL_DECISIONS = (
    "planted_support",
    "planted_weight",
    "recovered_support",
    "recovered_weight",
    "hypothesis_distinct_vectors",
    "unique",
    "confirmed",
)


def _run(*argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue().encode()


def _gen_argv(spec: FrameSpec, out: str) -> list[str]:
    # a flag only where the spec leaves FrameSpec's default, so gen's own
    # defaults are part of what is pinned
    argv = ["gen", "--kind", spec.kind.replace("_", "-"), "--out", out]
    for field in dataclasses.fields(FrameSpec):
        value = getattr(spec, field.name)
        if field.name in ("kind", "base") or value == field.default:
            continue
        flag = "--" + field.name.replace("_", "-")
        if field.name == "normalize":
            argv.append(flag)
        elif field.name == "permutation":
            argv += ["--perm", ",".join(map(str, value))]
        elif field.name == "signs":
            argv += [flag, ",".join(map(repr, value))]
        else:
            argv += [flag, str(value)]
    return argv


def _gen(name: str, spec: FrameSpec) -> dict[str, bytes]:
    argv = _gen_argv(spec, f"{name}.json")
    if spec.base is not None:
        _run(*_gen_argv(spec.base, f"{name}_base.json"))
        argv += ["--base", f"{name}_base.json"]
    stdout = _run(*argv)
    outputs = {f"gen/{name}/stdout": stdout}
    for path in json.loads(stdout)["written"]:
        data, frame = Path(path).read_bytes(), load_frame(path)
        digest = frame_digest(frame).encode()
        if path in BLAS_DEPENDENT:
            projection = {"field": frame.field, "p": frame.p, "dimension": frame.dimension,
                          "n_atoms": frame.n_atoms, "weights": frame.space.weights.tobytes().hex()}
            if BLAS_DEPENDENT[path]:
                projection["functionals"] = frame.functionals.tobytes().hex()
            digest = _canonical(digest.decode() == hashlib.sha256(data.removesuffix(b"\n")).hexdigest())
            data = _canonical(projection)
        outputs[f"gen/{name}/{path}"] = data
        outputs[f"gen/{name}/{path}/frame_digest"] = digest
    return outputs


def _probe_decisions(report: dict) -> dict:
    return {
        "eps_residual_policy": report["eps_residual_policy"],
        "trials_run": report["trials_run"],
        "trials_skipped": report["trials_skipped"],
        "confirmations": report["confirmations"],
        "trials": [[record[key] for key in TRIAL_DECISIONS] for record in report["trial_records"]],
    }


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _script_probe_targets():
    path = ROOT / "scripts" / "probe_weighted_frames.py"
    spec = importlib.util.spec_from_file_location("probe_weighted_frames", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.probe_targets()


def golden_outputs() -> dict[str, bytes]:
    """Every golden output by name; writes its frame files into the current
    directory."""
    outputs = {}
    for name, spec in default_specs():
        outputs.update(_gen(name, spec))
    outputs.update(_gen("harmonic_d32_n512", FrameSpec("harmonic_discretization", d=32, N=512)))
    _run("gen", "--kind", "dft-pair", "--d", "4", "--out", "dft4.json")
    for name, argv in README_STDOUT.items():
        outputs[f"readme/{name}"] = _run(*argv)
    _run("gen", "--kind", "harmonic-discretization", "--d", "4", "--N", "8", "--out", "harmonic.json")
    _run("gen", "--kind", "weighted-split", "--base", "harmonic.json", "--out", "split.json")
    for mode in ("l0", "measure"):
        solution = json.loads(_run("sparse", "--frame", "split.json", "--target", "2,0,0,0", "--mode", mode))
        keys = ("support", "support_cardinality", "support_weight", "unique", "status")
        outputs[f"readme/sparse_{mode}/decisions"] = _canonical({key: solution[key] for key in keys})
    report = json.loads(_run("probe", "--frame", "split.json", "--trials", "100", "--seed", "7"))
    outputs["readme/probe/decisions"] = _canonical(_probe_decisions(report))
    for name, frame in _script_probe_targets():
        report = conjecture_probe(frame, trials=200, seed=0)
        outputs[f"scripts/probe_{name}/decisions"] = _canonical(_probe_decisions(report))
    return outputs


def manifest_of(outputs: dict[str, bytes]) -> dict:
    return {name: {"length": len(data), "sha256": hashlib.sha256(data).hexdigest()} for name, data in outputs.items()}


def test_golden_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRAMELAB_SEED", raising=False)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = manifest_of(golden_outputs())
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert changed == []


def _openblas_config() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("openblas configuration", "") if "openblas" in blas.get("name", "") else ""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS kernels differ by CPU only on x86-64"
)
@pytest.mark.skipif(
    "DYNAMIC_ARCH" not in _openblas_config(), reason="numpy's BLAS is not an OpenBLAS that picks its kernel at run time"
)
@pytest.mark.parametrize("core", ["Prescott", "Sandybridge"])
def test_golden_manifest_holds_on_other_openblas_kernels(core):
    # the kernel is chosen once per process, so each one runs in a child,
    # which imports the framelab this process imported
    src = str(Path(framelab.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    os.environ.pop("FRAMELAB_SEED", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            manifest = manifest_of(golden_outputs())
        finally:
            os.chdir(here)
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
