import subprocess
import sys
from pathlib import Path

import oracles
from framelab import default_zoo, dft_pair, extremal_search

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    return result


def test_cue_sweep_csv_matches_frozen_per_vector_loop():
    lines = run_script("cue_sweep.py", "--vectors", "20", "--seed", "3").stdout.splitlines()
    assert lines[0].startswith("schema_version,frame_f,frame_g")
    assert lines[1:] == oracles.legacy_cue_sweep_rows(default_zoo(), 20, 3)


def test_extremal_scan_rows_match_the_library():
    lines = run_script("extremal_scan.py", "--dims", "4", "9", "--budget", "300", "--seed", "2").stdout.splitlines()
    assert lines[0] == "schema_version,d,min_lhs1,bound1,gap,supp_f,supp_g,candidates"
    assert len(lines) == 3
    for d, line in zip((4, 9), lines[1:]):
        res = extremal_search(*dft_pair(d), budget=300, seed=2)
        expected = [1, d, res.min_lhs1, res.bound1, res.min_lhs1 - res.bound1, res.report.supp_f, res.report.supp_g]
        assert line == ",".join(map(repr, expected)) + f",{res.candidates_evaluated}"
        # the budget covers every support up to the spike train's sqrt(d)
        assert abs(res.min_lhs1 - d**0.5) <= 1e-9


def test_probe_weighted_frames_reports_are_byte_identical_on_rerun(tmp_path):
    runs = []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        result = run_script("probe_weighted_frames.py", "--out-dir", str(out_dir), "--trials", "20", "--seed", "1")
        assert len(result.stderr.splitlines()) == 5 and result.stdout == ""
        runs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert len(runs[0]) == 5
    assert runs[0] == runs[1]
