import subprocess
import sys
from pathlib import Path

import oracles
from framelab import default_zoo

ROOT = Path(__file__).resolve().parents[1]


def test_cue_sweep_csv_matches_frozen_per_vector_loop():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cue_sweep.py"), "--vectors", "20", "--seed", "3"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("schema_version,frame_f,frame_g")
    assert lines[1:] == oracles.legacy_cue_sweep_rows(default_zoo(), 20, 3)
