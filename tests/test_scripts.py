"""Smoke run of scripts/calib_size_study.py at a tiny size: it goes through
the harness's study code and must exit 0 with its header."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calib_size_study.py"
TINY = ["--d-out", "4", "--d-in", "8", "--outlier-channels", "1", "--group-size", "4", "--seeds", "2"]


def test_calib_size_study(tmp_path):
    r = subprocess.run(
        [sys.executable, str(SCRIPT), *TINY, "--sizes", "8,16"], capture_output=True, text=True, cwd=tmp_path, timeout=300
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].split() == ["size", "baseline", "selected", "rel", "gap"]
    assert [line.split()[0] for line in lines[1:]] == ["8", "16"]
