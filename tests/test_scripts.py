"""Smoke runs of the scripts under scripts/ at tiny sizes: each goes through
the harness's sweep or study code and must exit 0 with its header."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY = ["--d-out", "4", "--d-in", "8", "--outlier-channels", "1", "--group-size", "4", "--seeds", "2"]


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *TINY, *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


def test_tradeoff_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    r = run_script("tradeoff_sweep.py", "--n-calib", "16", "--n-heldout", "16", "--out", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,gamma,recon,sar,drift,heldout_risk,method,seed"
    assert len(lines) == 1 + 2 * 11  # two seeds on the 11-point grid
    assert r.stdout.startswith("seed  0: best lambda ")
    assert "interior held-out minimum in " in r.stdout


def test_calib_size_study(tmp_path):
    r = run_script("calib_size_study.py", "--sizes", "8,16", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].split() == ["size", "baseline", "selected", "rel", "gap"]
    assert [line.split()[0] for line in lines[1:]] == ["8", "16"]
