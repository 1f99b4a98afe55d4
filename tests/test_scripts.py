"""Smoke tests of the scripts under scripts/, run as they are documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ionread

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = dict(os.environ,
               PYTHONPATH=str(Path(ionread.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_calibrate_crosstalk_small_sweep():
    proc = run_script("calibrate_crosstalk.py", "--train-trials", "200",
                      "--eval-trials", "300", "--eps-grid", "0.0", "0.016")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("eps,threshold_0")
    assert len(lines) == 4
    assert lines[-1].startswith("# closest to target 0.012: eps=")


def test_every_script_is_documented_and_smoke_tested():
    scripts = {path.name for path in SCRIPTS.glob("*.py")}
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Scripts\n")[1].split("\n## ")[0]
    assert set(re.findall(r"`scripts/(\w+\.py)`", section)) == scripts
    assert set(re.findall(r'run_script\("(\w+\.py)"', Path(__file__).read_text(encoding="utf-8"))) == scripts
