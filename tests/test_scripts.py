"""Smoke tests of the scripts under scripts/, run as they are documented."""

import os
import subprocess
import sys
from pathlib import Path

import ionread
from ionread.cli import run_command

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def test_detection_report_writes_three_artifacts(tmp_path, capsys):
    proc = run_script("detection_report.py", "--out-dir", str(tmp_path / "report"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = tmp_path / "report"
    assert sorted(p.name for p in report.iterdir()) == ["curve.csv", "params.txt", "table.csv"]
    assert run_command(["table1"]) == 0
    table1 = capsys.readouterr().out.splitlines()
    rows = (report / "table.csv").read_text().splitlines()
    # same header, same nine rows; the script orders species by name
    assert rows[0] == table1[0]
    assert len(rows) == 10
    assert set(rows[1:]) == set(table1[1:])
