import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import ionread
from ionread import cli
from ionread.ccd import MAX_PIXELS, MAX_READOUTS
from ionread.cli import run_command
from ionread.detmodel import MAX_BINS, histogram_cutoff
from ionread.specfun import poisson_pmf

SUBCOMMANDS = ["params", "dist", "optimize", "curve", "table1", "mc", "fit",
               "ccd-sim", "crosstalk"]

FIG_CONFIG = {
    "species": "cd111",
    "scheme": "p32",
    "s": 0.25,
    "tau_d_us": 150.0,
    "eta": 1.4e-3,
    "p_pi": 7.5e-4,
    "p_minus": 7.5e-4,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def assert_help_ran(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ionread")


def run(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, cwd):
    env = dict(os.environ,
               PYTHONPATH=str(Path(ionread.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "ionread.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, env=env)


REGISTER_CONFIG = {
    "positions": [[3, 3], [10, 3], [17, 3]],
    "lambda0": 12.0,
    "alpha1": 1e-3, "alpha2": 1e-3, "eta": 1.0,
    "crosstalk_eps": 0.016,
    "thresholds": [213.5, 251.5, 228.5],
    "states": "random",
    "readouts_out": "readouts.csv",
    "report_out": "report.csv",
}


class TestRuntimeImports:
    def test_readme_commands_never_load_scipy(self, tmp_path):
        det = {k: FIG_CONFIG[k] for k in ("species", "scheme", "s", "tau_d_us", "eta", "p_pi", "p_minus")}
        configs = {
            "leak.json": {"lambda0": 12.0, "alpha1": 0.05, "alpha2": 0.0, "eta": 1.0},
            "sp.json": {"species": "cd111", "scheme": "p32"},
            "det.json": det,
            "det_bright.json": {**det, "initial": "bright"},
            "fit.json": {"dark_csv": "dark.csv", "bright_csv": "bright.csv",
                         "species": "cd111", "scheme": "p32", "tau_d_us": 150.0},
            "reg.json": REGISTER_CONFIG,
        }
        for name, doc in configs.items():
            write_config(tmp_path, doc, name)
        commands = [
            ["dist", "--config", "leak.json", "--out", "dist.csv"],
            ["optimize", "--config", "sp.json", "--eta", "0.001"],
            ["mc", "--config", "det.json", "--trials", "20000", "--seed", "9", "--out", "dark.csv"],
            ["mc", "--config", "det_bright.json", "--trials", "20000", "--seed", "1009", "--out", "bright.csv"],
            ["fit", "--config", "fit.json"],
            ["ccd-sim", "--config", "reg.json", "--trials", "20000", "--seed", "777"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(ionread.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from ionread.cli import run_command\n"
             f"codes = [run_command(argv) for argv in {commands!r}]\n"
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"],
            capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[0, 0, 0, 0, 0, 0] []\n"


class TestHelp:
    def test_top_level_help(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "ionread" in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help(self, name, capsys):
        code, out, _ = run([name, "--help"], capsys)
        assert code == 0
        assert name in out or "usage" in out

    def test_installed_entry_point(self, tmp_path):
        # Checks the declared console script without needing an install:
        # the declaration in pyproject.toml, then the wrapper that installers
        # generate for it, run in a fresh interpreter.
        toml = tomllib or pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = toml.load(fh).get("project", {}).get("scripts", {})
        assert scripts.get("ionread") == "ionread.cli:main"
        module, _, attr = scripts["ionread"].partition(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ionread.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                              capture_output=True, text=True, timeout=60,
                              cwd=tmp_path, env=env)
        assert_help_ran(proc)

    @pytest.mark.skipif(shutil.which("ionread") is None,
                        reason="ionread console script not installed")
    def test_path_entry_point(self):
        proc = subprocess.run(["ionread", "--help"], capture_output=True,
                              text=True, timeout=60)
        assert_help_ran(proc)


class TestParams:
    def test_species_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_CONFIG)
        code, out, _ = run(["params", "--config", cfg], capsys)
        assert code == 0
        lines = dict(l.split(": ") for l in out.strip().splitlines())
        assert float(lines["lambda0"]) == pytest.approx(7.916813487046278,
                                                        rel=1e-8)
        assert float(lines["alpha1"]) == pytest.approx(1.3319835899621716e-06,
                                                       rel=1e-8)
        assert float(lines["alpha2"]) == pytest.approx(2.9340886329494247e-07,
                                                       rel=1e-8)
        assert float(lines["eta"]) == 1.4e-3

    def test_eta_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 10.0, "alpha1": 1e-3,
                                      "alpha2": 0.0, "eta": 0.5})
        code, out, _ = run(["params", "--config", cfg, "--eta", "0.25"], capsys)
        assert code == 0
        assert "eta: 0.25" in out

    def test_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG_CONFIG)
        target = tmp_path / "params.txt"
        code, out, _ = run(["params", "--config", cfg, "--out", str(target)],
                           capsys)
        assert code == 0
        assert out == ""
        assert "lambda0: " in target.read_text()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".ionread-")]
        assert leftovers == []

    @pytest.mark.parametrize("doc, flags", [
        ({"lambda0": 5, "eta": 2}, []),
        ({"lambda0": 5, "eta": 0}, []),
        ({"lambda0": 5, "eta": 0.5}, ["--eta", "nan"]),
        ({"lambda0": 5, "eta": 0.5, "alpha1": 3}, []),
    ], ids=["eta-above-one", "eta-zero", "eta-flag-nan", "leak-fraction-above-one"])
    def test_direct_style_outside_domain_exit_1(self, tmp_path, capsys, doc, flags):
        cfg = write_config(tmp_path, doc)
        code, out, err = run(["params", "--config", cfg, *flags], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("ionread: ") and err.count("\n") == 1


class TestDist:
    def test_pure_poisson_when_alphas_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 6.0, "alpha1": 0.0,
                                      "alpha2": 0.0, "eta": 1.0, "n_max": 25})
        code, out, _ = run(["dist", "--config", cfg], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,p_dark,p_bright"
        assert len(lines) == 27
        for row in lines[1:]:
            n_s, pd_s, pb_s = row.split(",")
            n = int(n_s)
            expect = poisson_pmf(n, 6.0)
            assert float(pb_s) == pytest.approx(expect, rel=1e-8)
            assert float(pd_s) == (1.0 if n == 0 else 0.0)

    def test_nine_significant_digits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 12.0, "alpha1": 0.05,
                                      "alpha2": 0.0, "eta": 1.0, "n_max": 3})
        code, out, _ = run(["dist", "--config", cfg], capsys)
        assert code == 0
        first = out.strip().splitlines()[1].split(",")[1]
        assert first == "%.9g" % 0.577696135666746

    def test_huge_rate_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 1e5, "alpha1": 0.001,
                                      "alpha2": 0.001, "eta": 1.0})
        code, out, err = run(["dist", "--config", cfg], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == histogram_cutoff(1e5) + 1
        values = [float(v) for row in rows for v in row[1:]]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert math.fsum(values) == pytest.approx(2.0, abs=1e-6)


class TestOptimize:
    def test_cd_p32(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"species": "cd111", "scheme": "p32"})
        code, out, _ = run(["optimize", "--config", cfg, "--eta", "0.001"],
                           capsys)
        assert code == 0
        fields = dict(l.split(": ") for l in out.strip().splitlines())
        assert int(fields["d"]) == 0
        assert float(fields["fidelity"]) == pytest.approx(0.995349006,
                                                          abs=1e-6)
        assert 5.0 <= float(fields["lambda0_opt"]) <= 6.0
        assert float(fields["fidelity"]) == pytest.approx(
            min(float(fields["dark_fidelity"]),
                float(fields["bright_fidelity"])), rel=1e-9)


class TestCurve:
    def test_default_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"species": "cd111", "scheme": "p32"})
        code, out, _ = run(["curve", "--config", cfg], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("eta,infidelity_numeric,infidelity_approx,"
                            "lambda0_opt,d_opt")
        assert len(lines) == 5
        inf = [float(r.split(",")[1]) for r in lines[1:]]
        assert all(b <= a for a, b in zip(inf, inf[1:]))


class TestTable1:
    def test_rows_and_tolerances(self, capsys):
        printed = {
            ("cd111", 0.001): 96.7, ("cd111", 0.01): 99.65,
            ("cd111", 0.3): 99.988,
            ("yb171", 0.001): 99.33, ("yb171", 0.01): 99.93,
            ("yb171", 0.3): 99.998,
            ("hg199", 0.001): 99.43, ("hg199", 0.01): 99.943,
            ("hg199", 0.3): 99.998,
        }
        code, out, _ = run(["table1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "species,eta,fidelity_percent,lambda0_opt,d_opt"
        assert len(lines) == 10
        for row in lines[1:]:
            name, eta_s, fid_s, _, _ = row.split(",")
            key = (name, float(eta_s))
            assert abs(float(fid_s) - printed[key]) <= 0.3, key


class TestMc:
    def test_seeded_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 8.0, "alpha1": 1e-3,
                                      "alpha2": 0.0, "eta": 0.1,
                                      "mode": "rate_equation",
                                      "initial": "bright"})
        args = ["mc", "--config", cfg, "--trials", "30000", "--seed", "42"]
        code_a, out_a, _ = run(args, capsys)
        code_b, out_b, _ = run(args, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.strip().splitlines()
        assert lines[0].startswith("# trials=30000 seed=42 mode=rate_equation")
        assert lines[1] == "n,count"

    def test_bad_mode_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 8.0, "eta": 0.1,
                                      "mode": "quantum_jump"})
        code, _, err = run(["mc", "--config", cfg, "--trials", "10"], capsys)
        assert code == 2
        assert "quantum_jump" in err

    @pytest.mark.parametrize("initial", ["dark", "bright"])
    def test_leak_fraction_above_one_exit_1(self, tmp_path, capsys, initial):
        cfg = write_config(tmp_path, {"lambda0": 12, "alpha1": 2, "eta": 1,
                                      "initial": initial})
        out_path = tmp_path / "hist.csv"
        code, out, err = run(["mc", "--config", cfg, "--trials", "100",
                              "--out", str(out_path)], capsys)
        assert code == 1
        assert out == "" and not out_path.exists()
        assert err.startswith("ionread: ") and err.count("\n") == 1
        assert "alpha1/eta" in err


class TestFitPipeline:
    def test_mc_to_fit_roundtrip(self, tmp_path, capsys):
        dark_csv = tmp_path / "dark.csv"
        bright_csv = tmp_path / "bright.csv"
        base = dict(FIG_CONFIG)
        for initial, seed, path in (("dark", 9, dark_csv),
                                    ("bright", 1009, bright_csv)):
            cfg = write_config(tmp_path, {**base, "initial": initial},
                               name=f"mc_{initial}.json")
            code, _, _ = run(["mc", "--config", cfg, "--trials", "20000",
                              "--seed", str(seed), "--out", str(path)], capsys)
            assert code == 0
        fit_cfg = write_config(tmp_path, {
            "dark_csv": str(dark_csv), "bright_csv": str(bright_csv),
            "species": "cd111", "scheme": "p32", "tau_d_us": 150.0,
        }, name="fit.json")
        code, out, _ = run(["fit", "--config", fit_cfg], capsys)
        assert code == 0
        fields = dict(l.split(": ") for l in out.strip().splitlines())
        assert fields["converged"] == "true"
        assert abs(float(fields["eta"]) - 1.4e-3) / 1.4e-3 < 0.05
        assert abs(float(fields["s"]) - 0.25) / 0.25 < 0.10
        assert abs(float(fields["p_impure"]) - 1.5e-3) / 1.5e-3 < 0.25
        assert fields["lambda_bg"] == "none"


class TestCcdSim:
    def test_readouts_and_report(self, tmp_path, capsys):
        readouts_path = tmp_path / "readouts.csv"
        report_path = tmp_path / "report.csv"
        cfg = write_config(tmp_path, {
            **REGISTER_CONFIG,
            "crosstalk_eps": 0.0,
            "readouts_out": str(readouts_path),
            "report_out": str(report_path),
        })
        code, out, _ = run(["ccd-sim", "--config", cfg, "--trials", "300",
                            "--seed", "7"], capsys)
        assert code == 0
        lines = readouts_path.read_text().strip().splitlines()
        assert lines[0] == "trial,ion,roi_sum,bit"
        assert len(lines) == 1 + 300 * 3
        report = report_path.read_text().strip().splitlines()
        assert report[0].startswith("i,j,")

    def test_missing_readout_target_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "positions": [[3, 3]], "lambda0": 12.0, "eta": 1.0,
            "thresholds": [0.0],
        })
        code, _, err = run(["ccd-sim", "--config", cfg, "--trials", "10"],
                           capsys)
        assert code == 2
        assert "readouts_out" in err

    @pytest.mark.parametrize("override, key", [
        ({"roi_size": 5}, "roi_size"),
        ({"ccd": {"bin_factor": 2}}, "bin_factor"),
    ], ids=["roi_size", "ccd.bin_factor"])
    def test_removed_keys_rejected(self, tmp_path, monkeypatch, capsys,
                                   override, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {**REGISTER_CONFIG, **override})
        code, _, err = run(["ccd-sim", "--config", cfg, "--trials", "200"],
                           capsys)
        assert code == 2
        assert f"unknown config key '{key}'" in err


class TestCrosstalk:
    def test_published_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"wavelength_nm": 214.5,
                                      "spacing_um": 4.0})
        code, out, _ = run(["crosstalk", "--config", cfg], capsys)
        assert code == 0
        assert out.strip() == "crosstalk_ratio: 0.00068650863"


class TestExitCodes:
    def test_unknown_key_named_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FIG_CONFIG, "tau_detect": 1.0})
        code, _, err = run(["params", "--config", cfg], capsys)
        assert code == 2
        assert "tau_detect" in err
        # a subcommand without config keys still rejects them by name
        cfg = write_config(tmp_path, {"x": 1}, name="table1.json")
        code, _, err = run(["table1", "--config", cfg], capsys)
        assert code == 2
        assert "unknown config key 'x'" in err

    def test_mixed_styles_named_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 5, "eta": 1, "species": "cd111"})
        code, _, err = run(["dist", "--config", cfg], capsys)
        assert code == 2
        assert "config keys 'lambda0' and 'species' cannot be combined" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["params", "--config", str(bad)], capsys)
        assert code == 2

    def test_unknown_species_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**FIG_CONFIG, "species": "xe999"})
        code, _, err = run(["params", "--config", cfg], capsys)
        assert code == 2
        assert "xe999" in err

    def test_missing_required_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"species": "cd111", "scheme": "p32",
                                      "s": 0.25, "eta": 1e-3})
        code, _, err = run(["params", "--config", cfg], capsys)
        assert code == 2
        assert "tau_d_us" in err

    def test_domain_failure_exit_1(self, tmp_path, capsys):
        # valid config shape, but the leak fraction breaks the model's
        # validity envelope at runtime
        cfg = write_config(tmp_path, {"lambda0": 12.0, "alpha1": 0.9,
                                      "alpha2": 0.0, "eta": 0.5})
        code, _, err = run(["dist", "--config", cfg], capsys)
        assert code == 1
        assert err != ""

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lambda0": 6.0, "alpha1": 0.0,
                                      "alpha2": 0.0, "eta": 1.0})
        target = tmp_path / "missing_dir" / "out.csv"
        code, _, err = run(["dist", "--config", cfg, "--out", str(target)],
                           capsys)
        assert code == 1
        assert not target.exists()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".ionread-")]
        assert leftovers == []


class TestOutOfMemory:
    @pytest.fixture(params=["compute", "write"])
    def raise_memory_error(self, request, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")
        if request.param == "compute":
            monkeypatch.setattr(ionread.cli, "pmf_arrays", fail)
        else:
            monkeypatch.setattr(ionread.cli.os, "replace", fail)

    def test_exit_1_one_line_no_output(self, tmp_path, capsys, raise_memory_error):
        cfg = write_config(tmp_path, {"lambda0": 6.0, "alpha1": 0.0,
                                      "alpha2": 0.0, "eta": 1.0})
        code, out, err = run(["dist", "--config", cfg, "--out", str(tmp_path / "dist.csv")],
                             capsys)
        assert code == 1
        assert out == ""
        assert err == "ionread: out of memory: Unable to allocate 745. GiB for an array\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestFailureContract:
    """A failing run exits 1 or 2 with a one-line message, no traceback,
    and leaves none of its output files behind."""

    @pytest.mark.parametrize("override, trials, code, named", [
        ({"lambda0": [12, None, 12]}, 200, 2, "lambda0"),
        ({"states": 7}, 200, 2, "states"),
        ({"ccd": {"gain_g": -1}}, 200, 2, "gain_g"),
        ({"ccd": {"gain_g": "high"}}, 200, 2, "ccd.gain_g"),
        ({"positions": [[2, 3], [10, 3], [17, 3]]}, 200, 2, "positions[0]"),
        ({"thresholds": ["a", 1, 2]}, 200, 2, "thresholds"),
        ({"readouts_out": 5}, 200, 2, "readouts_out"),
        ({"seed": -1}, 200, 1, "seed"),
        ({}, 50, 1, "100 readouts"),
    ], ids=["lambda0-null", "states-int", "gain-negative", "gain-string",
            "roi-left-edge", "threshold-string", "out-int", "seed-negative",
            "too-few-trials"])
    def test_ccd_sim(self, tmp_path, override, trials, code, named):
        cfg = write_config(tmp_path, {**REGISTER_CONFIG, **override})
        proc = run_process(["ccd-sim", "--config", cfg, "--trials", str(trials)],
                           tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert not (tmp_path / "readouts.csv").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("meta", ["trials=abc", "trials=100 seed=abc"])
    def test_fit_bad_histogram_metadata(self, tmp_path, meta):
        (tmp_path / "dark.csv").write_text(f"# {meta}\nn,count\n0,60\n1,40\n")
        cfg = write_config(tmp_path, {"dark_csv": "dark.csv", "species": "cd111",
                                      "scheme": "p32", "tau_d_us": 150.0})
        proc = run_process(["fit", "--config", cfg, "--out", "fit.txt"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert meta.split()[-1].split("=")[0] in proc.stderr
        assert not (tmp_path / "fit.txt").exists()

    @pytest.mark.parametrize("override, key", [
        ({"dark_csv": 5}, "dark_csv"),
        ({"bright_csv": ["bright.csv"]}, "bright_csv"),
        ({"model_csv": 7}, "model_csv"),
    ], ids=["dark-int", "bright-list", "model-int"])
    def test_fit_file_keys(self, tmp_path, override, key):
        (tmp_path / "dark.csv").write_text("# trials=100\nn,count\n0,60\n1,40\n")
        cfg = write_config(tmp_path, {"dark_csv": "dark.csv", "species": "cd111",
                                      "scheme": "p32", "tau_d_us": 150.0, **override})
        proc = run_process(["fit", "--config", cfg, "--out", "fit.txt"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"config key '{key}'" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "dark.csv"]

    @pytest.mark.parametrize("model_csv", [False, True], ids=["text", "text-and-model"])
    def test_fit_no_finite_likelihood(self, tmp_path, model_csv):
        # at this detection time every point inside the fit bounds needs a
        # pmf table beyond MAX_BINS, so the likelihood is infinite everywhere
        (tmp_path / "dark.csv").write_text("# trials=100\nn,count\n0,60\n1,40\n")
        (tmp_path / "bright.csv").write_text("# trials=100\nn,count\n0,10\n1,40\n2,50\n")
        doc = {"dark_csv": "dark.csv", "bright_csv": "bright.csv", "species": "cd111",
               "scheme": "p32", "tau_d_us": 1e300}
        if model_csv:
            doc["model_csv"] = "model.csv"
        cfg = write_config(tmp_path, doc)
        proc = run_process(["fit", "--config", cfg, "--out", "fit.txt"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "tau_d" in proc.stderr
        assert proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bright.csv", "config.json",
                                                              "dark.csv"]


def _smallest_over_cap(bins):
    """The smallest integer value whose count table would pass MAX_BINS."""
    lo, hi = 0, 2 * MAX_BINS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bins(mid) > MAX_BINS else (mid, hi)
    return hi


LAMBDA0_OVER_CAP = _smallest_over_cap(histogram_cutoff)


class TestCaps:
    """Each size cap rejects a value just above it before anything is
    allocated: exit 2 naming a config key that sets the size, exit 1 with
    one line when the size is derived."""

    def test_bin_cap_admits_documented_domain(self):
        assert histogram_cutoff(1e6) <= MAX_BINS < histogram_cutoff(LAMBDA0_OVER_CAP)

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sized work started before the cap check")
        monkeypatch.setattr(ionread.detmodel, "count_pmfs", fail)
        monkeypatch.setattr(ionread.mcsim, "_chunk_counts", fail)
        monkeypatch.setattr(ionread.ccd, "_sampler", fail)

    @pytest.mark.parametrize("command, doc, flags, code, named", [
        ("dist", {"lambda0": LAMBDA0_OVER_CAP, "eta": 1.0}, [], 2, f"config key 'lambda0' = {LAMBDA0_OVER_CAP}"),
        ("dist", {"lambda0": 6.0, "eta": 1.0, "n_max": MAX_BINS + 1}, [], 2, "config key 'n_max'"),
        ("ccd-sim", {**REGISTER_CONFIG, "lambda0": [12.0, LAMBDA0_OVER_CAP, 12.0]}, ["--trials", "200"], 2,
         "config key 'lambda0'"),
        ("ccd-sim", {**REGISTER_CONFIG, "frame_width": MAX_PIXELS // 7 + 1, "frame_height": 7},
         ["--trials", "200"], 2, f"frame_width, frame_height or positions must hold 1 to {MAX_PIXELS}"),
        ("ccd-sim", {**REGISTER_CONFIG, "positions": [[3, 3], [10, 3], [MAX_PIXELS // 7, 3]]},
         ["--trials", "200"], 2, f"frame_width, frame_height or positions must hold 1 to {MAX_PIXELS}"),
        ("ccd-sim", REGISTER_CONFIG, ["--trials", str(MAX_READOUTS // 3 + 1)], 2,
         f"trials of 3 ions exceed the cap of {MAX_READOUTS}"),
        ("dist", {**FIG_CONFIG, "tau_d_us": 3e7}, [], 1, "a pmf table at lambda0 = 1583362"),
        ("mc", {**FIG_CONFIG, "tau_d_us": 3e7}, ["--trials", "200"], 1, "a Monte Carlo histogram at lambda0 = 1583362"),
        ("fit", {"dark_csv": "dark.csv", "species": "cd111", "tau_d_us": 150.0}, [], 1,
         f"histogram CSV row needs counts up to {MAX_BINS + 1}"),
    ], ids=["dist-lambda0", "dist-n_max", "ccd-sim-lambda0", "ccd-sim-frame", "ccd-sim-positions",
            "ccd-sim-trials", "dist-derived-lambda0", "mc-derived-lambda0", "fit-histogram-width"])
    def test_over_cap_rejected(self, tmp_path, monkeypatch, capsys, no_allocation,
                               command, doc, flags, code, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dark.csv").write_text(f"n,count\n0,100\n{MAX_BINS + 1},1\n")
        cfg = write_config(tmp_path, doc)
        code_, out, err = run([command, "--config", cfg, *flags, "--out", "out.csv"], capsys)
        assert code_ == code, err
        assert named in err
        assert out == "" and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "dark.csv"]


# Sample values per value parser of the key tables: valid ones, the
# boundaries 0 and 1, and files the fuzzed documents can name.
VALID = {
    cli._real: [1e-3, 12.0, 1.0, 0.0],
    cli._integer: [120, 1, 0],
    cli._boolean: [False, True],
    cli._text: ["fixed", "exponential"],
    cli._path: ["hist.csv", "missing.csv", "result.csv"],
    cli._numbers: [[0.5, 200.0], [1e-3]],
    cli._per_ion: [12.0, [12.0, 6.0]],
    cli._positions: [[[3, 3], [10, 3]]],
    cli._states: ["random", "01", [1, 0]],
    cli._species: ["cd111", "yb171"],
    cli._CCD: [{}, {"gain_dist": "fixed", "readout_rms_r": 0}],
}
WRONG = [None, "x", True, [], {"k": 1}, -1, 1.5, float("nan"), 10**400]


def _valid_values(spec):
    choices = VALID.get(spec.type)
    return choices if choices is not None else spec.type.__doc__.split(" or ")


@st.composite
def config_documents(draw):
    """A subcommand and a document drawn from its key table: valid values,
    then up to two mutations (a wrong type, a dropped or unknown key, or a
    size just above its cap)."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    table = draw(st.sampled_from(cli._COMMANDS[command][2]))
    keys = [key for key, spec in table.items() if spec.type is not None]
    doc = {key: draw(st.sampled_from(_valid_values(table[key]))) for key in keys
           if table[key].default is cli.REQUIRED or draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(["wrong", "drop", "unknown", "cap"]))
        if mutation == "wrong" and keys:
            key = draw(st.sampled_from(keys))
            # trial counts stay small: mc has no trials cap, a huge count only
            # costs time, and TestCaps checks the register's readout cap
            doc[key] = draw(st.sampled_from(WRONG[:-1] if key == "trials" else WRONG))
        elif mutation == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif mutation == "unknown":
            doc["bogus_key"] = 1
        elif mutation == "cap" and command == "ccd-sim" and draw(st.booleans()):
            doc.update(frame_width=MAX_PIXELS // 7 + 1, frame_height=7)
        elif mutation == "cap":
            capped = [key for key in keys if table[key].bins]
            if capped:
                key = draw(st.sampled_from(capped))
                doc[key] = _smallest_over_cap(table[key].bins)
    return command, doc


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(config_documents())
    def test_exit_contract(self, drawn):
        command, doc = drawn
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                Path("hist.csv").write_text("# trials=10\nn,count\n0,6\n1,4\n")
                Path("config.json").write_text(json.dumps(doc))
                before = sorted(os.listdir())
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_command([command, "--config", "config.json", "--out", "out.txt"])
                after = sorted(os.listdir())
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert after == before
            assert err.getvalue().count("\n") == 1
