"""CLI behaviour: exit codes, file formats, determinism, thin-shell property."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavewhittle.cli import main, read_panel, write_panel
from wavewhittle.estimator import EstimationConfig, estimate_panel
from wavewhittle.wavelets import WaveletSpec


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_deterministic_panel(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--d", "0.2,0.2", "--rho", "0.4", "--N", "512", "--seed", "7"]
    assert run_cli(*args, "--output", str(out1)) == 0
    assert run_cli(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    names, panel = read_panel(out1)
    assert names == ["ch1", "ch2"]
    assert panel.shape == (512, 2)


def test_simulate_rejects_bad_covariance(tmp_path):
    code = run_cli("simulate", "--d", "0.2,0.2", "--rho", "1.5", "--N", "64",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 4


def test_simulate_moment_cap(tmp_path):
    code = run_cli("simulate", "--d", "4.5", "--N", "64", "--M", "4",
                   "--output", str(tmp_path / "x.csv"))
    assert code == 2


def test_estimate_round_trip_recovers_memory(tmp_path):
    panel_path = tmp_path / "panel.csv"
    report_path = tmp_path / "report.json"
    assert run_cli("simulate", "--d", "0.2,0.2", "--rho", "0.4", "--N", "512",
                   "--seed", "20250808", "--output", str(panel_path)) == 0
    assert run_cli("estimate", "--input", str(panel_path), "--M", "4",
                   "--j0", "1", "--j1", "9", "--output", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert all(abs(v - 0.2) < 0.15 for v in report["d_hat"])
    assert report["config"]["effective_j1"] == 6
    assert report["config"]["channels"] == ["ch1", "ch2"]
    # plot-ready artifacts
    hist = (tmp_path / "report_dhist.csv").read_text().splitlines()
    assert hist[0] == "bin_left,count"
    assert sum(int(line.split(",")[1]) for line in hist[1:]) == 2
    corr = (tmp_path / "report_corr.csv").read_text().splitlines()
    assert corr[0] == "channel,ch1,ch2"


def test_cli_matches_library(tmp_path):
    """Thin-shell check: the report carries exactly the library's numbers."""
    panel_path = tmp_path / "panel.csv"
    report_path = tmp_path / "report.json"
    run_cli("simulate", "--d", "0.3,0.1", "--rho", "0.2", "--N", "400",
            "--seed", "5", "--output", str(panel_path))
    run_cli("estimate", "--input", str(panel_path), "--M", "4", "--j0", "1",
            "--output", str(report_path))
    report = json.loads(report_path.read_text())
    _, panel = read_panel(panel_path)
    est = estimate_panel(panel, WaveletSpec(vanishing_moments=4), EstimationConfig(j0=1))
    assert_allclose(report["d_hat"], est.d_hat, rtol=0, atol=0)
    assert_allclose(report["omega"], est.omega, rtol=0, atol=0)
    assert report["objective_value"] == est.objective_value


def test_estimate_degenerate_panel_reports_strict_json(tmp_path):
    """Identical channels: a singular profile covariance is reported as
    non-convergence with a null objective, never as a JSON Infinity."""
    x = np.random.default_rng(61).standard_normal(512)
    panel_path = tmp_path / "dup.csv"
    report_path = tmp_path / "dup.json"
    write_panel(panel_path, np.column_stack([x, x]))
    assert run_cli("estimate", "--input", str(panel_path), "--output", str(report_path)) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    assert report["objective_value"] is None
    assert report["warnings"]["non_convergence"] is True
    assert report["diagnostics"]["converged"] is False


def test_estimate_csv_format(tmp_path):
    panel_path = tmp_path / "panel.csv"
    out = tmp_path / "report.csv"
    run_cli("simulate", "--d", "0.2", "--N", "300", "--seed", "3",
            "--output", str(panel_path))
    assert run_cli("estimate", "--input", str(panel_path), "--format", "csv",
                   "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "quantity,row,col,value"
    assert any(line.startswith("d,1,") for line in lines)
    assert (tmp_path / "report_config.json").exists()


def test_estimate_exit_codes(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli("estimate", "--input", str(empty)) == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("ch1,ch2\n1.0,2.0\n1.0,oops\n")
    assert run_cli("estimate", "--input", str(bad)) == 2

    missing = tmp_path / "missing.csv"
    missing.write_text("ch1,ch2\n1.0,2.0\n1.0,\n")
    assert run_cli("estimate", "--input", str(missing)) == 2

    short = tmp_path / "short.csv"
    write_panel(short, np.random.default_rng(0).standard_normal((64, 2)))
    assert run_cli("estimate", "--input", str(short), "--j0", "4") == 3

    assert run_cli("estimate", "--input", str(tmp_path / "nope.csv")) == 2


def test_estimate_reports_parse_position(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("ch1,ch2\n1.0,2.0\nx,3.0\n")
    code = run_cli("estimate", "--input", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err and "column 1" in err


def test_estimate_demean_flag(tmp_path):
    panel_path = tmp_path / "panel.csv"
    run_cli("simulate", "--d", "0.2,0.2", "--rho", "0.4", "--N", "400",
            "--seed", "11", "--output", str(panel_path))
    names, panel = read_panel(panel_path)
    shifted = panel + np.array([100.0, -50.0])
    shifted_path = tmp_path / "shifted.csv"
    write_panel(shifted_path, shifted, names)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli("estimate", "--input", str(panel_path), "--output", str(r1)) == 0
    assert run_cli("estimate", "--input", str(shifted_path), "--demean", "--output", str(r2)) == 0
    d1 = json.loads(r1.read_text())["d_hat"]
    d2 = json.loads(r2.read_text())["d_hat"]
    assert_allclose(d1, d2, atol=1e-9)  # vanishing moments kill constants anyway


def test_mc_subcommand_deterministic(tmp_path):
    base1 = tmp_path / "out1"
    base2 = tmp_path / "out2"
    args = ["mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "4"]
    assert run_cli(*args, "--output", str(base1)) == 0
    assert run_cli(*args, "--output", str(base2)) == 0
    r1 = json.loads((tmp_path / "out1.json").read_text())
    r2 = json.loads((tmp_path / "out2.json").read_text())
    r1.pop("runtime_seconds"); r2.pop("runtime_seconds")
    assert r1 == r2
    csv_lines = (tmp_path / "out1.csv").read_text().splitlines()
    assert csv_lines[0] == "quantity,truth,bias,std,rmse,ratio_mu"
    assert (tmp_path / "out1.csv").read_text() == (tmp_path / "out2.csv").read_text()


def test_mc_reps_one_gives_zero_std(tmp_path):
    base = tmp_path / "one"
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "1",
                   "--output", str(base)) == 0
    report = json.loads((tmp_path / "one.json").read_text())
    assert all(rec["std"] == 0.0 for rec in report["records"])


def test_mc_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 0.2\nmystery = 1\n")
    assert run_cli("mc", "--scenario", str(bad)) == 2


@pytest.mark.parametrize("d", ["nan, 0.2", "0.5, 0.2"])
def test_mc_invalid_memory_exits_2(tmp_path, d):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"d = {d}\nrho = 0.4\nreps = 2\n")
    assert run_cli("mc", "--scenario", str(bad)) == 2


def test_estimate_has_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", "--help")
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def test_omega_file_input(tmp_path):
    om_path = tmp_path / "omega.csv"
    om_path.write_text("a,b\n1.0,0.5\n0.5,2.0\n")
    panel_path = tmp_path / "p.csv"
    assert run_cli("simulate", "--d", "0.2,0.2", "--omega-file", str(om_path),
                   "--N", "128", "--seed", "2", "--output", str(panel_path)) == 0
    _, panel = read_panel(panel_path)
    assert panel.shape == (128, 2)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wavewhittle.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wavewhittle" in proc.stdout


def test_simulate_stdout(capsys):
    assert run_cli("simulate", "--d", "0.1", "--N", "16", "--seed", "4") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "ch1"
    assert len(lines) == 17
