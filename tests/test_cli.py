"""CLI behaviour: exit codes, file formats, determinism, thin-shell property."""

import ast
import csv
import decimal
import fractions
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import wavewhittle.cli as cli
from helpers import mixed_panel, off_half_integers, scan_panel_oracle
from wavewhittle import arfima, errors, estimator, montecarlo, plaincsv
from wavewhittle.cli import main, read_panel, write_panel
from wavewhittle.errors import PanelFormatError
from wavewhittle.estimator import EstimationConfig, estimate_panel
from wavewhittle.wavelets import WaveletSpec


def run_cli(*argv):
    return main(list(argv))


def strict_json(path):
    """The JSON report at path; a NaN or Infinity in it is a ValueError."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


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


def test_simulate_rejects_bad_covariance(tmp_path, capsys):
    # one channel too: its omega is [[1.0]] whatever rho is, so rho is checked first
    for d, rho, message in [("0.2,0.2", "1.5", "omega is not positive definite"),
                            ("0.2", "1.5", "omega is not positive definite"),
                            ("0.2", "-7", "omega is not positive definite"),
                            ("0.2", "nan", "omega contains non-finite entries"),
                            ("0.2,0.2", "nan", "omega contains non-finite entries")]:
        code = run_cli("simulate", "--d", d, "--rho", rho, "--N", "64",
                       "--output", str(tmp_path / "x.csv"))
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text", [
    "d = 0.2, 0.2\nrho = 1.5\nreps = 2\n",
    '{"d": [0.2, 0.2], "rho": 1.5, "reps": 2}',
    '{"d": [0.2, 0.2], "omega": [[1.0, 1.5], [1.5, 1.0]], "reps": 2}',
    "d = 0.2\nrho = 1.5\nreps = 2\n",
    '{"d": 0.2, "rho": 7, "reps": 2}',
    "d = 0.2\nrho = nan\nreps = 2\n",
    "d = 0.2, 0.2\nrho = nan\nreps = 2\n",
])
def test_mc_invalid_omega_exits_4_as_simulate_does(tmp_path, capsys, text):
    # the rho or matrix that `simulate` rejects with exit 4, at one channel too
    message = ("omega contains non-finite entries" if "nan" in text
               else "omega is not positive definite")
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(text)
    assert run_cli("mc", "--scenario", str(scenario), "--output", str(tmp_path / "out")) == 4
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_non_embeddable_model_exits_4(tmp_path, capsys, command):
    # d = (0, 0.49) with rho = 0.99 at N = 512 has no positive definite
    # circulant embedding: one error line and exit 4, not a failed-replication count
    if command == "simulate":
        argv = ["simulate", "--d", "0,0.49", "--rho", "0.99", "--N", "512",
                "--output", str(tmp_path / "x.csv")]
    else:
        scenario = tmp_path / "edge.cfg"
        scenario.write_text("d = 0, 0.49\nrho = 0.99\nN = 512\nreps = 3\n")
        argv = ["mc", "--scenario", str(scenario), "--output", str(tmp_path / "out")]
    assert run_cli(*argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the circulant embedding of d=[0.0, 0.49]")
    assert "not positive definite" in err[0]
    assert not list(tmp_path.glob("x.csv")) and not list(tmp_path.glob("out*"))


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

    report = strict_json(report_path)
    assert report["objective_value"] is None
    assert report["warnings"]["non_convergence"] is True
    assert report["diagnostics"]["converged"] is False


def test_estimate_zero_channel_reports_null_objective(tmp_path):
    """An ARFIMA channel beside an all-zero one: G_bar has a zero row and
    column at every d, so the search starts at a singular point by
    construction, not by round-off, and the objective is written as null."""
    x = arfima.simulate_arfima(arfima.ArfimaSpec(d=[0.3], omega=np.eye(1), n_samples=512,
                                                 seed=61))
    panel_path = tmp_path / "zero.csv"
    report_path = tmp_path / "zero.json"
    write_panel(panel_path, np.column_stack([x[:, 0], np.zeros(512)]))
    assert run_cli("estimate", "--input", str(panel_path), "--output", str(report_path)) == 0

    report = strict_json(report_path)
    assert report["objective_value"] is None
    assert report["diagnostics"]["stopped_by"] == "singular_start"
    assert report["diagnostics"]["converged"] is False
    assert report["warnings"]["non_convergence"] is True
    assert report["warnings"]["zero_channels"] == [1]


@pytest.mark.parametrize("seed, factor", [(207, 2.0), (178, 1.0)])
def test_estimate_collinear_panel_reports_strict_json(tmp_path, seed, factor):
    """Collinear channels [x, factor * x]: the search may meet a Hessian
    that passes the Cholesky test and is singular to the solve (seed 207
    did from the old start, seed 178 does from today's).  The search then
    takes the gradient step: exit 0, strict JSON, and non-convergence."""
    x = np.random.default_rng(seed).standard_normal(512)
    panel_path = tmp_path / "collinear.csv"
    report_path = tmp_path / "collinear.json"
    write_panel(panel_path, np.column_stack([x, factor * x]))
    assert run_cli("estimate", "--input", str(panel_path), "--output", str(report_path)) == 0

    report = strict_json(report_path)
    assert report["warnings"]["non_convergence"] is True
    assert report["diagnostics"]["converged"] is False


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(["arfima", "zero", "constant", "trend", "copy", "double",
                                       "sum"]),
                      min_size=2, max_size=6).filter(lambda kinds: "arfima" in kinds),
       d=st.lists(st.floats(-0.3, 1.4).filter(off_half_integers), min_size=6, max_size=6),
       seed=st.integers(0, 2**16))
def test_estimate_degenerate_mix_reports_strict_json(tmp_path_factory, kinds, d, seed):
    """ARFIMA channels mixed, in any order, with zero, constant and
    linear-trend channels and with channels exactly collinear with them (x,
    2x, x + y), N = 512: ``estimate_panel`` and ``wavewhittle estimate
    --output`` raise nothing, list every zero, constant and trend channel in
    ``zero_channels``, keep ``non_convergence`` as the last warnings key, and
    the report is strict JSON.  A fit reported converged stopped on its step
    or predicted step, or on a projected gradient of at most GRAD_TOL."""
    panel = mixed_panel(kinds, d, seed)
    flat = [ell for ell, kind in enumerate(kinds) if kind in ("zero", "constant", "trend")]
    spec, config = WaveletSpec(vanishing_moments=4), EstimationConfig()
    est = estimate_panel(panel, spec, config)
    assert est.warnings["zero_channels"] == flat
    assert list(est.warnings)[-1] == "non_convergence"
    if est.diagnostics["converged"]:
        assert est.diagnostics["stopped_by"] in ("step", "predicted_step", "gradient")
    if est.diagnostics["stopped_by"] == "gradient":
        scal = estimator._scalogram(panel, spec, config, panel.shape[1])
        _, grad, _ = estimator._objective_derivatives(scal, est.d_hat)
        projected = estimator._project(est.d_hat - grad, *estimator.search_box(spec)) - est.d_hat
        assert np.max(np.abs(projected)) <= estimator.GRAD_TOL
    workdir = tmp_path_factory.mktemp("mix")
    write_panel(workdir / "panel.csv", panel)
    assert run_cli("estimate", "--input", str(workdir / "panel.csv"),
                   "--output", str(workdir / "report.json")) == 0

    report = strict_json(workdir / "report.json")
    assert report["warnings"]["zero_channels"] == flat
    assert list(report["warnings"])[-1] == "non_convergence"


@pytest.mark.parametrize("values", [[0.2, 0.2], [-0.05993373, np.nextafter(-0.05993373, 1.0)],
                                    [0.3, np.nan, 0.3 + 1e-16]])
def test_histogram_of_nearly_equal_values(values):
    """Estimates a few ulps apart, as collinear channels give, leave no room
    for five finite bins: the range widens by 0.5 on each side, as numpy's
    does for equal values, and every finite value is counted once."""
    rows = cli._histogram_csv(np.array(values)).splitlines()
    assert rows[0] == "bin_left,count" and len(rows) == 1 + 5 + 1
    assert sum(int(row.split(",")[1]) for row in rows[1:]) == np.isfinite(values).sum()
    assert float(rows[1].split(",")[0]) == pytest.approx(np.nanmin(values) - 0.5)


def test_estimate_reports_invalid_channels(tmp_path):
    # double-differenced white noise: d_hat is far below the K domain, so
    # the Omega diagonal is undefined and both channels are invalid
    x = np.diff(np.random.default_rng(0).standard_normal((4097, 2)), n=2, axis=0)
    panel_path = tmp_path / "dd.csv"
    report_path = tmp_path / "dd.json"
    write_panel(panel_path, x)
    assert run_cli("estimate", "--input", str(panel_path), "--output", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["warnings"]["invalid_channels"] == [0, 1]
    assert report["warnings"]["undefined_pairs"] == [[0, 0], [0, 1], [1, 1]]
    assert report["warnings"]["zero_channels"] == []


def test_estimate_reports_zero_channels(tmp_path, capsys):
    x = np.random.default_rng(62).standard_normal((512, 3))
    x[:, 1] = 3.0
    x[:, 2] *= 1e-12
    panel_path = tmp_path / "zero.csv"
    write_panel(panel_path, x)
    assert run_cli("estimate", "--input", str(panel_path)) == 0
    assert json.loads(capsys.readouterr().out)["warnings"]["zero_channels"] == [1]


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


def test_estimate_csv_format_prints_the_table_without_output(tmp_path, capsysbinary):
    """``--format csv`` without ``--output`` prints to stdout the CSV table
    that ``--output X.csv`` writes, byte for byte, and writes no file."""
    panel_path = tmp_path / "panel.csv"
    write_panel(panel_path, np.random.default_rng(30).standard_normal((512, 2)))
    assert run_cli("estimate", "--input", str(panel_path), "--format", "csv") == 0
    printed = capsysbinary.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == ["panel.csv"]
    out = tmp_path / "table.csv"
    assert run_cli("estimate", "--input", str(panel_path), "--format", "csv",
                   "--output", str(out)) == 0
    assert printed == out.read_bytes() and printed.startswith(b"quantity,row,col,value\n")


QUOTED_NAMES = ["a,b", 'q"x', "plain"]


def test_panel_names_that_need_quoting_round_trip(tmp_path):
    panel = np.random.default_rng(4).standard_normal((64, 3)) * 1e3
    write_panel(tmp_path / "panel.csv", panel, QUOTED_NAMES)
    names, back = read_panel(tmp_path / "panel.csv")
    assert names == QUOTED_NAMES
    assert back.tobytes() == panel.tobytes()


def test_corr_grid_is_square_for_names_that_need_quoting(tmp_path):
    """The correlation grid is (p+1) x (p+1) cells under csv.reader, its
    header row and first column the channel names."""
    panel = np.random.default_rng(5).standard_normal((512, 3))
    write_panel(tmp_path / "panel.csv", panel, QUOTED_NAMES)
    assert run_cli("estimate", "--input", str(tmp_path / "panel.csv"),
                   "--output", str(tmp_path / "report.json")) == 0
    with open(tmp_path / "report_corr.csv", newline="", encoding="utf-8") as fh:
        grid = list(csv.reader(fh))
    assert [len(row) for row in grid] == [4] * 4
    assert grid[0] == ["channel", *QUOTED_NAMES]
    assert [row[0] for row in grid[1:]] == QUOTED_NAMES


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


# The exit code of every package error, as the README documents it.
DOCUMENTED_EXIT_CODES = {
    "WavewhittleError": 2, "UnsupportedOrderError": 2, "DomainError": 2,
    "VanishingMomentError": 2, "LikelihoodError": 2, "ConfigError": 2,
    "PanelFormatError": 2, "ScenarioError": 2,
    "InsufficientDataError": 3, "ScaleRangeError": 3,
    "CovarianceError": 4,
}


def test_every_error_type_carries_its_documented_exit_code():
    found, todo = {}, [errors.WavewhittleError]
    while todo:
        cls = todo.pop()
        found[cls.__name__] = cls.exit_code
        todo.extend(cls.__subclasses__())
    assert found == DOCUMENTED_EXIT_CODES


def test_infeasible_scale_range_exits_3_from_estimate_and_mc(tmp_path, capsys, monkeypatch):
    """N = 64 holds levels 1..3 at M = 4, so j0 = 6 is infeasible: both commands
    print the same one error line, and mc dispatches no replication."""
    calls = []
    monkeypatch.setattr(montecarlo, "_replication_worker", calls.append)
    panel = tmp_path / "short.csv"
    write_panel(panel, np.random.default_rng(0).standard_normal((64, 2)))
    scenario = tmp_path / "short.cfg"
    scenario.write_text("d = 0.2, 0.2\nrho = 0.4\nN = 64\nj0 = 6\nreps = 4\n")
    lines = []
    for argv in (["estimate", "--input", str(panel), "--j0", "6"],
                 ["mc", "--scenario", str(scenario)]):
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.append(captured.err.splitlines())
    assert lines[0] == lines[1] == ["error: finest scale j0=6 infeasible for N=64 (max 3)"]
    assert calls == []


def test_estimate_reports_parse_position(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("ch1,ch2\n1.0,2.0\nx,3.0\n")
    code = run_cli("estimate", "--input", str(bad))
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3" in err and "column 1" in err


def test_oversized_cell_is_positioned(tmp_path, capsys):
    # longer than csv.field_size_limit(), and not a number either
    bad = tmp_path / "long.csv"
    bad.write_text("ch1,ch2\n1.0,2.0\n3.0," + "1" * 140_000 + "x\n")
    with pytest.raises(PanelFormatError) as exc:
        read_panel(bad)
    assert exc.value.line == 3
    assert run_cli("estimate", "--input", str(bad)) == 2
    err = capsys.readouterr().err.splitlines()
    # the error has a line but no column, so only the line is printed
    assert len(err) == 1 and "field larger than field limit" in err[0]
    assert err[0].endswith("(131072) (line 3)")


def test_oversized_channel_name_exits_2(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_text("a," + "b" * 140_000 + "\n1,2\n")
    assert run_cli("estimate", "--input", str(path)) == 2
    assert capsys.readouterr().err.endswith("field limit (131072) (line 1)\n")


def test_oversized_number_is_refused(tmp_path):
    # a valid number, but longer than csv.field_size_limit(): csv.reader refuses it
    path = tmp_path / "long.csv"
    path.write_text("ch1,ch2\n1.0,2.0\n0." + "1" * 140_000 + ",2\n")
    with pytest.raises(PanelFormatError, match="field larger than field limit") as exc:
        read_panel(path)
    assert exc.value.line == 3


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


def test_reports_are_json_dumps_with_indent(tmp_path):
    """The files ``estimate``, ``simulate`` and ``mc`` write are laid out as
    ``json.dumps(data, indent=2)`` lays out the data they hold: a p = 20
    estimate report (three 20 x 20 matrices), its CSV-format config echo,
    a simulate config echo and an mc report."""
    panel = tmp_path / "wide.csv"
    assert run_cli("simulate", "--d", ",".join(["0.1", "0.3"] * 10), "--rho", "0.3",
                   "--N", "1024", "--seed", "3", "--output", str(panel)) == 0
    assert run_cli("estimate", "--input", str(panel), "--output", str(tmp_path / "wide.json")) == 0
    assert run_cli("estimate", "--input", str(panel), "--format", "csv",
                   "--output", str(tmp_path / "table.csv")) == 0
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "3",
                   "--output", str(tmp_path / "mc")) == 0
    names = ["wide.json", "wide_config.json", "table_config.json", "mc.json"]
    for name in names:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name
    assert len(json.loads((tmp_path / "wide.json").read_text())["omega"]) == 20


@pytest.mark.parametrize("scenario, extra", [
    ("scenarios/table1_row3.cfg", ["--reps", "4"]),
    ("d = 0.3\nN = 300\nreps = 3\nseed = 5\nM = 2\n"
     "univariate = false\nlabel = echo", []),
], ids=["table1_row3", "univariate_off"])
def test_mc_scenario_echo_reruns(tmp_path, scenario, extra):
    if scenario.endswith(".cfg"):
        source = scenario
    else:
        source = tmp_path / "source.cfg"
        source.write_text(scenario)
    assert run_cli("mc", "--scenario", str(source), *extra, "--output", str(tmp_path / "a")) == 0
    first = json.loads((tmp_path / "a.json").read_text())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(first["scenario"]))
    assert run_cli("mc", "--scenario", str(echo), "--output", str(tmp_path / "b")) == 0
    second = json.loads((tmp_path / "b.json").read_text())
    assert second["scenario"] == first["scenario"]
    assert second["records"] == first["records"]


def test_mc_reps_one_gives_zero_std(tmp_path):
    base = tmp_path / "one"
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "1",
                   "--output", str(base)) == 0
    report = json.loads((tmp_path / "one.json").read_text())
    assert all(rec["std"] == 0.0 for rec in report["records"])


def test_mc_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.cfg"
    # unknown keys, the removed boundary, burn_in and truncation options among them
    for key in ("mystery = 1", "boundary = valid", "burn_in = 5", "truncation = 5120"):
        bad.write_text(f"d = 0.2\n{key}\n")
        assert run_cli("mc", "--scenario", str(bad)) == 2


@pytest.mark.parametrize("d", ["nan, 0.2", "0.5, 0.2"])
def test_mc_invalid_memory_exits_2(tmp_path, d):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"d = {d}\nrho = 0.4\nreps = 2\n")
    assert run_cli("mc", "--scenario", str(bad)) == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", "0.2", "--N", "16", "--seed", "-1"],
    ["simulate", "--d", "0.5", "--N", "16"],
    ["simulate", "--d", "0.2", "--N", "0"],
    ["simulate", "--d", "nan", "--N", "16"],
    ["mc", "--scenario", "{negative_seed}"],
    ["mc", "--scenario", "scenarios/table1_row3.cfg", "--seed", "-5"],
    ["simulate", "--d", "", "--N", "8"],
    ["simulate", "--d", "0.2,,0.3,", "--N", "3"],
    ["simulate", "--d", "0.2,abc", "--N", "8"],
])
def test_bad_simulation_inputs_exit_2(tmp_path, capsys, argv):
    scenario = tmp_path / "negative_seed.cfg"
    scenario.write_text("d = 0.2\nreps = 2\nseed = -1\n")
    argv = [arg.format(negative_seed=scenario) for arg in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "panel.csv", "--boundary", "valid"],
    ["simulate", "--d", "0.2", "--N", "16", "--burn-in", "5"],
    ["simulate", "--d", "0.2", "--N", "16", "--truncation", "160"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


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


def test_import_leaves_scipy_unloaded():
    code = ("import sys, wavewhittle, wavewhittle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_stdout(capsys):
    assert run_cli("simulate", "--d", "0.1", "--N", "16", "--seed", "4") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "ch1"
    assert len(lines) == 17


def _read_outcome(reader, path):
    """What a panel reader makes of a file: the exact arrays or the exact error."""
    try:
        names, panel = reader(path)
    except PanelFormatError as exc:
        return ("error", str(exc), exc.line, exc.column)
    except Exception as exc:  # e.g. csv.Error, raised by both readers alike
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", names, panel.shape, panel.tobytes())


def _assert_reads_like_scan(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_outcome(read_panel, path)
    assert got == _read_outcome(scan_panel_oracle, path)


PANEL_CORPUS = {
    "crlf": "a,b\r\n1.5,2\r\n3,4\r\n",
    "bare_cr": "a,b\r1.5,2\r3,4\r",
    "blank_lines": "a,b\n\n1,2\n\n\n3,4\n\n",
    "whitespace_line": "a,b\n1,2\n   \n3,4\n",
    "whitespace_line_one_column": "a\n1\n \t \n3\n",
    "form_feed_line": "a,b\n1,2\n\x0c\n3,4\n",
    "form_feed_inside_row": "a,b\n1,2\x0c3,4\n",
    "padded_cells": "a,b\n  1.5 , 2  \n\t3\t,\t4\n",
    "nan": "a,b\n1,nan\n",
    "inf": "a,b\n1,2\ninf,2\n",
    "infinity": "a,b\n-Infinity,2\n",
    "overflow": "a,b\n1e400,2\n",
    "underflow": "a,b\n1e-400,2\n",
    "empty_cell": "a,b\n1,\n",
    "trailing_comma": "a,b\n1,2,\n",
    "ragged": "a,b,c\n1,2,3\n4,5\n",
    "too_many_columns": "a,b\n1,2\n3,4,5\n",
    "wrong_width_throughout": "a,b\n1,2,3\n4,5,6\n",
    "hex": "a,b\n0x10,2\n",
    "fortran_exponent": "a,b\n1d5,2\n",
    "comment": "a,b\n1,2\n# note\n3,4\n",
    "comment_in_cell": "a,b\n1,2 # note\n",
    "unicode_minus": "a,b\n\u22121,2\n",
    "nul": "a,b\n1,\x002\n",
    "quoted_cells": 'a,b\n"1.5","2"\n3,"4"\n',
    "quoted_comma": 'a,b\n"1,5",2\n',
    "underscore_digits": "a,b\n1_0,2\n",
    "arabic_digits": "a,b\n\u0661\u0662,2\n",
    "seventeen_digits": "a,b\n0.10000000000000000555,-1.2345678901234567e-300\n",
    "header_only": "a,b\n",
    "header_only_no_newline": "a,b",
    "header_only_one_column": "x\n",
    "empty_file": "",
    "blank_header_name": "a,,b\n1,2,3\n",
    "quoted_multiline_header": 'a,"b\nc"\n1,2\n3,4\n',
    "no_trailing_newline": "a,b\n1,2\n3,4",
    "single_column": "x\n1\n2\n3\n",
    "single_row": "a,b,c\n1,2,3\n",
    "two_to_the_53_plus_one": "a,b\n9007199254740993,-9007199254740993\n",
    "1e23": "a,b\n1e23,1E+23\n",
    "one_tenth": "a\n0.1\n",
    "smallest_normal": "a,b\n2.2250738585072014e-308,-2.2250738585072014E-308\n",
    "cell_of_25_characters": "a,b\n-1.2345678901234567890123,2\n",
    "crlf_exponents": "a,b\r\n1e5,-2.5E-3\r\n+3.e+2,.4E0\r\n-0,6e-30\r\n",
    "carriage_return_in_quoted_name": 'a,"b\rc"\n1,2\n',
    "long_cell_then_bare_cr": "a,b\n1,2\n" + "1" * 30 + "\r,2\n",
    "long_padded_cell": "a,b\n1," + "2" * 30 + " \n",
    # digits enough for float(cell), which refuses the second dot
    "long_cell_two_dots": "a,b\n1.0,2.0\n1.2." + "3" * 25 + ",3\n",
}


@pytest.mark.parametrize("name", sorted(PANEL_CORPUS))
def test_read_panel_matches_scan_on_corpus(tmp_path, name):
    path = tmp_path / "panel.csv"
    path.write_text(PANEL_CORPUS[name], encoding="utf-8", newline="")
    _assert_reads_like_scan(path)


CELLS = [
    "0", "1.5", "-2", "+7", "1e5", "1E-3", ".5", "1.", "-0", "0.1000000000000000055511151231257827",
    " 3.25", "3.25 ", "\t4\t", "\xa02", "2\x0b", "", "  ", "nan", "inf", "-Infinity", "1e400",
    "0x10", "1d5", "1_0", '"1.0"', '"2,5"', "#3", "\u22121", "\u0661", "\x00", "oops", "1 2",
]
LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", "\n \n", "\n\x0c\n", "\x0c", "\x1c", "\x85", ",\n"]
HEADERS = ["a", "a,b", "a,b,c", "a, b ", '"a",b', 'a,"b\nc"', "a,,b", ""]


@st.composite
def panel_texts(draw):
    """Header and rows from the alphabets above; half of them well-formed throughout."""
    clean = draw(st.booleans())
    if clean:
        headers, cells, ends = HEADERS[:4], CELLS[:15], LINE_ENDS[:4]
    else:
        headers, cells, ends = HEADERS, CELLS, LINE_ENDS
    header = draw(st.sampled_from(headers))
    width = header.count(",") + 1
    row = st.lists(st.sampled_from(cells), min_size=width, max_size=width)
    if not clean:
        row = st.one_of(row, st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(row, st.sampled_from(ends)), min_size=int(clean), max_size=6))
    end = draw(st.sampled_from(ends))
    return header + end + "".join(",".join(cells) + sep for cells, sep in rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=panel_texts())
def test_read_panel_matches_scan_property(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property_panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_reads_like_scan(path)


def test_plain_panel_skips_the_scan(tmp_path, monkeypatch):
    panel_path = tmp_path / "panel.csv"
    write_panel(panel_path, np.random.default_rng(3).standard_normal((64, 3)))
    expected = scan_panel_oracle(panel_path)

    def no_scan(fh):
        raise AssertionError("a plain panel should be read in one parse")

    monkeypatch.setattr(cli, "_scan_panel", no_scan)
    names, panel = read_panel(panel_path)
    assert names == expected[0]
    assert panel.tobytes() == expected[1].tobytes()


def _no_scan(fh):
    raise AssertionError("a plain panel should be read without the scan")


def test_crlf_panel_skips_the_scan(tmp_path, monkeypatch):
    values = np.random.default_rng(4).standard_normal((64, 3)) * 10.0 ** np.arange(-12, 15, 9)
    path = tmp_path / "panel.csv"
    path.write_bytes(cli.panel_csv(values).replace("\n", "\r\n").encode())
    expected = scan_panel_oracle(path)
    monkeypatch.setattr(cli, "_scan_panel", _no_scan)
    names, panel = read_panel(path)
    assert names == expected[0]
    assert panel.tobytes() == expected[1].tobytes() == values.tobytes()


def _decimal(value: fractions.Fraction, digits: int = 0) -> str:
    """The decimal of a fraction whose denominator is a power of two: exact,
    or rounded to ``digits`` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits or 400
        exact = decimal.Decimal(value.numerator) / value.denominator
    return format(exact, "f") if -5 < exact.adjusted() < 19 else format(exact, "e")


def _near_halfway(count: int) -> list[str]:
    """19-digit decimals next to a float64 halfway point h, close enough that
    rounding to a 64-bit significand gives h; rounding h again to float64 then
    goes to the even neighbour, which is wrong for half of them."""
    rng = random.Random(17)
    cells = []
    while len(cells) < count:
        binade = rng.randrange(-27, 143)  # 2**binade <= h < 2**(binade + 1)
        odd = 2 * rng.randrange(2 ** 52, 2 ** 53) + 1
        h = odd * fractions.Fraction(2) ** (binade - 53)
        text = _decimal(h, 19)
        gap = abs(fractions.Fraction(decimal.Decimal(text)) - h)
        if 0 < gap < fractions.Fraction(2) ** (binade - 64):
            cells.append(text)
    return cells


_DIGITS = st.text("0123456789", min_size=1, max_size=19)
# float64 halfway points: x + ulp(x)/2 and odd 54-bit integers times 2**k,
# written out in full or rounded to 17-19 digits, and 19-digit neighbours
# that round onto one in 64 bits
HALFWAY_CELLS = st.one_of(
    st.tuples(
        st.one_of(
            st.floats(min_value=2.0 ** -80, max_value=2.0 ** 80).map(
                lambda x: fractions.Fraction(x) + fractions.Fraction(math.ulp(x)) / 2),
            st.tuples(st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-3, 10)).map(
                lambda t: (2 * t[0] + 1) * fractions.Fraction(2) ** t[1]),
        ),
        st.sampled_from([0, 17, 18, 19]),
    ).map(lambda t: _decimal(*t)),
    st.sampled_from(_near_halfway(64)),
)
PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 20)).map(
        lambda t: f"{t[0]:.{t[1]}e}"),
    st.tuples(st.sampled_from(["", "+", "-"]), _DIGITS, st.integers(0, 19),
              st.sampled_from(["", "e", "E"]), st.sampled_from(["", "+", "-"]),
              st.integers(0, 30)).map(
        lambda t: t[0] + t[1][:t[2]] + "." + t[1][t[2]:]
        + (t[3] + t[4] + str(t[5]) if t[3] else "")),
    st.tuples(_DIGITS, st.integers(-30, 30)).map(lambda t: f"{t[0]}e{t[1]}"),
    HALFWAY_CELLS,
    st.text("0123456789", min_size=20, max_size=40),
    st.sampled_from(["-0", "0", "+0.0", "-.0e0", "1e23", "9007199254740993", "0.1",
                     "2.2250738585072014e-308", "5e-324", "1.7976931348623157e308"]),
)


@pytest.mark.parametrize("extended", [plaincsv._EXTENDED, False], ids=["host", "float_only"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(cells=st.lists(PLAIN_CELLS, min_size=1, max_size=24), width=st.integers(1, 4),
       crlf=st.booleans())
def test_block_parser_matches_float(extended, cells, width, crlf):
    """Each cell of a plain body reads as float(cell), bit for bit, with the
    long double path on (where the host has it) and with every cell sent to
    float()."""
    cells = cells[: len(cells) // width * width] or cells[:1] * width
    rows = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    body = ("\r\n" if crlf else "\n").join(rows) + "\n"
    expected = np.array([float(c) for c in cells]).reshape(-1, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plaincsv, "_EXTENDED", extended)
        got = plaincsv.parse_body(body.encode(), 0, width)
    if not np.isfinite(expected).all():
        assert got is None  # the scan reports the cell
    else:
        assert got is not None and got.tobytes() == expected.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cells=st.lists(st.text("0123456789+-.eE", max_size=6), min_size=1, max_size=6))
def test_block_parser_refuses_what_float_refuses(cells):
    """Cells of the dialect's characters that float() refuses ("1-2", "1..2",
    "e5", "1e", "") or reads as inf leave the body to the scan."""
    try:
        expected = np.array([float(c) for c in cells])
    except ValueError:
        expected = None
    got = plaincsv.parse_body(("\n".join(cells) + "\n").encode(), 0, 1)
    if expected is None or not np.isfinite(expected).all():
        assert got is None
    else:
        assert got is not None and got.ravel().tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_bytes", [1, 7, 30, 64])
@pytest.mark.parametrize("tail", ["", "1,2,3\n", "1,x,3\n", "1,2\n"])
def test_blocks_meet_at_row_ends(tmp_path, monkeypatch, block_bytes, tail):
    """Blocks of a few dozen bytes read as the whole body does, and a fault in
    the last block sends the whole file to the scan."""
    values = np.random.default_rng(5).standard_normal((40, 3)) * 10.0 ** np.arange(-5, 10, 5)
    lines = cli.panel_csv(values).splitlines(keepends=True)
    lines[7::3] = [line.replace("\n", "\r\n") for line in lines[7::3]]
    path = tmp_path / "panel.csv"
    path.write_bytes(("".join(lines) + tail).encode())
    monkeypatch.setattr(plaincsv, "_BLOCK_BYTES", block_bytes)
    if tail in ("", "1,2,3\n"):
        monkeypatch.setattr(cli, "_scan_panel", _no_scan)
    _assert_reads_like_scan(path)


def test_carriage_return_in_channel_name_exits_2(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    rows = np.random.default_rng(6).standard_normal((512, 2)).tolist()
    path.write_text('c,"a\rb"\n' + "".join(f"{x!r},{y!r}\n" for x, y in rows), newline="")
    assert run_cli("estimate", "--input", str(path)) == 2
    assert capsys.readouterr().err == (
        "error: carriage return in channel name (line 1, column 2)\n")


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    build, builds = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run_cli("estimate", "--input", str(tmp_path / "missing.csv")) == 2
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_bad_cell_deep_in_wide_panel_is_located(tmp_path, capsys):
    values = np.random.default_rng(17).standard_normal((4096, 20))
    lines = [",".join(f"ch{c + 1}" for c in range(20))]
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    cells = lines[3000].split(",")
    cells[16] = "oops"  # data row 3000, column 17
    lines[3000] = ",".join(cells)
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelFormatError) as exc:
        read_panel(path)
    assert (exc.value.line, exc.value.column) == (3001, 17)
    assert run_cli("estimate", "--input", str(path)) == 2
    assert "line 3001, column 17" in capsys.readouterr().err


def test_header_only_panel_has_no_data_rows(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("ch1,ch2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PanelFormatError, match="no data rows") as exc:
            read_panel(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("ch1,ch2\n", "error: panel has a header but no data rows (line 2)"),
    (None, "error: cannot open panel file: "),
])
def test_error_shows_only_existing_positions(tmp_path, capsys, text, message):
    path = tmp_path / "panel.csv"
    if text is not None:
        path.write_text(text)
    assert run_cli("estimate", "--input", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert "line 0" not in err[0] and "column" not in err[0]


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--input", "{header_not_utf8}"],
     "error: not UTF-8: invalid start byte 0xff (line 1)"),
    (["estimate", "--input", "{latin1}"],
     "error: not UTF-8: invalid continuation byte 0xe9 (line 2)"),
    (["estimate", "--input", "{deep_not_utf8}"],
     "error: not UTF-8: invalid continuation byte 0xe9 (line 5002)"),
    (["simulate", "--d", "0.2,0.2", "--omega-file", "{latin1}", "--N", "16"],
     "error: not UTF-8: invalid continuation byte 0xe9 (line 2)"),
    (["mc", "--scenario", "{missing}"], "error: cannot read scenario file: [Errno 2] "),
    (["mc", "--scenario", "{directory}"], "error: cannot read scenario file: [Errno 21] "),
    (["mc", "--scenario", "{latin1_scenario}"], "error: cannot read scenario file: 'utf-8' codec"),
    (["mc", "--scenario", "scenarios/table1_row3.cfg", "--workers", "-3"],
     "error: workers must be at least 1, got -3"),
    (["mc", "--scenario", "scenarios/table1_row3.cfg", "--workers", "0"],
     "error: workers must be at least 1, got 0"),
    (["estimate", "--input", "{panel}", "--output", "{nodir}/r.json"],
     "error: cannot write {nodir}/r.json: No such file or directory"),
    (["estimate", "--input", "{panel}", "--format", "csv", "--output", "{panel}/r.csv"],
     "error: cannot write {panel}/r.csv: Not a directory"),
    (["simulate", "--d", "0.2", "--N", "64", "--output", "{nodir}/p.csv"],
     "error: cannot write {nodir}/p.csv: No such file or directory"),
    (["mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "2", "--output", "{nodir}/mc"],
     "error: cannot write {nodir}/mc.json: No such file or directory"),
    (["estimate", "--input", "{panel}", "--output", "{directory}"],
     "error: cannot write {directory}: Is a directory"),
    (["simulate", "--d", "0.2", "--N", "64", "--output", "{directory}"],
     "error: cannot write {directory}: Is a directory"),
    (["mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "2", "--output", "{taken}"],
     "error: cannot write {taken}.csv: Is a directory"),
], ids=["header_not_utf8", "body_not_utf8", "deep_not_utf8", "omega_not_utf8",
        "scenario_missing", "scenario_directory", "scenario_not_utf8", "workers_negative",
        "workers_zero", "estimate_no_dir", "estimate_csv_under_a_file", "simulate_no_dir",
        "mc_no_dir", "estimate_to_a_directory", "simulate_to_a_directory",
        "mc_to_a_directory"])
def test_unreadable_input_or_unwritable_output_exits_2(tmp_path, capsys, argv, message):
    """One error line and exit 2, nothing on stdout, and no file written:
    no report and no temporary file.  A panel that is not UTF-8 is refused
    at the line of its first undecodable byte, also past the reader's first
    chunk and after lines ended by \\r and \\r\\n."""
    files = {name: tmp_path / name for name in (
        "header_not_utf8", "latin1", "deep_not_utf8", "missing", "directory",
        "latin1_scenario", "panel", "nodir", "taken")}
    files["header_not_utf8"].write_bytes(b"\xff\xfech1,ch2\n1,2\n")
    files["latin1"].write_bytes(b"a,b\n1.0,0.5\xe9\n0.5,2.0\n")
    files["deep_not_utf8"].write_bytes(b"a,b\r\n" + b"1,2\r" * 3000 + b"3,4\r\n" * 2000
                                       + b"5,\xe96\n7,8\n")
    files["directory"].mkdir()
    (tmp_path / "taken.csv").mkdir()  # mc --output taken writes taken.json and taken.csv
    files["latin1_scenario"].write_bytes(b"d = 0.2, 0.2\n# r\xe9sum\xe9\n")
    write_panel(files["panel"], np.random.default_rng(0).standard_normal((64, 2)))
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*[arg.format(**files) for arg in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith(message.format(**files))
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("key, value", [
    ("N", 300.9), ("reps", 2.7), ("seed", 1.5), ("M", 3.5), ("j0", 1.5), ("j1", 5.2),
    ("reps", True),
])
def test_mc_rejects_non_integer_scenario_values(tmp_path, capsys, fmt, key, value):
    if fmt == "json":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": [0.2], "reps": 2, key: value}))
    else:
        path = tmp_path / "bad.cfg"
        text = "true" if value is True else repr(value)
        # a key given twice is refused, so reps is written once
        reps = "" if key == "reps" else "reps = 2\n"
        path.write_text(f"d = 0.2\n{reps}{key} = {text}\n")
    assert run_cli("mc", "--scenario", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"'{key.lower()}' must be an integer" in err[0]



@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("text, data", [
    ("d = 0.2, abc\n", {"d": [0.2, "abc"]}),
    ("d = 0.2, 0.2\nomega = 1, 0.4; 0.4\n", {"d": [0.2, 0.2], "omega": [[1, 0.4], [0.4]]}),
], ids=["non_numeric_d", "ragged_omega"])
def test_mc_rejects_unreadable_d_and_omega(tmp_path, capsys, fmt, text, data):
    path = tmp_path / ("bad.json" if fmt == "json" else "bad.cfg")
    path.write_text(json.dumps({**data, "reps": 2}) if fmt == "json" else text + "reps = 2\n")
    assert run_cli("mc", "--scenario", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid scenario:")


@pytest.mark.parametrize("text, code, message", [
    ("j0 = -3\n", 2, "error: invalid scenario: j0 must be at least 1"),
    ("M = 11\n", 2, "error: invalid scenario: vanishing moments must be an integer in [1, 10], "
                    "got 11"),
    ("N = 64\nj0 = 6\n", 3, "error: finest scale j0=6 infeasible for N=64 (max 3)"),
    ('{"d": [0.2, 0.2], "univariate": 1}', 2,
     "error: invalid scenario: scenario key 'univariate' must be true or false, got 1"),
    ("N = 100000000000000000000\n", 2, "error: invalid scenario: N=100000000000000000000 "
                                       "exceeds the int64 range of the coefficient counts"),
], ids=["j0", "M", "short", "univariate", "huge_N"])
def test_mc_rejects_a_bad_scenario_file_when_loading_it(tmp_path, capsys, monkeypatch,
                                                         text, code, message):
    calls = []
    monkeypatch.setattr(montecarlo, "run_scenario", calls.append)
    path = tmp_path / ("bad.json" if text.startswith("{") else "bad.cfg")
    path.write_text(text if text.startswith("{") else "d = 0.2, 0.2\nreps = 2\n" + text)
    assert run_cli("mc", "--scenario", str(path), "--output", str(tmp_path / "out")) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    assert calls == [] and not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("text, message", [
    ("N = 512\nn = 256\n", "line 4: scenario key 'n' given twice"),
    ('{"d": [0.2, 0.2], "reps": 2, "N": 512, "n": 256}',
     "scenario key 'n' given twice (keys are case-insensitive)"),
    ('{"d": [0.2, 0.2], "reps": 2, "N": 512, "N": 256}',
     "scenario key 'n' given twice (keys are case-insensitive)"),
], ids=["text", "json", "json_same_case"])
def test_mc_rejects_a_scenario_key_given_twice(tmp_path, capsys, monkeypatch, text, message):
    """A key given twice, in any case, is refused before any replication
    runs, instead of its last value silently winning."""
    calls = []
    monkeypatch.setattr(montecarlo, "run_scenario", calls.append)
    path = tmp_path / ("bad.json" if text.startswith("{") else "bad.cfg")
    path.write_text(text if text.startswith("{") else "d = 0.2, 0.2\nreps = 2\n" + text)
    assert run_cli("mc", "--scenario", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]
    assert calls == []


def test_simulate_takes_rho_or_omega_file_not_both(tmp_path, capsys):
    om_path = tmp_path / "omega.csv"
    om_path.write_text("a,b\n1.0,0.5\n0.5,2.0\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--d", "0.2,0.2", "--rho", "0.4", "--omega-file", str(om_path),
                "--N", "16")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "not allowed with argument" in err


def test_mc_prints_the_report_to_stdout(capsys):
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "2") == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert captured.err == "" and report["n_replications"] == 2
    assert report["scenario"]["reps"] == 2
    assert [rec["quantity"] for rec in report["records"]][:2] == ["d_1", "d_2"]


def test_mc_rejects_malformed_scenario_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"d": [0.2, 0.2], "reps": }')
    assert run_cli("mc", "--scenario", str(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid scenario JSON: Expecting value")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    """Every file the CLI writes gets mode 0o666 minus the umask, as a file
    that open() creates would; mkstemp alone would leave 0o600."""
    old = os.umask(umask)
    try:
        assert run_cli("simulate", "--d", "0.2,0.2", "--N", "64",
                       "--output", str(tmp_path / "ok.csv")) == 0
        assert run_cli("estimate", "--input", str(tmp_path / "ok.csv"),
                       "--output", str(tmp_path / "report.json")) == 0
        assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg", "--reps", "2",
                       "--output", str(tmp_path / "mc")) == 0
    finally:
        os.umask(old)
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["mc.csv", "mc.json", "ok.csv", "ok_config.json", "report.json",
                     "report_corr.csv", "report_dhist.csv"]
    assert {name: os.stat(tmp_path / name).st_mode & 0o777 for name in names} == dict.fromkeys(
        names, mode)


@pytest.mark.parametrize("taken", ["json", "csv"])
def test_mc_refuses_an_unwritable_output_before_it_runs(tmp_path, capsys, monkeypatch, taken):
    """An mc --output whose .json or .csv cannot be written is refused
    before run_scenario is called, and nothing is written."""
    calls = []
    monkeypatch.setattr(montecarlo, "run_scenario", calls.append)
    (tmp_path / f"out.{taken}").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg",
                   "--output", str(tmp_path / "out")) == 2
    assert run_cli("mc", "--scenario", "scenarios/table1_row3.cfg",
                   "--output", str(tmp_path / "nodir" / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {tmp_path / 'out'}.{taken}: Is a directory",
        f"error: cannot write {tmp_path / 'nodir' / 'out'}.json: No such file or directory",
    ]
    assert calls == [] and sorted(tmp_path.rglob("*")) == before


def test_atomic_write_leaves_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(PermissionError, match="rename refused"):
        cli.atomic_write_text(target, "new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "old\n"


def imported_modules(tree):
    """Absolute names of the modules a ``wavewhittle`` module's AST imports,
    with each ``from X import name`` also read as module ``X.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("wavewhittle." * (node.level > 0) + (node.module or "")).rstrip(".")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_only_cli_imports_cli():
    """The library returns values and ``cli`` writes every file: no module
    below ``cli`` imports it, so the package has no import cycle."""
    package = os.path.dirname(cli.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "cli.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                if "wavewhittle.cli" in set(imported_modules(ast.parse(fh.read()))):
                    importers.append(name)
    assert importers == []


def test_mc_csv_cells():
    """Every number is written .10g; a missing or non-finite one is an empty cell."""
    records = [
        {"quantity": "d_1", "truth": 0.2, "bias": -0.012345678912345, "std": 0.05,
         "rmse": 0.0515, "ratio_mu": 0.875},
        {"quantity": "omega_1_2", "truth": 0.4, "bias": 1e-12, "std": math.inf,
         "rmse": math.nan, "ratio_mu": None},
    ]
    assert cli._mc_csv(records) == (
        "quantity,truth,bias,std,rmse,ratio_mu\n"
        "d_1,0.2,-0.01234567891,0.05,0.0515,0.875\n"
        "omega_1_2,0.4,1e-12,,,\n"
    )


@pytest.mark.parametrize("argv", [
    ["simulate", "--d", "0.2", "--N", str(10**18)],
    ["mc", "--scenario", "{huge}"],
])
def test_model_too_large_to_simulate_exits_2(tmp_path, capsys, argv):
    """Refused before anything is allocated: the packed (p(p+1)/2, N+1)
    complex factor would exceed the address space."""
    scenario = tmp_path / "huge.cfg"
    scenario.write_text(f"d = 0.2, 0.2\nreps = 2\nN = {10**18}\n")
    assert run_cli(*[arg.format(huge=scenario) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    p = 1 if argv[0] == "simulate" else 2
    assert err == [f"error: N={10**18} with p={p} channels is too large to simulate: its "
                   f"embedding factor alone needs {p * (p + 1) // 2 * (10**18 + 1) * 16} bytes"]


def test_factor_build_out_of_memory_exits_2(monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(arfima, "_packed_spectrum", out_of_memory)
    arfima._embedding_factor.cache_clear()
    assert run_cli("simulate", "--d", "0.2", "--N", "97") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: N=97 with p=1 channels is too large to simulate: its embedding "
        "factor alone needs 1568 bytes"
    ]
