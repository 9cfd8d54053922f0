"""The package namespace: what ``import wavewhittle`` loads and exports.

The simulator and the Monte-Carlo harness load on first use, so the checks
of what an import loads run in a fresh interpreter.
"""

import json
import subprocess
import sys

import pytest

import wavewhittle
from wavewhittle import arfima, errors, estimator, montecarlo, wavelets

#: Every name the package exported when all its modules loaded eagerly.
EXPORTS = {
    errors: ["ConfigError", "CovarianceError", "DomainError", "InsufficientDataError",
             "LikelihoodError", "PanelFormatError", "ScaleRangeError", "ScenarioError",
             "UnsupportedOrderError", "VanishingMomentError", "WavewhittleError"],
    estimator: ["EstimationConfig", "MwwEstimate", "Scalogram", "correlation_from_cov",
                "estimate_d", "estimate_omega", "estimate_panel", "estimate_univariate_each",
                "g_hat", "objective_R", "rate_rule_j0", "scalogram", "whittle_likelihood"],
    wavelets: ["WaveletPyramid", "WaveletSpec", "coefficient_counts", "daubechies_filters",
               "dwt_pyramid", "max_feasible_level", "psi_hat_sq", "qmf", "spectral_k"],
    arfima: ["ArfimaSpec", "model_wavelet_cov", "simulate_arfima"],
    montecarlo: ["MCReport", "Scenario", "load_scenario", "omega_from_rho", "rate_check",
                 "ratio_m_u", "run_scenario"],
}
LAZY_MODULES = ["wavewhittle.arfima", "wavewhittle.montecarlo", "concurrent.futures",
                "multiprocessing"]


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter; returns what it prints, as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_neither_the_simulator_nor_the_pool():
    loaded = fresh_interpreter(
        "import json, sys, wavewhittle\n"
        f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))\n")
    assert loaded == []


def test_an_estimate_loads_neither_the_simulator_nor_the_pool(tmp_path):
    path = tmp_path / "panel.csv"
    rows = [f"{(7 * i) % 11 - 5.0},{(5 * i) % 13 - 6.0}" for i in range(512)]
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    result = fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "import wavewhittle.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = wavewhittle.cli.main(['estimate', '--input', {str(path)!r}])\n"
        f"loaded = [m for m in {LAZY_MODULES!r} if m in sys.modules]\n"
        "print(json.dumps([code, loaded, json.loads(out.getvalue())['d_hat']]))\n")
    code, loaded, d_hat = result
    assert code == 0 and len(d_hat) == 2
    assert loaded == []


def test_every_export_is_its_module_attribute_in_dir_and_all():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(wavewhittle, name) is getattr(module, name), name
            assert name in dir(wavewhittle) and name in wavewhittle.__all__, name
    assert sorted(wavewhittle.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from wavewhittle import *", namespace)
    for module, names in EXPORTS.items():
        for name in names:
            assert namespace[name] is getattr(module, name), name


def test_lazy_names_resolve_in_a_fresh_interpreter():
    result = fresh_interpreter(
        "import json, sys, wavewhittle\n"
        "mc = wavewhittle.montecarlo\n"
        "same = (mc is sys.modules['wavewhittle.montecarlo']\n"
        "        and wavewhittle.run_scenario is mc.run_scenario\n"
        "        and wavewhittle.simulate_arfima is sys.modules['wavewhittle.arfima'].simulate_arfima)\n"
        "print(json.dumps([same, 'run_scenario' in vars(wavewhittle)]))\n")
    assert result == [True, True]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        wavewhittle.simulate
    with pytest.raises(ImportError):
        exec("from wavewhittle import estimate", {})
    assert not hasattr(wavewhittle, "_LAZY_MODULE_THAT_DOES_NOT_EXIST")
