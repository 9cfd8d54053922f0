"""Command-line front end: simulate panels, estimate from CSV, run scenarios.

Everything numerical is produced by library calls; this layer only parses
flags, reads and writes files, and returns the exit code that each error
type carries (``WavewhittleError.exit_code``):

    0  success (estimation warnings are reported in the output, not the code)
    2  parse or configuration failure (CSV, flags, scenario files)
    3  infeasible scale range for the given sample length
    4  invalid (non positive definite) covariance

CSV files are RFC-4180 style: header row mandatory, UTF-8, '.' decimals,
missing values rejected.  Output files are written atomically (temp file
plus rename) and carry a full configuration echo sufficient to re-run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .arfima import ArfimaSpec, simulate_arfima
from .errors import ConfigError, PanelFormatError, WavewhittleError
from .estimator import EstimationConfig, estimate_panel
from .montecarlo import load_scenario, omega_from_rho, run_scenario
from .wavelets import WaveletSpec

EXIT_OK = 0


def atomic_write_text(path, text: str) -> None:
    """Write text via a temporary file and rename, so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_panel(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV sample panel; returns (channel names, (N, p) array).

    The header row is mandatory.  Any file ``csv.reader`` reads is accepted,
    quoted cells included.  Raises PanelFormatError with the 1-based line and
    column of the first malformed, missing or non-finite cell.

    The body is parsed in one ``np.loadtxt`` call.  When the header is quoted
    or has a blank name, or that call fails, or its result has no rows, the
    wrong width or a non-finite value, the file is read again row by row:
    that scan locates the error, or reads cells ``loadtxt`` does not (quoted
    cells, ``1_0``).  Both paths accept the same files with the same values.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise PanelFormatError(f"cannot open panel file: {exc}") from exc
    with fh:
        header = fh.readline()
        # a quoted header may span lines, which only the scan follows
        names = [] if '"' in header else [n.strip() for n in next(csv.reader([header]), [])]
        if names and all(names):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # empty body
                    panel = np.loadtxt(
                        fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2
                    )
            except ValueError:
                pass
            else:
                if (
                    panel.shape[0] >= 1
                    and panel.shape[1] == len(names)
                    and np.isfinite(panel).all()
                ):
                    return names, panel
        fh.seek(0)
        return _scan_panel(fh)


def _scan_panel(fh) -> tuple[list[str], np.ndarray]:
    """Row-by-row ``csv.reader`` parse that raises at the first bad cell."""
    reader = csv.reader(fh)
    try:
        return _scan_rows(reader)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise PanelFormatError(f"unreadable CSV: {exc}", line=reader.line_num) from None


def _scan_rows(reader) -> tuple[list[str], np.ndarray]:
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty panel file (header row is mandatory)", line=1)
    names = [name.strip() for name in header]
    if not names or any(not name for name in names):
        raise PanelFormatError("blank channel name in header", line=1)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise PanelFormatError(
                f"expected {len(names)} columns, got {len(row)}", line=lineno, column=len(row)
            )
        values = []
        for colno, cell in enumerate(row, start=1):
            cell = cell.strip()
            if not cell:
                raise PanelFormatError("missing value", line=lineno, column=colno)
            try:
                value = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"not a number: {cell!r}", line=lineno, column=colno
                ) from None
            if not math.isfinite(value):
                raise PanelFormatError("non-finite value", line=lineno, column=colno)
            values.append(value)
        rows.append(values)
    if not rows:
        raise PanelFormatError("panel has a header but no data rows", line=2)
    return names, np.asarray(rows, dtype=np.float64)


def panel_csv(panel: np.ndarray, names=None) -> str:
    names = names or [f"ch{i + 1}" for i in range(panel.shape[1])]
    lines = [",".join(names)]
    for row in panel:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_panel(path, panel: np.ndarray, names=None) -> None:
    atomic_write_text(path, panel_csv(panel, names))


def _matrix_list(m: np.ndarray) -> list:
    return [[None if not np.isfinite(v) else float(v) for v in row] for row in m]


def _histogram_csv(values: np.ndarray) -> str:
    finite = values[np.isfinite(values)]
    n_bins = min(50, max(5, int(math.ceil(2 * math.sqrt(finite.size)))))
    counts, edges = np.histogram(finite, bins=n_bins)
    lines = ["bin_left,count"]
    for left, count in zip(edges[:-1], counts):
        lines.append(f"{left:.10g},{int(count)}")
    lines.append(f"{edges[-1]:.10g},0")
    return "\n".join(lines) + "\n"


def _corr_grid_csv(names, correlation: np.ndarray) -> str:
    lines = ["channel," + ",".join(names)]
    for name, row in zip(names, correlation):
        cells = ",".join("" if not np.isfinite(v) else f"{v:.10g}" for v in row)
        lines.append(f"{name},{cells}")
    return "\n".join(lines) + "\n"


def _estimate_csv(names, result) -> str:
    lines = ["quantity,row,col,value"]
    for i, v in enumerate(result.d_hat, start=1):
        lines.append(f"d,{i},,{v:.10g}")
    p = len(names)
    for i in range(p):
        for j in range(i, p):
            for label, mat in (("omega", result.omega), ("correlation", result.correlation)):
                v = mat[i, j]
                lines.append(f"{label},{i + 1},{j + 1}," + ("" if not np.isfinite(v) else f"{v:.10g}"))
    return "\n".join(lines) + "\n"


def _stem(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root


def cmd_estimate(args) -> int:
    names, panel = read_panel(args.input)
    if args.demean:
        panel = panel - panel.mean(axis=0, keepdims=True)
    spec = WaveletSpec(vanishing_moments=args.M)
    config = EstimationConfig(j0=args.j0, j1=args.j1)
    result = estimate_panel(panel, spec, config)

    warnings = dict(result.warnings)
    warnings["non_convergence"] = not result.diagnostics["converged"]
    report = {
        "config": {
            "command": "estimate",
            "version": __version__,
            "input": os.path.abspath(args.input),
            "M": args.M,
            "j0": args.j0,
            "j1": args.j1,
            "effective_j0": result.j0,
            "effective_j1": result.j1,
            "demean": bool(args.demean),
            "n_samples": int(panel.shape[0]),
            "channels": names,
        },
        "d_hat": result.d_hat.tolist(),
        "objective_value": (
            result.objective_value if math.isfinite(result.objective_value) else None
        ),
        "g_hat": _matrix_list(result.g_matrix),
        "omega": _matrix_list(result.omega),
        "correlation": _matrix_list(result.correlation),
        "counts": result.counts.tolist(),
        "warnings": warnings,  # pairs are tuples, which json writes as 2-lists
        "diagnostics": result.diagnostics,
    }
    payload = json.dumps(report, indent=2) + "\n"
    if args.output:
        if args.format == "csv":
            atomic_write_text(args.output, _estimate_csv(names, result))
            atomic_write_text(_stem(args.output) + "_config.json", payload)
        else:
            atomic_write_text(args.output, payload)
        atomic_write_text(_stem(args.output) + "_dhist.csv", _histogram_csv(result.d_hat))
        atomic_write_text(_stem(args.output) + "_corr.csv", _corr_grid_csv(names, result.correlation))
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    d = np.asarray(_csv_floats(args.d), dtype=np.float64)
    if args.omega_file:
        omega = read_panel(args.omega_file)[1]
    else:
        omega = omega_from_rho(args.rho if args.rho is not None else 0.0, d.size)
    spec = ArfimaSpec(
        d=d,
        omega=omega,
        n_samples=args.N,
        seed=args.seed,
        moment_cap=args.M,
    )
    panel = simulate_arfima(spec)
    echo = {
        "command": "simulate",
        "version": __version__,
        "d": d.tolist(),
        "omega": omega.tolist(),
        "N": args.N,
        "M": args.M,
        "seed": args.seed,
    }
    if args.output:
        write_panel(args.output, panel)
        atomic_write_text(_stem(args.output) + "_config.json", json.dumps(echo, indent=2) + "\n")
    else:
        sys.stdout.write(panel_csv(panel))
    return EXIT_OK


def cmd_mc(args) -> int:
    scenario = load_scenario(args.scenario)
    # replace() builds a new Scenario, which checks each override
    if args.reps is not None:
        scenario = dataclasses.replace(scenario, replications=args.reps)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run_scenario(scenario, workers=args.workers)
    if args.output:
        report.write_json(args.output + ".json")
        report.write_csv(args.output + ".csv")
    else:
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _csv_floats(text: str) -> list[float]:
    """Parse a comma-separated list of numbers; an empty item is an error."""
    items = text.split(",")
    try:
        if all(v.strip() for v in items):
            return [float(v) for v in items]
    except ValueError:
        pass
    raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavewhittle",
        description="Multivariate wavelet Whittle estimation of long-memory parameters "
        "and long-run covariance",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate d and the long-run covariance from a CSV panel")
    est.add_argument("--input", required=True, help="CSV panel (header row, N rows x p columns)")
    est.add_argument("--output", help="report path (omit to print JSON to stdout)")
    est.add_argument("--format", choices=("json", "csv"), default="json")
    est.add_argument("--M", type=int, default=4, help="vanishing moments (default 4)")
    est.add_argument("--j0", type=int, default=1, help="finest scale (default 1)")
    est.add_argument("--j1", type=int, default=None, help="coarsest scale (default: deepest feasible)")
    est.add_argument("--demean", action="store_true", help="remove per-channel means first")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="simulate a fractional panel to CSV")
    sim.add_argument("--d", required=True, help="memory parameters, e.g. 0.2,0.2")
    cov = sim.add_mutually_exclusive_group()
    cov.add_argument("--rho", type=float, default=None, help="constant cross-correlation")
    cov.add_argument("--omega-file", help="CSV matrix with the long-run covariance")
    sim.add_argument("--N", type=int, required=True, help="number of time points")
    sim.add_argument("--M", type=int, default=None,
                     help="reject d >= M (vanishing-moment cap check)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--output", help="CSV output path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    mc = sub.add_parser("mc", help="run a Monte-Carlo scenario file")
    mc.add_argument("--scenario", required=True, help="scenario file (key=value or JSON)")
    mc.add_argument("--output", help="output base path (writes BASE.json and BASE.csv)")
    mc.add_argument("--reps", type=int, default=None, help="override replication count")
    mc.add_argument("--seed", type=int, default=None, help="override root seed")
    mc.add_argument("--workers", type=int, default=1, help="parallel replication workers")
    mc.set_defaults(func=cmd_mc)
    return parser


def _position(exc: PanelFormatError) -> str:
    """The message suffix " (line L, column C)", leaving out a part that is 0."""
    parts = [f"{name} {n}" for name, n in (("line", exc.line), ("column", exc.column)) if n]
    return f" ({', '.join(parts)})" if parts else ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WavewhittleError as exc:
        position = _position(exc) if isinstance(exc, PanelFormatError) else ""
        sys.stderr.write(f"error: {exc}{position}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
