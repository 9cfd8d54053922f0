"""Command-line front end: simulate panels, estimate from CSV, run scenarios.

Everything numerical is produced by library calls; this layer only parses
flags, reads and writes files, and returns the exit code that each error
type carries (``WavewhittleError.exit_code``):

    0  success (estimation warnings are reported in the output, not the code)
    2  parse or configuration failure (CSV, flags, scenario files): among
       them a panel or scenario file that is missing, a directory or not
       UTF-8, an ``--output`` that is a directory or whose directory does
       not exist or takes no new file (``mc`` checks both of its files before
       it runs), and ``mc --workers`` below 1
    3  infeasible scale range for the given sample length
    4  invalid (non positive definite) covariance

CSV files are RFC-4180 style: header row mandatory, UTF-8, '.' decimals,
missing values rejected.  Every CSV this module writes goes through
``_csv_text``, in the dialect it reads.  Output files are written
atomically (temp file plus rename), with mode 0o666 minus the umask, and
carry a full configuration echo sufficient to re-run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, plaincsv
from .errors import ConfigError, PanelFormatError, WavewhittleError
from .estimator import EstimationConfig, estimate_panel
from .wavelets import WaveletSpec

EXIT_OK = 0


def atomic_write_text(path, text: str) -> None:
    """Write text via a temporary file and rename, so readers never see partial files.

    The file gets mode 0o666 minus the umask, as ``open`` would give it.  A
    path that names a directory, or a directory that does not exist or takes
    no new file, is a ConfigError, raised before anything is written."""
    fd, tmp = _temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            # mkstemp creates the file 0o600, and the rename keeps that mode;
            # the umask can only be read by setting it
            umask = os.umask(0o022)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _temp_file(path) -> tuple[int, str]:
    """An open temporary file in the directory of ``path``: (fd, name)."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        return tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def read_panel(path) -> tuple[list[str], np.ndarray]:
    """Read a CSV sample panel; returns (channel names, (N, p) array).

    The header row is mandatory.  Any file ``csv.reader`` reads is accepted,
    quoted cells included.  Raises PanelFormatError with the 1-based line and
    column of the first malformed, missing or non-finite cell, and of a blank
    channel name or one that holds a carriage return; a file that is not
    UTF-8 with the line of its first undecodable byte.

    The file is read once, as bytes.  Its header is split by ``csv.reader``;
    a body in the plain dialect (ASCII, ``,`` between cells, ``\n`` or
    ``\r\n`` after each row, cells ``[+-]?digits[.digits][(e|E)[+-]?digits]``
    with no padding) is parsed by ``plaincsv.parse_body`` in row-aligned
    blocks of about 256 KB.  Its values are bit-identical to ``float(cell)``:
    a mantissa of at most 19 significant digits is scaled by an exact 10**k,
    k <= 27, in the 64-bit significand of the x87 long double, so it is
    rounded once before float64; a cell beyond those limits, one whose
    result lands on a float64 halfway point, and every cell on a host
    without that long double is read by ``float(cell)``.  A quoted or blank
    header, a body outside the dialect, a ``float(cell)`` that raises or is
    not finite, and a body without rows go to the row-by-row ``csv.reader``
    scan, which locates the error or reads what the dialect leaves out
    (quoted cells, padding, ``1_0``).  Both paths accept the same files with
    the same values.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PanelFormatError(f"cannot open panel file: {exc}") from exc
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        header = fh.readline()
        # a quoted header may span lines, which only the scan follows
        if '"' not in header:
            try:
                names = _channel_names(next(csv.reader([header]), []))
            except (csv.Error, PanelFormatError):  # e.g. a name over csv.field_size_limit()
                pass  # the scan raises it
            else:
                panel = plaincsv.parse_body(data, len(header.encode("utf-8")), len(names))
                if panel is not None:
                    return names, panel
        fh.seek(0)
        return _scan_panel(fh)
    except UnicodeDecodeError:
        # the reader decodes in chunks, so its error holds no offset in the
        # file: decoding the whole file again does
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start].decode("utf-8")
            # the line ends of csv.reader on a newline="" stream: \n, \r and \r\n
            line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
            raise PanelFormatError(f"not UTF-8: {exc.reason} 0x{data[exc.start]:02x}",
                                   line=line) from None
        raise


def _channel_names(header: list[str]) -> list[str]:
    """The stripped names of a header row, checked.

    A name that holds a carriage return is refused: ``_csv_text`` quotes only
    a \n, so the name would end a row early in the report files."""
    names = [name.strip() for name in header]
    if not names or any(not name for name in names):
        raise PanelFormatError("blank channel name in header", line=1)
    for column, name in enumerate(names, start=1):
        if "\r" in name:
            raise PanelFormatError("carriage return in channel name", line=1, column=column)
    return names


def _scan_panel(fh) -> tuple[list[str], np.ndarray]:
    """Row-by-row ``csv.reader`` parse that raises at the first bad cell."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise PanelFormatError("empty panel file (header row is mandatory)", line=1)
        names = _channel_names(header)
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
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise PanelFormatError(f"unreadable CSV: {exc}", line=reader.line_num) from None
    if not rows:
        raise PanelFormatError("panel has a header but no data rows", line=2)
    return names, np.asarray(rows, dtype=np.float64)


def _csv_text(rows) -> str:
    """``rows`` as CSV in the dialect ``read_panel`` reads: LF line ends, and
    a cell that holds a comma, a quote or a line feed quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def panel_csv(panel: np.ndarray, names=None) -> str:
    names = names or [f"ch{i + 1}" for i in range(panel.shape[1])]
    # str() of a float is its repr: every digit
    return _csv_text([names, *np.asarray(panel, dtype=np.float64).tolist()])


def write_panel(path, panel: np.ndarray, names=None) -> None:
    atomic_write_text(path, panel_csv(panel, names))


def _cell(value) -> str:
    """A number in a report CSV: empty when missing or non-finite, else ``.10g``."""
    return "" if value is None or not math.isfinite(value) else f"{value:.10g}"


def _matrix_list(m: np.ndarray) -> list:
    return [[v if math.isfinite(v) else None for v in row] for row in m.tolist()]


def _histogram_csv(values: np.ndarray) -> str:
    finite = values[np.isfinite(values)]
    n_bins = min(50, max(5, int(math.ceil(2 * math.sqrt(finite.size)))))
    try:
        counts, edges = np.histogram(finite, bins=n_bins)
    except ValueError:  # values ulps apart: widen as numpy does for equal ones
        counts, edges = np.histogram(finite, n_bins, (finite.min() - 0.5, finite.max() + 0.5))
    # the last edge closes the last bin, with a count of 0
    rows = zip(map(_cell, edges.tolist()), counts.tolist() + [0])
    return _csv_text([("bin_left", "count"), *rows])


def _corr_grid_csv(names, correlation: np.ndarray) -> str:
    rows = [[name, *map(_cell, row)] for name, row in zip(names, correlation.tolist())]
    return _csv_text([["channel", *names], *rows])


def _estimate_csv(names, result) -> str:
    rows = [("quantity", "row", "col", "value")]
    rows += [("d", i, "", _cell(v)) for i, v in enumerate(result.d_hat.tolist(), start=1)]
    omega, correlation = result.omega.tolist(), result.correlation.tolist()
    p = len(names)
    for i in range(p):
        for j in range(i, p):
            for label, mat in (("omega", omega), ("correlation", correlation)):
                rows.append((label, i + 1, j + 1, _cell(mat[i][j])))
    return _csv_text(rows)


def _mc_csv(records) -> str:
    columns = ("truth", "bias", "std", "rmse", "ratio_mu")
    rows = [[rec["quantity"], *(_cell(rec[c]) for c in columns)] for rec in records]
    return _csv_text([("quantity", *columns), *rows])


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
        "warnings": result.warnings,  # pairs are tuples, which json writes as 2-lists
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
        sys.stdout.write(_estimate_csv(names, result) if args.format == "csv" else payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .arfima import ArfimaSpec, simulate_arfima  # loaded here: an estimate needs neither
    from .montecarlo import omega_from_rho

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
    from .montecarlo import load_scenario, run_scenario

    scenario = load_scenario(args.scenario)
    # replace() builds a new Scenario, which checks each override
    if args.reps is not None:
        scenario = dataclasses.replace(scenario, replications=args.reps)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.output:  # refused before any replication runs, leaving no file
        for suffix in (".json", ".csv"):
            fd, tmp = _temp_file(args.output + suffix)
            os.close(fd)
            os.unlink(tmp)
    report = run_scenario(scenario, workers=args.workers)
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if args.output:
        atomic_write_text(args.output + ".json", payload)
        atomic_write_text(args.output + ".csv", _mc_csv(report.records))
    else:
        sys.stdout.write(payload)
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
    est.add_argument("--output", help="report path (omit to print the report, or with --format "
                     "csv its CSV table, to stdout)")
    est.add_argument("--format", choices=("json", "csv"), default="json")
    est.add_argument("--M", type=int, default=4, help="vanishing moments (default 4)")
    est.add_argument("--j0", type=int, default=1, help="finest scale (default 1)")
    est.add_argument("--j1", type=int, default=None,
                     help="coarsest scale (default: the deepest with at least as many "
                     "coefficients as channels)")
    est.add_argument("--demean", action="store_true", help="remove per-channel means first")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="simulate a fractional panel to CSV")
    sim.add_argument("--d", required=True, help="memory parameters, e.g. 0.2,0.2")
    cov = sim.add_mutually_exclusive_group()
    cov.add_argument("--rho", type=float, default=None, help="constant cross-correlation")
    cov.add_argument("--omega-file", help="long-run covariance as a CSV panel: a header row, "
                     "then p rows of p numbers")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process (a build takes about a millisecond).
    It keeps the ``cmd_*`` functions it was built with."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except WavewhittleError as exc:
        position = _position(exc) if isinstance(exc, PanelFormatError) else ""
        sys.stderr.write(f"error: {exc}{position}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
