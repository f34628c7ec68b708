"""Command-line surface: CSV ingestion, estimator execution, Monte Carlo
runs, and machine-readable JSON output.

Exit codes: 0 success, 2 estimation failure (structured error object on
stderr), 3 input/output failure, 64 usage error.  stdout carries only the
result document; warnings and logs go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .density import Sample
from .errors import EstimationError
from .kernels import DML_METHOD, EPANECHNIKOV, GAUSSIAN, KERNEL_METHOD
from .learners import OUTCOME_LEARNERS, PROPENSITY_LEARNERS
from .results import SCHEMA_VERSION, MTEResult
from .simulation import _estimate, builtin_dgps, run_monte_carlo

EXIT_OK = 0
EXIT_ESTIMATION = 2
EXIT_IO = 3
EXIT_USAGE = 64


class CsvFormatError(Exception):
    """The input file exists but its contents cannot be used."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the 64 usage-error convention instead of its default 2."""

    def error(self, message):
        raise _UsageError(message)


def load_csv(path, column_map):
    """Read a header-ed CSV into a :class:`Sample`.

    ``column_map`` is ``{"y": name, "d": name, "x": [names...]}``.  The
    treatment column accepts 0/1/true/false (case-insensitive); numeric cells
    must be finite.  Errors name the offending row and column.

    The selected columns are read in one :func:`numpy.loadtxt` pass.  A file
    that pass cannot vouch for (a parse error, no data rows, a non-finite
    cell, a treatment cell other than exactly ``0`` or ``1``) is read again
    one cell at a time, so the accepted files, the samples and the messages
    are the cell parser's.
    """
    y_col = column_map["y"]
    d_col = column_map["d"]
    x_cols = list(column_map["x"])
    with open(path, newline="", encoding="utf-8") as fh:
        # Read by readline, not by iteration, so that fh.tell() is allowed.
        reader = csv.reader(iter(fh.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file (header row required)")
        header = [h.strip() for h in header]
        positions = {}
        for col in [y_col, d_col, *x_cols]:
            if col not in header:
                raise CsvFormatError(f"{path}: column {col!r} not found in header {header}")
            positions[col] = header.index(col)

        if fh.seekable():  # a pipe is read one cell at a time
            start = fh.tell()
            # np.loadtxt warns on a file without data rows; the loop below reports it.
            if any(line.strip("\r\n") for line in iter(fh.readline, "")):
                fh.seek(start)
                sample = _load_columns(fh, positions[y_col], positions[d_col],
                                       [positions[c] for c in x_cols])
                if sample is not None:
                    return sample
            fh.seek(start)
        ys, ds, xs = [], [], []
        for row_no, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            ys.append(_parse_float(path, row, row_no, y_col, positions[y_col]))
            ds.append(_parse_treatment(path, row, row_no, d_col, positions[d_col]))
            xs.append([_parse_float(path, row, row_no, c, positions[c]) for c in x_cols])
    if not ys:
        raise CsvFormatError(f"{path}: no data rows")
    return Sample(np.asarray(ys), np.asarray(ds), np.asarray(xs))


def _load_columns(fh, y_pos, d_pos, x_pos):
    """The sample in the columns at these positions of the rows left in
    ``fh``, or None where one ``np.loadtxt`` pass cannot vouch for it.

    The treatment column is read twice: as text, which must be exactly "0"
    or "1", and as a number, which rejects the NULs that numpy's text type
    drops from the end of a cell.
    """
    dtype = np.dtype([("y", float), ("d", "U2"), ("d_num", float), ("x", float, (len(x_pos),))])
    try:
        cols = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                          usecols=[y_pos, d_pos, d_pos, *x_pos], ndmin=1)
    except ValueError:
        return None
    d = cols["d"]
    treated = d == "1"
    if not (np.isfinite(cols["y"]).all() and np.isfinite(cols["x"]).all()
            and (treated | (d == "0")).all()):
        return None
    return Sample(cols["y"], treated.astype(np.int64), cols["x"])


def _cell(row, pos, path, row_no, col):
    if pos >= len(row):
        raise CsvFormatError(f"{path}: row {row_no} is missing column {col!r}")
    return row[pos].strip()


def _parse_float(path, row, row_no, col, pos):
    cell = _cell(row, pos, path, row_no, col)
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"{path}: row {row_no}, column {col!r}: cannot parse {cell!r}")
    if not math.isfinite(value):
        raise CsvFormatError(f"{path}: row {row_no}, column {col!r}: non-finite value {cell!r}")
    return value


def _parse_treatment(path, row, row_no, col, pos):
    cell = _cell(row, pos, path, row_no, col).lower()
    if cell in ("0", "false"):
        return 0
    if cell in ("1", "true"):
        return 1
    raise CsvFormatError(
        f"{path}: row {row_no}, column {col!r}: treatment must be 0/1/true/false, got {cell!r}"
    )


@dataclass(frozen=True)
class ResultRecord:
    """JSON-stable view of an estimation result.

    The fields' order is the document's key order; ``diagnostics`` holds the
    fields of :class:`~modete.results.Diagnostics`, and ``folds`` is left out
    of the document when it is None.
    """

    schema_version: str
    method: str
    n: int
    h: float
    family: str
    estimates: dict
    ses: dict
    cis: dict
    components: dict
    diagnostics: dict
    timing_ms: float
    folds: int | None = None

    @classmethod
    def from_result(cls, result: MTEResult, timing_ms):
        def pick(*names):
            return {name: getattr(result, name) for name in names}

        return cls(
            schema_version=SCHEMA_VERSION,
            **pick("method", "n", "h", "family", "folds"),
            estimates=pick("theta1", "theta0", "delta"),
            ses=pick("se1", "se0", "se_delta"),
            cis={name: list(ci) for name, ci in pick("ci1", "ci0", "ci_delta").items()},
            components=pick("m1_hat", "m0_hat", "v1_hat", "v0_hat"),
            diagnostics={**asdict(result.diagnostics),
                         "warnings": list(result.diagnostics.warnings)},
            timing_ms=float(timing_ms),
        )

    def to_dict(self):
        out = asdict(self)
        if self.folds is None:
            del out["folds"]
        return out

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text):
        """Parse a record: a missing field raises :class:`KeyError`, except
        ``folds``; unknown fields are ignored for forward compatibility."""
        raw = json.loads(text)
        return cls(**{f.name: raw[f.name] for f in fields(cls)
                      if f.name in raw or f.default is MISSING})


def _format_table(record: ResultRecord):
    rows = [("method", record.method), ("n", record.n), ("h", f"{record.h:.6g}"),
            ("family", record.family)]
    if record.folds is not None:
        rows.append(("folds", record.folds))
    for name, value in {**record.estimates, **record.ses, **record.cis,
                        **record.components}.items():
        rows.append((name, f"[{value[0]:.6g}, {value[1]:.6g}]" if name in record.cis
                     else f"{value:.6g}"))
    rows.append(("timing_ms", f"{record.timing_ms:.1f}"))
    width = max(len(str(k)) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _add_estimator_flags(p):
    p.add_argument("--method", choices=[KERNEL_METHOD, DML_METHOD], default=KERNEL_METHOD)
    p.add_argument("--kernel", choices=[GAUSSIAN, EPANECHNIKOV], default=GAUSSIAN)
    p.add_argument("--bandwidth", default="auto")
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--learner-pi", choices=PROPENSITY_LEARNERS, default="logistic")
    p.add_argument("--learner-g", choices=OUTCOME_LEARNERS, default="ridge")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--kappa", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = _Parser(prog="modete", description="Mode treatment effect estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate from a CSV file")
    est.add_argument("--input", required=True)
    est.add_argument("--y", required=True)
    est.add_argument("--d", required=True)
    est.add_argument("--x", required=True, help="comma-separated covariate columns")
    _add_estimator_flags(est)
    est.add_argument("--emit-curves", default=None,
                     help="write the per-arm density curves as CSV (arm,y,value)")
    est.add_argument("--output", choices=["json", "table"], default="json")

    sim = sub.add_parser("simulate", help="run a Monte Carlo study on a named process")
    sim.add_argument("--dgp", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    _add_estimator_flags(sim)
    return parser


def _validate_common(args):
    if args.bandwidth != "auto":
        try:
            bw = float(args.bandwidth)
        except ValueError:
            raise _UsageError(f"--bandwidth must be 'auto' or a positive number, got {args.bandwidth!r}")
        if not (math.isfinite(bw) and bw > 0):
            raise _UsageError(f"--bandwidth must be positive, got {args.bandwidth!r}")
        args.bandwidth = bw
    else:
        args.bandwidth = None
    if args.method == DML_METHOD and args.folds < 2:
        raise _UsageError(f"--folds must be at least 2 for the dml method, got {args.folds}")
    if not 0.0 < args.alpha < 1.0:
        raise _UsageError(f"--alpha must be in (0, 1), got {args.alpha}")
    if not 0.0 < args.kappa < 0.5:
        raise _UsageError(f"--kappa must be in (0, 0.5), got {args.kappa}")
    if args.grid_points < 3:
        raise _UsageError(f"--grid-points must be at least 3, got {args.grid_points}")


def _estimator_config(args):
    """The estimator settings among ``args``, as :func:`simulation._estimate` takes them."""
    config = {"family": args.kernel, "bandwidth": args.bandwidth,
              "grid_points": args.grid_points, "alpha": args.alpha, "kappa": args.kappa}
    if args.method == DML_METHOD:
        config.update(folds=args.folds, pi_learner=args.learner_pi, g_learner=args.learner_g)
    return config


def _write_curves(path, result: MTEResult):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "y", "value"])
        for curve in (result.curve1, result.curve0):
            if curve is None:
                continue
            for yv, val in zip(curve.grid, curve.values):
                writer.writerow([curve.arm, repr(float(yv)), repr(float(val))])


def _emit_error(exc):
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc), file=sys.stderr)


def cmd_estimate(args):
    try:
        sample = load_csv(args.input, {"y": args.y, "d": args.d, "x": args.x.split(",")})
    except (OSError, CsvFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        # The codec's own message gives a position within the chunk it was
        # decoding, not within the file.
        print(f"{args.input}: not UTF-8 text: cannot decode byte "
              f"0x{exc.object[exc.start]:02x} ({exc.reason})", file=sys.stderr)
        return EXIT_IO
    start = time.perf_counter()
    try:
        result = _estimate(args.method, sample, _estimator_config(args), args.seed)
    except (EstimationError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_ESTIMATION
    timing_ms = (time.perf_counter() - start) * 1000.0
    record = ResultRecord.from_result(result, timing_ms)
    if args.emit_curves:
        try:
            _write_curves(args.emit_curves, result)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_IO
    if args.output == "table":
        print(_format_table(record))
    else:
        print(record.to_json())
    return EXIT_OK


def cmd_simulate(args):
    dgps = builtin_dgps()
    if args.dgp not in dgps:
        raise _UsageError(
            f"unknown dgp {args.dgp!r}; available: {', '.join(sorted(dgps))}"
        )
    try:
        report = run_monte_carlo(dgps[args.dgp], args.n, args.reps, args.method,
                                 config=_estimator_config(args), seed=args.seed)
    except (EstimationError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_ESTIMATION
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        if args.command == "estimate":
            return cmd_estimate(args)
        return cmd_simulate(args)
    except _UsageError as exc:
        print(f"modete: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits 0 for --help; map its usage failures to 64.
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
