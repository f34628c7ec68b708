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
from dataclasses import dataclass

import numpy as np

from .density import Sample
from .errors import EstimationError
from .kernels import DML_METHOD, EPANECHNIKOV, GAUSSIAN, KERNEL_METHOD
from .results import MTEResult
from .simulation import _estimate, builtin_dgps, run_monte_carlo

EXIT_OK = 0
EXIT_ESTIMATION = 2
EXIT_IO = 3
EXIT_USAGE = 64

SCHEMA_VERSION = "1"


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
    """
    y_col = column_map["y"]
    d_col = column_map["d"]
    x_cols = list(column_map["x"])
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

        ys, ds, xs = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            ys.append(_parse_float(path, row, row_no, y_col, positions[y_col]))
            ds.append(_parse_treatment(path, row, row_no, d_col, positions[d_col]))
            xs.append([_parse_float(path, row, row_no, c, positions[c]) for c in x_cols])
    if not ys:
        raise CsvFormatError(f"{path}: no data rows")
    return Sample(np.asarray(ys), np.asarray(ds), np.asarray(xs))


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
    """JSON-stable view of an estimation result."""

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
        return cls(
            schema_version=SCHEMA_VERSION,
            method=result.method,
            n=result.n,
            h=result.h,
            family=result.family,
            estimates={"theta1": result.theta1, "theta0": result.theta0, "delta": result.delta},
            ses={"se1": result.se1, "se0": result.se0, "se_delta": result.se_delta},
            cis={
                "ci1": list(result.ci1),
                "ci0": list(result.ci0),
                "ci_delta": list(result.ci_delta),
            },
            components={
                "m1_hat": result.m1_hat,
                "m0_hat": result.m0_hat,
                "v1_hat": result.v1_hat,
                "v0_hat": result.v0_hat,
            },
            diagnostics={
                "flat_curve": result.diagnostics.flat_curve,
                "mode_at_grid_edge": result.diagnostics.mode_at_grid_edge,
                "m_hat_sign": result.diagnostics.m_hat_sign,
                "fold_reseeds": result.diagnostics.fold_reseeds,
                "warnings": list(result.diagnostics.warnings),
            },
            timing_ms=float(timing_ms),
            folds=result.folds,
        )

    def to_dict(self):
        out = {
            "schema_version": self.schema_version,
            "method": self.method,
            "n": self.n,
            "h": self.h,
            "family": self.family,
            "estimates": dict(self.estimates),
            "ses": dict(self.ses),
            "cis": {k: list(v) for k, v in self.cis.items()},
            "components": dict(self.components),
            "diagnostics": dict(self.diagnostics),
            "timing_ms": self.timing_ms,
        }
        if self.folds is not None:
            out["folds"] = self.folds
        return out

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text):
        """Parse a record, ignoring unknown fields for forward compatibility."""
        raw = json.loads(text)
        return cls(
            schema_version=raw["schema_version"],
            method=raw["method"],
            n=raw["n"],
            h=raw["h"],
            family=raw["family"],
            estimates=raw["estimates"],
            ses=raw["ses"],
            cis=raw["cis"],
            components=raw["components"],
            diagnostics=raw["diagnostics"],
            timing_ms=raw["timing_ms"],
            folds=raw.get("folds"),
        )


def _format_table(record: ResultRecord):
    rows = [
        ("method", record.method),
        ("n", record.n),
        ("h", f"{record.h:.6g}"),
        ("family", record.family),
    ]
    if record.folds is not None:
        rows.append(("folds", record.folds))
    rows += [
        ("theta1", f"{record.estimates['theta1']:.6g}"),
        ("theta0", f"{record.estimates['theta0']:.6g}"),
        ("delta", f"{record.estimates['delta']:.6g}"),
        ("se1", f"{record.ses['se1']:.6g}"),
        ("se0", f"{record.ses['se0']:.6g}"),
        ("se_delta", f"{record.ses['se_delta']:.6g}"),
        ("ci1", _fmt_ci(record.cis["ci1"])),
        ("ci0", _fmt_ci(record.cis["ci0"])),
        ("ci_delta", _fmt_ci(record.cis["ci_delta"])),
        ("m1_hat", f"{record.components['m1_hat']:.6g}"),
        ("m0_hat", f"{record.components['m0_hat']:.6g}"),
        ("v1_hat", f"{record.components['v1_hat']:.6g}"),
        ("v0_hat", f"{record.components['v0_hat']:.6g}"),
        ("timing_ms", f"{record.timing_ms:.1f}"),
    ]
    width = max(len(str(k)) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _fmt_ci(ci):
    return f"[{ci[0]:.6g}, {ci[1]:.6g}]"


def _add_estimator_flags(p):
    p.add_argument("--method", choices=[KERNEL_METHOD, DML_METHOD], default=KERNEL_METHOD)
    p.add_argument("--kernel", choices=[GAUSSIAN, EPANECHNIKOV], default=GAUSSIAN)
    p.add_argument("--bandwidth", default="auto")
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--learner-pi", choices=["logistic", "knn", "kernel"], default="logistic")
    p.add_argument("--learner-g", choices=["ridge", "knn"], default="ridge")
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
