"""CSV ingestion, CLI exit codes, JSON schema, and output discipline."""

import csv
import json
import os
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import modete as m
from modete.cli import (
    EXIT_ESTIMATION,
    EXIT_IO,
    EXIT_USAGE,
    CsvFormatError,
    ResultRecord,
    _format_table,
    load_csv,
    main,
)


def write_sample_csv(path, sample, y="y", d="d", x=("x0",)):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([y, d, *x])
        for yi, di, xi in zip(sample.y, sample.d, sample.x):
            w.writerow([repr(float(yi)), int(di), *[repr(float(v)) for v in xi]])


@pytest.fixture
def sample_csv(tmp_path, lognormal_plain):
    sample = m.generate(lognormal_plain, 250, seed=7)
    path = tmp_path / "data.csv"
    write_sample_csv(path, sample)
    return str(path), sample


# The sample two rows of most parity cases hold: (y, d, x).
PAIR = ([1.5, 2.5], [0, 1], [[0.25], [0.75]])


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("y,d,x0\n1.0,0,0.5\n2.0,1,0.25\n0.5,true,0.75\n")
        s = load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})
        assert s.n == 3
        assert list(s.d) == [0, 1, 1]

    def test_treatment_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad_d.csv"
        path.write_text("y,d,x0\n1.0,0,0.5\n2.0,2,0.25\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad_y.csv"
        path.write_text("y,d,x0\nNaN,0,0.5\n2.0,1,0.25\n")
        with pytest.raises(CsvFormatError, match="row 2.*'y'"):
            load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,d\n1.0,0\n")
        with pytest.raises(CsvFormatError, match="'x0'"):
            load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})

    def test_round_trip_is_exact(self, sample_csv):
        path, sample = sample_csv
        loaded = load_csv(path, {"y": "y", "d": "d", "x": ["x0"]})
        assert np.array_equal(loaded.y, sample.y)
        assert np.array_equal(loaded.d, sample.d)
        assert np.array_equal(loaded.x, sample.x)

    @pytest.mark.parametrize("text, x_cols, want", [
        ("y,d,x0\n1.5,0,0.25\n\n2.5,1,0.75\n", ["x0"], PAIR),
        ("y,d,x0\n1.5,0,0.25\n  \n2.5,1,0.75\n", ["x0"], "row 3, column 'y': cannot parse ''"),
        ("y,d,x0\r\n1.5,0,0.25\r\n2.5,1,0.75\r\n", ["x0"], PAIR),
        ('y,d,x0,note\n"1.5","0",0.25,"a, b"\n2.5,1,"0.75","two\nlines"\n', ["x0"], PAIR),
        ('y,d,x0,note\n1.5,0,0.25,"a\nb"\n2.5,2,0.75,c\n', ["x0"],
         "row 3, column 'd': treatment must be 0/1/true/false, got '2'"),
        ("y,d,x0\n1.5,0,0.25,9\n2.5,1,0.75\n", ["x0"], PAIR),
        ("y,d,x0,note\n1.5,0,0.25,a\n2.5,1,0.75\n", ["x0"], PAIR),
        ("y,d,x0\n1.5,0,0.25\n#2.5,1,0.75\n", ["x0"], "row 3, column 'y': cannot parse '#2.5'"),
        ("y,d,x0\n1_0,0,0.25\n2.5,1,0.75\n", ["x0"], ([10.0, 2.5], [0, 1], [[0.25], [0.75]])),
        ("y,d,x0\n\u0661,0,0.25\n2.5,1,0.75\n", ["x0"], ([1.0, 2.5], [0, 1], [[0.25], [0.75]])),
        ("y,d,x0\n1.5,TRUE,0.25\n2.5,false,0.75\n3.5, 1,1.25\n", ["x0"],
         ([1.5, 2.5, 3.5], [1, 0, 1], [[0.25], [0.75], [1.25]])),
        ("y,d,x0\n1.5,0,0.25\n2.5,1.0,0.75\n", ["x0"],
         "row 3, column 'd': treatment must be 0/1/true/false, got '1.0'"),
        ("y,d,x0,\n1.5,0,0.25,\n2.5,1,0.75,\n", ["x0"], PAIR),
        ("y,d,x0\n1.5,0,0.25\n2.5,1,0.75", ["x0"], PAIR),
        ("y,d,x0\n", ["x0"], "no data rows"),
        ("x0,d,y\n0.25,0,1.5\n0.75,1,2.5\n", ["x0"], PAIR),
        ("y,d,x0,x1\n1.5,0,0.25,-3\n2.5,1,0.75,4e-3\n", ["x1", "x0"],
         ([1.5, 2.5], [0, 1], [[-3.0, 0.25], [0.004, 0.75]])),
    ], ids=["blank-line", "whitespace-line", "crlf", "quoted", "quoted-newline-then-error",
            "extra-column", "short-row", "hash-row", "underscore", "arabic-digit",
            "true-false-padded", "float-treatment", "trailing-comma", "no-final-newline",
            "header-only", "column-order", "two-covariates"])
    def test_parity_with_cell_parser(self, tmp_path, text, x_cols, want):
        """Files the columnar read vouches for and files only the cell parser
        decides give the cell parser's sample, bit for bit, or its message,
        and no warning (numpy's reader warns on a file without data rows)."""
        path = tmp_path / "case.csv"
        path.write_text(text, encoding="utf-8", newline="")
        cmap = {"y": "y", "d": "d", "x": x_cols}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(CsvFormatError) as exc:
                    load_csv(str(path), cmap)
                assert str(exc.value) == f"{path}: {want}"
                return
            s = load_csv(str(path), cmap)
        y, d, x = want
        assert s.y.dtype == np.float64 and s.d.dtype == np.int64 and s.x.dtype == np.float64
        assert np.array_equal(s.y.view(np.int64), np.array(y).view(np.int64))
        assert np.array_equal(s.d, d)
        assert np.array_equal(s.x.view(np.int64), np.array(x).view(np.int64))

    def test_nul_after_treatment_is_not_taken_for_it(self, tmp_path):
        """numpy's text type drops a trailing NUL, so "1\\0" would read as "1";
        the cell parser rejects it (and Python 3.10's csv module rejects the
        NUL itself)."""
        path = tmp_path / "nul.csv"
        path.write_text("y,d,x0\n1.5,0,0.25\n2.5,1\x00,0.75\n", encoding="utf-8")
        with pytest.raises((CsvFormatError, csv.Error)):
            load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read(self, tmp_path):
        """A pipe cannot be rewound to the data rows; the cell parser reads it."""
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, daemon=True,
                                  args=("y,d,x0\n1.5,0,0.25\n2.5,1,0.75\n",))
        writer.start()
        s = load_csv(str(fifo), {"y": "y", "d": "d", "x": ["x0"]})
        writer.join()
        assert s.y.tolist() == [1.5, 2.5] and s.d.tolist() == [0, 1]

    @pytest.mark.parametrize("fmt", [repr, "%.17g".__mod__], ids=["repr", "17g"])
    def test_extreme_doubles_round_trip(self, tmp_path, fmt):
        values = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-310, 1.0 / 3.0]
        path = tmp_path / "extreme.csv"
        rows = [f"{fmt(v)},{i % 2},{fmt(values[-1 - i])}" for i, v in enumerate(values)]
        path.write_text("\n".join(["y,d,x0", *rows]) + "\n", encoding="utf-8")
        s = load_csv(str(path), {"y": "y", "d": "d", "x": ["x0"]})
        assert np.array_equal(s.y.view(np.int64), np.array(values).view(np.int64))
        assert np.array_equal(s.x[:, 0].view(np.int64), np.array(values[::-1]).view(np.int64))


class TestCmdEstimate:
    def test_kernel_json_output(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0"])
        out = capsys.readouterr()
        assert code == 0
        doc = json.loads(out.out)
        assert doc["schema_version"] == "1"
        assert doc["method"] == "kernel"
        assert "folds" not in doc
        assert doc["diagnostics"]["mode_at_grid_edge"] is False

    def test_estimates_match_library_bitwise(self, sample_csv, capsys):
        """The CLI's record, minus its timing, is the library's with the same
        settings, for the default flags and for a non-default set per method."""
        path, sample = sample_csv
        flags = ["--kernel", "epanechnikov", "--bandwidth", "0.5", "--grid-points", "101",
                 "--alpha", "0.1", "--kappa", "0.45"]
        settings = {"grid_points": 101, "alpha": 0.1, "kappa": 0.45}
        dml_flags = ["--folds", "3", "--learner-pi", "knn", "--learner-g", "knn", "--seed", "5"]
        dml_config = m.DMLConfig(folds=3, pi_learner="knn", g_learner="knn", seed=5,
                                 family=m.EPANECHNIKOV, bandwidth=0.5, **settings)
        cases = [
            (["--method", "kernel", "--seed", "11"], lambda: m.estimate_kernel_mte(sample)),
            (["--method", "dml", "--seed", "11"],
             lambda: m.estimate_dml_mte(sample, m.DMLConfig(seed=11))),
            (["--method", "kernel", *flags],
             lambda: m.estimate_kernel_mte(sample, m.KernelSpec(m.EPANECHNIKOV, 0.5),
                                           family=m.EPANECHNIKOV, **settings)),
            (["--method", "dml", *flags, *dml_flags],
             lambda: m.estimate_dml_mte(sample, dml_config)),
        ]
        for args, library in cases:
            code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0", *args])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            ref = library()
            assert doc["estimates"]["theta1"] == ref.theta1
            assert doc["estimates"]["theta0"] == ref.theta0
            assert doc["estimates"]["delta"] == ref.delta
            want = ResultRecord.from_result(ref, 0.0).to_dict()
            del doc["timing_ms"], want["timing_ms"]
            assert json.dumps(doc) == json.dumps(want)

    def test_two_covariates(self, tmp_path, capsys, lognormal_selection):
        sample = m.generate(lognormal_selection, 150, seed=3)
        x2 = np.column_stack([sample.x, sample.x[:, 0] ** 2])
        wide = m.Sample(sample.y, sample.d, x2)
        path = tmp_path / "wide.csv"
        write_sample_csv(path, wide, x=("age", "tenure"))
        with pytest.warns(m.RateConditionWarning):
            code = main(["estimate", "--input", str(path), "--y", "y", "--d", "d",
                         "--x", "age,tenure"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "kernel"

    def test_dml_records_folds(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0",
                     "--method", "dml", "--folds", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["folds"] == 4

    def test_usage_errors(self, sample_csv):
        path, _ = sample_csv
        base = ["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0"]
        assert main(base + ["--method", "dml", "--folds", "1"]) == EXIT_USAGE
        assert main(base + ["--bandwidth", "-1"]) == EXIT_USAGE
        assert main(base + ["--bandwidth", "zero"]) == EXIT_USAGE
        assert main(["estimate"]) == EXIT_USAGE

    def test_io_errors(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["estimate", "--input", missing, "--y", "y", "--d", "d", "--x", "x0"]) == EXIT_IO
        bad = tmp_path / "bad.csv"
        bad.write_text("y,d,x0\n1.0,7,0.2\n")
        assert main(["estimate", "--input", str(bad), "--y", "y", "--d", "d", "--x", "x0"]) == EXIT_IO

    @pytest.mark.parametrize("text", [b"y,d,x0\n1.5,0,0.25\n2.5,1,0.7\xff5\n",
                                      b"y,d,x\xe90\n1.5,0,0.25\n"], ids=["row", "header"])
    def test_invalid_utf8_is_an_io_error(self, tmp_path, capsys, text):
        """A file that is not UTF-8 text exits 3 with one line naming it."""
        bad = tmp_path / "latin.csv"
        bad.write_bytes(text)
        code = main(["estimate", "--input", str(bad), "--y", "y", "--d", "d", "--x", "x0"])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{bad}: not UTF-8 text")

    def test_estimation_error_is_structured(self, tmp_path, capsys):
        one_arm = tmp_path / "onearm.csv"
        one_arm.write_text("y,d,x0\n1.0,1,0.2\n2.0,1,0.4\n1.5,1,0.6\n")
        code = main(["estimate", "--input", str(one_arm), "--y", "y", "--d", "d", "--x", "x0"])
        captured = capsys.readouterr()
        assert code == EXIT_ESTIMATION
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"]["type"] == "NoOverlapError"
        assert captured.out == ""

    @pytest.mark.parametrize("h", ["1e-200", "1e-320"])
    def test_extreme_dml_bandwidth_is_a_structured_error(self, sample_csv, capsys, h):
        """A bandwidth whose kernel scale overflows a double exits 2 with the
        error on stderr as JSON, not with a traceback, and before any curve
        is searched, so no curve-shape warning comes first."""
        path, _ = sample_csv
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", m.CurveShapeWarning)
            code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0",
                         "--method", "dml", "--bandwidth", h])
        assert not [w for w in caught if issubclass(w.category, m.CurveShapeWarning)]
        captured = capsys.readouterr()
        assert code == EXIT_ESTIMATION == 2
        err = json.loads(captured.err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ValueError"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_table_output(self, sample_csv, capsys):
        path, _ = sample_csv
        code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0",
                     "--output", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta1" in out and "ci_delta" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_emit_curves(self, sample_csv, tmp_path, capsys):
        path, _ = sample_csv
        curves = tmp_path / "curves.csv"
        code = main(["estimate", "--input", path, "--y", "y", "--d", "d", "--x", "x0",
                     "--emit-curves", str(curves)])
        capsys.readouterr()
        assert code == 0
        with open(curves, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["arm", "y", "value"]
        arms = {r[0] for r in rows[1:]}
        assert arms == {"0", "1"}
        assert len(rows) == 1 + 2 * 512


class TestCmdSimulate:
    def test_small_run(self, capsys):
        code = main(["simulate", "--dgp", "lognormal-plain", "--n", "500", "--reps", "10",
                     "--method", "kernel", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["reps"] == 10
        assert doc["schema_version"] == "1"
        assert set(doc["targets"]) == {"theta1", "theta0", "delta"}

    def test_unknown_dgp_lists_names(self, capsys):
        code = main(["simulate", "--dgp", "mystery", "--n", "100", "--reps", "2"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "lognormal-plain" in err

    @pytest.mark.parametrize("method", ["kernel", "dml"])
    def test_byte_identical_stdout(self, capsys, method):
        argv = ["simulate", "--dgp", "lognormal-plain", "--n", "150", "--reps", "3",
                "--method", method, "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestResultRecord:
    def test_round_trip(self, sample_csv):
        _, sample = sample_csv
        res = m.estimate_kernel_mte(sample)
        rec = ResultRecord.from_result(res, timing_ms=12.5)
        assert ResultRecord.from_json(rec.to_json()) == rec

    def test_grid_edge_flag(self, sample_csv):
        """A mode at the edge of a user grid is flagged in the record, which
        keeps schema version 1."""
        _, sample = sample_csv
        with pytest.warns(m.CurveShapeWarning, match="edge of the grid"):
            res = m.estimate_kernel_mte(sample, grid=np.linspace(3.0, 6.0, 32))
        doc = ResultRecord.from_result(res, timing_ms=1.0).to_dict()
        assert doc["diagnostics"]["mode_at_grid_edge"] is True
        assert doc["schema_version"] == "1"

    def test_unknown_fields_ignored(self, sample_csv):
        _, sample = sample_csv
        res = m.estimate_kernel_mte(sample)
        rec = ResultRecord.from_result(res, timing_ms=1.0)
        doc = rec.to_dict()
        doc["future_field"] = {"anything": 1}
        assert ResultRecord.from_json(json.dumps(doc)) == rec

    def test_diagnostics_mirror_the_result_type(self, sample_csv):
        """Every field of ``Diagnostics`` reaches the record, in its order."""
        _, sample = sample_csv
        rec = ResultRecord.from_result(m.estimate_kernel_mte(sample), timing_ms=1.0)
        assert list(rec.diagnostics) == [f.name for f in fields(m.Diagnostics)]
        assert isinstance(rec.diagnostics["warnings"], list)

    def test_missing_required_field_raises(self, sample_csv):
        _, sample = sample_csv
        doc = ResultRecord.from_result(m.estimate_kernel_mte(sample), timing_ms=1.0).to_dict()
        del doc["ses"]
        with pytest.raises(KeyError):
            ResultRecord.from_json(json.dumps(doc))


_RECORD = ResultRecord(
    schema_version="1", method="dml", n=400, h=0.25, family="gaussian",
    estimates={"theta1": 1.25, "theta0": 0.75, "delta": 0.5},
    ses={"se1": 0.125, "se0": 0.0625, "se_delta": 0.1397542485937369},
    cis={"ci1": [1.005, 1.495], "ci0": [0.6275, 0.8725], "ci_delta": [0.2260912, 0.7739088]},
    components={"m1_hat": -1.5, "m0_hat": -2.0, "v1_hat": 0.03125, "v0_hat": 0.0234375},
    diagnostics={"flat_curve": False, "mode_at_grid_edge": False, "m_hat_sign": False,
                 "fold_reseeds": 0, "warnings": []},
    timing_ms=12.345, folds=5)

_TABLE_BODY = """\
theta1     1.25
theta0     0.75
delta      0.5
se1        0.125
se0        0.0625
se_delta   0.139754
ci1        [1.005, 1.495]
ci0        [0.6275, 0.8725]
ci_delta   [0.226091, 0.773909]
m1_hat     -1.5
m0_hat     -2
v1_hat     0.03125
v0_hat     0.0234375
timing_ms  12.3"""


class TestFormatTable:
    def test_with_folds(self):
        head = "method     dml\nn          400\nh          0.25\nfamily     gaussian\nfolds      5\n"
        assert _format_table(_RECORD) == head + _TABLE_BODY

    def test_without_folds(self):
        head = "method     kernel\nn          400\nh          0.25\nfamily     gaussian\n"
        assert _format_table(replace(_RECORD, method="kernel", folds=None)) == head + _TABLE_BODY
