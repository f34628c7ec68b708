"""Tests of the benchmark harness: smoke runs of every workload, span
arithmetic, and restoration of every attribute the tracer wraps.

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import environment  # noqa: E402

environment.use_source_tree()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[kind]
    }


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("kernel-n8k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(5, 6), (0, 1), (0, 1)]) == 2.0


def test_self_time_subtracts_only_direct_children():
    # a [0, 10] > b [1, 4] > c [2, 3];  a > d [3.5, 6], overlapping b.
    spans = [Span("a", "m", 0.0, 10.0, None, 0), Span("b", "m", 1.0, 4.0, 0, 0),
             Span("c", "m", 2.0, 3.0, 1, 0), Span("d", "m", 3.5, 6.0, 0, 0)]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.5]


def test_tracer_records_parents_and_restores():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    outer, inner = Owner.outer, Owner.inner
    tracer = Tracer()
    tracer.op = 7
    tracer.patch(Owner, "outer", "m.outer", "m")
    tracer.patch(Owner, "inner", "m.inner", "m", lambda r: {"value": r})
    assert Owner.outer(3) == 7
    tracer.restore()
    assert Owner.outer is outer and Owner.inner is inner
    first, second = tracer.spans
    assert (first.name, first.parent, first.op) == ("m.outer", None, 7)
    assert (second.name, second.parent, second.counts) == ("m.inner", 0, {"value": 6})
    assert first.start <= second.start <= second.end <= first.end


def test_drift_compares_by_key_and_counts_missing_keys():
    def est(key, theta1):
        return workloads.Estimate(key, theta1, -1.0, theta1 + 1.0, 0.5, (0.0, 1.0))

    reference = {"kernel/0": [2.0, -1.0, 0.5], "kernel/1": [4.0, -1.0, 0.5],
                 "dml/0": [1.0, -1.0, 0.5]}
    # kernel/0 failed; dml/7 has no reference value.
    estimates = [est("dml/0", 1.5), est("kernel/1", 4.0), est("dml/7", 9.0)]
    assert run.max_rel_dev(estimates, reference) == (0.5, 6, 2)


def test_segments_from_span_timestamps():
    spans = [Span("kernel_mte.estimate_kernel_mte", "kernel_mte", 0.0, 10.0, None, 0),
             Span("kernel_mte.standardize_covariates", "kernel_mte", 0.0, 0.5, 0, 0),
             Span("density.default_grid", "kernel_mte", 0.5, 1.0, 0, 0),
             Span("modes.mode_of_curve", "kernel_mte", 4.0, 4.5, 0, 0),
             Span("modes.mode_of_curve", "kernel_mte", 5.0, 5.5, 0, 0),
             Span("results.build_result", "kernel_mte", 9.0, 9.5, 0, 0)]
    got = layers.layer_metrics(spans, traced_ops=1)
    assert got["density.pass1_s"] == 3.0
    assert got["kernel_mte.variance_pass_s"] == 3.5
    assert got["kernel_mte.s"] == 10.0
    assert got["modes.calls"] == 2


@pytest.mark.parametrize("name", ["dml-cli-n16k", "mc-n2k"])
def test_traced_op_restores_attributes_and_keeps_results(tmp_path, name):
    before = layers.originals()
    truth = workloads.load_reference()["truth"][workloads.LOGNORMAL]
    wl = workloads.WORKLOADS[name](tmp_path, truth, smoke=True)
    wl.setup()
    plain, _ = wl.op(0)
    tracer = Tracer()
    tracer.op = 0
    layers.install(tracer)
    try:
        traced, _ = wl.op(0)
    finally:
        tracer.restore()
    assert traced == plain
    assert {s.name.split(".")[0] for s in tracer.spans} >= {"kernels", "learners", "dml"}
    for owner, attr, value in before:
        assert getattr(owner, attr) is value, f"{owner.__name__}.{attr} left wrapped"
    assert len(layers.originals()) == len(before)
    known = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers.layer_metrics(tracer.spans, 1)) <= known
