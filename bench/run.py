"""Closed-loop benchmark of the modete estimators.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in ``workloads.py``.  A run imports the package from
``src/``, sets up its inputs (several times; the median counts), runs one
untimed warm-up op, then runs ops back to back with one caller until the
next op would end after ``--seconds``.  Every op's output is checked; an op
that raises or fails the check counts as failed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
named in ``BENCHMARK.json``.  With ``--trace 1`` every second op runs with
the public functions of each layer wrapped by the span tracer, and the line
reports the per-layer metrics (per traced op) plus the tracing overhead.
Details of each run, and the spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import environment

SETUP_REPS = 7

# Times the package import in a fresh interpreter, as a CLI user pays it.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import modete, modete.cli; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, so every workload runs end to end in seconds")
    return p.parse_args(argv)


def metric_units():
    with open(environment.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_seconds():
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(environment.SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def max_rel_dev(estimates, reference):
    """Largest relative deviation of (theta1, theta0, se_delta) from the
    reference values stored under the same key; also the number of values
    compared, and the number of keys that only one side has."""
    got = {est.key: est.reference() for est in estimates}
    dev = 0.0
    compared = 0
    for key in got.keys() & reference.keys():
        for value, want in zip(got[key], reference[key]):
            dev = max(dev, abs(value - want) / abs(want))
            compared += 1
    return dev, compared, len(got.keys() ^ reference.keys())


def main(argv=None):
    args = parse_args(argv)
    nproc = environment.pin_threads()
    loadavg = os.getloadavg()
    if not environment.use_source_tree():
        print(f"bench: no modete package under {environment.SRC}", file=sys.stderr)
        return 2
    import modete
    import layers
    import workloads
    from spans import Tracer
    if not environment.imported_from_source(modete):
        print(f"bench: modete was imported from {modete.__file__}, not {environment.SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = metric_units()
    env = environment.record(nproc, loadavg)
    print(json.dumps({"environment": env}), file=sys.stderr)

    out_dir = environment.ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    reference = workloads.load_reference()
    truth = reference["truth"][workloads.WORKLOADS[args.workload].dgp]
    ref_ops = {} if args.smoke else reference.get("ops", {}).get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload](out_dir, truth, smoke=args.smoke)
    tracer = Tracer()

    # Set-up is import plus input preparation, repeated; the median counts.
    # One untimed import first, so a cold file cache does not count.
    import_seconds()
    import_times, setup_times = [], []
    for k in range(SETUP_REPS):
        import_times.append(import_seconds())
        if args.trace and k == SETUP_REPS - 1:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_times.append(time.perf_counter() - t0)
            tracer.restore()
    setup_s = statistics.median(a + b for a, b in zip(import_times, setup_times))
    wl.warm()

    durations = {False: [], True: []}
    cpu_traced = 0.0
    attempted = failed = 0
    dev, compared, missing = 0.0, 0, 0
    ops = []
    t_start = time.perf_counter()
    i = 0
    while True:
        p = (args.seed + i) % workloads.POOL
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracer.op = i
            layers.install(tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            estimates, ok = wl.op(p)
        except Exception:  # a failing op is counted, and the loop goes on
            traceback.print_exc()
            estimates, ok = [], 0
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            tracer.restore()
            tracer.op = None
        attempted += wl.reps
        failed += wl.reps - ok
        durations[traced].append(t1 - t0)
        if traced:
            cpu_traced += c1 - c0
        if str(p) in ref_ops:
            d, c, m = max_rel_dev(estimates, ref_ops[str(p)])
            dev, compared, missing = max(dev, d), compared + c, missing + m
        ops.append({"op": i, "input": p, "seconds": t1 - t0, "traced": traced,
                    "ok": ok, "estimates": {e.key: e.reference() for e in estimates}})
        i += 1
        if t1 - t_start + (t1 - t0) > args.seconds and (not args.trace or i >= 2):
            break
    timed = time.perf_counter() - t_start

    if args.trace:
        n_traced = len(durations[True])
        untraced = statistics.median(durations[False])
        traced_p50 = statistics.median(durations[True])
        values = dict.fromkeys(per_layer_units, 0.0)
        values.update(layers.layer_metrics(tracer.spans, n_traced))
        values.update({
            "results.max_rel_dev": dev,
            "results.ref_values": compared,
            "results.ref_missing": missing,
            "proc.cpu_s": cpu_traced / n_traced,
            "proc.cpu_util": cpu_traced / sum(durations[True]),
            "trace.op_s_p50": traced_p50,
            "trace.untraced_op_s_p50": untraced,
            "trace.overhead": traced_p50 / untraced - 1.0,
        })
        units = per_layer_units
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        values = {
            "op_s_p50": statistics.median(durations[False]),
            "reps_per_s": (attempted - failed) / timed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "ok_share": 1.0 - failed / attempted,
        }
        units = end_to_end_units
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    detail = {"environment": env, "args": vars(args), "import_times": import_times,
              "setup_times": setup_times, "timed_s": timed, "ops": ops, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
