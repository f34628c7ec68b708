"""Regenerate ``reference.json``: true effects and the reference outputs.

    python3 bench/make_reference.py

Stores, for every workload and pool input, (theta1, theta0, se_delta) of
each estimate the op makes, keyed by ``"<method>/<replication>"``, as
computed by the code in ``src/``.  The whole file is rebuilt in one run.  Traced
runs report their largest relative deviation from these values
(``results.max_rel_dev``).  The true effects come from
``modete.simulation.true_mode``; the skew-mixture oracle takes about half a
minute, which is why it is stored instead of computed during set-up.
Run this only on a version whose outputs are meant to become the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import environment


def main():
    environment.pin_threads()
    if not environment.use_source_tree():
        print(f"no modete package under {environment.SRC}", file=sys.stderr)
        return 2
    import modete
    import workloads

    dgps = modete.builtin_dgps()
    truth = {
        name: modete.true_mode(dgps[name], 1) - modete.true_mode(dgps[name], 0)
        for name in (workloads.LOGNORMAL, workloads.SKEW)
    }
    reference = {"truth": truth, "ops": {}}
    ops = reference["ops"]
    with tempfile.TemporaryDirectory(dir=environment.ROOT / "bench") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(Path(tmp), truth[cls.dgp])
            wl.setup()
            ops[name] = {}
            for pool_index in range(workloads.POOL):
                estimates, ok = wl.op(pool_index)
                ops[name][str(pool_index)] = {e.key: e.reference() for e in estimates}
                print(f"{name} input {pool_index}: {ok} of {wl.reps} pass the check",
                      file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
