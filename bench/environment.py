"""Process set-up shared by the benchmark scripts: thread pinning, locating
the package source, and the record of the machine a run was taken on.

Nothing here imports numpy, so :func:`pin_threads` can run before it is
loaded.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Set every BLAS/OpenMP thread count to one; returns the usable core count.

    Must run before numpy is imported.  One thread keeps the run single-core
    like the one process it is: on a 2-core machine two OpenBLAS threads made
    the ridge-heavy cross-fitted route about 1.6x slower and no steadier.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def use_source_tree():
    """Put ``src/`` first on the import path; False when it holds no modete."""
    if not (SRC / "modete" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def imported_from_source(module):
    return Path(module.__file__).resolve().is_relative_to(SRC)


def record(nproc, loadavg):
    """Versions, thread settings and load: what a number depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "loadavg_at_start": list(loadavg),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }
