"""Set-up shared by the benchmark scripts.

Import this module, and call :func:`pin_threads`, before numpy is imported
anywhere: OpenBLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs.json"
OUT = BENCH / "out"

# Solver iteration counts, and so timings, depend on the BLAS thread count
# (for example 18 iterations with 2 threads against 20 with 1 on a full-rank
# d=4 map), so results are comparable only at one thread count.  One thread:
# on a 2-core machine shared with other work, OpenBLAS's second thread
# spin-waits for a core that others contend for.  Measured on a small-batch
# pass, it used 15% more CPU than wall time and made the pass time swing by
# 20% from pass to pass, against 4% with one thread at the same mean.  It
# saves a fifth of dense-solve's time, so dense-solve runs 1.25x slower here.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    threads = min(BLAS_THREADS, usable_cores())
    if "numpy" in sys.modules and any(os.environ.get(v) != str(threads)
                                      for v in THREAD_VARS):
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def child_env() -> dict:
    """Environment for ``python -m cbnorm.cli`` children: this checkout's
    sources and the pinned thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import ``cbnorm`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cbnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'cbnorm'}")
    sys.path.insert(0, str(SRC))
    import cbnorm

    if Path(cbnorm.__file__).resolve().parent != (SRC / "cbnorm").resolve():
        raise SystemExit(f"error: imported cbnorm from {cbnorm.__file__}")
    return cbnorm


def environment(threads: int) -> dict:
    """Everything a result depends on besides the code and the seed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }
