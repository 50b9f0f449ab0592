"""Import gstrand from the checkout's ``src``, with BLAS pinned to one thread.

Call ``load()`` before anything imports numpy or gstrand, so that the
thread setting takes effect.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"  # scenario files and outputs, removed after each run

# numpy links a threaded OpenBLAS; eigvalsh and cholesky threads would compete
# with the timed process for the cores, so BLAS is pinned to one thread before
# numpy is first imported.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load():
    """Import gstrand from ``src``; exit with status 1 when this checkout has none."""
    if not (SRC / "gstrand" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gstrand sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import gstrand

    if Path(gstrand.__file__).resolve().parent != (SRC / "gstrand").resolve():
        sys.exit(f"perfbench: imported gstrand from {gstrand.__file__}, not {SRC}")
