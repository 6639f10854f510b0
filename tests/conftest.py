"""Pins BLAS and OpenMP to one thread before any test imports numpy.

An OpenBLAS call that starts threads can stall for milliseconds on a
machine with few cores, so an unpinned suite times the thread pool, not
the library.  `bench/run.py` pins these too.  A variable already set in
the environment is kept.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before conftest.py"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
