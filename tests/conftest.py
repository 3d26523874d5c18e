"""Test-session BLAS policy: one OpenBLAS/OpenMP thread unless the environment sets one.

Batched small LAPACK calls, such as the Haar QR stacks of criteria 01 and
02, run several times slower with one BLAS thread per core on few cores,
and the package gets its parallelism from ``--workers`` instead.  OpenBLAS
reads these variables once, when numpy loads it, so they are set here,
before any test module imports numpy.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
