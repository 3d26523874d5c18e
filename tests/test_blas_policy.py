import ctypes
import os

import numpy as np
import pytest

_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_thread_counts():
    """Thread count reported by each OpenBLAS library mapped into this process."""
    np.linalg.qr(np.eye(2))  # make sure LAPACK, and with it OpenBLAS, is loaded
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(getter())
                break
    return counts


def test_blas_thread_policy_reaches_openblas():
    counts = _openblas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS library found in this process")
    wanted = os.environ.get("OPENBLAS_NUM_THREADS")
    assert wanted is not None, "tests/conftest.py sets OPENBLAS_NUM_THREADS when it is unset"
    assert counts == [int(wanted)] * len(counts)
