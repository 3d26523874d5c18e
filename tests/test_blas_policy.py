import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvsym

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


def _cli_process_blas(env_overrides):
    """(BLAS variables, OpenBLAS thread counts) of a fresh process that imports cvsym.cli first."""
    tests = str(Path(__file__).resolve().parent)
    script = ("import json, os, sys\n"
              "import cvsym.cli\n"
              f"sys.path.insert(0, {tests!r})\n"
              "from test_blas_policy import _openblas_thread_counts\n"
              "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')\n"
              "print(json.dumps([[os.environ.get(k) for k in names], _openblas_thread_counts()]))\n")
    src = str(Path(cvsym.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_overrides, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("env_overrides, wanted", [({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1"])],
                         ids=["unset", "openblas-2"])
def test_cli_import_pins_one_blas_thread_unless_set(env_overrides, wanted):
    variables, counts = _cli_process_blas(env_overrides)
    assert variables == wanted
    if not counts:
        pytest.skip("no OpenBLAS library found in the child process")
    if int(wanted[0]) > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS caps its thread count at the core count")
    assert counts == [int(wanted[0])] * len(counts)
