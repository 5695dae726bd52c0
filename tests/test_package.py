"""Process-wide settings made when cowlib is imported."""

import os
import subprocess
import sys

import cowlib

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_one_blas_thread_unless_the_caller_chose():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["OMP_NUM_THREADS"] = "3"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cowlib.__file__))
    code = f"import os, cowlib; print(' '.join(os.environ[v] for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "3", "1"]
