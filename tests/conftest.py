"""Shared fixtures."""

import os
import subprocess
import sys
import textwrap

import pytest

import restate

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@pytest.fixture
def run_pinned():
    """Run a Python snippet in a fresh interpreter whose BLAS has one
    thread, set in the environment before numpy loads, with the restate
    package under test importable; returns the snippet's stdout."""
    # the directory holding the restate package under test
    root = os.path.dirname(os.path.dirname(os.path.abspath(
        restate.__file__)))
    path = [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               **{var: "1" for var in BLAS_THREAD_VARS})

    def run(script):
        proc = subprocess.run([sys.executable, "-c",
                               textwrap.dedent(script)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
