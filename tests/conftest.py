import os
import subprocess
import sys

import pytest

import tripmine


@pytest.fixture
def stdout_at_blas_threads():
    """Run a Python script in a fresh interpreter with the BLAS thread count
    set (BLAS reads it at start-up) and return its whitespace-split stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tripmine.__file__)))

    def run(script, threads):
        env = dict(os.environ)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.split()

    return run
