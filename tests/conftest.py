"""Shared fixtures."""

import os

# One BLAS thread for the test process, set before any test module loads
# numpy: every matrix the tests build is small, and there a threaded BLAS
# gains nothing and, with the cores busy, makes an eigensolve many times
# slower.  A value set in the environment is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def connected_catalogue():
    from boxchrom.smallgraphs import connected_graphs

    return {n: connected_graphs(n) for n in range(1, 7)}
