"""The test session's settings: BLAS on one thread, pinned before numpy loads
(a session that finds numpy loaded fails), and one hypothesis profile. At
this suite's matrix sizes a second BLAS thread adds no speed, and the
artifact digests are equal at one and two threads (``test_artifacts.py``
checks both in child processes, which set their own counts)."""

import os
import sys

import pytest
from hypothesis import settings

if "numpy" in sys.modules:
    raise pytest.UsageError("numpy was imported before tests/conftest.py could "
                            "pin BLAS to one thread")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

# every property test runs the same examples on every run and machine
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


def pytest_collection_modifyitems(items):
    for item in items:
        used = getattr(getattr(item, "obj", None), "_hypothesis_internal_use_settings",
                       None)
        if used is not None and not (used.derandomize and used.database is None):
            raise pytest.UsageError(f"{item.nodeid}: a property test must run "
                                    "under the derandomized profile")
