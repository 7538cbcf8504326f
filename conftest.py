"""Suite-wide set-up, loaded before pytest collects any test module.

BLAS runs on one thread for the whole session, as perfbench/env.py pins it
for the benchmark: on small matrices a second thread adds CPU time, not
speed. The thread variables take effect only when they are set before NumPy
is first imported, so the pin lives here and not in tests/conftest.py:
pytest collects perfbench/tests first, and those modules import NumPy.
"""

import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))

import env  # noqa: E402

if "numpy" in sys.modules:
    warnings.warn("NumPy was imported before the BLAS thread pin, so the pin has no effect")
for var in env._THREAD_VARS:
    os.environ[var] = str(env.BLAS_THREADS)
