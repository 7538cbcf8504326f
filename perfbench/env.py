"""Process set-up shared by the benchmark's entry points.

The BLAS thread count must be fixed before NumPy is first imported, and the
package under test must come from this checkout's src/ tree, never from an
installed copy; configure() does both and must run before any other import
of numpy or neurofuzz.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One compute thread: batch-1 fuzzing gains nothing from more, and a fixed
# count keeps float results and timings comparable between commits.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def configure():
    """Pin BLAS threads, then import neurofuzz from ROOT/src; returns the package."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return import_package()


def import_package():
    """neurofuzz from ROOT/src, refusing any other copy."""
    package = SRC / "neurofuzz" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(f"package under test {package} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import neurofuzz

    if Path(neurofuzz.__file__).resolve() != package.resolve():
        raise ImportError(f"neurofuzz resolved to {neurofuzz.__file__}, not {package}")
    return neurofuzz


def source_sha256() -> str:
    """Digest of the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "neurofuzz").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, fixture_digests: dict) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "fixtures": fixture_digests,
    }
