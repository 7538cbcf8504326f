"""Blank each `raise` in src/neurofuzz, one at a time, and print every one
whose removal no test notices, one `path:line` per line, sorted.

    python3 scripts/unnoticed_checks.py [src/neurofuzz/MODULE.py ...]

With no arguments every package module is checked. The checkout is copied
into a temporary directory once, and only that copy is edited, so stopping
the script at any point leaves src/ as it was. A blanked `raise` becomes
`pass` with every line kept in place. For each one, the module's own test
file (tests/test_MODULE.py, when there is one) runs with `-x`; if it
passes, the whole tier-1 suite runs, also with `-x`. A check is noticed when
a run fails or outlives its timeout: some blanked checks turn a read loop
into one that never ends. The timeout is twice the suite's time on the
unedited copy, plus a minute.

The unedited copy's suite runs first; when it fails, nothing can be
measured and the script exits 2. Progress goes to stderr. The script exits 1
when some check went unnoticed and 0 otherwise. Set NEUROFUZZ_DATA_DIR and
NEUROFUZZ_MODEL_CACHE (see tests/conftest.py): without a data directory
every suite run renders its digits again. An unset model cache is placed in
the temporary directory, where the first run fills it. With both set, the
111 checks of the commit that added this script took 15 minutes on a 2-vCPU
host. Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neurofuzz"
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
    "-p", "no:cacheprovider",
]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def raises(source: bytes) -> list[ast.Raise]:
    """Every raise statement of a module, in line order."""
    found = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Raise)]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def blanked(source: bytes, node: ast.Raise) -> bytes:
    """source with the statement at node replaced by `pass`; every other
    line keeps its number. The ast's column offsets count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][: node.col_offset]
    tail = lines[last][node.end_col_offset :]
    lines[first : last + 1] = [head + b"pass" + tail] + [b"\n"] * (last - first)
    return b"".join(lines)


def pytest_status(args: list[str], cwd: Path, env: dict,
                  timeout: float | None) -> tuple[int | None, float]:
    """pytest's exit status with args, None when it outlived timeout
    seconds, and how long it ran. A run that times out is killed with every
    process it started."""
    start = time.monotonic()
    proc = subprocess.Popen(
        PYTEST + args, cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return code, time.monotonic() - start


def main(argv: list[str]) -> int:
    modules = [Path(a).resolve() for a in argv] or sorted(PACKAGE.glob("*.py"))
    rels = [m.relative_to(ROOT).as_posix() for m in modules]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    if not env.get("NEUROFUZZ_DATA_DIR"):
        print("NEUROFUZZ_DATA_DIR is unset: every suite run renders its digits again",
              file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="unnoticed_checks_") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        env["PYTHONPATH"] = str(copy / "src")
        env.setdefault("NEUROFUZZ_MODEL_CACHE", str(Path(scratch) / "model.json"))

        status, seconds = pytest_status([], copy, env, None)
        if status != 0:
            print("the suite fails on the unedited copy; nothing to measure", file=sys.stderr)
            return 2
        timeout = 2 * seconds + 60
        print(f"unedited suite: {seconds:.0f} s; timeout per run {timeout:.0f} s",
              file=sys.stderr)

        checks = [(rel, node) for rel in rels for node in raises((copy / rel).read_bytes())]
        unnoticed = []
        for i, (rel, node) in enumerate(checks, 1):
            source = (copy / rel).read_bytes()
            own = f"tests/test_{Path(rel).stem}.py"
            runs = [[own], []] if (copy / own).exists() else [[]]
            (copy / rel).write_bytes(blanked(source, node))
            try:
                seconds = 0.0
                for args in runs:
                    status, took = pytest_status(args, copy, env, timeout)
                    seconds += took
                    if status != 0:
                        break
            finally:
                (copy / rel).write_bytes(source)
            if status == 0:
                verdict = "UNNOTICED"
                unnoticed.append((rel, node.lineno))
            else:
                by = args[0] if args else "the suite"
                verdict = "timed out" if status is None else f"noticed by {by}"
            print(f"[{i}/{len(checks)}] {rel}:{node.lineno} {verdict} ({seconds:.0f} s)",
                  file=sys.stderr)

    for rel, line in sorted(unnoticed):
        print(f"{rel}:{line}")
    print(f"{len(unnoticed)} of {len(checks)} checks unnoticed", file=sys.stderr)
    return int(bool(unnoticed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
