"""Print every executable line of src/neurofuzz that the tier-1 suite never
runs, one `path:line` per line, sorted.

    python3 scripts/untested_lines.py [extra pytest args]

The suite runs in this process, as the tier-1 command runs it
(`pytest -q --continue-on-collection-errors` with src on the path), under
a sys.settrace hook that records line events in src/neurofuzz files only.
Executable lines are those the compiled code attributes instructions to, so a
line reached only at import (a def, a class attribute) counts as run, and a
body under `if TYPE_CHECKING:` is reported like any other line no test
reaches. pytest's report, a summary and pytest's exit status go to stderr;
the script exits with pytest's status.

The suite runs from a temporary working directory with pytest's cache and
bytecode writing off, so nothing is written into the repository. With
NEUROFUZZ_DATA_DIR and NEUROFUZZ_MODEL_CACHE set (see tests/conftest.py) the
traced suite took 62 s against 33 s untraced on a 2-vCPU host. Only the
standard library and pytest are used.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "neurofuzz"


def executable_lines(path: Path) -> set[int]:
    """Every line the compiled module or any code object nested in it
    attributes an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process under the line tracer; returns its exit status
    and the lines reached in each package file, keyed by absolute path."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}
    verdicts: dict[object, bool] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        ours = verdicts.get(code)
        if ours is None:
            ours = verdicts[code] = code.co_filename.startswith(prefix)
        if not ours:
            return None
        lines = reached.setdefault(code.co_filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    args = [
        str(ROOT), "--rootdir", str(ROOT), "-q", "--continue-on-collection-errors",
        "-p", "no:cacheprovider", *argv,
    ]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="untested_lines_") as scratch:
        os.chdir(scratch)
        try:
            status, reached = traced_run(args)
        finally:
            os.chdir(cwd)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        untested = sorted(lines - reached.get(str(path), set()))
        total += len(lines)
        missed += len(untested)
        rel = path.relative_to(ROOT).as_posix()
        for line in untested:
            print(f"{rel}:{line}")
    print(
        f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT).as_posix()} "
        f"untested; pytest exit status {status}",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
