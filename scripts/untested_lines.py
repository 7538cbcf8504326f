"""Print every executable line of src/neurofuzz that the tier-1 suite never
runs, one `path:line` per line, sorted.

    python3 scripts/untested_lines.py [extra pytest args]

The suite runs in this process, as the tier-1 command runs it
(`pytest -q --continue-on-collection-errors` with src on the path), under
a sys.settrace hook that records line events in src/neurofuzz files only,
each under the node id of the test that was running (a pytest hook around
each test supplies it). scripts/unnoticed_checks.py reads that per-test map;
this script needs only which lines ran.
Executable lines are those the compiled code attributes instructions to, so a
line reached only at import (a def, a class attribute) counts as run. The
bodies of `if TYPE_CHECKING:` and `if __name__ == "__main__":` are not
counted: no test run can reach them. pytest's report, a summary and pytest's
exit status go to stderr. The script exits with pytest's status when pytest
fails, 1 when pytest passed but some line is untested, and 0 otherwise.

The suite runs from a temporary working directory with pytest's cache and
bytecode writing off, so nothing is written into the repository. With
NEUROFUZZ_DATA_DIR and NEUROFUZZ_MODEL_CACHE set (see tests/conftest.py) the
traced suite took 54 s (median of three runs) against 31 s untraced on a
2-vCPU host. Only the standard library and pytest are used.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neurofuzz"


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


# the tests of `if` blocks whose bodies no test run can reach
NEVER_RUN = {"TYPE_CHECKING", "__name__ == '__main__'"}


def uncounted_lines(path: Path) -> set[int]:
    """The lines of every `if TYPE_CHECKING:` and `if __name__ ==
    "__main__":` body in a module."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.If) and ast.unparse(node.test) in NEVER_RUN:
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def traced_run(root: Path, argv: list[str]) -> tuple[int, dict[str, dict[int, set[str]]]]:
    """Run the suite of the checkout at root in this process under the line
    tracer, as the tier-1 command runs it with argv appended, from a
    temporary working directory. Returns pytest's exit status and, for each
    line of root's package that ran, keyed by absolute path and then line,
    the node ids of the tests that ran it; "" stands for outside any test,
    such as collection."""
    prefix = str(root / "src" / "neurofuzz") + os.sep
    by_test: dict[str, dict[str, set[int]]] = {"": {}}
    current = by_test[""]
    verdicts: dict[object, bool] = {}

    def tracer(frame, event, arg):
        code = frame.f_code
        ours = verdicts.get(code)
        if ours is None:
            ours = verdicts[code] = code.co_filename.startswith(prefix)
        if not ours:
            return None
        lines = current.setdefault(code.co_filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    class Attribution:
        """Points the tracer at one test's lines from its set-up to its
        teardown."""

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item):
            nonlocal current
            current = by_test.setdefault(item.nodeid, {})
            yield
            current = by_test[""]

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    args = [str(root), "--rootdir", str(root), "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", *argv]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="traced_run_") as scratch:
        os.chdir(scratch)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                status = pytest.main(args, plugins=[Attribution()])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)

    reached: dict[str, dict[int, set[str]]] = {}
    for test, files in by_test.items():
        for path, lines in files.items():
            for line in lines:
                reached.setdefault(path, {}).setdefault(line, set()).add(test)
    return int(status), reached


def main(argv: list[str]) -> int:
    status, reached = traced_run(ROOT, argv)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path) - uncounted_lines(path)
        untested = sorted(lines.difference(reached.get(str(path), ())))
        total += len(lines)
        missed += len(untested)
        rel = path.relative_to(ROOT).as_posix()
        for line in untested:
            print(f"{rel}:{line}")
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT).as_posix()} "
          f"untested; pytest exit status {status}", file=sys.stderr)
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
