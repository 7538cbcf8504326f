"""Blank each `raise` in src/neurofuzz, one at a time, and print every one
whose removal no test notices, one `path:line` per line, sorted.

    python3 scripts/unnoticed_checks.py [src/neurofuzz/MODULE.py ...]

With no arguments every package module is checked. The checkout is copied
into a temporary directory once, and only that copy is edited, so stopping
the script at any point leaves src/ as it was.

The copy's suite first runs once in this process, under the line tracer of
untested_lines.py, which records the node ids of the tests that reached each
package line; when it fails, nothing can be measured and the script exits 2.
Then each `raise` in turn becomes `pass`, with every line kept in place, and
pytest runs with `-x` on exactly the tests that reached a line of the
statement (see pytest_args). A test that never runs those lines runs the same
code either way, so no other test could notice. A `raise` no test reached is
unnoticed without a run; one with a line reached outside any test, such as
at import during collection, runs the whole suite. A check is noticed when
its run fails or outlives its time limit: some blanked checks turn a read
loop into one that never ends. The limit (see time_limit) follows the traced
times of the tests the run selects. The tracer slows every test, so an
untraced run of the same tests ends well inside it; a limit too short would
count as noticed a check that no test notices.

Progress goes to stderr. The script exits 1 when some check went unnoticed
and 0 otherwise. Set NEUROFUZZ_DATA_DIR (see tests/conftest.py): without it
every run renders the test digits again. With it set, the 116 checks took
4 to 7 minutes on a 2-vCPU host, 17 s of that for the check whose read
loop never ends. Only the standard library and pytest are used.
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

from untested_lines import TracedRun, traced_run

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neurofuzz"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
          "-p", "no:cacheprovider"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
MARGIN_S = 15


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
                  timeout: float) -> tuple[int | None, float]:
    """pytest's exit status with args, None when it outlived timeout
    seconds, and how long it ran. A run that times out is killed with every
    process it started."""
    start = time.monotonic()
    proc = subprocess.Popen(PYTEST + args, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return code, time.monotonic() - start


def pytest_args(node: ast.Raise, reached: dict[int, set[str]]) -> list[str] | None:
    """The pytest arguments that run every test that reached a line of node,
    given the node ids that reached each line of its module: None when no
    test did, and none at all, the whole suite, when a line was reached
    outside any test."""
    tests = set().union(*(reached.get(n, ()) for n in range(node.lineno, node.end_lineno + 1)))
    return [] if "" in tests else (sorted(tests) or None)


def time_limit(args: list[str], run: TracedRun) -> float:
    """Seconds a pytest run with args gets: the traced wall time of the
    tests it runs (every test when args is empty), plus the traced run's
    longest set-up, which a run of a few tests may have to repeat for a
    session fixture, plus MARGIN_S for start-up and collection."""
    tests = args or run.wall_s
    return sum(run.wall_s[t] for t in tests) + run.longest_setup_s + MARGIN_S


def main(argv: list[str]) -> int:
    modules = [Path(a).resolve() for a in argv] or sorted(PACKAGE.glob("*.py"))
    rels = [m.relative_to(ROOT).as_posix() for m in modules]
    if not os.environ.get("NEUROFUZZ_DATA_DIR"):
        print("NEUROFUZZ_DATA_DIR is unset: every suite run renders its digits again",
              file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="unnoticed_checks_") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        start = time.monotonic()
        run = traced_run(copy, [])
        if run.status != 0:
            print("the suite fails on the unedited copy; nothing to measure", file=sys.stderr)
            return 2
        print(f"traced suite {time.monotonic() - start:.0f} s; longest set-up "
              f"{run.longest_setup_s:.0f} s", file=sys.stderr)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))

        checks = [(rel, node) for rel in rels for node in raises((copy / rel).read_bytes())]
        unnoticed = []
        for i, (rel, node) in enumerate(checks, 1):
            args = pytest_args(node, run.reached.get(str(copy / rel), {}))
            status, seconds, limit = 0, 0.0, 0.0
            if args is not None:
                source = (copy / rel).read_bytes()
                (copy / rel).write_bytes(blanked(source, node))
                limit = time_limit(args, run)
                try:
                    status, seconds = pytest_status(args, copy, env, limit)
                finally:
                    (copy / rel).write_bytes(source)
            if status == 0:
                unnoticed.append((rel, node.lineno))
            verdict = {0: "UNNOTICED", None: "timed out"}.get(status, f"noticed (exit {status})")
            by = "no test" if args is None else f"{len(args)} test(s)" if args else "the suite"
            print(f"[{i}/{len(checks)}] {rel}:{node.lineno} {verdict} running {by} "
                  f"({seconds:.0f} s of {limit:.0f} s)", file=sys.stderr)

    for rel, line in sorted(unnoticed):
        print(f"{rel}:{line}")
    print(f"{len(unnoticed)} of {len(checks)} checks unnoticed", file=sys.stderr)
    return int(bool(unnoticed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
