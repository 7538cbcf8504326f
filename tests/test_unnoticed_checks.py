"""The rule scripts/unnoticed_checks.py follows to pick the tests that run
for each blanked `raise`, and the blanking itself."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from unnoticed_checks import blanked, pytest_args, raises  # noqa: E402

SOURCE = """def f(x):
    if x:
        raise ValueError(
            f"bad {x}"
        )
    return x


def g(y="é"):
    z = "é"; raise KeyError(y + z)  # the é bytes sit before the raise
""".encode()


def test_each_check_runs_the_tests_that_reached_it():
    multi, single = raises(SOURCE)
    assert (multi.lineno, multi.end_lineno, single.lineno) == (3, 5, 10)
    # line 2 is outside the multi-line raise; only its second line ran
    reached = {2: {"t.py::c"}, 4: {"t.py::b", "t.py::a"}, 10: {"", "t.py::a"}}
    assert pytest_args(multi, reached) == ["t.py::a", "t.py::b"]
    assert pytest_args(single, reached) == []  # reached outside any test: the suite
    assert pytest_args(single, {4: {"t.py::a"}}) is None

    before = SOURCE.splitlines()
    kept = '    z = "é"; pass  # the é bytes sit before the raise'.encode()
    for node, line in ((multi, b"        pass"), (single, kept)):
        after = blanked(SOURCE, node).splitlines()
        span = range(node.lineno - 1, node.end_lineno)
        assert len(after) == len(before)
        assert after[node.lineno - 1] == line
        assert all(after[i] == before[i] for i in range(len(before)) if i not in span)
        assert all(not after[i].strip() for i in span[1:])
        assert len(raises(blanked(SOURCE, node))) == 1
