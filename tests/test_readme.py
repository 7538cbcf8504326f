"""The README's Python API example, run as written.

Only its data paths and epoch counts change: the paths point at a small
synthetic corpus and every TrainConfig trains for one epoch. A renamed
function, a changed signature or a dropped package export fails this test.
"""

import re
from pathlib import Path

import synthdigits

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python API code block"
    return match.group(1)


def test_python_api_example_runs(tmp_path, capsys):
    data = tmp_path / "data"
    synthdigits.write_dataset(data, n_train=600, n_test=100)
    code = python_api_block()
    assert '"data/' in code and "epochs=" in code
    code = code.replace('"data/', f'"{data.as_posix()}/')
    code = re.sub(r"epochs=\d+", "epochs=1", code)

    exec(compile(code, str(README), "exec"), {})

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    records, coverage = lines[0].split()
    assert int(records) > 0 and 0.0 < float(coverage) <= 1.0
