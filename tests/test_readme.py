"""The README's examples, run as written: the Python API block, and every
`neurofuzz` command of its shell blocks through the CLI's main().

Only data paths and epoch counts change: the data points at a small
synthetic corpus and every model trains for one epoch. A renamed function,
flag or subcommand, a changed signature or a dropped package export fails
these tests. The README's train commands must also follow the recipe of the
reference model the suite fuzzes, as perfbench/fixtures/fixtures.json
records it.
"""

import re
import shlex
from pathlib import Path

import pytest

import synthdigits
import workloads
from neurofuzz.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    # seeded, so the one-epoch model fuzzed by the README's campaign finds
    # the adversarial records its retrain line needs on every run
    data = tmp_path_factory.mktemp("readme_data")
    synthdigits.write_dataset(data, n_train=600, n_test=100)
    return data


def python_api_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python API code block"
    return match.group(1)


def cli_commands() -> list[list[str]]:
    """The argument list of every `neurofuzz` line in the README's sh
    blocks, in order, with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("neurofuzz "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_python_api_example_runs(corpus, capsys):
    code = python_api_block()
    assert '"data/' in code and "epochs=" in code
    code = code.replace('"data/', f'"{corpus.as_posix()}/')
    code = re.sub(r"epochs=\d+", "epochs=1", code)

    exec(compile(code, str(README), "exec"), {})

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    records, coverage = lines[0].split()
    assert int(records) > 0 and 0.0 < float(coverage) <= 1.0


def test_cli_examples_run(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NEUROFUZZ_DATA_DIR", str(corpus))
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert {argv[0] for argv in commands} == {"train", "fuzz", "retrain", "compare-strategies"}
    for argv in commands:
        argv = ["1" if prev == "--epochs" else w for prev, w in zip([""] + argv, argv)]
        assert main(argv) == 0, argv
    # retrain exits 1 on a campaign without records, so reaching here means
    # the campaign found some and the repair ran
    assert re.search(r"^retrained on [1-9]\d* adversarial inputs", capsys.readouterr().out, re.M)


def test_train_commands_follow_the_fixture_recipe():
    recipe = workloads.manifest()["models"]["lenet1"]["recipe"]
    commands = [argv for argv in cli_commands() if argv[0] == "train"]
    runs = [build_parser().parse_args(argv) for argv in commands]
    assert [[a.epochs, a.lr] for a in runs] == recipe["phases"]
    assert runs[0].arch == "lenet1" and runs[0].init_model is None
    # each phase continues from the model the one before it saved
    assert all(a.init_model == prev.out for prev, a in zip(runs, runs[1:]))
    assert not {"--batch", "--seed"} & {w for argv in commands for w in argv}
    assert all((a.batch, a.seed) == (recipe["batch_size"], recipe["rng_seed"]) for a in runs)
