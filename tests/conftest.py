"""Shared fixtures: a synthetic digit dataset on disk and the reference model.

The dataset is expensive to render, so it is session-scoped; set
NEUROFUZZ_DATA_DIR to reuse a dataset generated by an earlier run. The model
every campaign test fuzzes is the committed lenet1 fixture of the benchmark,
perfbench/fixtures/lenet1.json, refused unless its sha256 matches the record
in perfbench/fixtures/fixtures.json. perfbench/fixtures/build.py trains it
by the recipe recorded there on the benchmark's train pool, which holds the
same images as this suite's training split; the README's train commands
follow that recipe (tests/test_readme.py checks that they do).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import synthdigits
import workloads
from neurofuzz.model_io import DatasetSplit, load_mnist, load_model
from neurofuzz.trainer import evaluate

N_TRAIN = 20000
N_TEST = 2000


def load_split(data_dir: Path, stem: str) -> DatasetSplit:
    return load_mnist(
        data_dir / f"{stem}-images-idx3-ubyte",
        data_dir / f"{stem}-labels-idx1-ubyte",
    )


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> Path:
    override = os.environ.get("NEUROFUZZ_DATA_DIR")
    if override:
        return Path(override)
    target = tmp_path_factory.mktemp("digits")
    synthdigits.write_dataset(target, n_train=N_TRAIN, n_test=N_TEST)
    return target


@pytest.fixture(scope="session")
def train_split(data_dir) -> DatasetSplit:
    return load_split(data_dir, "train")


@pytest.fixture(scope="session")
def test_split(data_dir) -> DatasetSplit:
    return load_split(data_dir, "t10k")


@pytest.fixture(scope="session")
def model_path() -> Path:
    return workloads.fixture_path("lenet1")


@pytest.fixture(scope="session")
def trained_model(model_path):
    return load_model(model_path)


@pytest.fixture(scope="session")
def model_accuracy(trained_model, test_split) -> float:
    return evaluate(trained_model, test_split)


# One human-readable verdict line per end-to-end behavior test, printed after
# the run so they are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
