"""Shared fixtures: a synthetic digit dataset on disk and a trained model.

Both are expensive, so they are session-scoped. Set NEUROFUZZ_DATA_DIR to
reuse a dataset generated by an earlier run, and NEUROFUZZ_MODEL_CACHE to a
JSON path to skip retraining while iterating on tests; neither is required.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import synthdigits
from neurofuzz.model_io import DatasetSplit, load_mnist, load_model, save_model
from neurofuzz.trainer import TrainConfig, evaluate, train

# The model every campaign test fuzzes: three training phases at diminishing
# rates to settle into a flat minimum. Kept in one place so the suite and the
# README recipe cannot drift apart.
TRAIN_PHASES = ((15, 0.05), (3, 0.015), (8, 0.005))
TRAIN_BATCH = 64
TRAIN_SEED = 0
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


def train_reference_model(train_split: DatasetSplit):
    model = "lenet1"
    for epochs, lr in TRAIN_PHASES:
        model = train(
            model,
            train_split,
            TrainConfig(
                epochs=epochs,
                batch_size=TRAIN_BATCH,
                learning_rate=lr,
                rng_seed=TRAIN_SEED,
            ),
        )
    return model


@pytest.fixture(scope="session")
def trained_model(train_split, test_split):
    cache = os.environ.get("NEUROFUZZ_MODEL_CACHE")
    if cache and Path(cache).exists():
        return load_model(cache)
    model = train_reference_model(train_split)
    if cache:
        save_model(model, cache)
    return model


@pytest.fixture(scope="session")
def model_path(trained_model, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("model") / "lenet1.json"
    save_model(trained_model, path)
    return path


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
