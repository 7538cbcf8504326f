"""Rebuild the campaign workloads' fixture models and their manifest.

    python3 perfbench/fixtures/build.py

Trains each model in RECIPES through the public train() API on the cached
train pool (see corpus.py), writes <arch>.json beside this file and records
the recipe and every file's sha256 in fixtures.json. The benchmark refuses to
run when a committed model no longer matches its recorded digest, so a
trainer change cannot silently alter the campaign workloads' inputs. Nothing
here is timed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import corpus  # noqa: E402
import env  # noqa: E402

MANIFEST = HERE / "fixtures.json"

# Phases of (epochs, learning rate), each continuing from the previous model;
# batch 64, SGD with momentum, weight seed 0. lenet1 follows the test suite's
# reference model; lenet5 needs fewer epochs to fit the same pool.
RECIPES = {
    "lenet1": {"phases": [[15, 0.05], [3, 0.015], [8, 0.005]], "batch_size": 64, "rng_seed": 0},
    "lenet5": {"phases": [[6, 0.05], [2, 0.015], [4, 0.005]], "batch_size": 64, "rng_seed": 0},
}

# A fixed corpus whose digest pins the behaviour of tests/synthdigits.py.
CANARY = {"n": 20, "seed": 0}


def main() -> int:
    env.configure()
    from neurofuzz.model_io import load_mnist, save_model
    from neurofuzz.trainer import TrainConfig, train

    pool = corpus.ensure("pool")
    pool_split = load_mnist(*corpus.split_paths(pool))
    models = {}
    for arch, recipe in RECIPES.items():
        model = arch
        for epochs, lr in recipe["phases"]:
            cfg = TrainConfig(
                epochs=epochs,
                batch_size=recipe["batch_size"],
                learning_rate=lr,
                rng_seed=recipe["rng_seed"],
            )
            model = train(model, pool_split, cfg)
        path = HERE / f"{arch}.json"
        save_model(model, path)
        models[arch] = {
            "file": path.name,
            "sha256": corpus.file_sha256(path),
            "recipe": recipe,
        }
        print(f"{arch}: {path.name} {models[arch]['sha256']}", flush=True)
    doc = {
        "pool": {
            "generator": "tests/synthdigits.py write_dataset",
            "seed": corpus.POOL_SEED,
            "n_train": corpus.POOL_SIZE,
            "sha256": corpus.file_sha256(*corpus.split_paths(pool)),
        },
        "canary": dict(CANARY, sha256=corpus.canary_sha256(**CANARY)),
        "models": models,
    }
    MANIFEST.write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
