"""Synthetic digit inputs for the benchmark, cached as IDX files.

Images come from the test suite's generator, tests/synthdigits.py. Rendering
costs about 3 ms an image, so every split is built once per checkout under
.bench_work/inputs and reused; a split is written to a temporary directory
and renamed into place, so an interrupted build leaves no partial cache.

Run as a script to build one split in a separate process, which keeps the
rendering out of the measuring process's peak RSS:

    python3 perfbench/corpus.py pool
    python3 perfbench/corpus.py test --n 1000 --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
INPUTS = WORK / "inputs"

# The train pool is the test suite's training split: synthdigits.write_dataset
# at its default seed, with its 5.5% label noise. Rendering 20k images takes
# about a minute, too long to repeat per workload seed.
POOL_SEED = 20240901
POOL_SIZE = 20000

IMAGES = "images-idx3-ubyte"
LABELS = "labels-idx1-ubyte"

BUILD_TIMEOUT_S = 600


def synthdigits():
    path = ROOT / "tests" / "synthdigits.py"
    if not path.is_file():
        raise FileNotFoundError(f"input generator {path} is missing")
    sys.path.insert(0, str(path.parent))
    try:
        import synthdigits as mod
    finally:
        sys.path.remove(str(path.parent))
    return mod


def pool_dir() -> Path:
    return INPUTS / "pool"


def test_dir(n: int, seed: int) -> Path:
    return INPUTS / f"test-n{n}-s{seed}"


def split_paths(directory: Path) -> tuple[Path, Path]:
    return directory / IMAGES, directory / LABELS


def file_sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def canary_sha256(n: int, seed: int) -> str:
    """Digest of a small corpus, pinning what the generator renders."""
    images, labels = synthdigits().make_corpus(n, seed)
    return hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest()


def _publish(build, target: Path):
    if target.exists():
        return
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    os.replace(tmp, target)


def build_pool(target: Path):
    sd = synthdigits()

    def build(tmp: Path):
        sd.write_dataset(tmp, n_train=POOL_SIZE, n_test=0, seed=POOL_SEED)
        images, labels = split_paths(tmp)
        os.replace(tmp / "train-images-idx3-ubyte", images)
        os.replace(tmp / "train-labels-idx1-ubyte", labels)
        for stale in tmp.glob("t10k-*"):
            stale.unlink()

    _publish(build, target)


def build_test(target: Path, n: int, seed: int):
    sd = synthdigits()

    def build(tmp: Path):
        images, labels = sd.make_corpus(n, seed)
        img_path, lbl_path = split_paths(tmp)
        sd.write_idx_images(img_path, images)
        sd.write_idx_labels(lbl_path, labels)

    _publish(build, target)


def ensure(kind: str, n: int = 0, seed: int = 0) -> Path:
    """Path of a cached split, building it in a child process when missing."""
    target = pool_dir() if kind == "pool" else test_dir(n, seed)
    if not target.exists():
        cmd = [sys.executable, str(Path(__file__).resolve()), kind]
        if kind == "test":
            cmd += ["--n", str(n), "--seed", str(seed)]
        subprocess.run(cmd, check=True, timeout=BUILD_TIMEOUT_S)
    return target


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="build one cached input split")
    p.add_argument("kind", choices=["pool", "test"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.kind == "pool":
        build_pool(pool_dir())
    else:
        if args.n < 1 or args.seed < 0:
            p.error("test splits need --n >= 1 and --seed >= 0")
        build_test(test_dir(args.n, args.seed), args.n, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
