"""Time each layer of lenet1 forward and backward, at batch 1 and batch 64,
and the fuzzer's per-mutant bookkeeping on lenet5 at batch 1.

    python3 scripts/bench_layers.py [--out BENCH_layers.json]

Batch 1 is the fuzzer's: the backward pass computes only the gradient with
respect to the layer's input, as nn.input_gradient does. Batch 64 is the
trainer's: the backward pass also computes the parameter gradients, and the
first layer skips its input gradient, as trainer.train does. The weights are
an untrained lenet1's; the shapes are those of every lenet1 model.

The fuzzer rows use the committed lenet5 benchmark fixture, which the script
only reads, and one uniform-noise input: coverage.update of a trace,
coverage.select_neurons with all four strategies and m=10, and one guided
mutant step (clip, predict, coverage update and relative distance), as the
campaign-lenet5-s1234 workload runs them.

BLAS runs on one thread, pinned before NumPy is imported, as the benchmark
pins it. Every row's call runs once, untimed, before any row is timed, so
that the first rows do not pay for the caches and allocations the later ones
share. Each time is the mean time per call within a round. Every row is timed
in two passes of ROUNDS rounds, with all the other rows run between them; a
row reports the median round over both passes, the fastest round, which is
the one least disturbed by other work on a shared host, and each pass's
median. A host that slows down for seconds shows as two pass medians more
than UNSTABLE_RATIO apart: such a row is listed under "unstable" and named
on stderr. A row whose slower pass median is under UNSTABLE_FLOOR_US is not
listed, because loop and timer overhead alone can move a median that much
there. The file also records the machine: CPU count, Python, NumPy and the
BLAS library with its thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.configure()  # pins BLAS threads, so it must run before NumPy's import

import numpy as np  # noqa: E402

from neurofuzz import architectures, nn  # noqa: E402
from neurofuzz import coverage as cov  # noqa: E402
from neurofuzz import fuzzer as fz  # noqa: E402
from neurofuzz.model_io import load_model  # noqa: E402
from neurofuzz.tensor import Tensor  # noqa: E402

BATCHES = (1, 64)
FUZZ_MODEL = ROOT / "perfbench" / "fixtures" / "lenet5.json"
PASSES = 2
ROUNDS = 15
ROUND_S = 0.01  # each round repeats the call until it has run this long
UNSTABLE_RATIO = 2.0
UNSTABLE_FLOOR_US = 10.0
WARMUP = 3


def rounds_us(fn) -> list[float]:
    """Time per call in each of ROUNDS rounds."""
    for _ in range(WARMUP):
        fn()
    loops, start = 0, time.perf_counter()
    while time.perf_counter() - start < ROUND_S:
        fn()
        loops += 1
    rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        rounds.append((time.perf_counter() - start) / loops * 1e6)
    return rounds


def forward(layer: nn.Layer, x: np.ndarray):
    """The layer's output and, for conv2d, its im2col matrix."""
    if layer.kind == "conv2d":
        return nn._conv2d_forward(layer, x)
    return nn._layer_forward(layer, x), None


def layer_rows(model: nn.Model, batch: int) -> list[tuple[dict, dict]]:
    """One (row, {column: call}) per layer: the forward and backward calls."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(batch, *model.input_shape)).astype(np.float32)
    rows = []
    for i, layer in enumerate(model.layers):
        out, cols = forward(layer, x)
        g = rng.standard_normal(out.shape).astype(np.float32)
        train = batch > 1
        need_input = not train or i > 0

        def backward(layer=layer, x=x, out=out, g=g, cols=cols, need_input=need_input):
            nn._layer_backward(layer, x, out, g, need_params=train,
                               need_input=need_input, cols=cols)

        row = {
            "layer": i,
            "kind": layer.kind,
            "batch": batch,
            "input_shape": list(x.shape[1:]),
            "backward_computes": (["input"] if need_input else [])
            + (["params"] if train and layer.weights is not None else []),
        }
        rows.append((row, {"forward_us": lambda layer=layer, x=x: forward(layer, x),
                           "backward_us": backward}))
        x = out
    return rows


def fuzzer_rows() -> list[tuple[dict, dict]]:
    model = load_model(FUZZ_MODEL)
    cfg = fz.FuzzConfig(strategies=(1, 2, 3, 4), step_size=0.1)
    rng = np.random.default_rng(0)
    x = Tensor.wrap(rng.uniform(0, 1, size=model.input_shape).astype(np.float32))
    tracker = cov.CoverageTracker(model, cfg.activation_threshold)
    trace = nn.predict(model, x)
    cov.update(tracker, model, trace)
    neurons = cov.select_neurons(tracker, cfg.strategies, cfg.m, trace)
    spec = nn.ObjectiveSpec(trace.predicted_label, tuple(nn.top_k_other_labels(trace, cfg.k)),
                            tuple(neurons), cfg.lam)
    step = fz.process_gradient(nn.input_gradient(model, x, spec, trace).array, cfg.step_size)
    x64, x_norm = x.array.astype(np.float64), fz.l2_norm(x.array)
    ops = {
        "coverage.update": lambda: cov.update(tracker, model, trace),
        "coverage.select_neurons": lambda: cov.select_neurons(
            tracker, cfg.strategies, cfg.m, trace),
        "fuzzer.mutant_step": lambda: fz._mutate(
            model, tracker, x.array, step, cfg.pixel_range, x64, x_norm),
    }
    return [({"op": op, "model": "lenet5", "batch": 1}, {"us": fn}) for op, fn in ops.items()]


def timed(rows: list[tuple[dict, dict]]) -> tuple[list[dict], list[dict]]:
    """Each row with its median, fastest and per-pass median time per call
    columns, and the unstable entries: one per column whose pass medians
    differ more than UNSTABLE_RATIO times, the slower above UNSTABLE_FLOOR_US."""
    passes = [[{column: rounds_us(fn) for column, fn in calls.items()} for _, calls in rows]
              for _ in range(PASSES)]
    out, unstable = [], []
    for i, (row, calls) in enumerate(rows):
        timed_row = dict(row)
        for column in calls:
            per_pass = [p[i][column] for p in passes]
            medians = [statistics.median(r) for r in per_pass]
            every = [t for r in per_pass for t in r]
            timed_row[column] = statistics.median(every)
            timed_row[column + "_min"] = min(every)
            timed_row[column + "_passes"] = medians
            if max(medians) > max(UNSTABLE_RATIO * min(medians), UNSTABLE_FLOOR_US):
                unstable.append({**row, "column": column, "pass_medians_us": medians})
        out.append(timed_row)
    return out, unstable


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy wheels bundle, if found."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = p.parse_args(argv)
    model = architectures.build_model("lenet1")
    layers = [row for batch in BATCHES for row in layer_rows(model, batch)]
    fuzzer = fuzzer_rows()
    for _, calls in layers + fuzzer:  # the untimed pass over every row
        for fn in calls.values():
            fn()
    rows, unstable = timed(layers + fuzzer)
    result = {
        "model": "lenet1",
        "unit": "us per call",
        "passes": PASSES,
        "rounds": ROUNDS,
        "machine": machine(),
        "layers": rows[: len(layers)],
        "fuzzer": rows[len(layers):],
        "unstable": unstable,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    for row in result["layers"]:
        print(f"batch {row['batch']:>2}  {row['layer']}:{row['kind']:<9} "
              f"forward {row['forward_us']:9.1f} (min {row['forward_us_min']:9.1f}) us  "
              f"backward {row['backward_us']:9.1f} (min {row['backward_us_min']:9.1f}) us")
    for row in result["fuzzer"]:
        print(f"batch {row['batch']:>2}  {row['model']} {row['op']:<24} "
              f"{row['us']:9.1f} (min {row['us_min']:9.1f}) us")
    for entry in unstable:
        print(f"bench_layers: warning: unstable row {json.dumps(entry)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
