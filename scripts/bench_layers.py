"""Time each layer of lenet1 forward and backward, at batch 1 and batch 64,
the fuzzer's per-mutant bookkeeping on lenet5 at batch 1, a lenet1 training
step at batch 64, and dataset ingest.

    python3 scripts/bench_layers.py [--out BENCH_layers.json]

Batch 1 is the fuzzer's: the backward pass computes only the gradient with
respect to the layer's input, as nn.input_gradient does. Batch 64 is the
trainer's: the backward pass also computes the parameter gradients, and the
first layer skips its input gradient, as trainer.train does. The weights are
an untrained lenet1's; the shapes are those of every lenet1 model.

The fuzzer rows use the committed lenet5 benchmark fixture, which the script
only reads, and one uniform-noise input: coverage.update of a trace and
coverage.select_neurons with all four strategies and m=10, as the
campaign-lenet5-s1234 workload runs them. The group rows time a seed's
in-cap mutants, n = 1 to GROUP_MAX guided steps of 0.1 from that input: one
nn.predict_each of the n against n nn.predict calls (at n = 1, predict_each
is one predict call). The scaled rows time
the neuron scaling of a stacked pass over those mutants, at G = 1 to
GROUP_MAX and at fuzzer.ORIGIN_CHUNK: one NeuronLayout.scaled_rows of the
pass against G NeuronLayout.scaled calls, each on a trace that carries no
scaled row. The chunk rows time one chunk of origins, fuzzer.ORIGIN_CHUNK
uniform-noise inputs, on the lenet1 and lenet5 fixtures: one
nn.predict_each against as many nn.predict calls.

The training row splits one batch-64 lenet1 step on uniform-noise images
into its data stage and the rest. fetch_ms is trainer._fetch: the gather of
the batch and its labels and the first layer's im2col matrix, which reads no
weights. step_ms is trainer._batch_loss_and_grads given that matrix, plus
trainer._sgd_step. Both are timed per call like the layer rows, in
milliseconds. train_step_ms is the wall time of a one-epoch trainer.train
over TRAIN_IMAGES images divided by its steps, the median of TRAIN_CALLS
calls in each of two passes: as train() runs on this machine (with two or
more usable CPUs the next batch's data stage overlaps each step on a helper
thread) and, as train_step_ms_inline, with train() told that one CPU is
usable, so that the data stage runs inline before each step.

The ingest rows time model_io.load_mnist on a random-byte 20,000 x 28 x 28
IDX image file and its label file, once plain and once gzip, written to a
temporary directory that is deleted afterwards. Each call is split into the
read and scaling (time inside _read_idx, both files: the header parse, the
chunked reads and the scaling of each chunk to float32) and the checks (time
inside the Tensor check and DatasetSplit's __post_init__); the total also
holds the rest of the call. Each time column is the median over
INGEST_CALLS calls in each of two passes, in milliseconds. peak_mb is the
tracemalloc peak of one more call in each pass, the larger of the two, in
MB (2^20 bytes): that call runs traced and untimed, because tracing slows
every allocation.

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
import gzip
import json
import os
import platform
import statistics
import struct
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.configure()  # pins BLAS threads, so it must run before NumPy's import

import numpy as np  # noqa: E402

from neurofuzz import architectures, model_io, nn, tensor, trainer  # noqa: E402
from neurofuzz import coverage as cov  # noqa: E402
from neurofuzz import fuzzer as fz  # noqa: E402
from neurofuzz.model_io import load_model  # noqa: E402
from neurofuzz.tensor import Tensor  # noqa: E402

BATCHES = (1, 64)
GROUP_MAX = 5
FIXTURES = ROOT / "perfbench" / "fixtures"
FUZZ_MODEL = FIXTURES / "lenet5.json"
INGEST_SHAPE = (20000, 28, 28)
INGEST_CALLS = 10
PASSES = 2
ROUNDS = 15
ROUND_S = 0.01  # each round repeats the call until it has run this long
TRAIN_BATCH = 64
TRAIN_CALLS = 5
TRAIN_IMAGES = 2000
TRAIN_RATE = 0.05
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
    ops = {
        "coverage.update": lambda: cov.update(tracker, model, trace),
        "coverage.select_neurons": lambda: cov.select_neurons(
            tracker, cfg.strategies, cfg.m, trace),
    }
    rows = [({"op": op, "model": "lenet5", "batch": 1}, {"us": fn}) for op, fn in ops.items()]
    mutants = [Tensor.wrap(np.clip(x.array + k * step, *cfg.pixel_range))
               for k in range(1, GROUP_MAX + 1)]
    for n in range(1, GROUP_MAX + 1):
        group = mutants[:n]
        rows.append(({"op": "fuzzer.mutant_group", "model": "lenet5", "batch": n}, {
            "predict_each_us": lambda group=group: nn.predict_each(model, group),
            "predict_us": lambda group=group: [nn.predict(model, m) for m in group],
        }))
    layout = model.layout
    for g in sorted({*range(1, GROUP_MAX + 1), fz.ORIGIN_CHUNK}):
        stack = [mutants[k % GROUP_MAX] for k in range(g)]
        acts = nn._forward(model, np.stack([m.array for m in stack]), each=True)
        bare = [nn.ActivationTrace(t.input, t.outputs) for t in nn.predict_each(model, stack)]
        rows.append(({"op": "coverage.scaled_rows", "model": "lenet5", "batch": g}, {
            "scaled_rows_us": lambda acts=acts: layout.scaled_rows(acts),
            "scaled_us": lambda bare=bare: [layout.scaled(t) for t in bare],
        }))
    for arch in ("lenet1", "lenet5"):
        chunk_model = load_model(FIXTURES / f"{arch}.json")
        chunk = [Tensor.wrap(rng.uniform(0, 1, size=chunk_model.input_shape).astype(np.float32))
                 for _ in range(fz.ORIGIN_CHUNK)]
        rows.append(({"op": "fuzzer.origin_chunk", "model": arch, "batch": len(chunk)}, {
            "predict_each_us": lambda m=chunk_model, c=chunk: nn.predict_each(m, c),
            "predict_us": lambda m=chunk_model, c=chunk: [nn.predict(m, x) for x in c],
        }))
    return rows


def train_rows() -> list[dict]:
    """The lenet1 batch-64 training row: fetch_ms and step_ms, each the
    median round over both passes and each pass's median, and the
    per-step wall time of whole train() calls, overlapped and inline."""
    model = architectures.build_model("lenet1")
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, size=(TRAIN_IMAGES, *model.input_shape)).astype(np.float32)
    labels = rng.integers(0, model.num_classes, size=TRAIN_IMAGES)
    fetch = partial(trainer._fetch, images, labels, model.layers[0],
                    rng.permutation(TRAIN_IMAGES)[:TRAIN_BATCH])
    xb, yb, cols = fetch()
    velocity = [None if l.weights is None else (np.zeros_like(l.weights.array),
                                                 np.zeros_like(l.bias.array))
                for l in model.layers]

    def step():  # a fresh dict each call: _forward adds the other conv layer's matrix
        _, grads = trainer._batch_loss_and_grads(model, xb, yb, dict(cols))
        trainer._sgd_step(model, grads, velocity, TRAIN_RATE)

    split = model_io.DatasetSplit(Tensor.wrap(images), labels)
    cfg = trainer.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, learning_rate=TRAIN_RATE)
    steps = -(-TRAIN_IMAGES // TRAIN_BATCH)

    def train_step_ms() -> float:
        trainer.train(model, split, cfg)
        calls = []
        for _ in range(TRAIN_CALLS):
            start = time.perf_counter()
            trainer.train(model, split, cfg)
            calls.append((time.perf_counter() - start) / steps * 1e3)
        return statistics.median(calls)

    def inline_step_ms() -> float:
        usable_cpus = trainer._usable_cpus
        trainer._usable_cpus = lambda: 1
        try:
            return train_step_ms()
        finally:
            trainer._usable_cpus = usable_cpus

    timings = {"fetch_ms": lambda: [t / 1e3 for t in rounds_us(fetch)],
               "step_ms": lambda: [t / 1e3 for t in rounds_us(step)],
               "train_step_ms": train_step_ms,
               "train_step_ms_inline": inline_step_ms}
    passes = [{column: timing() for column, timing in timings.items()} for _ in range(PASSES)]
    row = {"op": "trainer.train step", "model": "lenet1", "batch": TRAIN_BATCH,
           "images": TRAIN_IMAGES, "usable_cpus": trainer._usable_cpus()}
    for column in ("fetch_ms", "step_ms"):
        row[column] = statistics.median(t for p in passes for t in p[column])
        row[column + "_passes"] = [statistics.median(p[column]) for p in passes]
    for column in ("train_step_ms", "train_step_ms_inline"):
        row[column] = statistics.median(p[column] for p in passes)
        row[column + "_passes"] = [p[column] for p in passes]
    return [row]


@contextmanager
def timing_into(spent: dict, part: str, owner, name: str):
    """Add the time of every call of owner.name to spent[part] while open."""
    fn = getattr(owner, name)

    def timed_fn(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[part] += time.perf_counter() - start

    setattr(owner, name, timed_fn)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def ingest_calls_ms(images: Path, labels: Path) -> list[dict]:
    """Read and scaling, checks and total of each of INGEST_CALLS load_mnist
    calls on the pair, in milliseconds, after one untimed call."""
    model_io.load_mnist(images, labels)
    calls = []
    for _ in range(INGEST_CALLS):
        spent = {"read_scale": 0.0, "checks": 0.0}
        with timing_into(spent, "read_scale", model_io, "_read_idx"), \
                timing_into(spent, "checks", tensor, "_validated"), \
                timing_into(spent, "checks", model_io.DatasetSplit, "__post_init__"):
            start = time.perf_counter()
            model_io.load_mnist(images, labels)
            total = time.perf_counter() - start
        calls.append({"read_scale_ms": spent["read_scale"] * 1e3,
                      "checks_ms": spent["checks"] * 1e3,
                      "total_ms": total * 1e3})
    return calls


def ingest_peak_mb(images: Path, labels: Path) -> float:
    """The tracemalloc peak of one load_mnist call on the pair, in MB."""
    tracemalloc.start()
    try:
        model_io.load_mnist(images, labels)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def ingest_rows() -> list[dict]:
    """load_mnist of a random-byte IDX pair, plain and gzip: each time
    column's median over both passes, the fastest total, each pass's median
    total and the larger traced peak."""
    n, h, w = INGEST_SHAPE
    rng = np.random.default_rng(0)
    images = struct.pack(">iiii", model_io.IDX_IMAGE_MAGIC, n, h, w) + rng.integers(
        0, 256, size=INGEST_SHAPE, dtype=np.uint8).tobytes()
    labels = struct.pack(">ii", model_io.IDX_LABEL_MAGIC, n) + rng.integers(
        0, 10, size=n, dtype=np.uint8).tobytes()
    forms = {"plain": lambda raw: raw, "gzip": gzip.compress}
    with tempfile.TemporaryDirectory() as tmp:
        pairs = {}
        for form, pack in forms.items():
            pairs[form] = (Path(tmp) / f"{form}-images", Path(tmp) / f"{form}-labels")
            pairs[form][0].write_bytes(pack(images))
            pairs[form][1].write_bytes(pack(labels))
        passes = [{form: (ingest_calls_ms(*pair), ingest_peak_mb(*pair))
                   for form, pair in pairs.items()} for _ in range(PASSES)]
    rows = []
    for form in forms:
        calls = [c for p in passes for c in p[form][0]]
        row = {"op": "model_io.load_mnist", "form": form, "shape": list(INGEST_SHAPE)}
        for column in calls[0]:
            row[column] = statistics.median(c[column] for c in calls)
        row["total_ms_min"] = min(c["total_ms"] for c in calls)
        row["total_ms_passes"] = [statistics.median(c["total_ms"] for c in p[form][0])
                                  for p in passes]
        row["peak_mb"] = max(p[form][1] for p in passes)
        rows.append(row)
    return rows


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
    training = train_rows()
    ingest = ingest_rows()
    result = {
        "model": "lenet1",
        "unit": "us per call",
        "passes": PASSES,
        "rounds": ROUNDS,
        "machine": machine(),
        "layers": rows[: len(layers)],
        "fuzzer": rows[len(layers):],
        "training": training,
        "ingest": ingest,
        "unstable": unstable,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="ascii")
    for row in result["layers"]:
        print(f"batch {row['batch']:>2}  {row['layer']}:{row['kind']:<9} "
              f"forward {row['forward_us']:9.1f} (min {row['forward_us_min']:9.1f}) us  "
              f"backward {row['backward_us']:9.1f} (min {row['backward_us_min']:9.1f}) us")
    for row in result["fuzzer"]:
        times = "  ".join(f"{column} {row[column]:9.1f}" for column in row
                          if column == "us" or column.endswith("_us"))
        print(f"batch {row['batch']:>2}  {row['model']} {row['op']:<24} {times}")
    for row in result["training"]:
        print(f"batch {row['batch']:>2}  {row['model']} train step: fetch {row['fetch_ms']:6.3f}  "
              f"step {row['step_ms']:6.3f}  train() per step {row['train_step_ms']:6.3f}, "
              f"inline {row['train_step_ms_inline']:6.3f} ms")
    for row in result["ingest"]:
        print(f"ingest {row['form']:<5} read+scale {row['read_scale_ms']:7.2f}  "
              f"checks {row['checks_ms']:7.2f}  total {row['total_ms']:7.2f} "
              f"(min {row['total_ms_min']:7.2f}) ms  peak {row['peak_mb']:6.1f} MB")
    for entry in unstable:
        print(f"bench_layers: warning: unstable row {json.dumps(entry)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
