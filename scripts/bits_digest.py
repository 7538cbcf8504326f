"""Print one sha256 over the package's numeric outputs, to show that a
refactor or a kernel change kept every bit.

    python3 scripts/bits_digest.py [--sections]

The digest has three sections. With --sections the script prints one
digest per section, `name digest` per line, so a change that moves outputs
shows which part moved; without it, one sha256 over the three.

nn and trainer cover untrained lenet1, lenet4 and lenet5 models in single
and double precision, on fixed uniform-noise inputs:
  - nn: every layer output of a batch-8 forward pass (nn._forward), and
    batch-1 input gradients (nn.input_gradient) of an objective that injects
    at the label layer and at target neurons of every neuron layer, with and
    without a recorded trace, on confidences and on logits;
  - trainer: the batch loss and every parameter gradient the trainer
    computes, and the weights after two chained short train() calls.

campaign runs fuzz_corpus with the benchmark's committed lenet1 and lenet5
fixtures on CAMPAIGN_INPUTS synthetic digits (tests/synthdigits.py, seed
CAMPAIGN_SEED, scaled as load_mnist scales pixels), at the default config
and at the campaign-lenet5-s1234 workload's, in guided and random mode. It
hashes every record's fields and mutated bytes, the coverage curve and the
final coverage; then, for each fixture, on a default-threshold tracker that
has folded in every input's trace, select_neurons of SELECT_M neurons for
each strategy on the first input's trace.

Equal digests on two commits mean these outputs are bit-identical.

BLAS runs on one thread, pinned before NumPy is imported, as the benchmark
pins it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.configure()  # pins BLAS threads, so it must run before NumPy's import

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import workloads  # noqa: E402
from neurofuzz import architectures, coverage, fuzzer, model_io, nn, trainer  # noqa: E402
from neurofuzz.model_io import DatasetSplit, load_model  # noqa: E402
from neurofuzz.tensor import Tensor  # noqa: E402

ARCHS = ("lenet1", "lenet4", "lenet5")
PRECISIONS = {"single": np.float32, "double": np.float64}
BATCH = 8
GRADIENT_INPUTS = 3
TRAIN_IMAGES = 40  # in batches of 16, so every epoch ends on a short batch
TRAIN_PHASES = ((2, 0.05), (1, 0.01))
CAMPAIGN_ARCHS = ("lenet1", "lenet5")
CAMPAIGN_CONFIGS = {"default": {},
                    "campaign-lenet5-s1234": workloads.WORKLOADS["campaign-lenet5-s1234"].config}
CAMPAIGN_INPUTS = 60
CAMPAIGN_SEED = 1234
SELECT_M = 10


def add(h, label: str, arr: np.ndarray):
    h.update(f"{label} {arr.dtype} {arr.shape}\n".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def forward(h, name: str, model: nn.Model, xb: np.ndarray):
    for i, a in enumerate(nn._forward(model, xb)):
        add(h, f"{name} forward {i}", a)


def loss_and_grads(h, name: str, model: nn.Model, xb: np.ndarray, yb: np.ndarray):
    loss, grads = trainer._batch_loss_and_grads(model, xb, yb)
    h.update(f"{name} loss {loss!r}\n".encode())
    for i, g in enumerate(grads):
        if g is not None:
            add(h, f"{name} grad {i} weights", g[0])
            add(h, f"{name} grad {i} bias", g[1])


def input_gradients(h, name: str, model: nn.Model, xb: np.ndarray):
    ids = model.layout.ids
    for j in range(GRADIENT_INPUTS):
        x = Tensor.wrap(xb[j])
        trace = nn.predict(model, x)
        for use_logits in (False, True):
            spec = nn.ObjectiveSpec(
                original_label=trace.predicted_label,
                topk_labels=tuple(nn.top_k_other_labels(trace, 4)),
                target_neurons=ids[j::5],
                lam=0.5,
                use_logits=use_logits,
            )
            add(h, f"{name} input {j} logits={use_logits}",
                nn.input_gradient(model, x, spec).array)
            add(h, f"{name} input {j} logits={use_logits} traced",
                nn.input_gradient(model, x, spec, trace).array)


def trained_weights(h, name: str, model: nn.Model, rng: np.random.Generator, dtype):
    images = rng.uniform(0, 1, size=(TRAIN_IMAGES, *model.input_shape)).astype(dtype)
    labels = tuple(int(c) for c in rng.integers(0, model.num_classes, size=TRAIN_IMAGES))
    data = DatasetSplit(Tensor.wrap(images), labels)
    for epochs, lr in TRAIN_PHASES:
        cfg = trainer.TrainConfig(epochs=epochs, batch_size=16, learning_rate=lr, rng_seed=4)
        model = trainer.train(model, data, cfg)
    for i, layer in enumerate(model.layers):
        if layer.weights is not None:
            add(h, f"{name} trained {i} weights", layer.weights.array)
            add(h, f"{name} trained {i} bias", layer.bias.array)


def campaign_inputs() -> list[Tensor]:
    images, _ = corpus.synthdigits().make_corpus(CAMPAIGN_INPUTS, CAMPAIGN_SEED)
    pixels = np.empty((*images.shape, 1), np.float32)
    model_io._scale_pixels(pixels[..., 0], images)
    return [Tensor.wrap(p) for p in pixels]


def campaign(h, name: str, model: nn.Model, inputs: list[Tensor], cfg: fuzzer.FuzzConfig,
             mutation: str):
    report = fuzzer.fuzz_corpus(model, inputs, cfg, mutation)
    for r in report.records:
        h.update(f"{name} record {r.input_index} {r.original_label} {r.adversarial_label} "
                 f"{r.distance!r} {r.distance_abs!r} {r.seed_generation} {r.iteration}\n"
                 .encode())
        add(h, f"{name} mutated", r.mutated.array)
    for p in report.coverage_curve:
        h.update(f"{name} curve {p.input_index} {p.seeds_processed} {p.coverage_rate!r}\n"
                 .encode())
    h.update(f"{name} final {report.final_coverage!r}\n".encode())


def selections(h, name: str, model: nn.Model, inputs: list[Tensor]):
    tracker = coverage.CoverageTracker(model, fuzzer.FuzzConfig().activation_threshold)
    traces = [nn.predict(model, x) for x in inputs]
    for trace in traces:
        coverage.update(tracker, model, trace)
    for strategy in coverage.STRATEGIES:
        chosen = coverage.select_neurons(tracker, (strategy,), SELECT_M, traces[0])
        h.update(f"{name} strategy {strategy} {[(n.layer_index, n.unit_index) for n in chosen]}\n".encode())


def sections() -> dict[str, str]:
    hs = {name: hashlib.sha256() for name in ("nn", "trainer", "campaign")}
    for arch in ARCHS:
        for precision, dtype in PRECISIONS.items():
            name = f"{arch}/{precision}"
            model = architectures.build_model(arch, rng_seed=1).astype(precision)
            rng = np.random.default_rng(0)
            xb = rng.uniform(0, 1, size=(BATCH, *model.input_shape)).astype(dtype)
            yb = rng.integers(0, model.num_classes, size=BATCH)
            forward(hs["nn"], name, model, xb)
            loss_and_grads(hs["trainer"], name, model, xb, yb)
            input_gradients(hs["nn"], name, model, xb)
            trained_weights(hs["trainer"], name, model, rng, dtype)
    inputs = campaign_inputs()
    for arch in CAMPAIGN_ARCHS:
        model = load_model(workloads.fixture_path(arch))
        for label, config in CAMPAIGN_CONFIGS.items():
            cfg = fuzzer.FuzzConfig(**config)
            for mutation in fuzzer.MUTATION_MODES:
                campaign(hs["campaign"], f"{arch}/{label}/{mutation}", model, inputs, cfg,
                         mutation)
        selections(hs["campaign"], arch, model, inputs)
    return {name: h.hexdigest() for name, h in hs.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sections", action="store_true", help="print one digest per section")
    args = p.parse_args(argv)
    digests = sections()
    if args.sections:
        for name, digest in digests.items():
            print(name, digest)
    else:
        print(hashlib.sha256(" ".join(digests.values()).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
