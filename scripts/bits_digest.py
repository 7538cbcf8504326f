"""Print one sha256 over the package's numeric outputs, to show that a
refactor or a kernel change kept every bit.

    python3 scripts/bits_digest.py

The digest covers, for untrained lenet1, lenet4 and lenet5 models in single
and double precision, on fixed uniform-noise inputs:
  - every layer output of a batch-8 forward pass (nn._forward);
  - the batch loss and every parameter gradient the trainer computes;
  - batch-1 input gradients (nn.input_gradient) of an objective that injects
    at the label layer and at target neurons of every neuron layer, with and
    without a recorded trace, on confidences and on logits;
  - the weights after two chained short train() calls.
Equal digests on two commits mean these outputs are bit-identical.

BLAS runs on one thread, pinned before NumPy is imported, as the benchmark
pins it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402

env.configure()  # pins BLAS threads, so it must run before NumPy's import

import numpy as np  # noqa: E402

from neurofuzz import architectures, nn, trainer  # noqa: E402
from neurofuzz.model_io import DatasetSplit  # noqa: E402
from neurofuzz.tensor import Tensor  # noqa: E402

ARCHS = ("lenet1", "lenet4", "lenet5")
PRECISIONS = {"single": np.float32, "double": np.float64}
BATCH = 8
GRADIENT_INPUTS = 3
TRAIN_IMAGES = 40  # in batches of 16, so every epoch ends on a short batch
TRAIN_PHASES = ((2, 0.05), (1, 0.01))


def add(h, label: str, arr: np.ndarray):
    h.update(f"{label} {arr.dtype} {arr.shape}\n".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def forward_and_grads(h, name: str, model: nn.Model, xb: np.ndarray, yb: np.ndarray):
    for i, a in enumerate(nn._forward(model, xb)):
        add(h, f"{name} forward {i}", a)
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


def main() -> int:
    h = hashlib.sha256()
    for arch in ARCHS:
        for precision, dtype in PRECISIONS.items():
            name = f"{arch}/{precision}"
            model = architectures.build_model(arch, rng_seed=1).astype(precision)
            rng = np.random.default_rng(0)
            xb = rng.uniform(0, 1, size=(BATCH, *model.input_shape)).astype(dtype)
            yb = rng.integers(0, model.num_classes, size=BATCH)
            forward_and_grads(h, name, model, xb, yb)
            input_gradients(h, name, model, xb)
            trained_weights(h, name, model, rng, dtype)
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
