"""Mini-batch SGD trainer, plus the retraining-with-adversarial-inputs
experiment that folds recorded label flips back into the training set.

Adversarial records keep the label their origin image had: a kept mutant is
constrained to stay visually interchangeable with its origin, so the origin's
label is inherited as ground truth for retraining.

Each training step starts from a data stage that reads no weights: the
batch gather and, for a conv2d layer 0, that layer's im2col matrix, handed
to nn._forward as a pre-seeded cols entry. With two or more usable CPUs,
train() runs the next step's data stage on one helper thread while the
current step runs, with the same bits as running it inline.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import nn
from .architectures import build_model
from .errors import ContractViolation, TrainingError
from .fuzzer import AdversarialRecord, _check_field_types
from .model_io import DatasetSplit
from .tensor import Tensor

MOMENTUM = 0.9
EVAL_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.epochs < 0:
            raise ContractViolation("epochs must be >= 0")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ContractViolation("learning_rate must be finite and >= 0")
        if self.rng_seed < 0:
            raise ContractViolation("rng_seed must be >= 0")


@dataclass(frozen=True)
class RetrainResult:
    model: nn.Model
    test_acc_before: float
    test_acc_after: float
    adv_acc_before: float
    adv_acc_after: float


def _check_split(model: nn.Model, data: DatasetSplit):
    """Images of the model's input shape, labels in [0, num_classes)."""
    if data.images.shape[1:] != model.input_shape:
        raise ContractViolation(
            f"data images {data.images.shape[1:]} do not match model "
            f"input shape {model.input_shape}"
        )
    if data.labels.min() < 0 or data.labels.max() >= model.num_classes:
        raise ContractViolation(f"labels must lie in [0, {model.num_classes})")


def _batch_loss_and_grads(model, xb, yb, cols: dict[int, np.ndarray] | None = None):
    """Mean cross-entropy of the batch and each layer's parameter gradients.
    cols may hold im2col matrices pre-built from xb, by layer index, which
    nn._forward uses instead of building them."""
    cols = {} if cols is None else cols
    acts = nn._forward(model, xb, cols)
    logits = acts[-2].astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(len(yb)), yb].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(len(yb)), yb] -= 1.0
    dlogits = (dlogits / len(yb)).astype(xb.dtype)
    grads = nn._backward(model, xb, acts, {len(model.layers) - 2: dlogits}, cols)
    return loss, grads


def _sgd_step(model: nn.Model, grads, velocity, lr: float) -> nn.Model:
    """One momentum step: updates each velocity in place and returns the
    model with the stepped parameters. A non-finite parameter fails the
    Tensor check and raises TrainingError."""
    layers = list(model.layers)
    for i, g in enumerate(grads):
        if g is None:
            continue
        vw, vb = velocity[i]
        vw *= MOMENTUM
        vw -= lr * g[0]
        vb *= MOMENTUM
        vb -= lr * g[1]
        layer = layers[i]
        try:
            w = Tensor.wrap(layer.weights.array + vw)
            b = Tensor.wrap(layer.bias.array + vb)
        except ContractViolation as exc:
            raise TrainingError(f"training diverged: {exc}") from None
        layers[i] = replace(layer, weights=w, bias=b)
    return nn.Model(tuple(layers), model.input_shape)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fetch(images, labels, first_conv: nn.Layer | None, idx):
    """One step's data stage, which reads no weights: the batch, its labels
    and a cols dict holding layer 0's im2col matrix when that layer
    (first_conv) is conv2d. It calls nothing the benchmark's tracer wraps
    and makes no BLAS call, so it may run on a helper thread; NumPy's
    gathers release the GIL."""
    xb = images[idx]
    cols = {} if first_conv is None else {0: nn._im2col(xb, first_conv)[0]}
    return xb, labels[idx], cols


def _fetched(fetch, batches, pool):
    """fetch(b) for each of batches, in order. With a pool, the fetch of the
    next batch runs on it while the caller works on the current one."""
    if pool is None:
        yield from map(fetch, batches)
        return
    future = pool.submit(fetch, batches[0])
    for nxt in batches[1:]:
        batch = future.result()
        future = pool.submit(fetch, nxt)
        yield batch
    yield future.result()


def evaluate(model: nn.Model, data: DatasetSplit) -> float:
    """Plain accuracy of the model on a dataset split."""
    _check_split(model, data)
    images, labels = data.images.array, data.labels
    hits = 0
    for start in range(0, len(data), EVAL_BATCH):
        xb = images[start : start + EVAL_BATCH]
        conf = nn._forward(model, xb)[-1]
        hits += int((conf.argmax(axis=1) == labels[start : start + len(xb)]).sum())
    return hits / len(data)


def train(
    model_or_arch: nn.Model | str,
    data: DatasetSplit,
    cfg: TrainConfig,
    test_data: DatasetSplit | None = None,
    log_path: str | Path | None = None,
) -> nn.Model:
    """Minimize cross-entropy by mini-batch SGD with momentum; returns the
    trained model.

    model_or_arch is an architecture name for a fresh seeded start, or an
    existing model to continue from; with zero epochs that model comes back
    as it is. Fixed rng_seed gives bit-identical weights. Optional log_path
    gets a CSV row (epoch, loss, train_acc, test_acc) per epoch. The
    per-epoch accuracies on data and test_data are computed only when
    log_path is given; they feed nothing but the log.

    With two or more usable CPUs, the next batch's data stage (see the
    module docstring) runs on one helper thread during each step, and on one
    CPU inline before it. The weights are the same bits either way, and the
    thread ends before train() returns or raises.
    """
    if isinstance(model_or_arch, str):
        model = build_model(model_or_arch, rng_seed=cfg.rng_seed)
    else:
        model = model_or_arch
    _check_split(model, data)

    rng = np.random.default_rng(cfg.rng_seed)
    velocity = [
        None if l.weights is None else (np.zeros_like(l.weights.array), np.zeros_like(l.bias.array))
        for l in model.layers
    ]
    first = model.layers[0]
    fetch = partial(
        _fetch, data.images.array, data.labels, first if first.kind == "conv2d" else None
    )
    log_rows = ["epoch,loss,train_acc,test_acc"]

    with ThreadPoolExecutor(max_workers=1) if _usable_cpus() >= 2 else nullcontext() as pool:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(data))
            batches = [
                order[start : start + cfg.batch_size]
                for start in range(0, len(data), cfg.batch_size)
            ]
            losses = []
            for xb, yb, cols in _fetched(fetch, batches, pool):
                loss, grads = _batch_loss_and_grads(model, xb, yb, cols)
                if not np.isfinite(loss):
                    raise TrainingError(f"training diverged: loss {loss} at epoch {epoch}")
                losses.append(loss)
                model = _sgd_step(model, grads, velocity, cfg.learning_rate)
            if log_path is not None:
                train_acc = evaluate(model, data)
                test_acc = evaluate(model, test_data) if test_data is not None else None
                log_rows.append(
                    f"{epoch},{float(np.mean(losses))!r},{train_acc!r},"
                    f"{'' if test_acc is None else repr(test_acc)}"
                )

    if log_path is not None:
        Path(log_path).write_text("\n".join(log_rows) + "\n", encoding="ascii")
    return model


def adversarial_split(records: list[AdversarialRecord]) -> DatasetSplit:
    """Bundle recorded mutants into a dataset labeled with their origins'
    labels."""
    if not records:
        raise ContractViolation("no adversarial records to bundle")
    shape = records[0].mutated.shape
    for i, r in enumerate(records):
        if r.mutated.shape != shape:
            raise ContractViolation(
                f"record {i} has image shape {r.mutated.shape}, record 0 has {shape}"
            )
    images = np.stack([r.mutated.array for r in records])
    return DatasetSplit(Tensor.wrap(images), [r.original_label for r in records])


def check_oversample(oversample: int):
    """retrain_with_adversarial's repeat count must be at least 1; the CLI
    checks it before it reads any file."""
    if oversample < 1:
        raise ContractViolation("oversample must be >= 1")


def retrain_with_adversarial(
    model: nn.Model,
    train_data: DatasetSplit,
    test_data: DatasetSplit,
    records: list[AdversarialRecord],
    cfg: TrainConfig,
    oversample: int = 1,
) -> RetrainResult:
    """Fine-tune on the training set augmented with recorded adversarial
    inputs; reports accuracy on the held-out split and on the adversarial
    set, before and after.

    oversample repeats the adversarial block in the merged training stream.
    A repair set of a hundred images is a fraction of a percent of a full
    corpus and barely registers at a learning rate gentle enough to preserve
    test accuracy; repeating it gives the repair cases enough gradient weight
    without touching the rate. Accuracy is always reported against the
    distinct records, never the repeated stream. records must not be empty.
    At any epoch count, the records, the test split (by the evaluate calls)
    and train_data are checked before the merged split is built.
    """
    check_oversample(oversample)
    adv = adversarial_split(records)

    test_before = evaluate(model, test_data)
    adv_before = evaluate(model, adv)
    _check_split(model, train_data)

    images = np.concatenate([train_data.images.array] + [adv.images.array] * oversample)
    labels = np.concatenate([train_data.labels] + [adv.labels] * oversample)
    merged_model = train(model, DatasetSplit(Tensor.wrap(images), labels), cfg)

    test_after = evaluate(merged_model, test_data)
    adv_after = evaluate(merged_model, adv)
    return RetrainResult(merged_model, test_before, test_after, adv_before, adv_after)
