"""Mini-batch SGD trainer, plus the retraining-with-adversarial-inputs
experiment that folds recorded label flips back into the training set.

Adversarial records keep the label their origin image had: a kept mutant is
constrained to stay visually interchangeable with its origin, so the origin's
label is inherited as ground truth for retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .architectures import build_model
from .errors import ContractViolation, TrainingError
from .fuzzer import AdversarialRecord
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
        if self.epochs < 0:
            raise ContractViolation("epochs must be >= 0")
        if self.batch_size < 1:
            raise ContractViolation("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ContractViolation("learning_rate must be >= 0")


@dataclass(frozen=True)
class RetrainResult:
    model: nn.Model
    test_acc_before: float
    test_acc_after: float
    adv_acc_before: float
    adv_acc_after: float


def _check_labels(data: DatasetSplit, num_classes: int):
    if not all(0 <= c < num_classes for c in data.labels):
        raise ContractViolation(f"labels must lie in [0, {num_classes})")


def _params_of(model: nn.Model) -> list[tuple[np.ndarray, np.ndarray] | None]:
    return [
        (l.weights.array.copy(), l.bias.array.copy()) if l.weights is not None else None
        for l in model.layers
    ]


def _with_params(model: nn.Model, params) -> nn.Model:
    layers = []
    for layer, p in zip(model.layers, params):
        if p is None:
            layers.append(layer)
        else:
            try:
                w, b = Tensor.wrap(p[0].copy()), Tensor.wrap(p[1].copy())
            except ContractViolation as exc:
                raise TrainingError(f"training diverged: {exc}") from None
            layers.append(nn.Layer(layer.kind, w, b, dict(layer.hyper)))
    return nn.Model(tuple(layers), model.input_shape, model.num_classes)


def _batch_loss_and_grads(model, xb, yb):
    cols: dict[int, np.ndarray] = {}
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


def evaluate(model: nn.Model, data: DatasetSplit) -> float:
    """Plain accuracy of the model on a dataset split."""
    images = data.images.array
    labels = np.asarray(data.labels)
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
    existing model to continue from. Fixed rng_seed gives bit-identical
    weights. Optional log_path gets a CSV row (epoch, loss, train_acc,
    test_acc) per epoch. The per-epoch accuracies on data and test_data
    are computed only when log_path is given; they feed nothing but the log.
    """
    if isinstance(model_or_arch, str):
        model = build_model(model_or_arch, rng_seed=cfg.rng_seed)
    else:
        model = model_or_arch
    _check_labels(data, model.num_classes)
    if tuple(data.images.shape[1:]) != tuple(model.input_shape):
        raise ContractViolation(
            f"data images {tuple(data.images.shape[1:])} do not match model "
            f"input shape {tuple(model.input_shape)}"
        )

    rng = np.random.default_rng(cfg.rng_seed)
    params = _params_of(model)
    velocity = [
        None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1]))
        for p in params
    ]
    images = data.images.array
    labels = np.asarray(data.labels)
    log_rows = ["epoch,loss,train_acc,test_acc"]

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(data))
        losses = []
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = images[idx]
            yb = labels[idx]
            step_model = _with_params(model, params)
            loss, grads = _batch_loss_and_grads(step_model, xb, yb)
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged: loss {loss} at epoch {epoch}")
            losses.append(loss)
            for i, g in enumerate(grads):
                if g is None:
                    continue
                w, b = params[i]
                vw, vb = velocity[i]
                vw *= MOMENTUM
                vw -= cfg.learning_rate * g[0]
                vb *= MOMENTUM
                vb -= cfg.learning_rate * g[1]
                w += vw
                b += vb
        if log_path is not None:
            trained = _with_params(model, params)
            train_acc = evaluate(trained, data)
            test_acc = evaluate(trained, test_data) if test_data is not None else None
            log_rows.append(
                f"{epoch},{float(np.mean(losses))!r},{train_acc!r},"
                f"{'' if test_acc is None else repr(test_acc)}"
            )

    final = _with_params(model, params)
    if log_path is not None:
        Path(log_path).write_text("\n".join(log_rows) + "\n", encoding="ascii")
    return final


def adversarial_split(records: list[AdversarialRecord]) -> DatasetSplit:
    """Bundle recorded mutants into a dataset labeled with their origins'
    labels."""
    if not records:
        raise ContractViolation("no adversarial records to bundle")
    images = np.stack([r.mutated.array for r in records])
    return DatasetSplit(Tensor.wrap(images), tuple(r.original_label for r in records))


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
    distinct records, never the repeated stream.
    """
    if oversample < 1:
        raise ContractViolation("oversample must be >= 1")
    adv = adversarial_split(records) if records else None
    if adv is None and cfg.epochs > 0:
        raise ContractViolation("no adversarial records to retrain with")

    test_before = evaluate(model, test_data)
    adv_before = evaluate(model, adv) if adv is not None else float("nan")

    if cfg.epochs == 0:
        merged_model = model
    else:
        images = np.concatenate(
            [train_data.images.array] + [adv.images.array] * oversample
        )
        labels = train_data.labels + adv.labels * oversample
        merged = DatasetSplit(Tensor.wrap(images), labels)
        merged_model = train(model, merged, cfg)

    test_after = evaluate(merged_model, test_data)
    adv_after = evaluate(merged_model, adv) if adv is not None else float("nan")
    return RetrainResult(merged_model, test_before, test_after, adv_before, adv_after)
