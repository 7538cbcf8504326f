"""Unit tests for the SGD trainer, evaluation, and adversarial retraining.

The separable-blob dataset gives a convergence oracle: a linear-capacity
model must reach 100% on it within a small epoch budget.
"""

from dataclasses import fields

import numpy as np
import pytest

from neurofuzz import architectures, nn
from neurofuzz.errors import ContractViolation, TrainingError
from neurofuzz.fuzzer import AdversarialRecord
from neurofuzz.model_io import DatasetSplit
from neurofuzz.tensor import Tensor
from neurofuzz.trainer import (
    TrainConfig,
    adversarial_split,
    evaluate,
    retrain_with_adversarial,
    train,
)


def blob_split(n_per_class=30, seed=0, spread=0.05):
    """Two well-separated blobs rendered as 4x4 single-channel images."""
    rng = np.random.default_rng(seed)
    images = []
    labels = []
    for label, center in ((0, 0.2), (1, 0.8)):
        block = np.clip(
            rng.normal(center, spread, size=(n_per_class, 4, 4, 1)), 0, 1
        ).astype(np.float32)
        images.append(block)
        labels.extend([label] * n_per_class)
    return DatasetSplit(
        images=Tensor.wrap(np.concatenate(images)), labels=tuple(labels)
    )


def tiny_arch(seed=0):
    rng = np.random.default_rng(seed)
    w = Tensor.wrap((rng.standard_normal((16, 2)) * 0.1).astype(np.float32))
    b = Tensor.wrap(np.zeros(2, dtype=np.float32))
    return nn.Model(
        layers=(nn.flatten(), nn.dense(w, b), nn.softmax()),
        input_shape=(4, 4, 1),
        num_classes=2,
    )


def tiny_conv_arch(seed=0, precision="single"):
    """Two conv2d layers, relu, maxpool2d and dense on 4x4 inputs: every
    layer kind the trainer differentiates through."""
    rng = np.random.default_rng(seed)
    dtype = np.float32 if precision == "single" else np.float64

    def param(*shape, scale=0.5):
        return Tensor.wrap((rng.standard_normal(shape) * scale).astype(dtype))

    return nn.Model(
        layers=(
            nn.conv2d(param(2, 2, 1, 3), param(3, scale=0.1)),
            nn.relu(),
            nn.conv2d(param(2, 2, 3, 2), param(2, scale=0.1)),
            nn.maxpool2d(2),
            nn.flatten(),
            nn.dense(param(2, 2), param(2, scale=0.1)),
            nn.softmax(),
        ),
        input_shape=(4, 4, 1),
        num_classes=2,
    )


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 5
        assert [f.name for f in fields(cfg)] == [
            "epochs", "batch_size", "learning_rate", "rng_seed"
        ]

    def test_invariants(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=-1)
        with pytest.raises(ContractViolation):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractViolation):
            TrainConfig(learning_rate=-0.1)


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self):
        data = blob_split()
        model = train(
            tiny_arch(), data, TrainConfig(epochs=50, batch_size=8, learning_rate=0.5)
        )
        assert evaluate(model, data) == 1.0

    def test_zero_learning_rate_leaves_weights_unchanged(self):
        data = blob_split()
        start = tiny_arch()
        out = train(start, data, TrainConfig(epochs=3, learning_rate=0.0))
        for a, b in zip(start.layers, out.layers):
            if a.weights is not None:
                assert np.array_equal(a.weights.array, b.weights.array)
                assert np.array_equal(a.bias.array, b.bias.array)

    def test_training_builds_no_neuron_layout(self, monkeypatch):
        # every SGD step builds a Model; none of them may pay for a layout
        def refuse(model):
            raise AssertionError("train() built a neuron layout")

        monkeypatch.setattr(nn, "NeuronLayout", refuse)
        model = train(tiny_conv_arch(), blob_split(), TrainConfig(epochs=2, batch_size=8))
        assert "layout" not in vars(model)

    def test_zero_epochs_identity(self):
        data = blob_split()
        start = tiny_arch()
        out = train(start, data, TrainConfig(epochs=0))
        for a, b in zip(start.layers, out.layers):
            if a.weights is not None:
                assert np.array_equal(a.weights.array, b.weights.array)

    def test_loss_decreases_on_frozen_batch(self):
        from neurofuzz.trainer import _batch_loss_and_grads

        data = blob_split(n_per_class=8, seed=3)
        model = tiny_arch(seed=1)
        xb = data.images.array
        yb = np.asarray(data.labels)
        before, _ = _batch_loss_and_grads(model, xb, yb)
        trained = train(model, data, TrainConfig(epochs=5, batch_size=16, learning_rate=0.1))
        after, _ = _batch_loss_and_grads(trained, xb, yb)
        assert after < before - 1e-4

    def test_architecture_name_accepted(self):
        data = blob_split()
        # 4x4 blobs do not fit the 28x28 architectures; just check the string
        # path dispatches and validates
        with pytest.raises(ContractViolation):
            train("lenet1", data, TrainConfig(epochs=0))

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ContractViolation):
            train("resnet50", blob_split(), TrainConfig(epochs=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        data = blob_split()
        # weights near the float32 ceiling overflow the first forward pass,
        # so the loss goes non-finite immediately
        hot = nn.Model(
            layers=(
                nn.flatten(),
                nn.dense(
                    Tensor.wrap(np.full((16, 2), 3e38, dtype=np.float32)),
                    Tensor.wrap(np.zeros(2, dtype=np.float32)),
                ),
                nn.softmax(),
            ),
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(TrainingError):
            train(hot, data, TrainConfig(epochs=1, batch_size=8))

    def test_reproducible_given_seed(self):
        data = blob_split()
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=0.2, rng_seed=11)
        a = train(tiny_arch(), data, cfg)
        b = train(tiny_arch(), data, cfg)
        for la, lb in zip(a.layers, b.layers):
            if la.weights is not None:
                assert np.array_equal(la.weights.array, lb.weights.array)

    def test_training_log_csv(self, tmp_path):
        data = blob_split()
        log = tmp_path / "log.csv"
        train(
            tiny_arch(),
            data,
            TrainConfig(epochs=3, batch_size=8, learning_rate=0.2),
            test_data=data,
            log_path=log,
        )
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,loss,train_acc,test_acc"
        assert len(lines) == 4
        for line in lines[1:]:
            epoch, loss, train_acc, test_acc = line.split(",")
            float(loss), float(train_acc), float(test_acc)

    def test_log_and_test_data_leave_weights_unchanged(self, tmp_path):
        # the per-epoch accuracy pass runs only for the log; with or without
        # it, and with or without a test split, the weights are the same bits
        data = blob_split()
        held_out = blob_split(n_per_class=10, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.2, rng_seed=5)
        runs = []
        for log in (None, tmp_path / "log.csv"):
            for test_data in (None, held_out):
                model = train(tiny_conv_arch(), data, cfg, test_data=test_data, log_path=log)
                runs.append(
                    [t.array for l in model.layers for t in (l.weights, l.bias) if t is not None]
                )
        for other in runs[1:]:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0], other))

    def test_conv_parameter_gradients_match_finite_differences(self):
        from neurofuzz.trainer import _batch_loss_and_grads

        data = blob_split(n_per_class=4, seed=6, spread=0.2)
        model = tiny_conv_arch(seed=2, precision="double")
        xb = data.images.array.astype(np.float64)
        yb = np.asarray(data.labels)
        _, grads = _batch_loss_and_grads(model, xb, yb)
        eps = 1e-6
        for li, layer in enumerate(model.layers):
            if layer.weights is None:
                continue
            for which, param in ((0, layer.weights.array), (1, layer.bias.array)):
                for flat in range(param.size):
                    losses = []
                    for sign in (1, -1):
                        bumped = param.copy()
                        bumped.flat[flat] += sign * eps
                        w = bumped if which == 0 else layer.weights.array
                        b = bumped if which == 1 else layer.bias.array
                        layers = list(model.layers)
                        layers[li] = nn.Layer(
                            layer.kind, Tensor.wrap(w), Tensor.wrap(b), dict(layer.hyper)
                        )
                        probe = nn.Model(tuple(layers), model.input_shape, model.num_classes)
                        losses.append(_batch_loss_and_grads(probe, xb, yb)[0])
                    numeric = (losses[0] - losses[1]) / (2 * eps)
                    assert grads[li][which].flat[flat] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-8
                    )


class TestEvaluate:
    def test_counts_argmax_hits(self):
        data = blob_split(n_per_class=5)
        model = tiny_arch()
        acc = evaluate(model, data)
        assert 0.0 <= acc <= 1.0
        # brute-force recount
        hits = 0
        for i in range(len(data)):
            pred = nn.predict(model, data.image(i)).predicted_label
            hits += int(pred == data.labels[i])
        assert acc == pytest.approx(hits / len(data))

    def test_empty_split_rejected(self):
        # evaluate never sees an empty split: building one fails first,
        # because the image tensor refuses a zero dimension
        with pytest.raises(ContractViolation, match="positive dims"):
            DatasetSplit(Tensor.wrap(np.zeros((0, 4, 4, 1), dtype=np.float32)), ())


def fake_records(n, label_from=0, label_to=1, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        x = Tensor.wrap(rng.uniform(0, 1, size=(4, 4, 1)).astype(np.float32))
        records.append(
            AdversarialRecord(
                input_index=i,
                original_label=label_from,
                adversarial_label=label_to,
                mutated=x,
                distance=0.01,
                distance_abs=0.05,
                seed_generation=0,
                iteration=1,
            )
        )
    return records


class TestRetrain:
    def test_adversarial_split_uses_original_labels(self):
        records = fake_records(7, label_from=1, label_to=0)
        split = adversarial_split(records)
        assert len(split) == 7
        assert set(split.labels) == {1}

    def test_empty_records_rejected(self):
        with pytest.raises(ContractViolation):
            adversarial_split([])

    def test_retrain_zero_epochs_keeps_model(self):
        data = blob_split()
        model = train(tiny_arch(), data, TrainConfig(epochs=30, batch_size=8, learning_rate=0.5))
        records = fake_records(5, label_from=0, label_to=1)
        result = retrain_with_adversarial(
            model, data, data, records, TrainConfig(epochs=0)
        )
        assert result.test_acc_after == result.test_acc_before
        for a, b in zip(model.layers, result.model.layers):
            if a.weights is not None:
                assert np.array_equal(a.weights.array, b.weights.array)

    def test_retrain_learns_adversarial_set(self):
        data = blob_split()
        model = train(tiny_arch(), data, TrainConfig(epochs=30, batch_size=8, learning_rate=0.5))
        # mutants sit between the blobs where the boundary is free to move:
        # labeled 0 but predicted 1 by the trained model, and far enough from
        # the clean class-1 blob that retraining can absorb them
        rng = np.random.default_rng(5)
        records = []
        for i in range(12):
            x = Tensor.wrap(
                np.clip(rng.normal(0.55, 0.03, size=(4, 4, 1)), 0, 1).astype(np.float32)
            )
            records.append(
                AdversarialRecord(i, 0, 1, x, 0.01, 0.05, 0, 1)
            )
        result = retrain_with_adversarial(
            model,
            data,
            data,
            records,
            TrainConfig(epochs=25, batch_size=8, learning_rate=0.3),
        )
        assert result.adv_acc_after > result.adv_acc_before
        assert result.adv_acc_after >= 0.8
