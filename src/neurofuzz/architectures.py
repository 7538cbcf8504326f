"""Ready-made LeNet-family model builders with seeded He initialization.

Every model takes a 28x28 single-channel image and scores 10 classes. Each
5x5 valid conv followed by 2x2 pooling shrinks the map 28 -> 12 -> 4.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .nn import Layer, Model, conv2d, dense, flatten, maxpool2d, relu, softmax
from .tensor import Tensor

ARCHITECTURES = ("lenet1", "lenet4", "lenet5", "mlp")
INPUT_SHAPE = (28, 28, 1)
NUM_CLASSES = 10


def build_model(arch: str, rng_seed: int = 0) -> Model:
    """Construct an untrained single-precision model of the named
    architecture; Model.astype("double") gives the double-precision twin."""
    if arch not in ARCHITECTURES:
        raise ContractViolation(f"unknown architecture {arch!r}; expected {ARCHITECTURES}")
    layers = _MAKERS[arch](np.random.default_rng(rng_seed))
    return Model(tuple(layers), INPUT_SHAPE)


def _he(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    # drawn in float64, then rounded to float32
    std = np.sqrt(2.0 / fan_in)
    return Tensor.wrap(rng.normal(0.0, std, size=shape).astype(np.float32))


def _conv(rng, in_ch, out_ch) -> Layer:
    return conv2d(_he(rng, (5, 5, in_ch, out_ch), 25 * in_ch), Tensor.zeros((out_ch,)))


def _dense(rng, n_in, n_out) -> Layer:
    return dense(_he(rng, (n_in, n_out), n_in), Tensor.zeros((n_out,)))


def _lenet1(rng):
    return [
        _conv(rng, 1, 4), relu(), maxpool2d(2),
        _conv(rng, 4, 12), relu(), maxpool2d(2),
        flatten(),
        _dense(rng, 4 * 4 * 12, NUM_CLASSES),
        softmax(),
    ]


def _lenet4(rng):
    return [
        _conv(rng, 1, 4), relu(), maxpool2d(2),
        _conv(rng, 4, 16), relu(), maxpool2d(2),
        flatten(),
        _dense(rng, 4 * 4 * 16, 120), relu(),
        _dense(rng, 120, NUM_CLASSES),
        softmax(),
    ]


def _lenet5(rng):
    return [
        _conv(rng, 1, 6), relu(), maxpool2d(2),
        _conv(rng, 6, 16), relu(), maxpool2d(2),
        flatten(),
        _dense(rng, 4 * 4 * 16, 120), relu(),
        _dense(rng, 120, 84), relu(),
        _dense(rng, 84, NUM_CLASSES),
        softmax(),
    ]


def _mlp(rng):
    return [
        flatten(),
        _dense(rng, 28 * 28, 128), relu(),
        _dense(rng, 128, NUM_CLASSES),
        softmax(),
    ]


_MAKERS = {"lenet1": _lenet1, "lenet4": _lenet4, "lenet5": _lenet5, "mlp": _mlp}
