"""Sequential neural-network models: forward evaluation with full activation
recording, and reverse-mode differentiation of a scalar objective with respect
to the input.

Supported layer kinds are the LeNet-family building blocks: dense, conv2d
(valid padding, channels-last), relu, maxpool2d (non-overlapping), flatten,
softmax. The objective combines class-confidence terms with a weighted sum of
intermediate neuron outputs, so the backward pass supports gradient injection
at arbitrary layer outputs.

Conventions (pinned, covered by tests):
  - argmax and top-k tie-breaks go to the lowest class index;
  - relu passes no gradient at exactly-zero pre-activations;
  - maxpool routes gradient to the first maximal element in row-major order;
  - conv2d's input gradient (col2im) adds each input element's window terms
    in kernel row-major order (ki, then kj), starting from +0.0, so it is
    bit-equal to a loop over kernel offsets that adds one strided slice each;
  - conv2d's bias gradient adds the rows of the [n*oh*ow, out_ch] output
    gradient in row order (sample, oh, ow), bit-equal to gmat.sum(axis=0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .coverage import NeuronLayout
from .errors import ContractViolation
from .tensor import Tensor

LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d", "flatten", "softmax")
# the axes of each parameterised kind's weights; its bias runs along the last
_PARAM_AXES = {"dense": ("in", "out"), "conv2d": ("kh", "kw", "in_ch", "out_ch")}


# ---------------------------------------------------------------------------
# model structure


def is_count(v) -> bool:
    """An integer >= 1; bools and floats such as 2.0 are not."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


@dataclass(frozen=True)
class Layer:
    """One layer of a sequential model.

    weights/bias are present for dense and conv2d only. stride, read by conv2d
    (valid padding), and pool, maxpool2d's (ph, pw) window or p for (p, p),
    hold integers >= 1; Layer itself refuses any other value.
    """

    kind: str
    weights: Tensor | None = None
    bias: Tensor | None = None
    stride: int = 1
    pool: tuple[int, int] = (2, 2)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ContractViolation(f"unknown layer kind {self.kind!r}")
        if not is_count(self.stride):
            raise ContractViolation(f"stride must be an integer >= 1, got {self.stride!r}")
        pool = (self.pool, self.pool) if is_count(self.pool) else self.pool
        if not (isinstance(pool, (tuple, list)) and len(pool) == 2 and all(map(is_count, pool))):
            raise ContractViolation(f"pool must be an int or a pair of ints >= 1, got {self.pool!r}")
        object.__setattr__(self, "pool", tuple(pool))
        axes = _PARAM_AXES.get(self.kind)
        if axes is None:
            if self.weights is not None or self.bias is not None:
                raise ContractViolation(f"{self.kind} layer takes no parameters")
        elif self.weights is None or self.bias is None:
            raise ContractViolation(f"{self.kind} layer needs weights and bias")
        elif len(self.weights.shape) != len(axes):
            raise ContractViolation(f"{self.kind} weights must be [{', '.join(axes)}]")
        elif self.bias.shape != self.weights.shape[-1:]:
            raise ContractViolation(f"{self.kind} bias shape must be [{axes[-1]}]")

    @cached_property
    def wmat(self) -> np.ndarray:
        """A conv2d layer's weights as the [kh*kw*in_ch, out_ch] matrix that
        multiplies its im2col windows."""
        return self.weights.array.reshape(-1, self.weights.shape[-1])


def dense(weights: Tensor, bias: Tensor) -> Layer:
    return Layer("dense", weights, bias)


def conv2d(weights: Tensor, bias: Tensor, stride: int = 1) -> Layer:
    return Layer("conv2d", weights, bias, stride=stride)


def relu() -> Layer:
    return Layer("relu")


def maxpool2d(pool: int | tuple[int, int] = 2) -> Layer:
    return Layer("maxpool2d", pool=pool)


def flatten() -> Layer:
    return Layer("flatten")


def softmax() -> Layer:
    return Layer("softmax")


@dataclass(frozen=True)
class Model:
    """Ordered layers with chain-compatible shapes ending in a softmax head,
    which fix the fields set here: output_shapes (each layer's, walked from
    input_shape), num_classes (the head's width) and precision ("single" for
    a model without parameters). A layer that does not fit the shape before
    it raises, naming its index."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    num_classes: int = field(init=False, compare=False, repr=False)
    output_shapes: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    precision: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        shape = self.input_shape
        if not (isinstance(shape, (tuple, list)) and shape and all(map(is_count, shape))):
            raise ContractViolation(f"input_shape must be a list of integers >= 1, got {shape!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", shape := tuple(shape))
        shapes = []
        for i, layer in enumerate(self.layers):
            try:
                shape = _layer_output_shape(layer, shape)
            except ContractViolation as exc:
                raise ContractViolation(f"layer {i} ({layer.kind}): {exc}") from None
            if layer.kind == "softmax" and i != len(self.layers) - 1:
                raise ContractViolation(f"layer {i}: softmax must be the final layer")
            shapes.append(shape)
        if not self.layers or self.layers[-1].kind != "softmax":
            raise ContractViolation("final layer must be softmax")
        precisions = {t.precision for layer in self.layers
                      for t in (layer.weights, layer.bias) if t is not None}
        if len(precisions) > 1:
            raise ContractViolation("mixed parameter precisions in one model")
        object.__setattr__(self, "num_classes", shapes[-1][0])
        object.__setattr__(self, "output_shapes", tuple(shapes))
        object.__setattr__(self, "precision", precisions.pop() if precisions else "single")

    @cached_property
    def layout(self) -> NeuronLayout:
        """Where this model's neurons live; built on first use, then kept."""
        return NeuronLayout(self)

    def astype(self, precision: str) -> "Model":
        layers = tuple(
            replace(l, weights=l.weights.astype(precision), bias=l.bias.astype(precision))
            if l.weights is not None
            else l
            for l in self.layers
        )
        return Model(layers, self.input_shape)


def _layer_output_shape(layer: Layer, shape: tuple[int, ...]) -> tuple[int, ...]:
    if layer.kind == "dense":
        if len(shape) != 1 or shape[0] != layer.weights.shape[0]:
            raise ContractViolation(f"expects rank-1 input of {layer.weights.shape[0]}, got {shape}")
        return (layer.weights.shape[1],)
    if layer.kind in ("conv2d", "maxpool2d"):
        if len(shape) != 3:
            raise ContractViolation(f"expects [h, w, c] input, got {shape}")
        h, w, c = shape
    if layer.kind == "conv2d":
        kh, kw, in_ch, out_ch = layer.weights.shape
        if c != in_ch:
            raise ContractViolation(f"input channels {c} != kernel channels {in_ch}")
        if kh > h or kw > w:
            raise ContractViolation(f"kernel {kh}x{kw} larger than input {h}x{w}")
        return ((h - kh) // layer.stride + 1, (w - kw) // layer.stride + 1, out_ch)
    if layer.kind == "maxpool2d":
        ph, pw = layer.pool
        if h // ph < 1 or w // pw < 1:
            raise ContractViolation(f"pool {ph}x{pw} larger than input {h}x{w}")
        return (h // ph, w // pw, c)
    if layer.kind == "flatten":
        return (math.prod(shape),)
    # relu and softmax preserve shape; softmax additionally requires rank 1
    if layer.kind == "softmax" and len(shape) != 1:
        raise ContractViolation(f"expects rank-1 input, got {shape}")
    return shape


# ---------------------------------------------------------------------------
# forward


@dataclass(frozen=True)
class ActivationTrace:
    """Every layer's output for one input, last entry being the confidences;
    predict keeps the scaled neuron vector and the layout that scaled it in
    two fields that take no part in comparisons (see NeuronLayout.scaled)."""

    input: Tensor
    outputs: tuple[Tensor, ...]
    scaled_row: np.ndarray | None = field(default=None, compare=False, repr=False)
    scaled_by: NeuronLayout | None = field(default=None, compare=False, repr=False)

    @property
    def confidences(self) -> Tensor:
        return self.outputs[-1]

    @property
    def predicted_label(self) -> int:
        return int(np.argmax(self.confidences.array))


def predict(model: Model, x: Tensor) -> ActivationTrace:
    """Forward pass recording all layer outputs; argmax of the final vector is
    the predicted label (lowest index wins ties)."""
    check_input(model, x)
    acts = _forward(model, x.array[None, ...])
    outputs = tuple(Tensor.wrap(a[0]) for a in acts)
    layout = model.layout
    return ActivationTrace(x, outputs, layout.scaled_rows(acts)[0], layout)


def predict_each(model: Model, xs: Sequence[Tensor]) -> list[ActivationTrace]:
    """predict(model, x) for each x, bit for bit, in one forward pass; no
    inputs give [].

    The number of inputs picks the body: fewer than two go through predict,
    the faster of the two at batch 1. Two or more are stacked.
    Every layer kind but dense computes each row of a stacked batch with the
    bits it has alone; a dense layer's gemm over stacked rows may not, so
    _forward multiplies each row as its own (1, K) product. Each layer's
    output is checked once, as one Tensor, and every trace holds read-only
    row views of it, and its row of the pass's NeuronLayout.scaled_rows."""
    if len(xs) < 2:
        return [predict(model, x) for x in xs]
    for x in xs:
        check_input(model, x)
    acts = _forward(model, np.stack([x.array for x in xs]), each=True)
    rows = zip(*(Tensor.wrap(a).rows() for a in acts))
    layout = model.layout
    return [ActivationTrace(x, outputs, row, layout)
            for x, outputs, row in zip(xs, rows, layout.scaled_rows(acts))]


def check_input(model: Model, x: Tensor):
    """The one rule for a model input, checked by predict, predict_each and
    input_gradient first: a Tensor of the model's input shape and precision."""
    if not isinstance(x, Tensor):
        raise ContractViolation(f"expected a Tensor, got {type(x).__name__}")
    if x.shape != model.input_shape:
        raise ContractViolation(f"input shape {x.shape} != model {model.input_shape}")
    if x.precision != model.precision:
        raise ContractViolation(
            f"input precision {x.precision} != model {model.precision}"
        )


def _forward(
    model: Model,
    xb: np.ndarray,
    cols: dict[int, np.ndarray] | None = None,
    each: bool = False,
) -> list[np.ndarray]:
    """Batched forward; returns one output array [n, ...] per layer.

    With each, every dense row is its own (1, K) product, so each row of
    every output has the bits of a batch-1 pass; the trainer's gemm over the
    batch is faster. When cols is a dict, it receives each conv2d layer's
    im2col matrix under the layer's index, so that _backward can reuse it
    for parameter gradients. An entry already in cols is taken as that
    layer's im2col matrix instead of building it: the trainer pre-seeds
    layer 0's, which depends on xb alone, while the previous step runs.
    """
    acts = []
    a = xb
    for i, layer in enumerate(model.layers):
        if layer.kind == "conv2d":
            a, layer_cols = _conv2d_forward(layer, a, None if cols is None else cols.get(i))
            if cols is not None:
                cols[i] = layer_cols
        elif each and layer.kind == "dense":
            a = (a[:, None, :] @ layer.weights.array)[:, 0] + layer.bias.array
        else:
            a = _layer_forward(layer, a)
        acts.append(a)
    return acts


def _conv2d_forward(
    layer: Layer, x: np.ndarray, cols: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Output [n, oh, ow, out_ch] and the im2col matrix it was computed from:
    cols if given, which must be _im2col(x, layer)'s matrix, else that."""
    if cols is None:
        cols = _im2col(x, layer)[0]
    y = cols.reshape(-1, cols.shape[-1]) @ layer.wmat
    y += layer.bias.array
    return y.reshape(*cols.shape[:3], -1), cols


def _layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Every kind but conv2d, which _forward runs through _conv2d_forward."""
    kind = layer.kind
    if kind == "dense":
        return x @ layer.weights.array + layer.bias.array
    if kind == "relu":
        return np.maximum(x, 0)
    if kind == "maxpool2d":
        return _maxpool_forward(x, layer.pool)
    if kind == "flatten":
        return x.reshape(x.shape[0], -1)
    z = x - x.max(axis=-1, keepdims=True)  # softmax
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _im2col(x: np.ndarray, layer: Layer) -> tuple[np.ndarray, int, int]:
    """The [n, oh, ow, kh*kw*c] matrix of x's windows, each flattened in
    (ki, kj, c) order.

    With one input channel a window row holds only kw floats, so a strided
    copy of the window view moves short runs; a gather through a cached flat
    index builds the same matrix faster. With more channels the strided copy
    is the faster of the two."""
    kh, kw, _, _ = layer.weights.shape
    s = layer.stride
    n, h, w, c = x.shape
    oh, ow = (h - kh) // s + 1, (w - kw) // s + 1
    if c == 1:
        index = _im2col_index(h, w, kh, kw, s)
        return np.take(x.reshape(n, -1), index, axis=1).reshape(n, oh, ow, kh * kw), oh, ow
    x = np.ascontiguousarray(x)
    sn, sh, sw, sc = x.strides
    win = np.ndarray((n, oh, ow, kh, kw, c), x.dtype, x, 0, (sn, s * sh, s * sw, sh, sw, sc))
    return np.ascontiguousarray(win.reshape(n, oh, ow, kh * kw * c)), oh, ow


@lru_cache(maxsize=8)
def _im2col_index(h: int, w: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat position within one one-channel [h, w] input of every im2col
    entry, in (oh, ow, ki, kj) order."""
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    rows = stride * np.arange(oh)[:, None, None, None] + np.arange(kh)[None, None, :, None]
    cols = stride * np.arange(ow)[None, :, None, None] + np.arange(kw)[None, None, None, :]
    index = (rows * w + cols).reshape(-1)
    index.flags.writeable = False
    return index


def _pool_views(x: np.ndarray, pool: tuple[int, int]):
    """The ph*pw strided views x[:, di::ph, dj::pw, :] of the cropped input,
    each [n, oh, ow, c], in row-major window order (di, dj)."""
    ph, pw = pool
    oh, ow = x.shape[1] // ph, x.shape[2] // pw
    for di in range(ph):
        for dj in range(pw):
            yield x[:, di : oh * ph : ph, dj : ow * pw : pw, :]


def _maxpool_forward(x: np.ndarray, pool: tuple[int, int]) -> np.ndarray:
    views = _pool_views(x, pool)
    out = next(views).copy()
    for v in views:
        np.maximum(out, v, out=out)
    return out


# ---------------------------------------------------------------------------
# objective


@dataclass(frozen=True)
class ObjectiveSpec:
    """Joint objective: sum of top-k other-class terms minus the original
    class term, plus lam times the sum of target neuron outputs.

    Label terms use post-softmax confidences by default; use_logits switches
    them to the pre-softmax logits. The labels are class indices of the
    model, as predicted_label and top_k_other_labels give them.
    """

    original_label: int
    topk_labels: tuple[int, ...]
    target_neurons: tuple = ()
    lam: float = 1.0
    use_logits: bool = False

    def __post_init__(self):
        object.__setattr__(self, "topk_labels", tuple(self.topk_labels))
        object.__setattr__(self, "target_neurons", tuple(self.target_neurons))
        if self.original_label in self.topk_labels:
            raise ContractViolation("original label cannot appear in topk_labels")
        if len(set(self.target_neurons)) != len(self.target_neurons):
            raise ContractViolation("target_neurons must be distinct")


def top_k_other_labels(trace: ActivationTrace, k: int) -> list[int]:
    """The k labels with highest confidence excluding the predicted one,
    descending; ties broken toward the lower class index."""
    conf = trace.confidences.array
    n = conf.shape[0]
    if not 1 <= k < n:
        raise ContractViolation(f"k={k} out of range [1, {n - 1}]")
    predicted = trace.predicted_label
    order = sorted((i for i in range(n) if i != predicted), key=lambda i: (-conf[i], i))
    return order[:k]


def objective_value(model: Model, x: Tensor, spec: ObjectiveSpec) -> float:
    trace = predict(model, x)
    label_src = trace.outputs[-2] if spec.use_logits else trace.confidences
    vals = label_src.array.astype(np.float64)
    total = float(vals[list(spec.topk_labels)].sum() - vals[spec.original_label])
    layout = model.layout
    values = layout.values(trace)
    for nid in spec.target_neurons:
        total += spec.lam * float(values[layout.position(nid)])
    return total


def input_gradient(
    model: Model, x: Tensor, spec: ObjectiveSpec, trace: ActivationTrace | None = None
) -> Tensor:
    """Gradient of the objective with respect to every input element.

    The layer outputs come from trace, which must be predict(model, x) for
    this very x; without one, x is predicted here. A caller that has already
    predicted x thus does not pay for a second forward pass, and the result
    is the same bits either way.
    """
    check_input(model, x)
    if trace is None:
        trace = predict(model, x)
    elif trace.input is not x:
        raise ContractViolation("trace was recorded for a different input")
    xb = x.array[None, ...]
    acts = [t.array[None, ...] for t in trace.outputs]

    label_layer = len(model.layers) - (2 if spec.use_logits else 1)
    v = np.zeros_like(acts[label_layer])
    for c in spec.topk_labels:
        v[0, c] += 1.0
    v[0, spec.original_label] -= 1.0
    inject = {label_layer: v}
    model.layout.add_value_grads(inject, spec.target_neurons, spec.lam, acts)

    return Tensor.wrap(_backward(model, xb, acts, inject)[0])


# ---------------------------------------------------------------------------
# backward


def _backward(
    model: Model,
    xb: np.ndarray,
    acts: list[np.ndarray],
    inject: dict[int, np.ndarray],
    cols: dict[int, np.ndarray] | None = None,
):
    """Reverse pass from gradients injected at layer outputs: inject maps a
    layer index to the objective's gradient with respect to that layer's
    output. acts (and cols) come from one _forward(model, xb, cols) call.

    Without cols, returns the gradient with respect to xb. With cols, returns
    each layer's parameter gradients (None for layers without parameters)
    and skips the input gradient; the trainer injects dL/dlogits at the
    input of the final softmax.
    """
    params: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(model.layers)
    g = None
    for i in range(len(model.layers) - 1, -1, -1):
        extra = inject.get(i)
        if extra is not None:
            g = extra if g is None else g + extra
        if g is None:
            continue
        g, params[i] = _layer_backward(
            model.layers[i],
            acts[i - 1] if i > 0 else xb,
            acts[i],
            g,
            need_params=cols is not None,
            need_input=cols is None or i > 0,
            cols=None if cols is None else cols.get(i),
        )
    if cols is not None:
        return params
    return np.zeros_like(xb) if g is None else g.astype(xb.dtype, copy=False)


def _layer_backward(
    layer: Layer,
    x: np.ndarray,
    out: np.ndarray,
    g: np.ndarray,
    *,
    need_params: bool,
    need_input: bool = True,
    cols: np.ndarray | None = None,
):
    kind = layer.kind
    if kind == "dense":
        dx = g @ layer.weights.array.T if need_input else None
        pg = None
        if need_params:
            pg = (x.T @ g, g.sum(axis=0))
        return dx, pg
    if kind == "conv2d":
        return _conv2d_backward(layer, x, g, need_params, need_input, cols)
    if kind == "relu":
        return g * (x > 0), None
    if kind == "maxpool2d":
        return _maxpool_backward(layer, x, out, g), None
    if kind == "flatten":
        return g.reshape(x.shape), None
    dot = (g * out).sum(axis=-1, keepdims=True)  # softmax
    return out * (g - dot), None


def _conv2d_backward(layer, x, g, need_params, need_input, cols):
    """cols is the layer's im2col matrix from the forward pass; the parameter
    gradients need it."""
    kh, kw, in_ch, out_ch = layer.weights.shape
    s = layer.stride
    n, oh, ow, _ = g.shape
    gmat = g.reshape(-1, out_ch)
    pg = None
    if need_params:
        dw = cols.reshape(-1, kh * kw * in_ch).T @ gmat
        # einsum adds the rows in the order gmat.sum(axis=0) does, faster
        pg = (dw.reshape(kh, kw, in_ch, out_ch), np.einsum("ij->j", gmat))
    dx = None
    if need_input:
        dcols = (gmat @ layer.wmat.T).reshape(n, oh, ow, kh, kw, in_ch)
        dx = _col2im(dcols, x.shape, s)
    return dx, pg


def _col2im(dcols: np.ndarray, shape: tuple[int, ...], stride: int) -> np.ndarray:
    """Sum the [n, oh, ow, kh, kw, c] window gradients back onto an input
    of the given [n, h, w, c] shape, in one np.add.at over the terms in
    reverse memory order. Along one input element's terms oh and ow fall as
    ki and kj rise, so it gets them in (ki, kj) order without reordering dcols."""
    _, _, _, kh, kw, _ = dcols.shape
    index = _col2im_index(*shape, kh, kw, stride)
    dx = np.zeros(shape, dcols.dtype)
    np.add.at(dx.reshape(-1), index, dcols.reshape(-1)[::-1])
    return dx


@lru_cache(maxsize=8)
def _col2im_index(n: int, h: int, w: int, c: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat position within one [n, h, w, c] input of every im2col entry, in
    reverse (sample, oh, ow, ki, kj, c) order, stored contiguous; np.add.at
    adds in index order. The fuzzer asks for batch 1 and the trainer for its
    batch size and its last, shorter batch, so a few entries serve both."""
    index = (_im2col_index(h, w, kh, kw, stride)[:, None] * c + np.arange(c)).reshape(-1)
    index = np.ascontiguousarray((np.arange(n)[:, None] * (h * w * c) + index).reshape(-1)[::-1])
    index.flags.writeable = False
    return index


def _maxpool_backward(layer, x, out, g):
    # first maximal element in row-major window order gets all the gradient;
    # `taken` marks the windows whose maximum an earlier view already matched
    dx = np.zeros_like(x)
    taken = np.zeros(out.shape, dtype=bool)
    hit = np.empty(out.shape, dtype=bool)
    for v, dv in zip(_pool_views(x, layer.pool), _pool_views(dx, layer.pool)):
        np.equal(v, out, out=hit)
        hit &= ~taken
        taken |= hit
        np.multiply(g, hit, out=dv)
    return dx
