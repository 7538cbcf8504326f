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
    bit-equal to a loop over kernel offsets that adds one strided slice each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .coverage import NeuronLayout
from .errors import ContractViolation
from .tensor import Tensor

LAYER_KINDS = ("dense", "conv2d", "relu", "maxpool2d", "flatten", "softmax")


# ---------------------------------------------------------------------------
# model structure


@dataclass(frozen=True)
class Layer:
    """One layer of a sequential model.

    weights/bias are present for dense and conv2d only. hyper carries
    kind-specific settings: conv2d {"stride": int, "padding": "valid"},
    maxpool2d {"pool": (ph, pw)}.
    """

    kind: str
    weights: Tensor | None = None
    bias: Tensor | None = None
    hyper: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ContractViolation(f"unknown layer kind {self.kind!r}")
        if self.kind == "dense":
            if self.weights is None or self.bias is None:
                raise ContractViolation("dense layer needs weights and bias")
            if len(self.weights.shape) != 2:
                raise ContractViolation("dense weights must be [in, out]")
            if self.bias.shape != (self.weights.shape[1],):
                raise ContractViolation("dense bias shape must be [out]")
        elif self.kind == "conv2d":
            if self.weights is None or self.bias is None:
                raise ContractViolation("conv2d layer needs weights and bias")
            if len(self.weights.shape) != 4:
                raise ContractViolation("conv2d weights must be [kh, kw, in_ch, out_ch]")
            if self.bias.shape != (self.weights.shape[3],):
                raise ContractViolation("conv2d bias shape must be [out_ch]")
            if self.hyper.get("padding", "valid") != "valid":
                raise ContractViolation("only valid padding is supported")
            if not _is_int(self.stride) or self.stride < 1:
                raise ContractViolation(f"conv2d stride must be an int >= 1, got {self.stride!r}")
        else:
            if self.weights is not None or self.bias is not None:
                raise ContractViolation(f"{self.kind} layer takes no parameters")
            if self.kind == "maxpool2d":
                p = self.hyper.get("pool", 2)
                if not (_is_int(p) or (isinstance(p, (tuple, list)) and len(p) == 2
                                       and all(map(_is_int, p)))):
                    raise ContractViolation(f"pool must be an int or a pair of ints, got {p!r}")
                if min(self.pool) < 1:
                    raise ContractViolation("pool size must be >= 1")

    @property
    def stride(self) -> int:
        return self.hyper.get("stride", 1)

    @cached_property
    def pool(self) -> tuple[int, int]:
        p = self.hyper.get("pool", 2)
        return (int(p), int(p)) if _is_int(p) else (int(p[0]), int(p[1]))

    @cached_property
    def wmat(self) -> np.ndarray:
        """A conv2d layer's weights as the [kh*kw*in_ch, out_ch] matrix that
        multiplies its im2col windows."""
        return self.weights.array.reshape(-1, self.weights.shape[-1])


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def dense(weights: Tensor, bias: Tensor) -> Layer:
    return Layer("dense", weights, bias)


def conv2d(weights: Tensor, bias: Tensor, stride: int = 1) -> Layer:
    return Layer("conv2d", weights, bias, {"stride": stride, "padding": "valid"})


def relu() -> Layer:
    return Layer("relu")


def maxpool2d(pool: int | tuple[int, int] = 2) -> Layer:
    if isinstance(pool, int):
        pool = (pool, pool)
    return Layer("maxpool2d", hyper={"pool": tuple(pool)})


def flatten() -> Layer:
    return Layer("flatten")


def softmax() -> Layer:
    return Layer("softmax")


@dataclass(frozen=True)
class Model:
    """Ordered layers with chain-compatible shapes ending in a softmax head."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        shapes = infer_output_shapes(self.layers, self.input_shape)
        if not self.layers or self.layers[-1].kind != "softmax":
            raise ContractViolation("final layer must be softmax")
        if shapes[-1] != (self.num_classes,):
            raise ContractViolation(
                f"model output shape {shapes[-1]} != [num_classes]={self.num_classes}"
            )
        precisions = {
            t.precision
            for layer in self.layers
            for t in (layer.weights, layer.bias)
            if t is not None
        }
        if len(precisions) > 1:
            raise ContractViolation("mixed parameter precisions in one model")
        object.__setattr__(self, "_output_shapes", shapes)
        object.__setattr__(self, "_precision", precisions.pop() if precisions else "single")

    @property
    def output_shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._output_shapes

    @property
    def precision(self) -> str:
        return self._precision

    @cached_property
    def layout(self) -> NeuronLayout:
        """Where this model's neurons live; built on first use, then kept."""
        return NeuronLayout(self)

    def astype(self, precision: str) -> "Model":
        layers = tuple(
            Layer(
                l.kind,
                l.weights.astype(precision) if l.weights is not None else None,
                l.bias.astype(precision) if l.bias is not None else None,
                dict(l.hyper),
            )
            for l in self.layers
        )
        return Model(layers, self.input_shape, self.num_classes)


def infer_output_shapes(
    layers: tuple[Layer, ...], input_shape: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Walk the layer chain, checking compatibility; raises with layer index."""
    shape = tuple(input_shape)
    shapes = []
    for i, layer in enumerate(layers):
        try:
            shape = _layer_output_shape(layer, shape)
        except ContractViolation as exc:
            raise ContractViolation(f"layer {i} ({layer.kind}): {exc}") from None
        if layer.kind == "softmax" and i != len(layers) - 1:
            raise ContractViolation(f"layer {i}: softmax must be the final layer")
        shapes.append(shape)
    return tuple(shapes)


def _layer_output_shape(layer: Layer, shape: tuple[int, ...]) -> tuple[int, ...]:
    if layer.kind == "dense":
        if len(shape) != 1 or shape[0] != layer.weights.shape[0]:
            raise ContractViolation(
                f"expects rank-1 input of {layer.weights.shape[0]}, got {shape}"
            )
        return (layer.weights.shape[1],)
    if layer.kind == "conv2d":
        if len(shape) != 3:
            raise ContractViolation(f"expects [h, w, c] input, got {shape}")
        kh, kw, in_ch, out_ch = layer.weights.shape
        h, w, c = shape
        s = layer.stride
        if c != in_ch:
            raise ContractViolation(f"input channels {c} != kernel channels {in_ch}")
        if kh > h or kw > w:
            raise ContractViolation(f"kernel {kh}x{kw} larger than input {h}x{w}")
        return ((h - kh) // s + 1, (w - kw) // s + 1, out_ch)
    if layer.kind == "maxpool2d":
        if len(shape) != 3:
            raise ContractViolation(f"expects [h, w, c] input, got {shape}")
        ph, pw = layer.pool
        h, w, c = shape
        if h // ph < 1 or w // pw < 1:
            raise ContractViolation(f"pool {ph}x{pw} larger than input {h}x{w}")
        return (h // ph, w // pw, c)
    if layer.kind == "flatten":
        n = 1
        for d in shape:
            n *= d
        return (n,)
    # relu and softmax preserve shape; softmax additionally requires rank 1
    if layer.kind == "softmax" and len(shape) != 1:
        raise ContractViolation(f"expects rank-1 input, got {shape}")
    return shape


# ---------------------------------------------------------------------------
# forward


@dataclass(frozen=True)
class ActivationTrace:
    """Every layer's output for one input, last entry being the confidences."""

    input: Tensor
    outputs: tuple[Tensor, ...]

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
    return ActivationTrace(x, tuple(Tensor.wrap(a[0]) for a in acts))


def check_input(model: Model, x: Tensor):
    if x.shape != model.input_shape:
        raise ContractViolation(f"input shape {x.shape} != model {model.input_shape}")
    if x.precision != model.precision:
        raise ContractViolation(
            f"input precision {x.precision} != model {model.precision}"
        )


def _forward(
    model: Model, xb: np.ndarray, cols: dict[int, np.ndarray] | None = None
) -> list[np.ndarray]:
    """Batched forward; returns one output array [n, ...] per layer.

    When cols is a dict, it receives each conv2d layer's im2col matrix under
    the layer's index, so that _backward can reuse it for parameter
    gradients.
    """
    acts = []
    a = xb
    for i, layer in enumerate(model.layers):
        if layer.kind == "conv2d":
            a, layer_cols = _conv2d_forward(layer, a)
            if cols is not None:
                cols[i] = layer_cols
        else:
            a = _layer_forward(layer, a)
        acts.append(a)
    return acts


def _conv2d_forward(layer: Layer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output [n, oh, ow, out_ch] and the im2col matrix it was computed from."""
    cols, oh, ow = _im2col(x, layer)
    y = cols.reshape(-1, cols.shape[-1]) @ layer.wmat + layer.bias.array
    return y.reshape(x.shape[0], oh, ow, -1), cols


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
    (ki, kj, c) order."""
    kh, kw, _, _ = layer.weights.shape
    s = layer.stride
    x = np.ascontiguousarray(x)
    n, h, w, c = x.shape
    oh, ow = (h - kh) // s + 1, (w - kw) // s + 1
    sn, sh, sw, sc = x.strides
    win = np.ndarray((n, oh, ow, kh, kw, c), x.dtype, x, 0, (sn, s * sh, s * sw, sh, sw, sc))
    return np.ascontiguousarray(win.reshape(n, oh, ow, kh * kw * c)), oh, ow


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
    them to the pre-softmax logits.
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
        if len(set(self.topk_labels)) != len(self.topk_labels):
            raise ContractViolation("topk_labels must be distinct")
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
    _check_labels(model, spec)
    label_src = trace.outputs[-2] if spec.use_logits else trace.confidences
    vals = label_src.array.astype(np.float64)
    total = float(vals[list(spec.topk_labels)].sum() - vals[spec.original_label])
    for nid in spec.target_neurons:
        total += spec.lam * model.layout.value(trace, nid)
    return total


def _check_labels(model: Model, spec: ObjectiveSpec):
    labels = (spec.original_label, *spec.topk_labels)
    if any(not 0 <= c < model.num_classes for c in labels):
        raise ContractViolation(f"class index out of range in {labels}")


def input_gradient(
    model: Model, x: Tensor, spec: ObjectiveSpec, trace: ActivationTrace | None = None
) -> Tensor:
    """Gradient of the objective with respect to every input element.

    trace, when given, must be predict(model, x) for this very x; its layer
    outputs stand in for the forward pass, so a caller that has already
    predicted x does not pay for a second one. The result is the same bits
    either way.
    """
    check_input(model, x)
    _check_labels(model, spec)
    xb = x.array[None, ...]
    if trace is None:
        acts = _forward(model, xb)
    elif trace.input is not x:
        raise ContractViolation("trace was recorded for a different input")
    else:
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
        pg = (dw.reshape(kh, kw, in_ch, out_ch), gmat.sum(axis=0))
    dx = None
    if need_input:
        dcols = (gmat @ layer.wmat.T).reshape(n, oh, ow, kh, kw, in_ch)
        dx = _col2im(dcols, x.shape, s)
    return dx, pg


def _col2im(dcols: np.ndarray, shape: tuple[int, ...], stride: int) -> np.ndarray:
    """Sum the [n, oh, ow, kh, kw, c] window gradients back onto an input
    of the given [n, h, w, c] shape, in one np.add.at over the terms in
    (sample, ki, kj, oh, ow, c) order."""
    _, _, _, kh, kw, _ = dcols.shape
    index = _col2im_index(*shape, kh, kw, stride)
    dx = np.zeros(shape, dcols.dtype)
    np.add.at(dx.reshape(-1), index, dcols.transpose(0, 3, 4, 1, 2, 5).reshape(-1))
    return dx


@lru_cache(maxsize=8)
def _col2im_index(n: int, h: int, w: int, c: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat position within one [n, h, w, c] input of every im2col entry, in
    (sample, ki, kj, oh, ow, c) order. np.add.at adds in index order, so each
    input element gets its window terms in (ki, kj) order. The fuzzer asks
    for batch 1 and the trainer for its batch size and its last, shorter
    batch, so a few entries serve both."""
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(oh)[None, None, :, None]
    cols = np.arange(kw)[None, :, None, None] + stride * np.arange(ow)[None, None, None, :]
    index = ((rows * w + cols)[..., None] * c + np.arange(c)).reshape(-1)
    index = (np.arange(n)[:, None] * (h * w * c) + index).reshape(-1)
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
