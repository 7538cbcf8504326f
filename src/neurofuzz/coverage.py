"""Neuron identity, campaign-wide coverage tracking, and the four
neuron-selection strategies that steer the fuzzer.

A neuron is a dense unit or a conv2d output channel; other layer kinds do not
contribute neurons. A neuron's observed value is taken after the activation
that directly follows its layer (relu, or softmax for the final dense); a conv
channel's value is the mean of its post-activation feature map. Within each
layer the observed values are min-max scaled to [0, 1] and a neuron counts as
activated when its scaled value exceeds the tracker's threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ContractViolation

if TYPE_CHECKING:
    from .nn import ActivationTrace, Model

DEFAULT_ACTIVATION_THRESHOLD = 0.25

STRATEGY_NAMES = {
    1: "most frequently activated first",
    2: "least frequently activated first",
    3: "largest incoming weight magnitude first",
    4: "closest to the activation threshold first",
}


@dataclass(frozen=True, order=True)
class NeuronId:
    """A dense unit or conv output channel, addressed by layer position."""

    layer_index: int
    unit_index: int


def neuron_layers(model: Model) -> list[tuple[int, int]]:
    """(layer_index, unit count) for every layer that contributes neurons."""
    out = []
    for i, layer in enumerate(model.layers):
        if layer.kind == "dense":
            out.append((i, layer.weights.shape[1]))
        elif layer.kind == "conv2d":
            out.append((i, layer.weights.shape[3]))
    return out


def all_neurons(model: Model) -> tuple[NeuronId, ...]:
    return tuple(
        NeuronId(li, u) for li, units in neuron_layers(model) for u in range(units)
    )


def check_neuron(model: Model, nid: NeuronId):
    units = dict(neuron_layers(model)).get(nid.layer_index)
    if units is None or not 0 <= nid.unit_index < units:
        raise ContractViolation(f"{nid} is not a neuron of this model")


def activation_layer_index(model: Model, layer_index: int) -> int:
    """Index of the layer whose output carries the neuron's observed value:
    the relu/softmax directly after it when present, else the layer itself."""
    nxt = layer_index + 1
    if nxt < len(model.layers) and model.layers[nxt].kind in ("relu", "softmax"):
        return nxt
    return layer_index


def conv_map_size(model: Model, layer_index: int) -> int:
    h, w, _ = model.output_shapes[layer_index]
    return h * w


def neuron_value(model: Model, trace: ActivationTrace, nid: NeuronId) -> float:
    check_neuron(model, nid)
    out = trace.outputs[activation_layer_index(model, nid.layer_index)].array
    if out.ndim == 3:
        return float(out[:, :, nid.unit_index].mean(dtype=np.float64))
    return float(out[nid.unit_index])


def _layer_values(model: Model, trace: ActivationTrace) -> list[np.ndarray]:
    """Observed values of each neuron layer's units, as float64 arrays in
    neuron_layers order."""
    _check_trace(model, trace)
    values = []
    for li, _ in neuron_layers(model):
        out = trace.outputs[activation_layer_index(model, li)].array
        if out.ndim == 3:
            values.append(out.mean(axis=(0, 1), dtype=np.float64))
        else:
            values.append(out.astype(np.float64))
    return values


def neuron_outputs(model: Model, trace: ActivationTrace) -> dict[NeuronId, float]:
    """Observed value of every neuron for one trace."""
    flat = np.concatenate(_layer_values(model, trace))
    return dict(zip(all_neurons(model), flat.tolist()))


def _scale(arr: np.ndarray) -> np.ndarray:
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def scale_layer(outputs: Sequence[float]) -> list[float]:
    """Min-max scale one layer's neuron values to [0, 1]; a layer whose values
    are all equal scales to zeros (it cannot self-activate)."""
    if len(outputs) == 0:
        raise ContractViolation("scale_layer needs a non-empty layer")
    return _scale(np.asarray(outputs, dtype=np.float64)).tolist()


def scaled_outputs(model: Model, trace: ActivationTrace) -> np.ndarray:
    """Every neuron's value for one trace, min-max scaled within its layer
    (see scale_layer), as one float64 vector in all_neurons order."""
    return np.concatenate([_scale(v) for v in _layer_values(model, trace)])


def _check_trace(model: Model, trace: ActivationTrace):
    if len(trace.outputs) != len(model.layers) or any(
        t.shape != s for t, s in zip(trace.outputs, model.output_shapes)
    ):
        raise ContractViolation("trace does not match this model")


def activated_neurons(
    model: Model, trace: ActivationTrace, threshold: float
) -> frozenset[NeuronId]:
    """Neurons whose scaled value exceeds the threshold for this one trace."""
    ids = all_neurons(model)
    active = np.flatnonzero(scaled_outputs(model, trace) > threshold)
    return frozenset(ids[i] for i in active)


class CoverageTracker:
    """Mutable per-campaign record of which neurons were ever activated.

    covered flags are monotone; activation_count counts activating traces;
    last_scaled_output remembers each neuron's scaled value from the most
    recent update. All three are flat arrays in all_neurons order.
    """

    def __init__(
        self, model: Model, activation_threshold: float = DEFAULT_ACTIVATION_THRESHOLD
    ):
        if not 0 < activation_threshold < 1:
            raise ContractViolation("activation_threshold must be in (0, 1)")
        self._signature = tuple(neuron_layers(model))
        self._ids = all_neurons(model)
        if not self._ids:
            raise ContractViolation("model has no dense or conv2d layers")
        self._index = {nid: i for i, nid in enumerate(self._ids)}
        self._covered = np.zeros(len(self._ids), dtype=bool)
        self._count = np.zeros(len(self._ids), dtype=np.int64)
        self._last_scaled = np.zeros(len(self._ids), dtype=np.float64)
        self.activation_threshold = float(activation_threshold)

    @property
    def total_neurons(self) -> int:
        return len(self._ids)

    @property
    def neuron_ids(self) -> tuple[NeuronId, ...]:
        return self._ids

    def covered(self, nid: NeuronId) -> bool:
        return bool(self._covered[self._index[nid]])

    def activation_count(self, nid: NeuronId) -> int:
        return int(self._count[self._index[nid]])

    def last_scaled_output(self, nid: NeuronId) -> float:
        return float(self._last_scaled[self._index[nid]])

    def covered_neurons(self) -> frozenset[NeuronId]:
        return frozenset(self._ids[i] for i in np.flatnonzero(self._covered))

    def covered_count(self) -> int:
        return int(self._covered.sum())


def update(tracker: CoverageTracker, model: Model, trace: ActivationTrace) -> int:
    """Fold one trace into the tracker; returns how many neurons flipped from
    uncovered to covered."""
    if tuple(neuron_layers(model)) != tracker._signature:
        raise ContractViolation("tracker was built for a different model")
    scaled = scaled_outputs(model, trace)
    active = scaled > tracker.activation_threshold
    before = tracker.covered_count()
    tracker._last_scaled[:] = scaled
    tracker._covered |= active
    tracker._count += active
    return tracker.covered_count() - before


def coverage_rate(tracker: CoverageTracker) -> float:
    return tracker.covered_count() / tracker.total_neurons


def _rank_key(tracker: CoverageTracker, model: Model, strategy: int) -> np.ndarray:
    """Per-neuron sort key of a strategy, in all_neurons order; lower ranks
    first."""
    if strategy == 1:
        return -tracker._count
    if strategy == 2:
        return tracker._count
    if strategy == 3:
        # L1 norm of the weights feeding each neuron, largest first
        mags = []
        for li, _ in neuron_layers(model):
            w = np.abs(model.layers[li].weights.array.astype(np.float64))
            mags.append(w.sum(axis=tuple(range(w.ndim - 1))))
        return -np.concatenate(mags)
    return np.abs(tracker._last_scaled - tracker.activation_threshold)


def select_neurons(
    tracker: CoverageTracker,
    model: Model,
    strategies: Iterable[int],
    m: int,
    trace: ActivationTrace,
) -> list[NeuronId]:
    """Pick up to m distinct neurons to push toward activation.

    Candidates are the neurons NOT activated by the current trace. m is split
    as evenly as possible among the given strategies, remainder going to the
    earlier ones; each strategy ranks the remaining candidates and takes its
    share. Ties fall back to (layer_index, unit_index) order, so every
    strategy is deterministic. Returns fewer than m ids when the candidate
    pool is smaller than m.
    """
    strategies = list(strategies)
    if m < 1:
        raise ContractViolation("m must be >= 1")
    if not strategies:
        raise ContractViolation("need at least one strategy")
    for s in strategies:
        if s not in (1, 2, 3, 4):
            raise ContractViolation(f"unknown strategy {s}; expected 1-4")
    # flat indices of the candidates; all_neurons order is (layer, unit) order,
    # so the index breaks every tie the way the NeuronId order would
    active = scaled_outputs(model, trace) > tracker.activation_threshold
    remaining = np.flatnonzero(~active)
    base, rem = divmod(m, len(strategies))
    chosen: list[int] = []
    for pos, strategy in enumerate(strategies):
        quota = base + (1 if pos < rem else 0)
        if quota == 0 or remaining.size == 0:
            continue
        key = _rank_key(tracker, model, strategy)[remaining]
        order = np.lexsort((remaining, key))
        chosen.extend(remaining[order[:quota]].tolist())
        remaining = remaining[order[quota:]]
    return [tracker.neuron_ids[i] for i in chosen]
