"""Neuron identity and layout, campaign-wide coverage tracking, and the four
neuron-selection strategies that steer the fuzzer.

A neuron is a dense unit or a conv2d output channel; other layer kinds do not
contribute neurons. A neuron's observed value is taken after the activation
that directly follows its layer (relu, or softmax for the final dense); a conv
channel's value is the mean of its post-activation feature map. Within each
layer the observed values are min-max scaled to [0, 1] and a neuron counts as
activated when its scaled value exceeds the tracker's threshold.

NeuronLayout owns that decision: which layers hold neurons, which layer's
output carries their values, the channel-mean rule and its gradient. Each
Model builds its layout once, on first use, as model.layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolation

if TYPE_CHECKING:
    from .nn import ActivationTrace, Model

STRATEGIES = (1, 2, 3, 4)


@dataclass(frozen=True, order=True)
class NeuronId:
    """A dense unit or conv output channel, addressed by layer position."""

    layer_index: int
    unit_index: int


class NeuronLayer(NamedTuple):
    """One layer's neurons: the layer's index, the index of the layer whose
    output carries their values, their slice of the flat neuron vector, and
    the feature-map size a conv channel's value averages over (1 for dense)."""

    index: int
    source: int
    span: slice
    map_size: int


class NeuronLayout:
    """Where a model's neurons live, and how their values are read.

    ids lists every neuron in (layer, unit) order, the order of every flat
    neuron vector; index maps an id to its flat position. weight_l1 holds the
    L1 norm of the weights feeding each neuron, strategy 3's score.
    """

    def __init__(self, model: Model):
        layers, ids, mags = [], [], [np.zeros(0)]
        for i, layer in enumerate(model.layers):
            if layer.kind not in ("dense", "conv2d"):
                continue
            nxt = i + 1
            observed = nxt < len(model.layers) and model.layers[nxt].kind in ("relu", "softmax")
            shape = model.output_shapes[i]
            span = slice(len(ids), len(ids) + shape[-1])
            ids.extend(NeuronId(i, u) for u in range(shape[-1]))
            layers.append(NeuronLayer(i, nxt if observed else i, span, int(np.prod(shape[:-1]))))
            w = np.abs(layer.weights.array.astype(np.float64))
            mags.append(w.sum(axis=tuple(range(w.ndim - 1))))
        self.layers = tuple(layers)
        self.ids = tuple(ids)
        self.index = {nid: k for k, nid in enumerate(ids)}
        self._starts = np.array([nl.span.start for nl in layers], dtype=np.intp)
        self._layer_of = np.repeat(
            np.arange(len(layers)), [nl.span.stop - nl.span.start for nl in layers]
        )
        self.weight_l1 = np.concatenate(mags)
        self._by_layer = {nl.index: nl for nl in layers}
        self._shapes = model.output_shapes

    def position(self, nid: NeuronId) -> int:
        """The neuron's flat position; raises for an id that is not one."""
        k = self.index.get(nid)
        if k is None:
            raise ContractViolation(f"{nid} is not a neuron of this model")
        return k

    def values(self, trace: ActivationTrace) -> np.ndarray:
        """Observed value of every neuron, as one float64 vector in ids order;
        a conv channel's value is the mean of its map."""
        if len(trace.outputs) != len(self._shapes) or any(
            t.shape != s for t, s in zip(trace.outputs, self._shapes)
        ):
            raise ContractViolation("trace does not match this model")
        flat = np.empty(len(self.ids))
        for nl in self.layers:
            out = trace.outputs[nl.source].array
            if out.ndim == 3:
                # the float64 sum and division ndarray.mean(axis=(0, 1)) runs
                v = flat[nl.span]
                np.add.reduce(out.reshape(-1, out.shape[-1]), axis=0, dtype=np.float64, out=v)
                v /= nl.map_size
            else:
                flat[nl.span] = out
        return flat

    def scaled(self, trace: ActivationTrace) -> np.ndarray:
        """Every neuron's value for one trace, min-max scaled within its layer
        (see scale_layer), as one float64 vector in ids order."""
        return _scale(self.values(trace), self._starts, self._layer_of)

    def add_value_grads(
        self,
        grads: dict[int, np.ndarray],
        nids: Sequence[NeuronId],
        lam: float,
        acts: list[np.ndarray],
    ):
        """Add the gradient of lam times the sum of the given neurons' values,
        with respect to each source layer's output in a batch-1 forward pass,
        into grads[source], starting from zeros when grads has no entry there:
        lam spread evenly over a conv channel's map. The neurons must be
        distinct, so each element gets one add."""
        units: dict[int, list[int]] = {}
        for nid in nids:
            self.position(nid)  # rejects an id that is not a neuron
            units.setdefault(nid.layer_index, []).append(nid.unit_index)
        for i, us in units.items():
            nl = self._by_layer[i]
            g = grads.get(nl.source)
            if g is None:
                g = grads[nl.source] = np.zeros_like(acts[nl.source])
            g[0, ..., us] += g.dtype.type(lam / nl.map_size)


def all_neurons(model: Model) -> tuple[NeuronId, ...]:
    return model.layout.ids


def neuron_outputs(model: Model, trace: ActivationTrace) -> dict[NeuronId, float]:
    """Observed value of every neuron for one trace."""
    return dict(zip(all_neurons(model), model.layout.values(trace).tolist()))


def _scale(v: np.ndarray, starts: np.ndarray, layer_of: np.ndarray) -> np.ndarray:
    """Min-max scale each segment of v to [0, 1] in one pass; segment k starts
    at starts[k], and layer_of gives each element's segment. A segment whose
    values are all equal scales to +0.0."""
    lo = np.minimum.reduceat(v, starts)[layer_of]
    span = np.maximum.reduceat(v, starts)[layer_of] - lo
    return np.divide(v - lo, span, out=np.zeros_like(v), where=span != 0)


def scale_layer(outputs: Sequence[float]) -> list[float]:
    """Min-max scale one layer's neuron values to [0, 1]; a layer whose values
    are all equal scales to zeros (it cannot self-activate)."""
    if len(outputs) == 0:
        raise ContractViolation("scale_layer needs a non-empty layer")
    v = np.asarray(outputs, dtype=np.float64)
    return _scale(v, np.zeros(1, np.intp), np.zeros(v.size, np.intp)).tolist()


class CoverageTracker:
    """Mutable per-campaign record of which neurons were ever activated.

    _covered flags are monotone; _count counts activating traces; _last_scaled
    remembers each neuron's scaled value from the most recent update. All
    three are flat arrays in layout.ids order.
    """

    def __init__(self, model: Model, activation_threshold: float):
        if not 0 < activation_threshold < 1:
            raise ContractViolation("activation_threshold must be in (0, 1)")
        self.layout = model.layout
        n = len(self.layout.ids)
        if not n:
            raise ContractViolation("model has no dense or conv2d layers")
        self._covered = np.zeros(n, dtype=bool)
        self._count = np.zeros(n, dtype=np.int64)
        self._last_scaled = np.zeros(n, dtype=np.float64)
        self.activation_threshold = float(activation_threshold)

    @property
    def total_neurons(self) -> int:
        return len(self.layout.ids)

    def covered_neurons(self) -> frozenset[NeuronId]:
        return frozenset(self.layout.ids[i] for i in np.flatnonzero(self._covered))

    def covered_count(self) -> int:
        return int(self._covered.sum())


def update(tracker: CoverageTracker, model: Model, trace: ActivationTrace) -> int:
    """Fold one trace into the tracker; returns how many neurons flipped from
    uncovered to covered."""
    if model.layout.layers != tracker.layout.layers:
        raise ContractViolation("tracker was built for a different model")
    scaled = tracker.layout.scaled(trace)
    active = scaled > tracker.activation_threshold
    newly = np.count_nonzero(active & ~tracker._covered)
    tracker._last_scaled[:] = scaled
    tracker._covered |= active
    tracker._count += active
    return int(newly)


def coverage_rate(tracker: CoverageTracker) -> float:
    return tracker.covered_count() / tracker.total_neurons


def _rank_key(tracker: CoverageTracker, strategy: int) -> np.ndarray:
    """Per-neuron sort key of a strategy, in layout.ids order; lower ranks
    first."""
    if strategy == 1:
        return -tracker._count
    if strategy == 2:
        return tracker._count
    if strategy == 3:
        return -tracker.layout.weight_l1  # largest L1 first
    return np.abs(tracker._last_scaled - tracker.activation_threshold)


def select_neurons(
    tracker: CoverageTracker,
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
        if s not in STRATEGIES:
            raise ContractViolation(f"unknown strategy {s}; expected 1-4")
    # flat indices of the candidates; layout.ids order is (layer, unit) order,
    # so the index breaks every tie the way the NeuronId order would
    active = tracker.layout.scaled(trace) > tracker.activation_threshold
    remaining = np.flatnonzero(~active)
    base, rem = divmod(m, len(strategies))
    chosen: list[int] = []
    for pos, strategy in enumerate(strategies):
        quota = base + (1 if pos < rem else 0)
        if quota == 0 or remaining.size == 0:
            continue
        key = _rank_key(tracker, strategy)[remaining]
        order = np.lexsort((remaining, key))
        chosen.extend(remaining[order[:quota]].tolist())
        remaining = remaining[order[quota:]]
    return [tracker.layout.ids[i] for i in chosen]
