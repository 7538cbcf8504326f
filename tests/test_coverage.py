"""Unit tests for neuron identity, per-layer scaling, campaign coverage
tracking, and the four neuron-selection strategies.

The set-union oracle recomputes the covered set from scratch for every trace,
so tracker bookkeeping is checked against an independent implementation.
"""

import dataclasses

import numpy as np
import pytest

import workloads
from neurofuzz import architectures, nn
from neurofuzz.coverage import (
    CoverageTracker,
    NeuronId,
    all_neurons,
    coverage_rate,
    neuron_outputs,
    scale_layer,
    select_neurons,
    update,
)
from neurofuzz.errors import ContractViolation
from neurofuzz.fuzzer import FuzzConfig, fuzz_corpus
from neurofuzz.model_io import load_model
from neurofuzz.tensor import Tensor


def toy_dense_model(units=3, classes=2, seed=0):
    """input(4) -> dense(units) -> relu -> dense(classes) -> softmax."""
    rng = np.random.default_rng(seed)
    w1 = Tensor.wrap(rng.standard_normal((4, units)).astype(np.float32))
    b1 = Tensor.wrap(rng.standard_normal(units).astype(np.float32))
    w2 = Tensor.wrap(rng.standard_normal((units, classes)).astype(np.float32))
    b2 = Tensor.wrap(rng.standard_normal(classes).astype(np.float32))
    return nn.Model(
        layers=(
            nn.dense(w1, b1),
            nn.relu(),
            nn.dense(w2, b2),
            nn.softmax(),
        ),
        input_shape=(4,),
    )


def rand_input(model, rng):
    return Tensor.wrap(rng.uniform(0, 1, size=model.input_shape).astype(np.float32))


class TestNeuronLayout:
    def test_lenet1_layers(self):
        layout = architectures.build_model("lenet1").layout
        # conv 0 seen through relu 1 (24x24 maps), conv 3 through relu 4
        # (8x8 maps), dense 7 through the softmax at 8
        assert [tuple(nl) for nl in layout.layers] == [
            (0, 1, slice(0, 4), 576),
            (3, 4, slice(4, 16), 64),
            (7, 8, slice(16, 26), 1),
        ]
        assert layout.ids[4] == NeuronId(3, 0)
        assert layout.index[NeuronId(7, 9)] == 25

    def test_built_once_per_model(self, monkeypatch):
        built = []
        real = nn.NeuronLayout

        def counting(model):
            built.append(model)
            return real(model)

        monkeypatch.setattr(nn, "NeuronLayout", counting)
        model = architectures.build_model("lenet1", rng_seed=1)
        rng = np.random.default_rng(5)
        inputs = [rand_input(model, rng) for _ in range(3)]
        fuzz_corpus(model, inputs, FuzzConfig(strategies=(1, 2, 3, 4)))
        fuzz_corpus(model, inputs, FuzzConfig(), mutation="random")
        assert len(built) == 1 and built[0] is model


class TestNeuronOutputs:
    def test_dense_outputs_copied(self):
        model = toy_dense_model(units=2)
        x = Tensor([0.1, 0.2, 0.3, 0.4])
        trace = nn.predict(model, x)
        outs = neuron_outputs(model, trace)
        # dense layer 0 observed through the relu at layer 1
        relu_out = trace.outputs[1].array
        assert outs[NeuronId(0, 0)] == pytest.approx(float(relu_out[0]))
        assert outs[NeuronId(0, 1)] == pytest.approx(float(relu_out[1]))

    def test_conv_channel_is_feature_map_mean(self):
        # one 2x2 all-ones kernel over a 3x3 input, no activation layer after
        w = Tensor.wrap(np.ones((2, 2, 1, 1), dtype=np.float32))
        b = Tensor.wrap(np.zeros(1, dtype=np.float32))
        wd = Tensor.wrap(np.ones((4, 2), dtype=np.float32))
        bd = Tensor.wrap(np.zeros(2, dtype=np.float32))
        model = nn.Model(
            layers=(nn.conv2d(w, b), nn.flatten(), nn.dense(wd, bd), nn.softmax()),
            input_shape=(3, 3, 1),
        )
        x = Tensor.wrap(
            np.array(
                [[[0.0], [1.0], [2.0]], [[3.0], [4.0], [5.0]], [[6.0], [7.0], [8.0]]],
                dtype=np.float32,
            )
        )
        trace = nn.predict(model, x)
        # window sums: [[8, 12], [20, 24]] -> mean 16
        assert neuron_outputs(model, trace)[NeuronId(0, 0)] == pytest.approx(16.0)

    def test_matches_per_neuron_loop_oracle(self):
        model = architectures.build_model("lenet1", rng_seed=1)
        rng = np.random.default_rng(2)
        trace = nn.predict(model, rand_input(model, rng))
        outs = neuron_outputs(model, trace)
        for (layer_index, units) in [(0, 4), (3, 12), (7, 10)]:
            # observed activation layer directly follows each of these
            observed = trace.outputs[layer_index + 1].array
            for u in range(units):
                if observed.ndim == 3:
                    expected = float(np.float64(observed[:, :, u].astype(np.float64).mean()))
                else:
                    expected = float(observed[u])
                assert outs[NeuronId(layer_index, u)] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("arch", ["lenet1", "lenet5"])
    def test_channel_means_match_ndarray_mean_bits(self, arch, precision):
        model = architectures.build_model(arch, rng_seed=4).astype(precision)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = Tensor.wrap(rng.uniform(0, 1, size=model.input_shape)).astype(precision)
            trace = nn.predict(model, x)
            flat = model.layout.values(trace)
            for nl in model.layout.layers:
                out = trace.outputs[nl.source].array
                if out.ndim == 3:
                    want = out.mean(axis=(0, 1), dtype=np.float64)
                else:
                    want = out.astype(np.float64)
                assert flat[nl.span].tobytes() == want.tobytes()


class TestScaleLayer:
    def test_affine_map(self):
        assert scale_layer([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_degenerate_all_equal(self):
        assert scale_layer([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(17)
        vals = rng.standard_normal(20).tolist()
        lo, hi = min(vals), max(vals)
        got = scale_layer(vals)
        for g, v in zip(got, vals):
            assert g == pytest.approx((v - lo) / (hi - lo), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            scale_layer([])


class TestTrackerUpdate:
    def test_threshold_splits_layer(self):
        # dense layer with one unit above and one below threshold after scaling
        model = toy_dense_model(units=2, seed=4)
        tracker = CoverageTracker(model, 0.25)
        rng = np.random.default_rng(9)
        # scan for a trace whose first layer scales to exactly one activation:
        # scaled outputs of a 2-unit layer are always {0, 1}, so any
        # non-degenerate trace covers exactly the max unit
        trace = nn.predict(model, rand_input(model, rng))
        newly = update(tracker, model, trace)
        # layout.ids order puts the first layer's two units first
        assert tracker.layout.ids[:2] == (NeuronId(0, 0), NeuronId(0, 1))
        assert np.count_nonzero(tracker._count[:2]) == 1
        assert newly == len(activated(model, trace, 0.25))

    def test_repeat_trace_monotone_counts(self):
        model = toy_dense_model(seed=6)
        tracker = CoverageTracker(model, 0.25)
        trace = nn.predict(model, Tensor([0.9, 0.1, 0.4, 0.7]))
        first = update(tracker, model, trace)
        again = update(tracker, model, trace)
        assert first >= 1
        assert again == 0
        # the neurons the first update covered, each counted twice, and no other
        assert tracker.covered_count() == first
        assert set(tracker._count.tolist()) <= {0, 2}

    def test_hundred_random_traces_set_union_oracle(self):
        model = architectures.build_model("mlp", rng_seed=7)
        tracker = CoverageTracker(model, 0.25)
        rng = np.random.default_rng(21)
        union = set()
        rate_prev = 0.0
        for _ in range(100):
            trace = nn.predict(model, rand_input(model, rng))
            update(tracker, model, trace)
            union |= activated(model, trace, 0.25)
            rate = coverage_rate(tracker)
            assert rate >= rate_prev
            rate_prev = rate
        assert tracker.covered_neurons() == union

    def test_newly_equals_rate_delta_times_total(self):
        model = toy_dense_model(units=5, classes=3, seed=8)
        tracker = CoverageTracker(model, 0.25)
        rng = np.random.default_rng(12)
        for _ in range(10):
            before = coverage_rate(tracker)
            newly = update(tracker, model, nn.predict(model, rand_input(model, rng)))
            after = coverage_rate(tracker)
            assert newly == round((after - before) * tracker.total_neurons)

    def test_foreign_model_rejected(self):
        tracker = CoverageTracker(toy_dense_model(seed=1), 0.25)
        other = toy_dense_model(units=4, seed=2)
        trace = nn.predict(other, Tensor([0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ContractViolation):
            update(tracker, other, trace)

    def test_total_neurons_lenet1(self):
        model = architectures.build_model("lenet1")
        assert CoverageTracker(model, 0.25).total_neurons == 26
        assert len(all_neurons(model)) == 26


class TestCoverageRate:
    def test_zero_covered(self):
        model = architectures.build_model("lenet1")
        assert coverage_rate(CoverageTracker(model, 0.25)) == 0.0

    def test_half_covered(self):
        model = toy_dense_model(units=2, classes=2, seed=3)
        tracker = CoverageTracker(model, 0.25)
        # force exactly 2 of 4 covered via direct bookkeeping
        tracker._count[:2] = 1
        assert coverage_rate(tracker) == 0.5

    def test_recount_oracle_after_campaign(self):
        model = toy_dense_model(units=6, classes=4, seed=10)
        tracker = CoverageTracker(model, 0.25)
        rng = np.random.default_rng(33)
        for _ in range(25):
            update(tracker, model, nn.predict(model, rand_input(model, rng)))
        covered = sum(bool(c) for c in tracker._count)
        assert coverage_rate(tracker) == covered / tracker.total_neurons


def three_neuron_tracker():
    """Tracker over a model whose first dense layer has units A=0, B=1, C=2;
    tests poke counts/last-scaled directly to stage strategy inputs."""
    model = toy_dense_model(units=3, classes=2, seed=0)
    tracker = CoverageTracker(model, 0.25)
    return model, tracker


def first_layer_ids():
    return NeuronId(0, 0), NeuronId(0, 1), NeuronId(0, 2)


def stage(tracker, counts=None, last_scaled=None):
    for nid, value in (counts or {}).items():
        tracker._count[tracker.layout.ids.index(nid)] = value
    for nid, value in (last_scaled or {}).items():
        tracker._last_scaled[tracker.layout.ids.index(nid)] = value


class FakeTrace:
    pass


class TestSelectNeurons:
    def pick(self, tracker, model, strategy, m, trace):
        return select_neurons(tracker, (strategy,), m, trace)

    def quiet_trace(self, model):
        # all-zero input: first dense layer outputs its bias; craft not needed,
        # only the candidate pool matters, so use a real trace and restrict
        # assertions to the first layer
        return nn.predict(model, Tensor([0.0, 0.0, 0.0, 0.0]))

    def test_strategy1_max_count(self):
        model, tracker = three_neuron_tracker()
        a, b, c = first_layer_ids()
        stage(tracker, counts={a: 5, b: 1, c: 3})
        trace = self.quiet_trace(model)
        candidates = set(tracker.layout.ids) - activated(model, trace, 0.25)
        assert {a, b, c} <= candidates
        got = self.pick(tracker, model, 1, 1, trace)
        assert got == [a]

    def test_strategy2_min_count(self):
        model, tracker = three_neuron_tracker()
        a, b, c = first_layer_ids()
        stage(tracker, counts={a: 5, b: 1, c: 3})
        trace = self.quiet_trace(model)
        # strategy 2 prefers B (count 1) over the never-touched later layer
        # only when counts are lowest; stage the second layer high to isolate
        for k, nid in enumerate(tracker.layout.ids):
            if nid not in (a, b, c):
                tracker._count[k] = 10
        got = self.pick(tracker, model, 2, 1, trace)
        assert got == [b]

    def test_strategy4_nearest_threshold(self):
        model, tracker = three_neuron_tracker()
        a, b, c = first_layer_ids()
        stage(tracker, last_scaled={a: 0.24, b: 0.9, c: 0.5})
        for k, nid in enumerate(tracker.layout.ids):
            if nid not in (a, b, c):
                tracker._last_scaled[k] = 1.0
        trace = self.quiet_trace(model)
        got = self.pick(tracker, model, 4, 1, trace)
        assert got == [a]

    def test_strategy3_weight_magnitude(self):
        model, tracker = three_neuron_tracker()
        trace = self.quiet_trace(model)
        got = self.pick(tracker, model, 3, len(tracker.layout.ids), trace)
        w1 = model.layers[0].weights.array
        w2 = model.layers[2].weights.array
        score = {}
        for u in range(3):
            score[NeuronId(0, u)] = float(np.abs(w1[:, u]).sum())
        for u in range(2):
            score[NeuronId(2, u)] = float(np.abs(w2[:, u]).sum())
        candidates = set(tracker.layout.ids) - activated(model, trace, 0.25)
        expected = sorted(
            candidates, key=lambda n: (-score[n], n.layer_index, n.unit_index)
        )
        assert got == expected

    def test_ties_break_by_layer_then_unit(self):
        model, tracker = three_neuron_tracker()
        trace = self.quiet_trace(model)
        # all counts equal -> strategy 1 must fall back to id order
        got = self.pick(tracker, model, 1, 3, trace)
        assert got == sorted(got)

    def test_excludes_currently_activated(self):
        model, tracker = three_neuron_tracker()
        rng = np.random.default_rng(2)
        trace = nn.predict(model, rand_input(model, rng))
        active = activated(model, trace, 0.25)
        candidates = set(tracker.layout.ids) - active
        got = select_neurons(tracker, (1, 2, 3, 4), 4, trace)
        assert not (set(got) & active)
        assert len(got) == len(set(got)) == min(4, len(candidates))

    def test_multi_strategy_split_remainder_to_earlier(self):
        model, tracker = three_neuron_tracker()
        a, b, c = first_layer_ids()
        stage(tracker, counts={a: 5, b: 1, c: 3})
        for k, nid in enumerate(tracker.layout.ids):
            if nid not in (a, b, c):
                tracker._count[k] = 4
        trace = self.quiet_trace(model)
        got = select_neurons(tracker, (1, 2), 3, trace)
        # strategy 1 gets 2 picks (remainder), strategy 2 gets 1
        assert got[0] == a
        assert b in got[2:] or got[1] == b or b in got

    def test_fewer_candidates_than_m_returns_all(self):
        model, tracker = three_neuron_tracker()
        trace = self.quiet_trace(model)
        candidates = set(tracker.layout.ids) - activated(model, trace, 0.25)
        got = select_neurons(tracker, (1,), 100, trace)
        assert set(got) == candidates
        assert len(got) == len(candidates)

    def test_deterministic(self):
        model, tracker = three_neuron_tracker()
        rng = np.random.default_rng(14)
        trace = nn.predict(model, rand_input(model, rng))
        first = select_neurons(tracker, (1, 3), 4, trace)
        second = select_neurons(tracker, (1, 3), 4, trace)
        assert first == second

    def test_trace_of_another_model_rejected(self):
        # the tracker's layout reads the trace, so a lenet5 trace against a
        # lenet1 tracker is refused by name, not by an IndexError
        tracker = CoverageTracker(architectures.build_model("lenet1"), 0.25)
        other = architectures.build_model("lenet5")
        trace = nn.predict(other, rand_input(other, np.random.default_rng(15)))
        with pytest.raises(ContractViolation, match="trace does not match"):
            select_neurons(tracker, (1, 2, 3, 4), 4, trace)


# ---------------------------------------------------------------------------
# reference: the dict-per-trace bookkeeping the flat arrays replaced


def ref_neuron_layers(model):
    """(layer index, observed layer index, units) of every dense and conv2d
    layer, read off model.layers: a neuron is observed through the relu or
    softmax directly after its layer, else through the layer itself."""
    out = []
    for i, layer in enumerate(model.layers):
        if layer.kind in ("dense", "conv2d"):
            after = model.layers[i + 1].kind if i + 1 < len(model.layers) else None
            observed = i + 1 if after in ("relu", "softmax") else i
            out.append((i, observed, layer.weights.shape[-1]))
    return out


def ref_scaled_by_neuron(model, trace):
    """Per-neuron dict of min-max scaled values, built one layer at a time."""
    scaled = {}
    for li, observed, units in ref_neuron_layers(model):
        out = trace.outputs[observed].array
        vals = out.mean(axis=(0, 1), dtype=np.float64) if out.ndim == 3 else out
        arr = np.asarray([float(vals[u]) for u in range(units)], dtype=np.float64)
        lo, hi = arr.min(), arr.max()
        layer = [0.0] * units if hi == lo else list((arr - lo) / (hi - lo))
        for u in range(units):
            scaled[NeuronId(li, u)] = layer[u]
    return scaled


def activated(model, trace, threshold):
    """Neurons the dict reference scales past the threshold for one trace."""
    return {n for n, s in ref_scaled_by_neuron(model, trace).items() if s > threshold}


def ref_update(tracker, model, trace):
    flat = {n: k for k, n in enumerate(tracker.layout.ids)}
    before = tracker.covered_count()
    for nid, s in ref_scaled_by_neuron(model, trace).items():
        i = flat[nid]
        tracker._last_scaled[i] = s
        if s > tracker.activation_threshold:
            tracker._count[i] += 1
    return tracker.covered_count() - before


def ref_select(tracker, model, strategies, m, trace):
    t = tracker.activation_threshold
    flat = {n: k for k, n in enumerate(tracker.layout.ids)}
    count = {n: int(tracker._count[k]) for n, k in flat.items()}
    last = {n: float(tracker._last_scaled[k]) for n, k in flat.items()}
    scores = {}
    for li, _, units in ref_neuron_layers(model):
        w = np.abs(model.layers[li].weights.array.astype(np.float64))
        mag = w.sum(axis=tuple(range(w.ndim - 1)))
        for u in range(units):
            scores[NeuronId(li, u)] = float(mag[u])
    keys = {
        1: lambda n: (-count[n], n.layer_index, n.unit_index),
        2: lambda n: (count[n], n.layer_index, n.unit_index),
        3: lambda n: (-scores[n], n.layer_index, n.unit_index),
        4: lambda n: (abs(last[n] - t), n.layer_index, n.unit_index),
    }
    scaled = ref_scaled_by_neuron(model, trace)
    remaining = [n for n in tracker.layout.ids if not scaled[n] > t]
    base, rem = divmod(m, len(strategies))
    chosen = []
    for pos, strategy in enumerate(strategies):
        quota = base + (1 if pos < rem else 0)
        if quota == 0 or not remaining:
            continue
        remaining.sort(key=keys[strategy])
        chosen.extend(remaining[:quota])
        remaining = remaining[quota:]
    return chosen


def lenet5_with_tied_units():
    """lenet5 whose conv1 channel 0 and dense-1 unit 0 are copied into
    other units, so those units tie on weight score and on their outputs."""
    model = architectures.build_model("lenet5", rng_seed=3)
    layers = list(model.layers)
    dense_index = next(i for i, layer in enumerate(layers) if layer.kind == "dense")
    for li, copies in ((0, (2, 4)), (dense_index, (5, 9, 30))):
        w = layers[li].weights.array.copy()
        b = layers[li].bias.array.copy()
        for u in copies:
            w[..., u] = w[..., 0]
            b[u] = b[0]
        layers[li] = dataclasses.replace(
            layers[li], weights=Tensor.wrap(w), bias=Tensor.wrap(b)
        )
    return nn.Model(layers=tuple(layers), input_shape=model.input_shape)


def with_flat_layers(model, trace, rng):
    """The trace with lenet5's first conv layer observing one constant, its
    first dense layer zeros of both signs (equal values, so also a constant
    layer), and its second dense layer both zeros among larger values."""
    outputs = [t.array.copy() for t in trace.outputs]
    const, zeros, mixed = (model.layout.layers[k].source for k in (0, 2, 3))
    outputs[const][...] = 0.5
    outputs[zeros][...] = rng.choice([-0.0, 0.0], size=outputs[zeros].shape)
    outputs[mixed][...] = rng.choice([-0.0, 0.0, 0.5, 2.0], size=outputs[mixed].shape)
    return nn.ActivationTrace(trace.input, tuple(Tensor.wrap(o) for o in outputs))


def assert_matches_reference(flat_layers):
    """update and select_neurons on each of six lenet5 traces, bit for bit
    against the dict reference; flat_layers edits the traces with
    with_flat_layers."""
    model = lenet5_with_tied_units()
    tracker = CoverageTracker(model, 0.25)
    ref = CoverageTracker(model, 0.25)
    n = tracker.total_neurons
    rng = np.random.default_rng(61)
    for _ in range(6):
        trace = nn.predict(model, rand_input(model, rng))
        if flat_layers:
            trace = with_flat_layers(model, trace, rng)
        # few distinct values, so most neurons tie on count and on their
        # distance to the threshold (0.125 and 0.375 are equally near)
        counts = rng.integers(0, 3, size=n)
        last = rng.choice([0.0, 0.125, 0.25, 0.375, 1.0], size=n)
        for t in (tracker, ref):
            t._count[:] = counts
            t._last_scaled[:] = last
        assert update(tracker, model, trace) == ref_update(ref, model, trace)
        for name in ("_count", "_last_scaled"):
            assert getattr(tracker, name).tobytes() == getattr(ref, name).tobytes()

        tracker._last_scaled[:] = last
        for strategies in ((1,), (2,), (3,), (4,), (1, 2, 3, 4), (3, 1)):
            for m in (1, 10, n):
                got = select_neurons(tracker, strategies, m, trace)
                assert got == ref_select(tracker, model, strategies, m, trace)


class TestFlatArraysMatchDictReference:
    def test_update_and_select_match_reference(self):
        assert_matches_reference(flat_layers=False)

    def test_equal_valued_and_signed_zero_layers_match_reference(self):
        assert_matches_reference(flat_layers=True)

    def test_equal_valued_layer_scales_to_positive_zeros(self):
        # v - lo gives -0.0 where v is -0.0 and lo is +0.0; a layer whose
        # values are all equal must still scale to +0.0 throughout
        model = lenet5_with_tied_units()
        rng = np.random.default_rng(62)
        for _ in range(10):
            trace = with_flat_layers(model, nn.predict(model, rand_input(model, rng)), rng)
            scaled = model.layout.scaled(trace)
            for nl in (model.layout.layers[0], model.layout.layers[2]):
                zeros = np.zeros(nl.span.stop - nl.span.start)
                assert scaled[nl.span].tobytes() == zeros.tobytes()


# ---------------------------------------------------------------------------
# stacked scaling: NeuronLayout.scaled_rows and the rows predict attaches


def one_channel_conv_model():
    """conv2d with a single output channel -> relu -> flatten -> dense ->
    softmax: the channel axis has length 1, so the float64 channel sum
    reduces the inner axis of the stacked outputs."""
    rng = np.random.default_rng(9)
    w = Tensor.wrap(rng.standard_normal((3, 3, 1, 1)).astype(np.float32))
    b = Tensor.wrap(np.full(1, 0.1, dtype=np.float32))
    wd = Tensor.wrap(rng.standard_normal((26 * 26, 4)).astype(np.float32))
    bd = Tensor.wrap(rng.standard_normal(4).astype(np.float32))
    return nn.Model(
        layers=(nn.conv2d(w, b), nn.relu(), nn.flatten(), nn.dense(wd, bd), nn.softmax()),
        input_shape=(28, 28, 1),
    )


def stacked_model(name):
    if name == "one-channel-conv":
        return one_channel_conv_model()
    return load_model(workloads.fixture_path(name.removesuffix("-fixture")))


def ref_scaled(model, trace):
    return np.array(list(ref_scaled_by_neuron(model, trace).values()), dtype=np.float64)


class TestStackedScaling:
    """Each row of a stacked pass's scaled matrix against the trace scaled
    alone, byte for byte; the row predict attaches, and when it is read."""

    @pytest.mark.parametrize("name", ["lenet1-fixture", "lenet5-fixture", "one-channel-conv"])
    def test_rows_equal_lone_scaled(self, name, test_split):
        model = stacked_model(name)
        layout = model.layout
        xs = [test_split.image(i) for i in range(7)]
        for n in (1, 2, 3, 7):
            acts = nn._forward(model, np.stack([x.array for x in xs[:n]]), each=True)
            rows = layout.scaled_rows(acts)
            assert rows.shape == (n, len(layout.ids)) and rows.dtype == np.float64
            for x, row in zip(xs, rows):
                lone = nn.predict(model, x)
                alone = layout.scaled(nn.ActivationTrace(x, lone.outputs))
                assert row.tobytes() == alone.tobytes()
                assert row.tobytes() == lone.scaled_row.tobytes()
                assert row.tobytes() == ref_scaled(model, lone).tobytes()

    def test_predict_each_attaches_its_row(self, test_split):
        model = stacked_model("lenet5-fixture")
        xs = [test_split.image(i) for i in range(5)]
        for trace, x in zip(nn.predict_each(model, xs), xs):
            assert trace.scaled_by is model.layout
            assert model.layout.scaled(trace) is trace.scaled_row
            assert trace.scaled_row.tobytes() == nn.predict(model, x).scaled_row.tobytes()

    def test_twin_model_recomputes(self, monkeypatch):
        # a twin Model has the same layers but its own layout; a row the
        # other layout attached must not be read as its own
        model = architectures.build_model("lenet1", rng_seed=2)
        twin = nn.Model(model.layers, model.input_shape)
        assert twin.layout is not model.layout
        trace = nn.predict(model, rand_input(model, np.random.default_rng(3)))
        poisoned = dataclasses.replace(trace, scaled_row=np.full(len(model.layout.ids), 7.0))
        assert model.layout.scaled(poisoned) is poisoned.scaled_row
        got = twin.layout.scaled(poisoned)
        assert got.tobytes() == trace.scaled_row.tobytes()
        assert got.tobytes() == ref_scaled(model, trace).tobytes()

    def test_hand_built_trace_scales(self):
        model = architectures.build_model("lenet5", rng_seed=2)
        trace = nn.predict(model, rand_input(model, np.random.default_rng(4)))
        built = nn.ActivationTrace(trace.input, trace.outputs)
        assert built.scaled_row is None and built.scaled_by is None
        assert built == trace
        assert model.layout.scaled(built).tobytes() == trace.scaled_row.tobytes()

    def test_attached_rows_read_only(self):
        model = architectures.build_model("lenet1", rng_seed=2)
        rng = np.random.default_rng(5)
        xs = [rand_input(model, rng) for _ in range(3)]
        acts = nn._forward(model, np.stack([x.array for x in xs]), each=True)
        assert not model.layout.scaled_rows(acts).flags.writeable
        for trace in [nn.predict(model, xs[0]), *nn.predict_each(model, xs)]:
            with pytest.raises(ValueError):
                trace.scaled_row[0] = 1.0
