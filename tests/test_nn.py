"""Unit tests for forward evaluation and input gradients.

The gradient oracle is double-precision central finite differences; the
forward oracle for convolution is a hand-rolled nested loop. Subgradient
conventions (relu at exactly zero, maxpool ties) are pinned by crafted
inputs whose analytic gradient is known.
"""

import dataclasses

import numpy as np
import pytest

from neurofuzz import architectures, nn
from neurofuzz.coverage import NeuronId
from neurofuzz.errors import ContractViolation
from neurofuzz.tensor import Tensor


def dense_softmax_model(w, b=None, classes=None):
    w = np.asarray(w, dtype=np.float32)
    if b is None:
        b = np.zeros(w.shape[1], dtype=np.float32)
    return nn.Model(
        layers=(nn.dense(Tensor.wrap(w), Tensor.wrap(np.asarray(b, np.float32))), nn.softmax()),
        input_shape=(w.shape[0],),
        num_classes=classes or w.shape[1],
    )


class TestPredict:
    def test_symmetry_gives_uniform_confidences(self):
        model = dense_softmax_model(np.eye(2))
        trace = nn.predict(model, Tensor([0.0, 0.0]))
        np.testing.assert_allclose(trace.confidences.array, [0.5, 0.5], atol=1e-7)

    def test_dominant_logit_wins(self):
        model = dense_softmax_model(np.eye(2))
        trace = nn.predict(model, Tensor([2.0, 0.0]))
        assert trace.predicted_label == 0

    def test_conv_window_sums_nested_loop_oracle(self):
        w = Tensor.wrap(np.ones((3, 3, 1, 1), dtype=np.float32))
        b = Tensor.wrap(np.zeros(1, dtype=np.float32))
        wd = Tensor.wrap(np.ones((4, 2), dtype=np.float32))
        bd = Tensor.wrap(np.zeros(2, dtype=np.float32))
        model = nn.Model(
            layers=(nn.conv2d(w, b), nn.flatten(), nn.dense(wd, bd), nn.softmax()),
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(4, 4, 1)).astype(np.float32)
        trace = nn.predict(model, Tensor.wrap(x))
        conv_out = trace.outputs[0].array
        assert conv_out.shape == (2, 2, 1)
        for i in range(2):
            for j in range(2):
                window_sum = 0.0
                for di in range(3):
                    for dj in range(3):
                        window_sum += float(x[i + di, j + dj, 0])
                assert conv_out[i, j, 0] == pytest.approx(window_sum, rel=1e-5)

    def test_trace_records_every_layer(self):
        model = architectures.build_model("lenet1", rng_seed=0)
        x = Tensor.wrap(np.zeros((28, 28, 1), dtype=np.float32))
        trace = nn.predict(model, x)
        assert len(trace.outputs) == len(model.layers)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(8)
        model = dense_softmax_model(rng.standard_normal((5, 10)) * 50)
        for _ in range(10):
            trace = nn.predict(model, Tensor.wrap(rng.standard_normal(5).astype(np.float32)))
            assert float(trace.confidences.array.sum()) == pytest.approx(1.0, abs=1e-5)

    def test_shape_mismatch_rejected(self):
        model = dense_softmax_model(np.eye(2))
        with pytest.raises(ContractViolation):
            nn.predict(model, Tensor([1.0, 2.0, 3.0]))

    def test_deterministic_bitwise(self):
        model = architectures.build_model("mlp", rng_seed=2)
        rng = np.random.default_rng(4)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        a = nn.predict(model, x)
        b = nn.predict(model, x)
        for oa, ob in zip(a.outputs, b.outputs):
            assert np.array_equal(oa.array, ob.array)


class TestTopKOtherLabels:
    def trace_with(self, confidences):
        t = nn.predict(
            dense_softmax_model(np.eye(len(confidences))),
            Tensor([0.0] * len(confidences)),
        )
        forced = Tensor(np.asarray(confidences, dtype=np.float32))
        return nn.ActivationTrace(input=t.input, outputs=t.outputs[:-1] + (forced,))

    def test_direct_sort(self):
        trace = self.trace_with([0.7, 0.2, 0.1])
        assert nn.top_k_other_labels(trace, 2) == [1, 2]

    def test_tie_prefers_lower_index(self):
        trace = self.trace_with([0.5, 0.5, 0.0])
        assert trace.predicted_label == 0
        assert nn.top_k_other_labels(trace, 2) == [1, 2]

    def test_full_sort_oracle(self):
        rng = np.random.default_rng(19)
        conf = rng.uniform(0, 1, size=10)
        conf /= conf.sum()
        trace = self.trace_with(conf)
        pred = int(np.argmax(conf))
        order = sorted(
            (i for i in range(10) if i != pred), key=lambda i: (-conf[i], i)
        )
        assert nn.top_k_other_labels(trace, 4) == order[:4]

    def test_k_out_of_range(self):
        trace = self.trace_with([0.6, 0.4])
        with pytest.raises(ContractViolation):
            nn.top_k_other_labels(trace, 2)
        with pytest.raises(ContractViolation):
            nn.top_k_other_labels(trace, 0)


class TestObjectiveValue:
    def test_label_term_arithmetic(self):
        model = dense_softmax_model(np.eye(3) * 10)
        # logits 10*x -> pick x so confidences are far apart
        x = Tensor([0.6, 0.3, 0.1])
        trace = nn.predict(model, x)
        conf = trace.confidences.array
        spec = nn.ObjectiveSpec(original_label=0, topk_labels=(1, 2), target_neurons=(), lam=0.0)
        got = nn.objective_value(model, x, spec)
        assert got == pytest.approx(float(conf[1] + conf[2] - conf[0]), abs=1e-6)

    def test_zero_neuron_term(self):
        w = np.eye(2, dtype=np.float32)
        model = nn.Model(
            layers=(
                nn.dense(Tensor.wrap(w), Tensor.wrap(np.zeros(2, np.float32))),
                nn.relu(),
                nn.dense(Tensor.wrap(w), Tensor.wrap(np.zeros(2, np.float32))),
                nn.softmax(),
            ),
            input_shape=(2,),
            num_classes=2,
        )
        x = Tensor([-1.0, -1.0])  # relu output exactly zero
        spec_with = nn.ObjectiveSpec(0, (1,), (NeuronId(0, 0),), lam=1.0)
        spec_without = nn.ObjectiveSpec(0, (1,), (), lam=0.0)
        assert nn.objective_value(model, x, spec_with) == pytest.approx(
            nn.objective_value(model, x, spec_without), abs=1e-7
        )

    def test_term_by_term_oracle(self):
        model = architectures.build_model("mlp", rng_seed=9)
        rng = np.random.default_rng(10)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        trace = nn.predict(model, x)
        c = trace.predicted_label
        topk = tuple(nn.top_k_other_labels(trace, 3))
        targets = (NeuronId(1, 0), NeuronId(1, 5))
        spec = nn.ObjectiveSpec(c, topk, targets, lam=1.0)
        conf = trace.confidences.array
        from neurofuzz.coverage import neuron_outputs

        outs = neuron_outputs(model, trace)
        expected = float(sum(conf[i] for i in topk) - conf[c]) + sum(
            outs[n] for n in targets
        )
        assert nn.objective_value(model, x, spec) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("fn", [nn.objective_value, nn.input_gradient],
                             ids=["objective_value", "input_gradient"])
    @pytest.mark.parametrize("nid", [NeuronId(5, 0), NeuronId(1, 0), NeuronId(0, 2)],
                             ids=["no_such_layer", "softmax_layer", "unit_out_of_range"])
    def test_unknown_neuron_rejected(self, fn, nid):
        # layer 0 is a two-unit dense, layer 1 the softmax
        model = dense_softmax_model(np.eye(2))
        spec = nn.ObjectiveSpec(0, (1,), (nid,), lam=1.0)
        with pytest.raises(ContractViolation, match="not a neuron of this model"):
            fn(model, Tensor([0.1, 0.2]), spec)

    def test_original_in_topk_rejected(self):
        with pytest.raises(ContractViolation):
            nn.ObjectiveSpec(0, (0, 1), (), lam=0.0)

    def test_repeated_target_neuron_rejected(self):
        with pytest.raises(ContractViolation, match="target_neurons must be distinct"):
            nn.ObjectiveSpec(0, (1,), (NeuronId(0, 1), NeuronId(0, 1)), lam=1.0)


def finite_difference(model, x, spec, h=1e-4):
    model64 = model.astype("double")
    base = x.array.astype(np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = nn.objective_value(model64, Tensor.wrap(bumped.reshape(base.shape)), spec)
        bumped[i] -= 2 * h
        down = nn.objective_value(model64, Tensor.wrap(bumped.reshape(base.shape)), spec)
        grad.reshape(-1)[i] = (up - down) / (2 * h)
    return grad


def reference_injection(model, spec, acts):
    """The objective's gradient at each layer output, one add per neuron: the
    label terms, then lam / map size over each target neuron's channel at the
    layer that carries its value (the relu or softmax right after it)."""
    label_layer = len(model.layers) - (2 if spec.use_logits else 1)
    v = np.zeros_like(acts[label_layer])
    for c in spec.topk_labels:
        v[0, c] += 1.0
    v[0, spec.original_label] -= 1.0
    inject = {label_layer: v}
    for nid in spec.target_neurons:
        nxt = nid.layer_index + 1
        observed = nxt < len(model.layers) and model.layers[nxt].kind in ("relu", "softmax")
        source = nxt if observed else nid.layer_index
        g = inject.setdefault(source, np.zeros_like(acts[source]))
        map_size = int(np.prod(acts[source].shape[1:-1]))
        g[0, ..., nid.unit_index] += g.dtype.type(spec.lam / map_size)
    return inject


class TestInputGradient:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("use_logits", [False, True], ids=["confidences", "logits"])
    def test_grouped_injection_matches_per_neuron_adds(self, use_logits, precision):
        model = architectures.build_model("lenet5", rng_seed=5).astype(precision)
        ids = model.layout.ids
        rng = np.random.default_rng(33)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1))).astype(precision)
        trace = nn.predict(model, x)
        acts = [t.array[None, ...] for t in trace.outputs]
        c = trace.predicted_label
        topk = tuple(nn.top_k_other_labels(trace, 4))
        final = model.layout.layers[-1].index
        # the final dense layer's units are read through the softmax, so with
        # confidences they share the label layer's array: one target is a
        # top-k label, one the original label, one neither
        other = next(u for u in range(10) if u != c and u not in topk)
        labels = {NeuronId(final, u) for u in (topk[0], c, other)}
        for lam in (1.0, 0.7, 1 / 3):
            picks = {ids[i] for i in rng.choice(len(ids) - 10, 12, replace=False)}
            spec = nn.ObjectiveSpec(c, topk, tuple(sorted(picks | labels)), lam, use_logits)
            want = reference_injection(model, spec, acts)
            got = reference_injection(model, dataclasses.replace(spec, target_neurons=()), acts)
            model.layout.add_value_grads(got, spec.target_neurons, lam, acts)
            assert sorted(got) == sorted(want)
            for layer in want:
                assert_same_bits(got[layer], want[layer])

    def test_linear_model_exact_column_difference(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        model = dense_softmax_model(w)
        x = Tensor([0.3, -0.2, 0.5, 0.1])
        # logits objective: logit_j - logit_c has exact gradient W[:,j] - W[:,c]
        spec = nn.ObjectiveSpec(0, (2,), (), lam=0.0, use_logits=True)
        got = nn.input_gradient(model, x, spec).array
        np.testing.assert_allclose(got, w[:, 2] - w[:, 0], rtol=1e-6)

    def test_constant_objective_zero_gradient(self):
        # duplicate columns make logit_j - logit_c identically zero
        w = np.zeros((3, 2), dtype=np.float32)
        w[:, 0] = [1.0, -2.0, 0.5]
        w[:, 1] = w[:, 0]
        model = dense_softmax_model(w)
        spec = nn.ObjectiveSpec(0, (1,), (), lam=0.0, use_logits=True)
        got = nn.input_gradient(model, Tensor([0.2, 0.4, 0.6]), spec).array
        np.testing.assert_array_equal(got, np.zeros(3, np.float32))

    def test_lenet_matches_finite_differences(self):
        model = architectures.build_model("lenet1", rng_seed=21).astype("double")
        rng = np.random.default_rng(22)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)))
        trace = nn.predict(model, x)
        spec = nn.ObjectiveSpec(
            trace.predicted_label,
            tuple(nn.top_k_other_labels(trace, 4)),
            (NeuronId(0, 1), NeuronId(3, 2), NeuronId(7, 5)),
            lam=1.0,
        )
        got = nn.input_gradient(model, x, spec).array
        want = finite_difference(model, x, spec)
        mask = np.abs(want) > 1e-6
        assert mask.any()
        rel = np.abs(got[mask] - want[mask]) / np.abs(want[mask])
        assert float(rel.max()) < 1e-3

    def test_relu_zero_at_exactly_zero_preactivation(self):
        # dense produces exactly 0 on unit 0 for x = [1, -1]
        w = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        b = np.array([0.0, 1.0], dtype=np.float32)
        w2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        model = nn.Model(
            layers=(
                nn.dense(Tensor.wrap(w), Tensor.wrap(b)),
                nn.relu(),
                nn.dense(Tensor.wrap(w2), Tensor.wrap(np.zeros(2, np.float32))),
                nn.softmax(),
            ),
            input_shape=(2,),
            num_classes=2,
        )
        x = Tensor([1.0, -1.0])
        pre = nn.predict(model, x).outputs[0].array
        assert pre[0] == 0.0
        # objective = logit_0 - logit_1 flows only through relu unit 0, whose
        # pre-activation is exactly 0 -> gradient must be exactly zero
        spec = nn.ObjectiveSpec(1, (0,), (), lam=0.0, use_logits=True)
        got = nn.input_gradient(model, x, spec).array
        np.testing.assert_array_equal(got, np.zeros(2, np.float32))

    def test_maxpool_tie_routes_to_first_row_major(self):
        # 2x2 input, all equal -> pooled max has a 4-way tie; gradient must
        # land entirely on position (0, 0)
        w = Tensor.wrap(np.ones((1, 1, 1, 1), dtype=np.float32))
        b = Tensor.wrap(np.zeros(1, dtype=np.float32))
        wd = Tensor.wrap(np.array([[1.0, -1.0]], dtype=np.float32))
        bd = Tensor.wrap(np.zeros(2, dtype=np.float32))
        model = nn.Model(
            layers=(
                nn.conv2d(w, b),
                nn.maxpool2d(2),
                nn.flatten(),
                nn.dense(wd, bd),
                nn.softmax(),
            ),
            input_shape=(2, 2, 1),
            num_classes=2,
        )
        x = Tensor.wrap(np.full((2, 2, 1), 0.5, dtype=np.float32))
        spec = nn.ObjectiveSpec(0, (1,), (), lam=0.0, use_logits=True)
        got = nn.input_gradient(model, x, spec).array
        assert got[0, 0, 0] != 0.0
        assert got[0, 1, 0] == 0.0
        assert got[1, 0, 0] == 0.0
        assert got[1, 1, 0] == 0.0

    @pytest.mark.parametrize("use_logits", [False, True], ids=["confidences", "logits"])
    @pytest.mark.parametrize("arch", ["lenet1", "lenet5"])
    def test_trace_reuse_same_bits(self, arch, use_logits):
        model = architectures.build_model(arch, rng_seed=3)
        ids = model.layout.ids
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            trace = nn.predict(model, x)
            # the last dense layer's neurons are read through the softmax, so
            # their gradient lands on the label layer's injection too
            picks = {ids[i] for i in rng.choice(len(ids), 8, replace=False)} | {ids[-1]}
            spec = nn.ObjectiveSpec(
                trace.predicted_label,
                tuple(nn.top_k_other_labels(trace, 4)),
                tuple(sorted(picks)),
                lam=0.7,
                use_logits=use_logits,
            )
            got = nn.input_gradient(model, x, spec, trace).array
            want = nn.input_gradient(model, x, spec).array
            assert_same_bits(got, want)

    def test_trace_of_other_input_rejected(self):
        model = architectures.build_model("lenet1", rng_seed=3)
        rng = np.random.default_rng(32)
        x, y = (Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
                for _ in range(2))
        trace = nn.predict(model, y)
        spec = nn.ObjectiveSpec(
            trace.predicted_label, tuple(nn.top_k_other_labels(trace, 4)), (), lam=0.0
        )
        with pytest.raises(ContractViolation, match="different input"):
            nn.input_gradient(model, x, spec, trace)

    def test_gradient_shape_matches_input(self):
        model = architectures.build_model("lenet4", rng_seed=1)
        rng = np.random.default_rng(6)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        trace = nn.predict(model, x)
        spec = nn.ObjectiveSpec(
            trace.predicted_label, tuple(nn.top_k_other_labels(trace, 4)), (), lam=0.0
        )
        assert nn.input_gradient(model, x, spec).shape == x.shape


def _reference_pool_windows(x, pool):
    """[n, h, w, c] -> [n, oh, ow, ph*pw, c] windows in row-major order,
    cropping the rows and columns that do not fill a window."""
    ph, pw = pool
    n, h, w, c = x.shape
    oh, ow = h // ph, w // pw
    xc = x[:, : oh * ph, : ow * pw, :]
    return xc.reshape(n, oh, ph, ow, pw, c).transpose(0, 1, 3, 2, 4, 5).reshape(
        n, oh, ow, ph * pw, c
    )


def reference_maxpool_forward(x, pool):
    return _reference_pool_windows(x, pool).max(axis=3)


def reference_maxpool_backward(x, g, pool):
    """All the gradient goes to the first maximum of each window (argmax)."""
    ph, pw = pool
    n, h, w, c = x.shape
    oh, ow = h // ph, w // pw
    idx = _reference_pool_windows(x, pool).argmax(axis=3)
    mask = idx[:, :, :, None, :] == np.arange(ph * pw)[None, None, None, :, None]
    dwin = g[:, :, :, None, :] * mask
    dx = np.zeros_like(x)
    dx[:, : oh * ph, : ow * pw, :] = (
        dwin.reshape(n, oh, ow, ph, pw, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, oh * ph, ow * pw, c)
    )
    return dx


class TestMaxpoolKernels:
    """The strided-view maxpool kernels against the reshape-based reference,
    bit for bit, forward and backward."""

    def run_both(self, x, pool, seed=0):
        layer = nn.maxpool2d(pool)
        out = nn._layer_forward(layer, x)
        want_out = reference_maxpool_forward(x, pool)
        assert out.dtype == want_out.dtype
        assert out.tobytes() == want_out.tobytes()
        g = np.random.default_rng(seed).standard_normal(out.shape).astype(x.dtype)
        dx, pg = nn._layer_backward(layer, x, out, g, need_params=True)
        want_dx = reference_maxpool_backward(x, g, pool)
        assert pg is None
        assert dx.dtype == want_dx.dtype
        assert dx.tobytes() == want_dx.tobytes()
        return dx

    def test_batch64_many_channels(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 12, 12, 16)).astype(np.float32)
        self.run_both(x, (2, 2))

    def test_forced_ties_off_the_corner(self):
        # values on a coarse grid tie often; channel 0 forces a three-way tie
        # at (0, 1), (1, 0), (1, 1) in every window and channel 1 a two-way
        # tie at (1, 0), (1, 1), both with the corner (0, 0) smaller
        rng = np.random.default_rng(12)
        x = np.round(rng.uniform(-2, 2, size=(8, 6, 6, 3)) * 2).astype(np.float32) / 2
        x[:, 0::2, 0::2, :2] = -5.0
        x[:, 0::2, 1::2, 0] = 5.0
        x[:, 0::2, 1::2, 1] = -5.0
        x[:, 1::2, :, :2] = 5.0
        x[0, :, :, 2] = 0.0  # a four-way tie among zeros, corner included
        dx = self.run_both(x, (2, 2), seed=1)
        # each tie goes to its first position in row-major order
        assert dx[:, 0::2, 1::2, 0].all()
        assert not dx[:, 1::2, :, 0].any()
        assert dx[:, 1::2, 0::2, 1].all()
        assert not dx[:, 1::2, 1::2, 1].any()
        assert not dx[:, 0::2, :, 1].any()
        assert not dx[:, 0::2, 0::2, :2].any()
        assert dx[0, 0::2, 0::2, 2].all()
        assert np.count_nonzero(dx[0, :, :, 2]) == 9

    def test_odd_size_crops_last_row_and_column(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 7, 7, 2)).astype(np.float32)
        x[:, 6, :, :] = 100.0  # larger than anything in a window, but cropped
        x[:, :, 6, :] = 100.0
        dx = self.run_both(x, (2, 2), seed=2)
        assert not dx[:, 6, :, :].any()
        assert not dx[:, :, 6, :].any()

    def test_non_square_pool(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 8, 10, 4)).astype(np.float32)
        x[:, 1::2, 2::3, :] = x[:, 0::2, 1::3, :]  # ties at (0, 1) and (1, 2)
        self.run_both(x, (2, 3), seed=3)

    def test_double_precision(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 6, 6, 3))
        self.run_both(x, (3, 2), seed=4)


def reference_im2col(x, kh, kw, stride):
    """im2col through sliding_window_view: [n, oh, ow, kh*kw*c], each
    window flattened in (ki, kj, c) order."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [n, oh, ow, c, kh, kw]
    n, oh, ow = win.shape[:3]
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3).reshape(n, oh, ow, -1))


def reference_col2im(dcols, shape, stride):
    """col2im as one strided += per kernel offset, in (ki, kj) order."""
    _, oh, ow, kh, kw, _ = dcols.shape
    s = stride
    dx = np.zeros(shape, dcols.dtype)
    for ki in range(kh):
        for kj in range(kw):
            dx[:, ki : ki + s * oh : s, kj : kj + s * ow : s, :] += dcols[:, :, :, ki, kj, :]
    return dx


def bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


# (h, w, in_ch, kh, kw, out_ch, stride): lenet1's two convolutions, and a
# stride-2 one whose windows leave the last row and column uncovered
CONV_GEOMETRIES = {
    "lenet1_conv1": (28, 28, 1, 5, 5, 4, 1),
    "lenet1_conv2": (12, 12, 4, 5, 5, 12, 1),
    "stride2": (12, 10, 3, 3, 3, 5, 2),
}


class TestConvKernels:
    """The im2col and col2im kernels against the sliding_window_view and
    per-offset loop references, bit for bit. Batch 1 is the fuzzer's, 64
    the trainer's, and 16 the last batch of a 2000-image shard."""

    def conv_layer(self, geometry, dtype):
        _, _, c, kh, kw, oc, stride = geometry
        rng = np.random.default_rng(0)
        w = rng.standard_normal((kh, kw, c, oc)).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype)
        return nn.conv2d(Tensor.wrap(w), Tensor.wrap(b), stride)

    def run_both(self, layer, x, seed=1):
        kh, kw, c, oc = layer.weights.shape
        cols, oh, ow = nn._im2col(x, layer)
        want_cols = reference_im2col(x, kh, kw, layer.stride)
        assert (oh, ow) == want_cols.shape[1:3]
        assert_same_bits(cols, want_cols)

        g = np.random.default_rng(seed).standard_normal((x.shape[0], oh, ow, oc)).astype(x.dtype)
        dx, _ = nn._conv2d_backward(layer, x, g, True, True, cols)
        wmat = layer.weights.array.reshape(kh * kw * c, oc)
        dcols = (g.reshape(-1, oc) @ wmat.T).reshape(x.shape[0], oh, ow, kh, kw, c)
        assert_same_bits(dx, reference_col2im(dcols, x.shape, layer.stride))

    @pytest.mark.parametrize("batch", [1, 16, 64])
    @pytest.mark.parametrize("name", list(CONV_GEOMETRIES))
    def test_geometry_and_batch(self, name, batch):
        geometry = CONV_GEOMETRIES[name]
        h, w, c = geometry[:3]
        x = np.random.default_rng(batch).uniform(-1, 1, size=(batch, h, w, c))
        self.run_both(self.conv_layer(geometry, np.float32), x.astype(np.float32))

    @pytest.mark.parametrize("name", list(CONV_GEOMETRIES))
    def test_double_precision_model(self, name):
        geometry = CONV_GEOMETRIES[name]
        h, w, c = geometry[:3]
        x = np.random.default_rng(7).standard_normal((3, h, w, c))
        self.run_both(self.conv_layer(geometry, np.float64), x)

    def test_non_contiguous_input(self):
        geometry = CONV_GEOMETRIES["lenet1_conv2"]
        wide = np.random.default_rng(8).standard_normal((4, 24, 12, 8)).astype(np.float32)
        x = wide[:, ::2, :, 2:6]  # [4, 12, 12, 4], strided in h and c
        assert not x.flags.c_contiguous
        self.run_both(self.conv_layer(geometry, np.float32), x)
        self.run_both(self.conv_layer(geometry, np.float32), np.asfortranarray(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(CONV_GEOMETRIES))
    def test_col2im_order_signed_zeros_and_cancellation(self, name, dtype):
        h, w, c, kh, kw, _, s = CONV_GEOMETRIES[name]
        oh, ow = (h - kh) // s + 1, (w - kw) // s + 1
        rng = np.random.default_rng(9)
        shape = (5, oh, ow, kh, kw, c)
        # a wide spread of magnitudes makes every sum depend on its order
        dcols = (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)).astype(dtype)
        # the first and last kernel offsets cancel exactly, with small terms
        # between them that survive only if they are added in (ki, kj) order
        big = dtype(2.0 ** (np.finfo(dtype).nmant + 2))
        dcols[1, :, :, 0, 0, :] = big
        dcols[1, :, :, kh - 1, kw - 1, :] = -big
        # terms that meet on one input row and cancel exactly: kernel row s
        # of window oh and kernel row 0 of window oh + 1
        dcols[2, 1:, :, 0] = -dcols[2, :-1, :, s]
        dcols[3] = -0.0  # every term -0.0: the sum starts from +0.0
        dcols[4, ::2] = -0.0
        dx = nn._col2im(dcols, (5, h, w, c), s)
        assert_same_bits(dx, reference_col2im(dcols, (5, h, w, c), s))
        assert not np.signbit(dx[3]).any()


class TestModelValidation:
    def test_dense_shape_chain_error_names_layer(self):
        w1 = Tensor.wrap(np.ones((4, 3), dtype=np.float32))
        b1 = Tensor.wrap(np.zeros(3, dtype=np.float32))
        w2 = Tensor.wrap(np.ones((5, 2), dtype=np.float32))  # wants 5, gets 3
        b2 = Tensor.wrap(np.zeros(2, dtype=np.float32))
        with pytest.raises(ContractViolation, match="layer 1"):
            nn.Model(
                layers=(nn.dense(w1, b1), nn.dense(w2, b2), nn.softmax()),
                input_shape=(4,),
                num_classes=2,
            )

    def test_final_layer_must_be_softmax(self):
        w = Tensor.wrap(np.ones((2, 2), dtype=np.float32))
        b = Tensor.wrap(np.zeros(2, dtype=np.float32))
        with pytest.raises(ContractViolation):
            nn.Model(layers=(nn.dense(w, b),), input_shape=(2,), num_classes=2)

    def test_mixed_precision_rejected(self):
        w1 = Tensor.wrap(np.ones((2, 2), dtype=np.float32))
        w2 = Tensor.wrap(np.ones((2, 2), dtype=np.float64))
        b1 = Tensor.wrap(np.zeros(2, dtype=np.float32))
        b2 = Tensor.wrap(np.zeros(2, dtype=np.float64))
        with pytest.raises(ContractViolation):
            nn.Model(
                layers=(nn.dense(w1, b1), nn.dense(w2, b2), nn.softmax()),
                input_shape=(2,),
                num_classes=2,
            )

    def test_param_layers_require_weights(self):
        with pytest.raises(ContractViolation):
            nn.dense(None, None)

    def test_nonparam_layers_reject_weights(self):
        w = Tensor.wrap(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ContractViolation):
            nn.Layer("relu", weights=w)
