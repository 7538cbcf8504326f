"""Unit tests for the mutation loop: gradient processing, distance gating,
seed keeping, adversarial detection, campaign reports, and determinism.

The linear-boundary case constructs a classifier whose decision boundary is
a known analytic distance from the input, so exactly one flip is provable.
"""

import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from neurofuzz import architectures, nn
from neurofuzz import fuzzer as fz
from neurofuzz.cli import _pick_inputs
from neurofuzz.coverage import CoverageTracker, coverage_rate, select_neurons, update
from neurofuzz.errors import ContractViolation
from neurofuzz.fuzzer import (
    AdversarialRecord,
    CampaignReport,
    CoveragePoint,
    FuzzConfig,
    _fuzz_one,
    fuzz_corpus,
    process_gradient,
    read_campaign_records,
    relative_distance,
    write_campaign_report,
)
from neurofuzz.model_io import export_image_pgm
from neurofuzz.tensor import Tensor, l2_norm


class TestFuzzConfig:
    def test_defaults_follow_reference_settings(self):
        cfg = FuzzConfig()
        assert cfg.k == 4
        assert cfg.m == 10
        assert cfg.strategies == (1,)
        assert cfg.lam == 1.0
        assert cfg.iter_times == 3
        assert cfg.activation_threshold == 0.25
        assert cfg.distance_max == 0.02
        assert cfg.coverage_gain_initial == 0.01
        assert cfg.coverage_gain_decay == 0.9
        assert cfg.coverage_gain_floor == 0.001
        assert cfg.step_size == 1.2

    def test_gain_requirement_schedule(self):
        cfg = FuzzConfig()
        assert cfg.gain_requirement(0) == pytest.approx(0.01)
        assert cfg.gain_requirement(1) == pytest.approx(0.009)
        assert cfg.gain_requirement(2) == pytest.approx(0.0081)
        # decays to the floor and stays there
        assert cfg.gain_requirement(1000) == pytest.approx(0.001)

    def test_invariants_enforced(self):
        with pytest.raises(ContractViolation):
            FuzzConfig(k=0)
        with pytest.raises(ContractViolation):
            FuzzConfig(m=0)
        with pytest.raises(ContractViolation):
            FuzzConfig(iter_times=0)
        with pytest.raises(ContractViolation):
            FuzzConfig(coverage_gain_decay=0.0)
        with pytest.raises(ContractViolation):
            FuzzConfig(coverage_gain_decay=1.5)
        with pytest.raises(ContractViolation):
            FuzzConfig(distance_max=0.0)

    @pytest.mark.parametrize("strategies", [(), (5,), (0,), (1, 5), (-1,)])
    def test_bad_strategies_rejected(self, strategies):
        with pytest.raises(ContractViolation, match="strategies"):
            FuzzConfig(strategies=strategies)
        # a random-only campaign never selects neurons, so the config is
        # the only place a bad value can be caught
        with pytest.raises(ContractViolation, match="strategies"):
            FuzzConfig.from_dict({"strategies": list(strategies)})

    @pytest.mark.parametrize(
        "field, value",
        [("lam", float("nan")), ("lam", float("inf")), ("step_size", float("nan")),
         ("distance_max", float("nan")), ("coverage_gain_initial", float("nan")),
         ("coverage_gain_floor", float("inf")), ("coverage_gain_decay", float("nan")),
         ("activation_threshold", float("nan")), ("pixel_range", (-1.0, 2.0)),
         ("pixel_range", (0.0, float("inf"))), ("pixel_range", (float("nan"), 1.0)),
         ("pixel_range", (0.5, 1.5)), ("pixel_range", (0.5, 0.5)),
         ("activation_threshold", 0.0), ("activation_threshold", 1.0),
         ("step_size", 0.0), ("step_size", -1.2), ("max_seeds_per_input", 0),
         ("rng_seed", -1), ("coverage_gain_initial", 5.0), ("coverage_gain_initial", -0.01),
         ("coverage_gain_floor", 1.5), ("coverage_gain_floor", -1.0)],
    )
    def test_out_of_range_value_rejected(self, field, value):
        # pixel values outside [0, 1] are what image export refuses
        with pytest.raises(ContractViolation, match=field):
            FuzzConfig(**{field: value})

    def test_gain_ratios_at_either_end_of_the_unit_interval_accepted(self):
        # a gain ratio is newly covered neurons over all neurons
        for initial, floor in ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)):
            cfg = FuzzConfig(coverage_gain_initial=initial, coverage_gain_floor=floor)
            assert cfg.gain_requirement(0) == max(initial, floor)

    def test_dict_round_trip(self):
        cfg = FuzzConfig(step_size=0.5, strategies=(2, 3), rng_seed=9)
        assert FuzzConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation):
            FuzzConfig.from_dict({"k": 4, "mystery": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("k", "4"), ("k", True), ("lam", "x"), ("step_size", [1.0]),
         ("strategies", "12"), ("strategies", [1.0]), ("pixel_range", [0.0]),
         ("use_logits", 1), ("use_logits", "no"), ("k", 2.5)],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ContractViolation, match=field):
            FuzzConfig(**{field: value})
        with pytest.raises(ContractViolation, match=field):
            FuzzConfig.from_dict({field: value})


class TestProcessGradient:
    def test_scaled_raw_unit_normalized(self):
        out = process_gradient(np.array([3.0, 4.0], np.float32), 1.0)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-6)

    def test_zero_gradient_zero_perturbation(self):
        z = np.zeros(3, np.float32)
        assert not process_gradient(z, 0.1).any()


class TestRelativeDistance:
    def test_identity_is_zero(self):
        x = Tensor([3.0, 4.0])
        assert relative_distance(x, x) == 0.0

    def test_arithmetic(self):
        assert relative_distance(Tensor([3.0, 4.5]), Tensor([3.0, 4.0])) == pytest.approx(0.1)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0.1, 1, size=50)
        xp = x + rng.normal(0, 0.01, size=50)
        num = sum((float(a) - float(b)) ** 2 for a, b in zip(xp, x)) ** 0.5
        den = sum(float(b) ** 2 for b in x) ** 0.5
        got = relative_distance(Tensor.wrap(xp), Tensor.wrap(x))
        assert got == pytest.approx(num / den, rel=1e-6)

    def test_zero_norm_rejected(self):
        with pytest.raises(ContractViolation):
            relative_distance(Tensor([1.0]), Tensor([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match=r"shape mismatch \(2,\) vs \(1, 2\)"):
            relative_distance(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))


def constant_classifier():
    """All-zero weights and biases: logits are always zero, confidences
    uniform, gradient identically zero."""
    w1 = Tensor.wrap(np.zeros((4, 3), dtype=np.float32))
    b1 = Tensor.wrap(np.zeros(3, dtype=np.float32))
    w2 = Tensor.wrap(np.zeros((3, 2), dtype=np.float32))
    b2 = Tensor.wrap(np.zeros(2, dtype=np.float32))
    return nn.Model(
        layers=(nn.dense(w1, b1), nn.relu(), nn.dense(w2, b2), nn.softmax()),
        input_shape=(4,),
    )


def linear_two_class(boundary, dims=4, axis=0):
    """Classifier over R^dims predicting class 0 iff x[axis] < boundary;
    the gradient of (conf_1 - conf_0) lies on that axis alone, so a
    normalized step moves its full length straight at the boundary."""
    w = np.zeros((dims, 2), dtype=np.float32)
    w[axis, 0] = -10.0
    w[axis, 1] = 10.0
    b = np.array([10.0 * boundary, -10.0 * boundary], dtype=np.float32)
    return nn.Model(
        layers=(nn.dense(Tensor.wrap(w), Tensor.wrap(b)), nn.softmax()),
        input_shape=(dims,),
    )


class TestFuzzOneInput:
    def test_constant_classifier_drains_queue(self):
        model = constant_classifier()
        tracker = CoverageTracker(model, 0.25)
        cfg = FuzzConfig(step_size=0.01, k=1, m=1)
        x = Tensor([0.2, 0.4, 0.6, 0.8])
        records, processed = _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)
        assert records == []
        # zero gradient -> zero perturbation -> mutants identical to input ->
        # no new coverage after the initial trace -> nothing kept
        assert processed == 1
        assert coverage_rate(tracker) == 0.0

    def test_linear_boundary_exactly_one_record(self):
        # input sits 0.015 below the boundary along +x0; the gradient lies on
        # that axis, so each normalized step moves +0.01 along it and the
        # walk crosses within iter 2
        x = Tensor.wrap(np.full(4, 0.5, dtype=np.float32))
        model = linear_two_class(boundary=0.5 + 0.015)
        trace = nn.predict(model, x)
        assert trace.predicted_label == 0
        cfg = FuzzConfig(step_size=0.01, k=1, lam=0.0, m=1, iter_times=3)
        tracker = CoverageTracker(model, 0.25)
        # pre-covering the original trace keeps the near-boundary mutant from
        # being queued as a seed, isolating the single first-seed flip
        update(tracker, model, nn.predict(model, x))
        records, _ = _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)
        assert len(records) == 1
        rec = records[0]
        assert rec.original_label == 0
        assert rec.adversarial_label == 1
        assert nn.predict(model, rec.mutated).predicted_label == 1
        assert rec.seed_generation == 0
        assert rec.iteration == 2

    def test_boundary_beyond_reach_no_record(self):
        x = Tensor.wrap(np.full(4, 0.5, dtype=np.float32))
        model = linear_two_class(boundary=0.5 + 0.05)
        cfg = FuzzConfig(step_size=0.01, k=1, lam=0.0, m=1)
        tracker = CoverageTracker(model, 0.25)
        records, _ = _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)
        assert records == []

    def test_kept_seeds_respect_distance_and_label(self, monkeypatch):
        # wrap SeedQueue.push to observe every kept seed
        model = architectures.build_model("lenet1", rng_seed=5)
        kept = []
        original_push = fz.SeedQueue.push

        def recording_push(self, seed):
            kept.append(seed)
            original_push(self, seed)

        monkeypatch.setattr(fz.SeedQueue, "push", recording_push)
        rng = np.random.default_rng(44)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        cfg = FuzzConfig(step_size=0.05)
        tracker = CoverageTracker(model, cfg.activation_threshold)
        _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)
        original_label = nn.predict(model, x).predicted_label
        gen_zero = [s for s in kept if s.generation == 0]
        later = [s for s in kept if s.generation > 0]
        assert len(gen_zero) == 1  # the initial seed
        for seed in later:
            assert relative_distance(seed.x, x) <= cfg.distance_max + 1e-9
            assert nn.predict(model, seed.x).predicted_label == original_label

    def test_seed_cap_bounds_processing(self):
        model = architectures.build_model("lenet1", rng_seed=5)
        rng = np.random.default_rng(46)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        cfg = FuzzConfig(step_size=0.03, max_seeds_per_input=2)
        tracker = CoverageTracker(model, cfg.activation_threshold)
        _, processed = _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)
        assert processed <= 2

    def test_default_campaign_keeps_seeds_inside_cap(self, trained_model,
                                                      test_split, monkeypatch):
        # the default step (L2 1.2) is several times the cap
        # (0.02 of an input norm of about 6-12); the first step of a run must
        # still land inside it, or no mutant ever goes back into the queue
        cfg = FuzzConfig()
        origin = {}
        kept = []
        original_push = fz.SeedQueue.push

        def recording_push(self, seed):
            if seed.generation == 0:
                origin["x"] = seed.x
            else:
                kept.append(relative_distance(seed.x, origin["x"]))
            original_push(self, seed)

        monkeypatch.setattr(fz.SeedQueue, "push", recording_push)
        fuzz_corpus(trained_model, _pick_inputs(test_split, 20, cfg.rng_seed), cfg)
        assert kept, "no seed of generation >= 1 was kept"
        assert all(d <= cfg.distance_max for d in kept)

    def test_first_mutant_passes_distance_gate(self, monkeypatch):
        # interior pixels, so no clipping pulls the first mutant back: only
        # the room held back for float32 rounding keeps it inside the cap
        model = architectures.build_model("lenet1", rng_seed=5)
        cfg = FuzzConfig(iter_times=1, max_seeds_per_input=1)
        seen = []
        inner = nn.predict

        def recording_predict(m, x):
            seen.append(x)
            return inner(m, x)

        monkeypatch.setattr(nn, "predict", recording_predict)
        rng = np.random.default_rng(47)
        for _ in range(40):
            x = Tensor.wrap(rng.uniform(0.25, 0.75, size=(28, 28, 1)).astype(np.float32))
            trace0 = nn.predict(model, x)
            seen.clear()
            tracker = CoverageTracker(model, cfg.activation_threshold)
            _fuzz_one(model, tracker, trace0, cfg, 0, None)
            assert relative_distance(seen[0], x) <= cfg.distance_max

    def test_gradient_reuses_the_seed_forward_pass(self, monkeypatch):
        # input_gradient reads the seed's trace, so every forward pass is
        # one batch-1 nn.predict's or one stacked group's, and the
        # process_gradient step is one per seed; nn.predict_each hands a
        # group of one to nn.predict, so only larger groups are stacked
        model = architectures.build_model("lenet1", rng_seed=5)
        calls = {"predict": 0, "forward": 0, "process_gradient": 0}
        sizes = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        predict_each = nn.predict_each

        def recording_predict_each(model, xs):
            sizes.append(len(xs))
            return predict_each(model, xs)

        monkeypatch.setattr(nn, "predict", counting("predict", nn.predict))
        monkeypatch.setattr(nn, "predict_each", recording_predict_each)
        monkeypatch.setattr(nn, "_forward", counting("forward", nn._forward))
        monkeypatch.setattr(fz, "process_gradient",
                            counting("process_gradient", fz.process_gradient))
        rng = np.random.default_rng(41)
        cfg = FuzzConfig(step_size=0.05)
        tracker = CoverageTracker(model, cfg.activation_threshold)
        processed = 0
        for _ in range(4):
            x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            processed += _fuzz_one(model, tracker, nn.predict(model, x), cfg, 0, None)[1]
        stacked = sum(n >= 2 for n in sizes)
        assert processed > 4  # some mutant went back into the queue
        assert stacked > 0  # some run's in-cap mutants shared a pass
        assert calls["predict"] + stacked > processed
        assert calls["forward"] == calls["predict"] + stacked
        assert calls["process_gradient"] == processed

    def test_first_step_shortened_to_budget(self):
        pert = np.array([3.0, 4.0], np.float32)
        assert fz._shorten_to(pert, 10.0) is pert
        np.testing.assert_allclose(fz._shorten_to(pert, 1.0), [0.6, 0.8], rtol=1e-6)
        assert not fz._shorten_to(pert, 0.0).any()
        assert not fz._shorten_to(pert, -0.5).any()
        # a zero perturbation has no length to shorten, whatever the budget
        zero = np.zeros(2, np.float32)
        assert fz._shorten_to(zero, -0.5) is zero


def reference_fuzz_one(model, tracker, trace0, cfg, input_index, rng):
    """_fuzz_one as it ran before mutants were stepped ahead and origins were
    predicted in chunks: the origin, trace0.input, is predicted alone here,
    and each mutant is stepped, predicted alone and judged before the next
    one is stepped."""
    x = trace0.input
    x_norm = l2_norm(x.array)
    if x_norm == 0.0:
        return [], 0
    x64 = x.array.astype(np.float64)
    lo, hi = cfg.pixel_range
    slack = np.finfo(x.array.dtype).eps * max(abs(lo), abs(hi)) * np.sqrt(x.array.size)
    trace0 = nn.predict(model, x)
    c_orig = trace0.predicted_label
    queue = fz.SeedQueue(cfg.max_seeds_per_input)
    queue.push(fz._Seed(trace0, 0))
    records = []
    processed = 0
    while len(queue) > 0 and processed < cfg.max_seeds_per_input:
        seed = queue.pop()
        requirement = cfg.gain_requirement(processed)
        processed += 1
        if rng is None:
            topk = nn.top_k_other_labels(seed.trace, cfg.k)
            neurons = select_neurons(tracker, cfg.strategies, cfg.m, seed.trace)
            spec = nn.ObjectiveSpec(seed.trace.predicted_label, tuple(topk), tuple(neurons),
                                    cfg.lam, cfg.use_logits)
            grad = nn.input_gradient(model, seed.x, spec, seed.trace)
            step = process_gradient(grad.array, cfg.step_size)
        cur = seed.x.array
        budget = (cfg.distance_max - seed.distance) * x_norm - slack
        for iteration in range(1, cfg.iter_times + 1):
            if rng is None:
                pert = step
            else:
                noise = rng.standard_normal(x.shape).astype(x.array.dtype)
                pert = process_gradient(noise, cfg.step_size)
            if iteration == 1:
                pert = fz._shorten_to(pert, budget)
            trace_m = nn.predict(model, Tensor.wrap(np.clip(cur + pert, lo, hi)))
            newly = update(tracker, model, trace_m)
            cur = trace_m.input.array
            dist = fz._distance(cur, x64, x_norm)
            c_m = trace_m.predicted_label
            if c_m != c_orig:
                records.append(AdversarialRecord(
                    input_index, c_orig, c_m, trace_m.input, dist, l2_norm(cur - x.array),
                    seed.generation, iteration,
                ))
                break
            if newly / tracker.total_neurons >= requirement and dist <= cfg.distance_max:
                queue.push(fz._Seed(trace_m, seed.generation + 1, dist))
    return records, processed


class TestMutantsSteppedAhead:
    """_fuzz_one against reference_fuzz_one over one campaign per case, on
    untrained models whose runs hold several mutants inside the cap. Each
    guided case is checked to reach what stepping ahead changes: a group of
    two or more predicted in one pass, a flip before a group's last mutant,
    a run that leaves the cap after such a group, and a queue of two or
    more seeds. A random case must predict no group and reach a flip before
    a run's last step, after which the generator must draw no more."""

    CASES = {
        "lenet4-guided": ("lenet4", 0.5, 0.1, "guided"),
        "lenet4-random": ("lenet4", 0.5, 0.1, "random"),
        "lenet1-random": ("lenet1", 1.0, 0.2, "random"),
    }

    def campaign(self, monkeypatch, fuzz_one, model, inputs, cfg, mutation):
        """The report, and the tracker's counts and the generator's state
        after each input."""
        after = []

        def spy(model, tracker, trace0, cfg, input_index, rng):
            out = fuzz_one(model, tracker, trace0, cfg, input_index, rng)
            after.append((tracker._count.copy(), rng and rng.bit_generator.state))
            return out

        monkeypatch.setattr(fz, "_fuzz_one", spy)
        return fuzz_corpus(model, inputs, cfg, mutation), after

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_outputs_as_one_mutant_at_a_time(self, case, monkeypatch):
        arch, step_size, distance_max, mutation = self.CASES[case]
        model = architectures.build_model(arch, rng_seed=5)
        rng = np.random.default_rng(3)
        inputs = [Tensor.wrap(rng.uniform(0.2, 0.8, size=model.input_shape).astype(np.float32))
                  for _ in range(4)]
        cfg = FuzzConfig(step_size=step_size, distance_max=distance_max, iter_times=5,
                         coverage_gain_initial=0.0, coverage_gain_floor=0.0,
                         max_seeds_per_input=16)
        want, want_after = self.campaign(monkeypatch, reference_fuzz_one, model, inputs, cfg,
                                         mutation)

        groups, runs, queue_lens = [], [], []
        predict_each, mutants, push = nn.predict_each, fz._mutants, fz.SeedQueue.push

        def recording_predict_each(model, xs):
            traces = predict_each(model, xs)
            if not any(xs[0] is x for x in inputs):  # a group of mutants, not origins
                groups.append(traces)
            return traces

        def recording_mutants(*args):
            runs.append([])
            for item in mutants(*args):
                runs[-1].append(item)
                yield item

        def recording_push(self, seed):
            push(self, seed)
            queue_lens.append(len(self))

        monkeypatch.setattr(nn, "predict_each", recording_predict_each)
        monkeypatch.setattr(fz, "_mutants", recording_mutants)
        monkeypatch.setattr(fz.SeedQueue, "push", recording_push)
        got, got_after = self.campaign(monkeypatch, _fuzz_one, model, inputs, cfg, mutation)

        assert got.records == want.records
        for g, w in zip(got.records, want.records):
            assert g.mutated.array.tobytes() == w.mutated.array.tobytes()
        assert got.coverage_curve == want.coverage_curve
        for (g_count, g_state), (w_count, w_state) in zip(got_after, want_after, strict=True):
            assert np.array_equal(g_count, w_count)
            assert g_state == w_state

        assert max(queue_lens) >= 2
        if mutation == "random":
            assert groups == []
            assert any(rec.iteration < cfg.iter_times for rec in got.records)
            return

        def flipped(trace):
            return any(rec.mutated is trace.input for rec in got.records)

        assert any(len(g) >= 2 for g in groups)
        assert any(flipped(t) for g in groups for t in g[:-1])
        assert any(
            sum(d <= distance_max for _, d in run) >= 2 and run[-1][1] > distance_max
            for run in runs
        )


class TestAdversarialRecord:
    def test_same_label_rejected(self):
        with pytest.raises(ContractViolation):
            AdversarialRecord(0, 3, 3, Tensor([0.0]), 0.1, 0.5, 0, 1)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractViolation):
            AdversarialRecord(0, 3, 4, Tensor([0.0]), -0.1, 0.5, 0, 1)

    @pytest.mark.parametrize("field, value", [
        ("input_index", -1), ("original_label", -1), ("adversarial_label", -1),
        ("seed_generation", -1), ("iteration", 0),
    ])
    def test_index_label_or_step_below_its_floor_rejected(self, field, value):
        values = dict(input_index=0, original_label=3, adversarial_label=4, mutated=Tensor([0.0]),
                      distance=0.1, distance_abs=0.5, seed_generation=0, iteration=1)
        AdversarialRecord(**values)
        with pytest.raises(ContractViolation, match="must be >= 0, iteration >= 1"):
            AdversarialRecord(**dict(values, **{field: value}))

    @pytest.mark.parametrize("distance, distance_abs", [
        (float("nan"), 0.5), (0.1, float("inf")), (0.1, -0.5),
    ])
    def test_distance_not_finite_or_negative_rejected(self, distance, distance_abs):
        with pytest.raises(ContractViolation, match="distances must be finite"):
            AdversarialRecord(0, 3, 4, Tensor([0.0]), distance, distance_abs, 0, 1)


class TestFuzzCorpus:
    def test_empty_corpus(self):
        model = constant_classifier()
        report = fuzz_corpus(model, [], FuzzConfig())
        assert report.records == ()
        assert report.final_coverage == 0.0
        assert report.coverage_curve == ()

    def test_deterministic_reports_bitwise(self):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(50)
        inputs = [
            Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            for _ in range(3)
        ]
        # a step large enough that the untrained model flips, so the loop
        # below compares real records
        cfg = FuzzConfig(step_size=2.0, rng_seed=7)
        a = fuzz_corpus(model, inputs, cfg)
        b = fuzz_corpus(model, inputs, cfg)
        assert a.records
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.input_index == rb.input_index
            assert ra.original_label == rb.original_label
            assert ra.adversarial_label == rb.adversarial_label
            assert ra.distance == rb.distance
            assert ra.distance_abs == rb.distance_abs
            assert ra.seed_generation == rb.seed_generation
            assert ra.iteration == rb.iteration
            assert np.array_equal(ra.mutated.array, rb.mutated.array)
        assert a.coverage_curve == b.coverage_curve
        assert a.final_coverage == b.final_coverage

    def test_random_mutation_differs_from_guided(self):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(51)
        inputs = [
            Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            for _ in range(2)
        ]
        # a step at which the gradient walk flips the untrained model
        cfg = FuzzConfig(step_size=2.0, rng_seed=7)
        guided = fuzz_corpus(model, inputs, cfg)
        random = fuzz_corpus(model, inputs, cfg, mutation="random")
        assert guided.mutation == "guided"
        assert random.mutation == "random"
        assert guided.records
        assert random.records != guided.records

    def test_all_zero_input_skipped(self):
        # relative distance is undefined at norm 0: the input is skipped and
        # the rest of the campaign runs as if it were not there
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(50)
        x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
        cfg = FuzzConfig(step_size=2.0, rng_seed=7)
        alone = fuzz_corpus(model, [x], cfg)
        both = fuzz_corpus(model, [Tensor.zeros((28, 28, 1)), x], cfg)
        assert alone.records
        assert list(both.records) == [replace(r, input_index=1) for r in alone.records]
        assert both.coverage_curve[0] == CoveragePoint(0, 0.0)
        assert both.coverage_curve[1] == alone.coverage_curve[0]

    @pytest.mark.parametrize(
        "bad",
        [
            Tensor.zeros((28, 27, 1)),
            Tensor.zeros((28, 28, 1), precision="double"),
            Tensor.wrap(np.full((28, 28, 1), 1.5, dtype=np.float32)),
            np.zeros((28, 28, 1), dtype=np.float32),
        ],
        ids=["shape", "precision", "pixel_range", "not_a_tensor"],
    )
    def test_bad_input_rejected_before_any_is_fuzzed(self, bad, monkeypatch):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(53)
        good = [Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
                for _ in range(3)]
        fuzzed = []
        real = fz._fuzz_one
        monkeypatch.setattr(fz, "_fuzz_one", lambda *a: fuzzed.append(a[2]) or real(*a))
        with pytest.raises(ContractViolation, match=r"^input 2: "):
            fuzz_corpus(model, [*good[:2], bad, good[2]], FuzzConfig())
        assert fuzzed == []

    def test_origins_predicted_in_chunks(self, monkeypatch):
        # two full chunks and a ragged last one, with an all-zero input inside
        # the second; every output must equal a run that predicts each origin
        # alone, and the all-zero input must still be skipped with no seeds
        model = architectures.build_model("lenet1", rng_seed=5)
        rng = np.random.default_rng(55)
        chunk = fz.ORIGIN_CHUNK
        inputs = [Tensor.wrap(rng.uniform(0.2, 0.8, size=(28, 28, 1)).astype(np.float32))
                  for _ in range(2 * chunk + 1)]
        zero = chunk + 1
        inputs[zero] = Tensor.zeros((28, 28, 1))
        # steps at which both modes flip this untrained model
        cfg = FuzzConfig(step_size=1.0, distance_max=0.2, iter_times=5)
        predict_each, fuzz_one = nn.predict_each, fz._fuzz_one
        chunks, origins = [], []

        def recording_predict_each(model, xs):
            if any(xs[0] is x for x in inputs):
                chunks.append(len(xs))
            return predict_each(model, xs)

        def recording_fuzz_one(model, tracker, trace0, *args):
            origins.append(trace0)
            return fuzz_one(model, tracker, trace0, *args)

        def lone_fuzz_one(model, tracker, trace0, *args):
            return fuzz_one(model, tracker, nn.predict(model, trace0.input), *args)

        for mutation in fz.MUTATION_MODES:
            chunks.clear()
            origins.clear()
            monkeypatch.setattr(nn, "predict_each", recording_predict_each)
            monkeypatch.setattr(fz, "_fuzz_one", recording_fuzz_one)
            got = fuzz_corpus(model, inputs, cfg, mutation)
            assert chunks == [chunk, chunk, 1]
            assert all(t.input is x for t, x in zip(origins, inputs, strict=True))
            monkeypatch.setattr(fz, "_fuzz_one", lone_fuzz_one)
            want = fuzz_corpus(model, inputs, cfg, mutation)

            assert got.records
            assert got.records == want.records
            for g, w in zip(got.records, want.records):
                assert g.mutated.array.tobytes() == w.mutated.array.tobytes()
            assert got.coverage_curve == want.coverage_curve
            curve = got.coverage_curve
            assert curve[zero].seeds_processed == curve[zero - 1].seeds_processed
            assert all(r.input_index != zero for r in got.records)

    def test_final_coverage_is_the_last_curve_rate(self):
        report = CampaignReport(records=(), coverage_curve=(), input_wall_s=(),
                                config=FuzzConfig())
        assert report.final_coverage == 0.0
        curve = (CoveragePoint(2, 0.25), CoveragePoint(5, 0.625))
        assert replace(report, coverage_curve=curve).final_coverage == 0.625
        assert "final_coverage" not in {f.name for f in fields(CampaignReport)}

    def test_model_without_neurons_rejected(self):
        # a bare softmax head has no dense or conv2d layer to cover
        model = nn.Model(layers=(nn.softmax(),), input_shape=(3,))
        x = Tensor([0.2, 0.3, 0.5])
        with pytest.raises(ContractViolation, match="no dense or conv2d layers"):
            fuzz_corpus(model, [x], FuzzConfig(k=1))

    def test_unknown_mutation_mode_rejected(self):
        # the mode is checked before the inputs, so even an empty corpus fails
        with pytest.raises(ContractViolation, match="mutation must be one of"):
            fuzz_corpus(constant_classifier(), [], FuzzConfig(), mutation="bogus")

    def test_queue_cap_never_changes_outputs(self, trained_model, test_split, monkeypatch):
        # a push dropped at a full queue would be seed C+1 or later of its
        # input, and a run processes at most C seeds, so the cap bounds memory
        # and never work: with it lifted every output is the same. With the
        # gain gate off and short steps every mutant inside the cap is kept,
        # so the queue fills up.
        cfg = FuzzConfig(step_size=0.05, coverage_gain_initial=0.0,
                         coverage_gain_floor=0.0, max_seeds_per_input=4)
        inputs = _pick_inputs(test_split, 10, cfg.rng_seed)
        drops = []
        real_push = fz.SeedQueue.push

        def counting_push(self, seed):
            drops.append(len(self) >= self._max_len)
            real_push(self, seed)

        monkeypatch.setattr(fz.SeedQueue, "push", counting_push)
        capped = fuzz_corpus(trained_model, inputs, cfg)
        monkeypatch.setattr(fz.SeedQueue, "push", lambda self, seed: self._q.append(seed))
        uncapped = fuzz_corpus(trained_model, inputs, cfg)
        assert sum(drops) > 0
        assert capped.records
        assert capped.records == uncapped.records
        assert capped.coverage_curve == uncapped.coverage_curve
        assert capped.final_coverage == uncapped.final_coverage

    def test_guided_campaign_builds_no_generator(self, monkeypatch):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(54)
        inputs = [Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
                  for _ in range(2)]
        built = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or real(*a))
        fuzz_corpus(model, inputs, FuzzConfig())
        assert built == []
        fuzz_corpus(model, inputs, FuzzConfig(), mutation="random")
        assert len(built) == 2

    def test_coverage_curve_one_point_per_input_monotone(self):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(52)
        inputs = [
            Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            for _ in range(4)
        ]
        report = fuzz_corpus(model, inputs, FuzzConfig(step_size=0.2))
        assert len(report.coverage_curve) == 4
        rates = [p.coverage_rate for p in report.coverage_curve]
        assert rates == sorted(rates)
        assert report.final_coverage == rates[-1]


class TestCampaignArtifacts:
    def build_report(self):
        model = architectures.build_model("lenet1", rng_seed=8)
        rng = np.random.default_rng(53)
        inputs = [
            Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            for _ in range(3)
        ]
        cfg = FuzzConfig(step_size=0.6, rng_seed=3)
        return model, fuzz_corpus(model, inputs, cfg)

    def test_layout_and_manifest_row_count(self, tmp_path):
        model, report = self.build_report()
        out = tmp_path / "campaign"
        write_campaign_report(report, out)
        assert (out / "manifest.csv").exists()
        assert (out / "coverage.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "config.json").exists()
        lines = (out / "manifest.csv").read_text().splitlines()
        assert len(lines) - 1 == len(report.records)
        pgms = list((out / "adversarial").glob("*.pgm")) if report.records else []
        assert len(pgms) == len(report.records)

    def test_coverage_rows_are_numbered_by_input(self, tmp_path):
        # a curve point's input is its position, written as the first column
        _, report = self.build_report()
        out = tmp_path / "campaign"
        write_campaign_report(report, out)
        lines = (out / "coverage.csv").read_text().splitlines()
        assert lines[0] == "input_index,seeds_processed,coverage_rate"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(3))
        assert [(int(s), float(c)) for _, s, c in rows] == [
            (p.seeds_processed, p.coverage_rate) for p in report.coverage_curve
        ]

    def test_config_replays(self, tmp_path):
        model, report = self.build_report()
        out = tmp_path / "campaign"
        write_campaign_report(report, out)
        cfg = FuzzConfig.from_dict(json.loads((out / "config.json").read_text()))
        assert cfg == report.config

    def test_records_round_trip_within_quantization(self, tmp_path):
        # hand-made records, so the round trip is checked whatever the
        # mutation loop yields; two records on input 2 exercise the
        # per-input sequence numbers in the PGM names
        rng = np.random.default_rng(53)
        records = tuple(
            AdversarialRecord(
                input_index=idx,
                original_label=orig,
                adversarial_label=adv,
                mutated=Tensor.wrap(
                    rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32)
                ),
                distance=0.01 * (n + 1),
                distance_abs=0.1 * (n + 1),
                seed_generation=n % 2,
                iteration=n % 3 + 1,
            )
            for n, (idx, orig, adv) in enumerate([(0, 3, 5), (2, 7, 1), (2, 7, 9)])
        )
        report = CampaignReport(
            records=records,
            coverage_curve=(CoveragePoint(1, 0.5), CoveragePoint(3, 0.75)),
            input_wall_s=(0.01, 0.02, 0.03),
            config=FuzzConfig(),
        )
        out = tmp_path / "campaign"
        write_campaign_report(report, out)
        names = [f.name for f in fields(AdversarialRecord) if f.name != "mutated"]
        assert fz.MANIFEST_HEADER == ",".join(names)
        back = read_campaign_records(out)
        assert back
        assert len(back) == len(report.records)
        for ra, rb in zip(report.records, back):
            assert ra.input_index == rb.input_index
            assert ra.original_label == rb.original_label
            assert ra.adversarial_label == rb.adversarial_label
            assert ra.distance == rb.distance
            assert ra.distance_abs == rb.distance_abs
            assert ra.seed_generation == rb.seed_generation
            assert ra.iteration == rb.iteration
            err = np.abs(ra.mutated.array - rb.mutated.array).max()
            assert err <= 1.0 / 510.0 + 1e-9

    def test_rewrite_removes_images_the_new_manifest_does_not_name(self, tmp_path):
        def report_of(n):
            records = tuple(
                AdversarialRecord(
                    input_index=i, original_label=3, adversarial_label=5,
                    mutated=Tensor.wrap(np.full((28, 28, 1), 0.1 * (i + 1), np.float32)),
                    distance=0.01, distance_abs=0.1, seed_generation=0, iteration=1,
                )
                for i in range(n)
            )
            return CampaignReport(
                records=records,
                coverage_curve=tuple(CoveragePoint(i + 1, 0.5) for i in range(n)),
                input_wall_s=(0.01,) * n,
                config=FuzzConfig(),
            )

        out = tmp_path / "campaign"
        write_campaign_report(report_of(3), out)
        (out / "adversarial" / "notes.txt").write_text("kept")
        write_campaign_report(report_of(1), out)
        names = sorted(p.name for p in (out / "adversarial").iterdir())
        assert names == ["adv_0_0_3to5.pgm", "notes.txt"]
        assert len(read_campaign_records(out)) == 1

    def test_reading_a_directory_without_manifest_rejected(self, tmp_path):
        (tmp_path / "adversarial").mkdir()
        with pytest.raises(ContractViolation, match="has no manifest.csv"):
            read_campaign_records(tmp_path)

    @pytest.mark.parametrize("text", ["0,3,5,0.01,0.1,0,1\n", "garbage header\n0,3,5,0.01,0.1,0,1\n",
                                      "", f"{fz.MANIFEST_HEADER},x\n"],
                             ids=["row-only", "garbage", "empty", "extra-column"])
    def test_manifest_without_its_header_rejected(self, tmp_path, text):
        # the first line is the header write_campaign_report writes; a row
        # there would otherwise be dropped without a word
        (tmp_path / "manifest.csv").write_text(text)
        with pytest.raises(ContractViolation, match=r"manifest.csv line 1: expected header"):
            read_campaign_records(tmp_path)

    def test_manifest_row_the_record_refuses_rejected(self, tmp_path):
        # the rows parse, but no record has a NaN or infinite distance, a
        # negative index or seed generation or iteration 0; a row is checked
        # before the image it names is read, so the second row's missing
        # adv_-1_0_3to5.pgm does not hide the bad row
        (tmp_path / "adversarial").mkdir()
        export_image_pgm(Tensor.zeros((2, 2, 1)), tmp_path / "adversarial" / "adv_0_0_3to5.pgm")
        for row in ("0,3,5,nan,inf,-1,0", "-1,3,5,0.01,0.1,0,1"):
            (tmp_path / "manifest.csv").write_text(f"{fz.MANIFEST_HEADER}\n{row}\n")
            with pytest.raises(ContractViolation, match=r"manifest.csv line 2: .* must be >= 0"):
                read_campaign_records(tmp_path)

    def test_non_ascii_manifest_rejected(self, tmp_path):
        # the writer writes ASCII only; any other byte names its offset
        text = f"{fz.MANIFEST_HEADER}\n0,3,5,0.01,0.1,0,1".encode("ascii") + b"\xe9\n"
        (tmp_path / "manifest.csv").write_bytes(text)
        offset = len(text) - 2
        with pytest.raises(ContractViolation, match=rf"manifest.csv: byte {offset} is not ASCII"):
            read_campaign_records(tmp_path)
