"""Unit tests for the mutation loop: gradient processing, distance gating,
seed keeping, adversarial detection, campaign reports, and determinism.

The linear-boundary case constructs a classifier whose decision boundary is
a known analytic distance from the input, so exactly one flip is provable.
"""

from dataclasses import replace

import numpy as np
import pytest

from neurofuzz import architectures, nn
from neurofuzz import fuzzer as fz
from neurofuzz.cli import _pick_inputs
from neurofuzz.coverage import CoverageTracker, coverage_rate
from neurofuzz.errors import ContractViolation
from neurofuzz.fuzzer import (
    AdversarialRecord,
    CampaignReport,
    CoveragePoint,
    FuzzConfig,
    fuzz_corpus,
    fuzz_one_input,
    process_gradient,
    read_campaign_records,
    relative_distance,
    write_campaign_report,
)
from neurofuzz.tensor import Tensor


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
         ("pixel_range", (0.5, 1.5)), ("pixel_range", (0.5, 0.5))],
    )
    def test_out_of_range_value_rejected(self, field, value):
        # pixel values outside [0, 1] are what image export refuses
        with pytest.raises(ContractViolation, match=field):
            FuzzConfig(**{field: value})

    def test_dict_round_trip(self):
        cfg = FuzzConfig(step_size=0.5, strategies=(2, 3), rng_seed=9)
        assert FuzzConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractViolation):
            FuzzConfig.from_dict({"k": 4, "mystery": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("k", "4"), ("k", True), ("lam", "x"), ("step_size", [1.0]),
         ("strategies", "12"), ("strategies", [1.0]), ("pixel_range", [0.0]),
         ("use_logits", 1)],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        with pytest.raises(ContractViolation, match=field):
            FuzzConfig.from_dict({field: value})


class TestProcessGradient:
    def test_scaled_raw_unit_normalized(self):
        out = process_gradient(Tensor([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out.array, [0.6, 0.8], rtol=1e-6)

    def test_zero_gradient_zero_perturbation(self):
        z = Tensor([0.0, 0.0, 0.0])
        assert not process_gradient(z, 0.1).array.any()


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
        num_classes=2,
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
        num_classes=2,
    )


class TestFuzzOneInput:
    def test_constant_classifier_drains_queue(self):
        model = constant_classifier()
        tracker = CoverageTracker(model, 0.25)
        cfg = FuzzConfig(step_size=0.01, k=1, m=1)
        records, processed = fuzz_one_input(model, tracker, Tensor([0.2, 0.4, 0.6, 0.8]), cfg)
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
        from neurofuzz.coverage import update

        update(tracker, model, nn.predict(model, x))
        records, _ = fuzz_one_input(model, tracker, x, cfg)
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
        records, _ = fuzz_one_input(model, tracker, x, cfg)
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
        fuzz_one_input(model, tracker, x, cfg)
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
        _, processed = fuzz_one_input(model, tracker, x, cfg)
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
            seen.clear()
            tracker = CoverageTracker(model, cfg.activation_threshold)
            fuzz_one_input(model, tracker, x, cfg)
            assert relative_distance(seen[1], x) <= cfg.distance_max

    def test_gradient_reuses_the_seed_forward_pass(self, monkeypatch):
        # input_gradient reads the seed's trace, so every forward pass is
        # one nn.predict's and the process_gradient step is one per seed
        model = architectures.build_model("lenet1", rng_seed=5)
        calls = {"predict": 0, "forward": 0, "process_gradient": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nn, "predict", counting("predict", nn.predict))
        monkeypatch.setattr(nn, "_forward", counting("forward", nn._forward))
        monkeypatch.setattr(fz, "process_gradient",
                            counting("process_gradient", fz.process_gradient))
        rng = np.random.default_rng(41)
        cfg = FuzzConfig(step_size=0.05)
        tracker = CoverageTracker(model, cfg.activation_threshold)
        processed = 0
        for _ in range(4):
            x = Tensor.wrap(rng.uniform(0, 1, size=(28, 28, 1)).astype(np.float32))
            processed += fuzz_one_input(model, tracker, x, cfg)[1]
        assert processed > 4  # some mutant went back into the queue
        assert calls["predict"] > processed
        assert calls["forward"] == calls["predict"]
        assert calls["process_gradient"] == processed

    def test_first_step_shortened_to_budget(self):
        pert = Tensor([3.0, 4.0])
        assert fz._shorten_to(pert, 10.0) is pert
        np.testing.assert_allclose(fz._shorten_to(pert, 1.0).array, [0.6, 0.8], rtol=1e-6)
        assert not fz._shorten_to(pert, 0.0).array.any()
        assert not fz._shorten_to(pert, -0.5).array.any()
        # a zero perturbation has no length to shorten, whatever the budget
        zero = Tensor([0.0, 0.0])
        assert fz._shorten_to(zero, -0.5) is zero

    def test_out_of_range_input_rejected(self):
        model = constant_classifier()
        tracker = CoverageTracker(model, 0.25)
        with pytest.raises(ContractViolation):
            fuzz_one_input(model, tracker, Tensor([2.0, 0.0, 0.0, 0.0]), FuzzConfig())


class TestAdversarialRecord:
    def test_same_label_rejected(self):
        with pytest.raises(ContractViolation):
            AdversarialRecord(0, 3, 3, Tensor([0.0]), 0.1, 0.5, 0, 1)

    def test_negative_distance_rejected(self):
        with pytest.raises(ContractViolation):
            AdversarialRecord(0, 3, 4, Tensor([0.0]), -0.1, 0.5, 0, 1)


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
        assert both.coverage_curve[0] == CoveragePoint(0, 0, 0.0)
        assert both.coverage_curve[1] == replace(alone.coverage_curve[0], input_index=1)

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
        real = fz.fuzz_one_input
        monkeypatch.setattr(
            fz, "fuzz_one_input", lambda *a, **k: fuzzed.append(a[2]) or real(*a, **k)
        )
        with pytest.raises(ContractViolation, match=r"^input 2: "):
            fuzz_corpus(model, [*good[:2], bad, good[2]], FuzzConfig())
        assert fuzzed == []

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

    def test_config_replays(self, tmp_path):
        import json

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
            coverage_curve=(CoveragePoint(0, 1, 0.5), CoveragePoint(2, 3, 0.75)),
            final_coverage=0.75,
            input_wall_s=(0.01, 0.02, 0.03),
            config=FuzzConfig(),
        )
        out = tmp_path / "campaign"
        write_campaign_report(report, out)
        back = read_campaign_records(out)
        assert back
        assert len(back) == len(report.records)
        for ra, rb in zip(report.records, back):
            assert ra.input_index == rb.input_index
            assert ra.original_label == rb.original_label
            assert ra.adversarial_label == rb.adversarial_label
            assert ra.distance == rb.distance
            assert ra.seed_generation == rb.seed_generation
            assert ra.iteration == rb.iteration
            err = np.abs(ra.mutated.array - rb.mutated.array).max()
            assert err <= 1.0 / 510.0 + 1e-9
