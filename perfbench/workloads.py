"""The benchmark's workloads and the loops that measure them.

Each workload splits the work between the layers differently, so that an
optimisation of one layer has a workload that exercises it and one that
bypasses it:

- campaign-lenet1: fuzz_corpus at the default FuzzConfig, which is what
  `neurofuzz fuzz` runs. The 26-neuron model makes coverage bookkeeping
  cheap, so batch-1 nn.predict / nn.input_gradient carry the time.
- campaign-lenet5-s1234: the same loop on the 236-neuron lenet5 with all
  four selection strategies, five iterations, step 0.1 and distance 0.05.
  coverage.update and select_neurons carry the time, strategy 3 rescoring
  weights on every seed, and the seed queue grows. It uses only FuzzConfig
  fields that are planned to stay.
- train-lenet1: a batch-64 pass of train() over the 20k pool, then
  evaluate() on the test split: nn inside trainer, no fuzzer or coverage.

A run sets up SETUP_REPS times, then repeats the workload's operation until
the run's seconds are spent. A repetition is several API calls of about a
second each, so that the clock's calibration can follow the shared
machine's speed (see clock.py). Repetitions of one seed must reproduce their
outputs byte for byte. A traced run alternates untraced and traced
repetitions: per-layer numbers come from the traced ones, the tracing
overhead from comparing the two.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import clock
import corpus
import env
import spans

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SETUP_REPS = 11
# input_ms_p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000


@dataclass(frozen=True)
class Campaign:
    fixture: str
    n_inputs: int
    # fuzz_corpus calls per repetition, each on its own slice of the inputs;
    # short calls let the clock's calibration follow the machine's speed
    shards: int
    config: dict


@dataclass(frozen=True)
class Training:
    arch: str
    # train() calls per pass over the pool, each on the next slice and
    # continuing from the model the previous call returned
    shards: int
    batch_size: int
    learning_rate: float
    rng_seed: int
    n_test: int
    # far above the 10% of guessing; a pass over the pool reaches about 90%
    min_accuracy: float


WORKLOADS = {
    "campaign-lenet1": Campaign("lenet1", 1000, 4, {}),
    "campaign-lenet5-s1234": Campaign(
        "lenet5",
        400,
        4,
        {"strategies": [1, 2, 3, 4], "iter_times": 5, "step_size": 0.1, "distance_max": 0.05},
    ),
    "train-lenet1": Training("lenet1", 10, 64, 0.05, 0, 2000, 0.5),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    spans: dict[str, list[spans.Span]] = field(default_factory=dict)


@dataclass
class Rep:
    traced: bool
    ops: int
    timed: list[clock.Timing]  # one per fuzz_corpus or train call
    failed: int
    digests: dict[str, str]
    info: dict = field(default_factory=dict)


class Runner:
    """State of one run: options, the tracer and the spans it collected."""

    def __init__(self, nf, name: str, seed: int, seconds: float, trace: bool):
        self.nf = nf
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = spans.Tracer() if trace else None
        self.outcome = Outcome()
        self.counts: dict[str, dict] = {}

    @contextlib.contextmanager
    def traced(self, group: str, on: bool = True):
        if self.tracer is None or not on:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()
        self.outcome.spans[group], self.counts[group] = self.tracer.take()

    def setup(self, load) -> tuple[object, list[clock.Timing]]:
        timings = []
        for k in range(SETUP_REPS):
            with self.traced(f"setup{k}"):
                with clock.Section() as section:
                    result = load()
            timings.append(section.timing)
        return result, timings

    def repeat(self, body, min_reps: int) -> list[Rep]:
        """Run body(k, traced) until the run's seconds are spent; a traced run
        alternates untraced and traced repetitions."""
        min_reps = max(min_reps, 2 if self.trace else 1)
        reps: list[Rep] = []
        start = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - start < self.seconds:
            k = len(reps)
            reps.append(body(k, self.trace and k % 2 == 1))
        return reps

    def settle_digests(self, reps: list[Rep], ops_per_rep: int, spec) -> dict[str, str]:
        """Every repetition must match the first, and the first must match
        what earlier runs of this seed, workload and code recorded."""
        reference = reps[0].digests
        key = hashlib.sha256(
            json.dumps([self.name, repr(spec), env.source_sha256()]).encode()
        ).hexdigest()[:16]
        record = corpus.WORK / "digests" / f"{self.name}-s{self.seed}-{key}.json"
        if not checks.agree_with_record(record, reference):
            self.outcome.problems.append(f"digests differ from the earlier run recorded in {record}")
            for rep in reps:
                rep.failed = ops_per_rep
        for k, rep in enumerate(reps):
            if rep.digests != reference:
                self.outcome.problems.append(f"repetition {k} digests differ from repetition 0")
                rep.failed = ops_per_rep
        return reference


def manifest() -> dict:
    return json.loads((FIXTURES / "fixtures.json").read_text(encoding="ascii"))


def fixture_digests() -> dict[str, str]:
    return {arch: m["sha256"] for arch, m in manifest()["models"].items()}


def fixture_path(arch: str) -> Path:
    """The committed model, refused when it no longer matches its digest."""
    path = FIXTURES / f"{arch}.json"
    expected = fixture_digests().get(arch)
    actual = corpus.file_sha256(path)
    if actual != expected:
        raise ValueError(f"fixture {path.name} has sha256 {actual}, manifest says {expected}")
    return path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def rate(reps: list[Rep], clock_field: str) -> float:
    """Operations per second over all the repetitions together, which
    averages the machine's fast and slow periods better than a median of a
    few repetitions does."""
    return sum(r.ops for r in reps) / sum(getattr(t, clock_field) for r in reps for t in r.timed)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def split(items, parts: int) -> list:
    size = len(items) // parts
    return [items[j * size : (j + 1) * size] for j in range(parts)]


def run_campaign(runner: Runner, w: Campaign):
    nf, out = runner.nf, runner.outcome
    model_path = fixture_path(w.fixture)
    split_dir = corpus.ensure("test", w.n_inputs, runner.seed)
    (model, data), setup = runner.setup(
        lambda: (nf.model_io.load_model(model_path), nf.model_io.load_mnist(*corpus.split_paths(split_dir)))
    )
    inputs = [data.image(i) for i in range(len(data))]
    shards = split(inputs, w.shards)
    cfg = nf.fuzzer.FuzzConfig(**w.config)
    out_dir = corpus.WORK / "campaign" / runner.name
    shutil.rmtree(out_dir, ignore_errors=True)

    def body(k: int, traced: bool) -> Rep:
        reports, timed = [], []
        with runner.traced(f"rep{k}", traced):
            for j, shard in enumerate(shards):
                with clock.Section() as fuzz:
                    report = nf.fuzzer.fuzz_corpus(model, shard, cfg)
                nf.fuzzer.write_campaign_report(report, out_dir / f"shard{j}")
                reports.append(report)
                timed.append(fuzz.timing)
        failed, digests = 0, {}
        for j, (shard, report) in enumerate(zip(shards, reports)):
            bad = checks.failed_inputs(model, shard, report)
            failed += len(bad)
            for i, problems in sorted(bad.items())[:3]:
                out.problems.append(f"repetition {k} shard {j} input {i}: {'; '.join(problems)}")
            for name, digest in checks.campaign_digests(out_dir / f"shard{j}", report).items():
                digests[f"shard{j}/{name}"] = digest
        records = [r for report in reports for r in report.records]
        return Rep(
            traced=traced,
            ops=len(inputs),
            timed=timed,
            failed=failed,
            digests=digests,
            info={
                "records": len(records),
                "input_wall_s": [t for report in reports for t in report.input_wall_s],
                "final_coverage": sum(r.final_coverage for r in reports) / len(reports),
                "mean_rel_distance": sum(r.distance for r in records) / len(records) if records else 0.0,
                "seeds_processed": sum(r.coverage_curve[-1].seeds_processed for r in reports if r.coverage_curve),
            },
        )

    reps = runner.repeat(body, math.ceil(P99_MIN_SAMPLES / w.n_inputs))
    out.digests = runner.settle_digests(reps, len(inputs), w)
    out.attempted = len(inputs) * len(reps)
    out.failed = sum(r.failed for r in reps)
    plain = [r for r in reps if not r.traced]
    first = reps[0].info
    walls_ms = [t * 1000.0 for r in plain for t in r.info["input_wall_s"]]
    out.end_to_end = {
        "setup_s": (median(t.scaled_s for t in setup), "s"),
        "ops_per_s": (rate(plain, "scaled_s"), "1/s"),
        "quality": (first["final_coverage"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.detail = {
        "setup_s": (median(t.raw_s for t in setup), "s"),
        "seeds_per_s": (rate(plain, "raw_s"), "1/s"),
        "adversarials_per_s": (rate(plain, "raw_s") * first["records"] / len(inputs), "1/s"),
        "input_ms_p50": (percentile(walls_ms, 50), "ms"),
        "input_ms_p99": (percentile(walls_ms, 99), "ms"),
        "input_ms_samples": (len(walls_ms), "count"),
        "adversarial_yield": (first["records"] / len(inputs), "ratio"),
        "final_coverage": (first["final_coverage"], "ratio"),
        "mean_rel_distance": (first["mean_rel_distance"], "ratio"),
        "peak_rss_mb": out.end_to_end["peak_rss_mb"],
        "slowdown": (rate(plain, "scaled_s") / rate(plain, "raw_s"), "ratio"),
        "repetitions": (len(plain), "count"),
    }
    if runner.trace:
        out.per_layer = per_layer(runner, reps, n_origins=len(inputs))


def run_training(runner: Runner, w: Training):
    nf, out = runner.nf, runner.outcome
    pool_dir = corpus.ensure("pool")
    expected = manifest()["pool"]["sha256"]
    if corpus.file_sha256(*corpus.split_paths(pool_dir)) != expected:
        raise ValueError(f"train pool in {pool_dir} does not match sha256 {expected}")
    test_dir = corpus.ensure("test", w.n_test, runner.seed)
    (pool, test_split), setup = runner.setup(
        lambda: (
            nf.model_io.load_mnist(*corpus.split_paths(pool_dir)),
            nf.model_io.load_mnist(*corpus.split_paths(test_dir)),
        )
    )
    images = pool.images.array
    shards = [
        nf.model_io.DatasetSplit(nf.tensor.Tensor.wrap(images[lo:hi]), pool.labels[lo:hi])
        for lo, hi in ((r.start, r.stop) for r in split(range(len(pool)), w.shards))
    ]
    cfg = nf.trainer.TrainConfig(
        epochs=1,
        batch_size=w.batch_size,
        learning_rate=w.learning_rate,
        rng_seed=w.rng_seed,
    )
    n_images = sum(len(s) for s in shards)

    def body(k: int, traced: bool) -> Rep:
        timed = []
        with runner.traced(f"rep{k}", traced):
            model = w.arch
            for shard in shards:
                with clock.Section() as fit:
                    model = nf.trainer.train(model, shard, cfg)
                timed.append(fit.timing)
            start = time.perf_counter()
            accuracy = nf.trainer.evaluate(model, test_split)
            eval_s = time.perf_counter() - start
        failed = 0
        if not accuracy >= w.min_accuracy:
            out.problems.append(f"repetition {k}: test accuracy {accuracy} < {w.min_accuracy}")
            failed = n_images
        return Rep(
            traced=traced,
            ops=n_images,
            timed=timed,
            failed=failed,
            digests=dict(checks.weights_digest(model), test_accuracy=repr(accuracy)),
            info={"test_accuracy": accuracy, "eval_s": eval_s},
        )

    reps = runner.repeat(body, 1)
    out.digests = runner.settle_digests(reps, n_images, w)
    out.attempted = n_images * len(reps)
    out.failed = sum(r.failed for r in reps)
    plain = [r for r in reps if not r.traced]
    accuracy = reps[0].info["test_accuracy"]
    out.end_to_end = {
        "setup_s": (median(t.scaled_s for t in setup), "s"),
        "ops_per_s": (rate(plain, "scaled_s"), "1/s"),
        "quality": (accuracy, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    out.detail = {
        "setup_s": (median(t.raw_s for t in setup), "s"),
        "train_images_per_s": (rate(plain, "raw_s"), "1/s"),
        "eval_images_per_s": (len(test_split) * len(plain) / sum(r.info["eval_s"] for r in plain), "1/s"),
        "test_accuracy": (accuracy, "ratio"),
        "peak_rss_mb": out.end_to_end["peak_rss_mb"],
        "slowdown": (rate(plain, "scaled_s") / rate(plain, "raw_s"), "ratio"),
        "repetitions": (len(plain), "count"),
    }
    if runner.trace:
        out.per_layer = per_layer(runner, reps, n_origins=0)


# model_io's loaders run in set-up; every other traced function is measured
# over the workload's repetitions.
SETUP_FUNCTIONS = ("model_io.load_model", "model_io.load_mnist")

PER_LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "self_us_p50": "us"}
FUZZER_COUNTS = ("seeds_processed", "mutants", "seeds_kept", "records")
FUZZER_RATIOS = ("flip_ratio", "keep_ratio")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{fn}.{stat}", unit) for fn in spans.SPAN_NAMES for stat, unit in PER_LAYER_UNITS.items()]
    names += [(f"fuzzer.{c}", "count") for c in FUZZER_COUNTS]
    names += [(f"fuzzer.{r}", "ratio") for r in FUZZER_RATIOS]
    names.append(("tracing_overhead_pct", "%"))
    return names


def per_layer(runner: Runner, reps: list[Rep], n_origins: int) -> dict[str, tuple[float, str]]:
    groups = runner.outcome.spans
    stats = {g: spans.layer_stats(s) for g, s in groups.items()}
    traced_reps = [f"rep{k}" for k, r in enumerate(reps) if r.traced]
    setups = [g for g in groups if g.startswith("setup")]
    metrics: dict[str, tuple[float, str]] = {}
    for fn in spans.SPAN_NAMES:
        per_group = [stats[g].get(fn) for g in (setups if fn in SETUP_FUNCTIONS else traced_reps)]
        metrics[f"{fn}.calls"] = (int(median(s.calls if s else 0 for s in per_group)), "count")
        metrics[f"{fn}.total_s"] = (median(s.total_s if s else 0.0 for s in per_group), "s")
        metrics[f"{fn}.self_s"] = (median(s.self_s if s else 0.0 for s in per_group), "s")
        self_us = [t for s in per_group if s for t in s.self_us]
        metrics[f"{fn}.self_us_p50"] = (median(self_us), "us")
    # counts are deterministic, so any traced repetition gives them
    first = next(k for k, r in enumerate(reps) if r.traced)
    predicts = stats[f"rep{first}"].get("nn.predict")
    mutants = (predicts.calls if predicts else 0) - n_origins
    kept = runner.counts[f"rep{first}"].get("fuzzer.seeds_kept", 0)
    records = reps[first].info.get("records", 0)
    metrics["fuzzer.seeds_processed"] = (reps[first].info.get("seeds_processed", 0), "count")
    metrics["fuzzer.mutants"] = (mutants, "count")
    metrics["fuzzer.seeds_kept"] = (kept, "count")
    metrics["fuzzer.records"] = (records, "count")
    metrics["fuzzer.flip_ratio"] = (records / mutants if mutants else 0.0, "ratio")
    metrics["fuzzer.keep_ratio"] = (kept / mutants if mutants else 0.0, "ratio")
    traced = rate([r for r in reps if r.traced], "scaled_s")
    metrics["tracing_overhead_pct"] = (100.0 * (rate([r for r in reps if not r.traced], "scaled_s") / traced - 1.0), "%")
    return metrics


def ops_per_rep(name: str) -> int:
    w = WORKLOADS[name]
    return w.n_inputs if isinstance(w, Campaign) else corpus.POOL_SIZE


def run(runner: Runner):
    canary = manifest()["canary"]
    if corpus.canary_sha256(canary["n"], canary["seed"]) != canary["sha256"]:
        raise ValueError("tests/synthdigits.py no longer renders the corpus the fixtures were built from")
    w = WORKLOADS[runner.name]
    if isinstance(w, Campaign):
        run_campaign(runner, w)
    else:
        run_training(runner, w)
