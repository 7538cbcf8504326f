"""Coverage-guided differential fuzzing loop.

Each test input is predicted once, in a chunk of ORIGIN_CHUNK inputs that
share one pass with predict's bits, and seeds a FIFO queue with its trace.
Every seed carries the trace it was judged with, so a popped seed is not
predicted again: m target neurons are selected from its trace, and a joint
objective (top-k other-class confidence minus original-class confidence, plus
weighted target-neuron outputs) is differentiated with respect to the input.
The processed gradient is applied cumulatively iter_times times; each
mutant's trace is folded into the shared coverage tracker. A mutant survives
as a new seed only while it looks like the original (label unchanged,
relative L2 distance within distance_max) and still buys enough new coverage;
a label flip is recorded as adversarial and ends that seed's mutation run.
The first step of every run is shortened to the L2 room the seed has left
under distance_max, so each run's first mutant lies inside the cap and can be
kept; the later steps take the full step_size and search beyond it for a
flip.

Adversarial detection needs no ground-truth labels: the model's prediction on
the original input is the reference, so any flip is a behavioral
inconsistency by construction.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, deque
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import coverage as cov
from . import nn
from .errors import ContractViolation
from .model_io import export_image_pgm, import_image_pgm
from .tensor import Tensor, l2_norm

MUTATION_MODES = ("guided", "random")
ORIGIN_CHUNK = 4  # origins per stacked pass: no origin's prediction reads the tracker


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign hyperparameters. Defaults hold for every knob.

    use_logits moves the class terms of the objective from post-softmax
    confidences to pre-softmax logits; confidences are the default.

    Each mutation normalizes the gradient to unit L2 and scales it by
    step_size, so step_size is the absolute L2 length of each iteration's
    perturbation and needs to be on the scale of the input norm to matter.
    The first step of a seed's run is shortened, when it is longer, to the
    L2 room the seed has left under the cap: distance_max times the origin's
    L2 norm, less the seed's own L2 offset from the origin and a float32
    rounding allowance. That mutant thus stays inside the cap for the gain
    gate to judge; the other iter_times - 1 steps are full length.
    """

    k: int = 4
    m: int = 10
    strategies: tuple[int, ...] = (1,)
    lam: float = 1.0
    iter_times: int = 3
    activation_threshold: float = 0.25
    distance_max: float = 0.02
    coverage_gain_initial: float = 0.01
    coverage_gain_decay: float = 0.9
    coverage_gain_floor: float = 0.001
    step_size: float = 1.2
    max_seeds_per_input: int = 64
    pixel_range: tuple[float, float] = (0.0, 1.0)
    use_logits: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        _check_field_types(self)
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "pixel_range", tuple(self.pixel_range))
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ContractViolation(f"{f.name} must be finite, got {value!r}")
        if self.k < 1 or self.m < 1 or self.iter_times < 1:
            raise ContractViolation("k, m and iter_times must all be >= 1")
        if not self.strategies or any(s not in cov.STRATEGIES for s in self.strategies):
            raise ContractViolation(
                f"strategies must be a non-empty list of 1-4, got {list(self.strategies)}"
            )
        if not 0 < self.coverage_gain_decay <= 1:
            raise ContractViolation("coverage_gain_decay must be in (0, 1]")
        for name in ("coverage_gain_initial", "coverage_gain_floor"):  # a share of neurons
            if not 0 <= getattr(self, name) <= 1:
                raise ContractViolation(f"{name} must be in [0, 1]")
        if self.distance_max <= 0:
            raise ContractViolation("distance_max must be positive")
        if not 0 < self.activation_threshold < 1:
            raise ContractViolation("activation_threshold must be in (0, 1)")
        if self.step_size <= 0:
            raise ContractViolation("step_size must be positive")
        if self.max_seeds_per_input < 1:
            raise ContractViolation("max_seeds_per_input must be >= 1")
        if self.rng_seed < 0:
            raise ContractViolation("rng_seed must be >= 0")
        lo, hi = self.pixel_range
        if not 0 <= lo < hi <= 1:
            raise ContractViolation(
                f"pixel_range must satisfy 0 <= lo < hi <= 1, got {list(self.pixel_range)}"
            )

    def gain_requirement(self, seeds_processed: int) -> float:
        """Coverage-gain ratio a mutant must reach to stay in the queue;
        decays geometrically with the number of seeds already processed."""
        return max(
            self.coverage_gain_initial * self.coverage_gain_decay**seeds_processed,
            self.coverage_gain_floor,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzConfig":
        """Build a config from JSON-shaped values, as config.json holds them;
        a missing key takes its default. An unknown key is refused here; the
        constructor checks the values."""
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ContractViolation(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the values a config field may hold, by its annotation
_FIELD_CHECKS = {
    "int": _is_int,
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    "tuple[float, float]": lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))
    ),
}


def _check_field_types(config):
    """Refuse a config dataclass whose field value does not fit its
    annotation, naming the first such field; FuzzConfig and TrainConfig call
    it before any range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _FIELD_CHECKS[f.type](value):
            raise ContractViolation(f"config field {f.name!r} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class _Seed:
    """A queued input x, as the trace it was judged with; distance is relative L2 to the origin."""

    trace: nn.ActivationTrace
    generation: int
    distance: float = 0.0

    @property
    def x(self) -> Tensor:
        return self.trace.input


class SeedQueue:
    """FIFO of seeds for one origin input, capped in length; pushes beyond
    the cap are dropped."""

    def __init__(self, max_len: int):
        self._q: deque[_Seed] = deque()
        self._max_len = max_len

    def __len__(self) -> int:
        return len(self._q)

    def push(self, seed: _Seed):
        if len(self._q) < self._max_len:
            self._q.append(seed)

    def pop(self) -> _Seed:
        return self._q.popleft()


@dataclass(frozen=True)
class AdversarialRecord:
    """One label flip: the mutated image plus where and when it was found.

    distance is relative L2 to the origin input (the seed-keeping metric) and
    distance_abs the plain L2 norm of the perturbation, both finite. iteration
    is 1-based within the seed's mutation run; no field is negative.
    """

    input_index: int
    original_label: int
    adversarial_label: int
    mutated: Tensor
    distance: float
    distance_abs: float
    seed_generation: int
    iteration: int

    def __post_init__(self):
        if self.adversarial_label == self.original_label:
            raise ContractViolation("adversarial label equals original label")
        if min(self.input_index, self.original_label, self.adversarial_label,
               self.seed_generation, self.iteration - 1) < 0:
            raise ContractViolation("index, labels and generation must be >= 0, iteration >= 1")
        if not (0 <= self.distance < math.inf and 0 <= self.distance_abs < math.inf):
            raise ContractViolation("distances must be finite and non-negative")


def _manifest_columns() -> list:
    """The columns of manifest.csv: AdversarialRecord's fields but the image,
    in field order. A cell is written by repr, which is str for an int, and
    read back by its field's annotation, int or float."""
    return [f for f in fields(AdversarialRecord) if f.name != "mutated"]


MANIFEST_HEADER = ",".join(f.name for f in _manifest_columns())


@dataclass(frozen=True)
class CoveragePoint:
    """The campaign's state after one input: the seeds processed so far,
    over every input, and the coverage rate. The input is the point's
    position in CampaignReport.coverage_curve."""

    seeds_processed: int
    coverage_rate: float


@dataclass(frozen=True)
class CampaignReport:
    """What fuzz_corpus found, with one curve point and wall time per input."""

    records: tuple[AdversarialRecord, ...]
    coverage_curve: tuple[CoveragePoint, ...]
    input_wall_s: tuple[float, ...]
    config: FuzzConfig
    mutation: str = "guided"

    @property
    def final_coverage(self) -> float:
        """The coverage rate after the last input, 0.0 with no inputs."""
        return self.coverage_curve[-1].coverage_rate if self.coverage_curve else 0.0


def process_gradient(grads: np.ndarray, step_size: float) -> np.ndarray:
    """Turn a raw input gradient into a perturbation of L2 length step_size:
    the gradient normalized to unit L2, times the step. A zero gradient
    gives the zero perturbation."""
    return grads * grads.dtype.type(step_size / max(l2_norm(grads), 1e-12))


def _shorten_to(pert: np.ndarray, budget: float) -> np.ndarray:
    """Scale a perturbation down, if needed, so its L2 norm is at most
    budget (a budget at or below zero gives the zero perturbation)."""
    norm = l2_norm(pert)
    if norm <= budget or norm == 0.0:
        return pert
    return pert * pert.dtype.type(max(budget, 0.0) / norm)


def relative_distance(x_prime: Tensor, x: Tensor) -> float:
    """L2 norm of the perturbation over the L2 norm of the original."""
    if x_prime.shape != x.shape:
        raise ContractViolation(f"shape mismatch {x_prime.shape} vs {x.shape}")
    ref = l2_norm(x.array)
    if ref == 0.0:
        raise ContractViolation("relative distance undefined for all-zero input")
    return _distance(x_prime.array, x.array.astype(np.float64), ref)


def _distance(x_prime: np.ndarray, x64: np.ndarray, ref: float) -> float:
    """relative_distance, given the original's float64 copy and L2 norm."""
    return l2_norm(x_prime.astype(np.float64) - x64) / ref


def _mutants(
    model: nn.Model,
    cur: np.ndarray,
    step: np.ndarray | None,
    rng: np.random.Generator | None,
    budget: float,
    cfg: FuzzConfig,
    x64: np.ndarray,
    x_norm: float,
):
    """Yield a seed's mutants in iteration order, each predicted, as (trace,
    relative distance to the origin).

    Each mutant is the one before it (cur, the seed, for the first) plus a
    step, clipped into pixel_range: the guided step, or in random mode one
    drawn from rng; the first step is shortened to budget. A guided step
    does not depend on a prediction, so guided mutants are stepped ahead of
    their judging. Consecutive guided mutants inside distance_max wait and
    are predicted together by nn.predict_each, which has predict's bits and
    picks its body by the number of mutants. A mutant outside the cap is
    predicted alone, after the mutants waiting before it.

    A random mutant is predicted and yielded as soon as it is drawn, so a
    caller that stops at it leaves the generator where a step-by-step run
    would have left it.
    """
    lo, hi = cfg.pixel_range
    group: list[Tensor] = []
    dists: list[float] = []
    for iteration in range(1, cfg.iter_times + 1):
        if rng is None:
            pert = step
        else:
            noise = rng.standard_normal(cur.shape).astype(cur.dtype)
            pert = process_gradient(noise, cfg.step_size)
        if iteration == 1:
            pert = _shorten_to(pert, budget)
        mutant = Tensor.wrap(np.clip(cur + pert, lo, hi))
        cur = mutant.array
        dist = _distance(cur, x64, x_norm)
        if rng is None and dist <= cfg.distance_max:
            group.append(mutant)
            dists.append(dist)
            continue
        if group:
            yield from zip(nn.predict_each(model, group), dists)
            group, dists = [], []
        yield nn.predict(model, mutant), dist
    if group:
        yield from zip(nn.predict_each(model, group), dists)


def _fuzz_one(
    model: nn.Model,
    tracker: cov.CoverageTracker,
    trace0: nn.ActivationTrace,
    cfg: FuzzConfig,
    input_index: int,
    rng: np.random.Generator | None,
) -> tuple[list[AdversarialRecord], int]:
    """Run the full mutation loop for trace0.input against a shared tracker;
    fuzz_corpus has predicted and checked the input, so nothing is checked here.

    Returns the adversarial records found and the number of seeds processed;
    an empty record list is a normal outcome, and the coverage this input
    added is read from the tracker. An all-zero input has no relative
    distance to mutate within, so it is skipped: no records, no seeds.
    Without rng the mutation is guided by the gradient; with one, it is
    random noise drawn from rng.

    Each mutant is stepped, clipped and measured on plain arrays, against
    the origin's float64 copy and L2 norm taken once per input, and becomes
    a validated Tensor once, as it is stepped. A guided seed's perturbation
    is worked out once for its whole run. The mutants are judged in
    iteration order, each as it comes out of _mutants: its trace is folded
    into the tracker, then a flip is recorded and ends the run, or a mutant
    that passes both gates is kept.
    """
    x = trace0.input
    x_norm = l2_norm(x.array)
    if x_norm == 0.0:
        return [], 0
    x64 = x.array.astype(np.float64)
    lo, hi = cfg.pixel_range
    # float32 rounding of seed + step can lengthen a step by up to this much
    # in L2; it is held back from the room under the cap, so a shortened
    # first mutant passes the distance gate exactly
    slack = np.finfo(x.array.dtype).eps * max(abs(lo), abs(hi)) * np.sqrt(x.array.size)

    c_orig = trace0.predicted_label
    queue = SeedQueue(cfg.max_seeds_per_input)
    queue.push(_Seed(trace0, 0))

    records: list[AdversarialRecord] = []
    processed = 0
    while len(queue) > 0 and processed < cfg.max_seeds_per_input:
        seed = queue.pop()
        requirement = cfg.gain_requirement(processed)
        processed += 1

        if rng is None:
            topk = nn.top_k_other_labels(seed.trace, cfg.k)
            neurons = cov.select_neurons(tracker, cfg.strategies, cfg.m, seed.trace)
            spec = nn.ObjectiveSpec(
                original_label=seed.trace.predicted_label,
                topk_labels=tuple(topk),
                target_neurons=tuple(neurons),
                lam=cfg.lam,
                use_logits=cfg.use_logits,
            )
            grad = nn.input_gradient(model, seed.x, spec, seed.trace)
            # the seed's gradient is fixed for its whole run, so is its step
            step = process_gradient(grad.array, cfg.step_size)
        else:
            step = None

        # L2 room the seed has left under distance_max; the run's first step
        # is shortened to it, so every run offers the gates one mutant inside
        # the cap however large step_size is
        budget = (cfg.distance_max - seed.distance) * x_norm - slack
        run = _mutants(model, seed.x.array, step, rng, budget, cfg, x64, x_norm)
        for iteration, (trace_m, dist) in enumerate(run, start=1):
            newly = cov.update(tracker, model, trace_m)
            c_m = trace_m.predicted_label
            if c_m != c_orig:
                records.append(
                    AdversarialRecord(
                        input_index=input_index,
                        original_label=c_orig,
                        adversarial_label=c_m,
                        mutated=trace_m.input,
                        distance=dist,
                        distance_abs=l2_norm(trace_m.input.array - x.array),
                        seed_generation=seed.generation,
                        iteration=iteration,
                    )
                )
                break
            if newly / tracker.total_neurons >= requirement and dist <= cfg.distance_max:
                queue.push(_Seed(trace_m, seed.generation + 1, dist))

    return records, processed


def fuzz_corpus(
    model: nn.Model,
    inputs: list[Tensor],
    cfg: FuzzConfig,
    mutation: str = "guided",
) -> CampaignReport:
    """Fuzz inputs in order against one shared tracker.

    mutation="random" replaces the gradient with seeded Gaussian noise pushed
    through the same processing, keeping the mutation budget identical; it is
    the paired baseline for judging guidance. Each input draws from its own
    generator spawned from rng_seed, so with a fixed rng_seed the campaign is
    reproducible bit for bit in either mode. The coverage curve has one point
    per input, taken after it. The inputs are predicted ORIGIN_CHUNK at a
    time, by one nn.predict_each as the loop reaches a chunk's first input,
    whose wall time includes that pass; nn picks the pass's body by the
    number of inputs, so a last chunk of one is one batch-1 predict.

    This is the campaign's one checked entry: it checks the mutation mode,
    then every input (nn.check_input's rule, then pixels inside pixel_range)
    before it fuzzes the first. A bad mode raises ContractViolation, and so
    does a bad input, naming its index.
    """
    if mutation not in MUTATION_MODES:
        raise ContractViolation(f"mutation must be one of {MUTATION_MODES}")
    lo, hi = cfg.pixel_range
    for i, x in enumerate(inputs):
        try:
            nn.check_input(model, x)
        except ContractViolation as exc:
            raise ContractViolation(f"input {i}: {exc}") from None
        if x.array.min() < lo or x.array.max() > hi:
            raise ContractViolation(f"input {i}: pixels outside pixel_range [{lo}, {hi}]")
    tracker = cov.CoverageTracker(model, cfg.activation_threshold)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(inputs))
    records: list[AdversarialRecord] = []
    curve: list[CoveragePoint] = []
    walls: list[float] = []
    cumulative_seeds = 0
    for i in range(len(inputs)):
        start = time.perf_counter()
        if i % ORIGIN_CHUNK == 0:
            origins = nn.predict_each(model, inputs[i : i + ORIGIN_CHUNK])
        # guided mode draws nothing, so only random mode pays for a generator
        rng = np.random.default_rng(seeds[i]) if mutation == "random" else None
        recs, processed = _fuzz_one(model, tracker, origins[i % ORIGIN_CHUNK], cfg, i, rng)
        walls.append(time.perf_counter() - start)
        records.extend(recs)
        cumulative_seeds += processed
        curve.append(CoveragePoint(cumulative_seeds, cov.coverage_rate(tracker)))
    return CampaignReport(tuple(records), tuple(curve), tuple(walls), cfg, mutation)


# ---------------------------------------------------------------------------
# campaign artifacts


def _adv_name(rec: AdversarialRecord, seq: int) -> str:
    """PGM name carrying origin index, per-input sequence and both labels."""
    return f"adv_{rec.input_index}_{seq}_{rec.original_label}to{rec.adversarial_label}.pgm"


def write_campaign_report(report: CampaignReport, out_dir: str | Path) -> Path:
    """Materialize a campaign: adversarial/ PGM images, manifest.csv,
    coverage.csv, timing.csv and config.json.

    manifest.csv and coverage.csv depend only on the campaign's deterministic
    outputs, so a fixed rng_seed reproduces them byte for byte; wall-clock
    measurements live in timing.csv only. An adv_*.pgm image in adversarial/
    that the new manifest does not name, left by an earlier campaign written
    to the same directory, is deleted.
    """
    out = Path(out_dir)
    images = out / "adversarial"
    images.mkdir(parents=True, exist_ok=True)

    seq: Counter[int] = Counter()
    names: set[str] = set()
    columns = [f.name for f in _manifest_columns()]
    manifest = [MANIFEST_HEADER]
    for rec in report.records:
        name = _adv_name(rec, seq[rec.input_index])
        seq[rec.input_index] += 1
        names.add(name)
        export_image_pgm(rec.mutated, images / name)
        manifest.append(",".join(repr(getattr(rec, c)) for c in columns))
    for stale in images.glob("adv_*.pgm"):
        if stale.name not in names:
            stale.unlink()
    (out / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="ascii")

    curve = ["input_index,seeds_processed,coverage_rate"]
    curve += [
        f"{i},{p.seeds_processed},{p.coverage_rate!r}"
        for i, p in enumerate(report.coverage_curve)
    ]
    (out / "coverage.csv").write_text("\n".join(curve) + "\n", encoding="ascii")

    timing = ["input_index,wall_ms"]
    timing += [f"{i},{w * 1000.0:.3f}" for i, w in enumerate(report.input_wall_s)]
    (out / "timing.csv").write_text("\n".join(timing) + "\n", encoding="ascii")

    (out / "config.json").write_text(
        json.dumps(asdict(report.config), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    return out


def read_campaign_records(campaign_dir: str | Path) -> list[AdversarialRecord]:
    """Rebuild adversarial records from a written campaign directory, whose
    manifest.csv must open with MANIFEST_HEADER, joining rows and PGM files.
    A row that does not parse, or that AdversarialRecord refuses, raises
    ContractViolation naming its line before the PGM it names is read."""
    campaign = Path(campaign_dir)
    manifest = campaign / "manifest.csv"
    if not manifest.exists():
        raise ContractViolation(f"{campaign} has no manifest.csv")
    try:
        lines = manifest.read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{manifest}: byte {exc.start} is not ASCII") from None
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ContractViolation(f"{manifest} line 1: expected header {MANIFEST_HEADER!r}")
    columns = [(f.name, int if f.type == "int" else float) for f in _manifest_columns()]
    records = []
    seq: Counter[int] = Counter()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ContractViolation(
                f"{manifest} line {lineno}: expected {len(columns)} fields, got {len(cells)}"
            )
        try:
            row = {name: parse(cell) for (name, parse), cell in zip(columns, cells)}
            rec = AdversarialRecord(mutated=None, **row)  # the image is read after the check
            name = _adv_name(rec, seq[rec.input_index])
            seq[rec.input_index] += 1
            records.append(replace(rec, mutated=import_image_pgm(campaign / "adversarial" / name)))
        except (ValueError, ContractViolation) as exc:
            raise ContractViolation(f"{manifest} line {lineno}: {exc}") from None
    return records
