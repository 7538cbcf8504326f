"""Coverage-guided differential fuzzing loop.

Each test input seeds a FIFO queue. Every popped seed is predicted, m target
neurons are selected, and a joint objective (top-k other-class confidence
minus original-class confidence, plus weighted target-neuron outputs) is
differentiated with respect to the input. The processed gradient is applied
cumulatively iter_times times; each mutant's trace is folded into the shared
coverage tracker. A mutant survives as a new seed only while it looks like
the original (label unchanged, relative L2 distance within distance_max) and
still buys enough new coverage; a label flip is recorded as adversarial and
ends that seed's mutation run. The first step of every run is shortened to
the L2 room the seed has left under distance_max, so each run's first mutant
lies inside the cap and can be kept; the later steps take the full step_size
and search beyond it for a flip.

Adversarial detection needs no ground-truth labels: the model's prediction on
the original input is the reference, so any flip is a behavioral
inconsistency by construction.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, deque
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import coverage as cov
from . import nn
from .errors import ContractViolation
from .model_io import export_image_pgm, import_image_pgm
from .tensor import Tensor, l2_norm

MUTATION_MODES = ("guided", "random")


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
        if self.distance_max <= 0:
            raise ContractViolation("distance_max must be positive")
        if not 0 < self.activation_threshold < 1:
            raise ContractViolation("activation_threshold must be in (0, 1)")
        if self.step_size <= 0:
            raise ContractViolation("step_size must be positive")
        if self.max_seeds_per_input < 1:
            raise ContractViolation("max_seeds_per_input must be >= 1")
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

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzConfig":
        """Build a config from JSON-shaped values, as to_dict writes them."""
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ContractViolation(f"unknown config fields: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in d and not _FIELD_CHECKS[f.type](d[f.name]):
                raise ContractViolation(
                    f"config field {f.name!r} must be {f.type}, got {d[f.name]!r}"
                )
        return cls(**d)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the values a JSON config may hold, by the annotation of the FuzzConfig field
_FIELD_CHECKS = {
    "int": _is_int,
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    "tuple[float, float]": lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))
    ),
}


@dataclass(frozen=True)
class _Seed:
    x: Tensor
    generation: int
    trace: nn.ActivationTrace
    distance: float = 0.0  # relative L2 to the origin input


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

    distance is relative L2 to the origin input (the seed-keeping metric);
    distance_abs is the plain L2 norm of the perturbation. iteration is
    1-based within the seed's mutation run.
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
        if self.distance < 0 or self.distance_abs < 0:
            raise ContractViolation("distances must be non-negative")


@dataclass(frozen=True)
class CoveragePoint:
    input_index: int
    seeds_processed: int  # cumulative over the campaign
    coverage_rate: float


@dataclass(frozen=True)
class CampaignReport:
    records: tuple[AdversarialRecord, ...]
    coverage_curve: tuple[CoveragePoint, ...]
    final_coverage: float
    input_wall_s: tuple[float, ...]
    config: FuzzConfig
    mutation: str = "guided"

    @property
    def total_wall_s(self) -> float:
        return float(sum(self.input_wall_s))

    @property
    def seconds_per_adversarial(self) -> float | None:
        if not self.records:
            return None
        return self.total_wall_s / len(self.records)


def process_gradient(grads: Tensor, step_size: float) -> Tensor:
    """Turn a raw input gradient into a perturbation of L2 length step_size:
    the gradient normalized to unit L2, times the step. A zero gradient
    gives the zero perturbation."""
    g = grads.array
    return Tensor.wrap(g * g.dtype.type(step_size / max(l2_norm(grads), 1e-12)))


def _shorten_to(pert: Tensor, budget: float) -> Tensor:
    """Scale a perturbation down, if needed, so its L2 norm is at most
    budget (a budget at or below zero gives the zero perturbation)."""
    norm = l2_norm(pert)
    if norm <= budget or norm == 0.0:
        return pert
    scale = max(budget, 0.0) / norm
    return Tensor.wrap(pert.array * pert.array.dtype.type(scale))


def relative_distance(x_prime: Tensor, x: Tensor) -> float:
    """L2 norm of the perturbation over the L2 norm of the original."""
    if x_prime.shape != x.shape:
        raise ContractViolation(f"shape mismatch {x_prime.shape} vs {x.shape}")
    ref = l2_norm(x)
    if ref == 0.0:
        raise ContractViolation("relative distance undefined for all-zero input")
    return _distance(x_prime.array, x.array.astype(np.float64), ref)


def _distance(x_prime: np.ndarray, x64: np.ndarray, ref: float) -> float:
    """relative_distance, given the original's float64 copy and L2 norm."""
    diff = (x_prime.astype(np.float64) - x64).ravel()
    return float(np.sqrt(np.dot(diff, diff))) / ref


def _check_input(model: nn.Model, x: Tensor, cfg: FuzzConfig):
    """x must be a Tensor of the model's input shape and precision, with
    every pixel inside pixel_range."""
    if not isinstance(x, Tensor):
        raise ContractViolation(f"expected a Tensor, got {type(x).__name__}")
    nn.check_input(model, x)
    lo, hi = cfg.pixel_range
    arr = x.array
    if arr.min() < lo or arr.max() > hi:
        raise ContractViolation(f"input pixels outside pixel_range [{lo}, {hi}]")


def _mutate(
    model: nn.Model,
    tracker: cov.CoverageTracker,
    cur: np.ndarray,
    pert: np.ndarray,
    pixel_range: tuple[float, float],
    x64: np.ndarray,
    x_norm: float,
) -> tuple[nn.ActivationTrace, int, float]:
    """One mutation step: clip cur + pert into pixel_range, predict it and
    fold its trace into the tracker. Returns the trace, whose input is the
    mutant as a validated Tensor, the number of neurons it newly covered,
    and its relative distance to the origin, given the origin's float64
    copy x64 and L2 norm x_norm."""
    lo, hi = pixel_range
    trace = nn.predict(model, Tensor.wrap(np.clip(cur + pert, lo, hi)))
    newly = cov.update(tracker, model, trace)
    return trace, newly, _distance(trace.input.array, x64, x_norm)


def fuzz_one_input(
    model: nn.Model,
    tracker: cov.CoverageTracker,
    x: Tensor,
    cfg: FuzzConfig,
    input_index: int = 0,
    rng: np.random.Generator | None = None,
    mutation: str = "guided",
) -> tuple[list[AdversarialRecord], int]:
    """Run the full mutation loop for one input against a shared tracker.

    Returns the adversarial records found and the number of seeds processed;
    an empty record list is a normal outcome, and the coverage this input
    added is read from the tracker. An all-zero input has no relative
    distance to mutate within, so it is skipped: no records, no seeds.
    Random mutation draws its noise from rng.

    Each mutant is stepped, clipped and measured on plain arrays, against
    the origin's float64 copy and L2 norm taken once per input, and becomes
    a validated Tensor once, where it enters nn.predict. A guided seed's
    perturbation is worked out once for its whole run.
    """
    if mutation not in MUTATION_MODES:
        raise ContractViolation(f"mutation must be one of {MUTATION_MODES}")
    if mutation == "random" and rng is None:
        raise ContractViolation("random mutation needs an rng")
    _check_input(model, x, cfg)
    x_norm = l2_norm(x)
    if x_norm == 0.0:
        return [], 0
    x64 = x.array.astype(np.float64)
    lo, hi = cfg.pixel_range
    # float32 rounding of seed + step can lengthen a step by up to this much
    # in L2; it is held back from the room under the cap, so a shortened
    # first mutant passes the distance gate exactly
    slack = np.finfo(x.array.dtype).eps * max(abs(lo), abs(hi)) * np.sqrt(x.array.size)

    trace0 = nn.predict(model, x)
    c_orig = trace0.predicted_label
    queue = SeedQueue(cfg.max_seeds_per_input)
    queue.push(_Seed(x, 0, trace0))

    records: list[AdversarialRecord] = []
    processed = 0
    while len(queue) > 0 and processed < cfg.max_seeds_per_input:
        seed = queue.pop()
        requirement = cfg.gain_requirement(processed)
        processed += 1

        if mutation == "guided":
            topk = nn.top_k_other_labels(seed.trace, cfg.k)
            neurons = cov.select_neurons(tracker, model, cfg.strategies, cfg.m, seed.trace)
            spec = nn.ObjectiveSpec(
                original_label=seed.trace.predicted_label,
                topk_labels=tuple(topk),
                target_neurons=tuple(neurons),
                lam=cfg.lam,
                use_logits=cfg.use_logits,
            )
            grad = nn.input_gradient(model, seed.x, spec, seed.trace)
            # the seed's gradient is fixed for its whole run, so is its step
            step = process_gradient(grad, cfg.step_size)

        cur = seed.x.array
        # L2 room the seed has left under distance_max; the run's first step
        # is shortened to it, so every run offers the gates one mutant inside
        # the cap however large step_size is
        budget = (cfg.distance_max - seed.distance) * x_norm - slack
        for iteration in range(1, cfg.iter_times + 1):
            if mutation == "guided":
                pert = step
            else:
                noise = rng.standard_normal(x.shape).astype(x.array.dtype)
                pert = process_gradient(Tensor.wrap(noise), cfg.step_size)
            if iteration == 1:
                pert = _shorten_to(pert, budget)
            trace_m, newly, dist = _mutate(
                model, tracker, cur, pert.array, cfg.pixel_range, x64, x_norm
            )
            cur = trace_m.input.array
            gain_ratio = newly / tracker.total_neurons
            c_m = trace_m.predicted_label

            if c_m != c_orig:
                records.append(
                    AdversarialRecord(
                        input_index=input_index,
                        original_label=c_orig,
                        adversarial_label=c_m,
                        mutated=trace_m.input,
                        distance=dist,
                        distance_abs=l2_norm(Tensor.wrap(cur - x.array)),
                        seed_generation=seed.generation,
                        iteration=iteration,
                    )
                )
                break
            if gain_ratio >= requirement and dist <= cfg.distance_max:
                queue.push(_Seed(trace_m.input, seed.generation + 1, trace_m, dist))

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
    per input, taken after it.

    Every input is checked (a Tensor of the model's shape and precision,
    pixels inside pixel_range) before the first is fuzzed; a bad one raises
    ContractViolation naming its index.
    """
    for i, x in enumerate(inputs):
        try:
            _check_input(model, x, cfg)
        except ContractViolation as exc:
            raise ContractViolation(f"input {i}: {exc}") from None
    tracker = cov.CoverageTracker(model, cfg.activation_threshold)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(inputs))
    records: list[AdversarialRecord] = []
    curve: list[CoveragePoint] = []
    walls: list[float] = []
    cumulative_seeds = 0
    for i, x in enumerate(inputs):
        start = time.perf_counter()
        # guided mode draws nothing, so only random mode pays for a generator
        rng = np.random.default_rng(seeds[i]) if mutation == "random" else None
        recs, processed = fuzz_one_input(model, tracker, x, cfg, i, rng, mutation)
        walls.append(time.perf_counter() - start)
        records.extend(recs)
        cumulative_seeds += processed
        curve.append(CoveragePoint(i, cumulative_seeds, cov.coverage_rate(tracker)))
    return CampaignReport(
        records=tuple(records),
        coverage_curve=tuple(curve),
        final_coverage=cov.coverage_rate(tracker),
        input_wall_s=tuple(walls),
        config=cfg,
        mutation=mutation,
    )


# ---------------------------------------------------------------------------
# campaign artifacts


def _adv_name(input_index: int, seq: int, original: int, adversarial: int) -> str:
    """PGM name carrying origin index, per-input sequence and both labels."""
    return f"adv_{input_index}_{seq}_{original}to{adversarial}.pgm"


def write_campaign_report(report: CampaignReport, out_dir: str | Path) -> Path:
    """Materialize a campaign: adversarial/ PGM images, manifest.csv,
    coverage.csv, timing.csv and config.json.

    manifest.csv and coverage.csv depend only on the campaign's deterministic
    outputs, so a fixed rng_seed reproduces them byte for byte; wall-clock
    measurements live in timing.csv only.
    """
    out = Path(out_dir)
    (out / "adversarial").mkdir(parents=True, exist_ok=True)

    seq: Counter[int] = Counter()
    manifest = ["input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"]
    for rec in report.records:
        name = _adv_name(rec.input_index, seq[rec.input_index], rec.original_label,
                         rec.adversarial_label)
        seq[rec.input_index] += 1
        export_image_pgm(rec.mutated, out / "adversarial" / name)
        manifest.append(
            f"{rec.input_index},{rec.original_label},{rec.adversarial_label},"
            f"{rec.distance!r},{rec.distance_abs!r},{rec.seed_generation},{rec.iteration}"
        )
    (out / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="ascii")

    curve = ["input_index,seeds_processed,coverage_rate"]
    curve += [
        f"{p.input_index},{p.seeds_processed},{p.coverage_rate!r}"
        for p in report.coverage_curve
    ]
    (out / "coverage.csv").write_text("\n".join(curve) + "\n", encoding="ascii")

    timing = ["input_index,wall_ms"]
    timing += [f"{i},{w * 1000.0:.3f}" for i, w in enumerate(report.input_wall_s)]
    (out / "timing.csv").write_text("\n".join(timing) + "\n", encoding="ascii")

    (out / "config.json").write_text(
        json.dumps(report.config.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    return out


def read_campaign_records(campaign_dir: str | Path) -> list[AdversarialRecord]:
    """Rebuild adversarial records from a written campaign directory by
    joining manifest.csv rows with their PGM files."""
    campaign = Path(campaign_dir)
    manifest = campaign / "manifest.csv"
    if not manifest.exists():
        raise ContractViolation(f"{campaign} has no manifest.csv")
    lines = manifest.read_text(encoding="ascii").splitlines()
    records = []
    seq: Counter[int] = Counter()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 7:
            raise ContractViolation(
                f"{manifest} line {lineno}: expected 7 fields, got {len(cells)}"
            )
        try:
            idx, orig, adv, gen, it = (int(cells[i]) for i in (0, 1, 2, 5, 6))
            dist, dist_abs = float(cells[3]), float(cells[4])
        except ValueError as exc:
            raise ContractViolation(f"{manifest} line {lineno}: {exc}") from None
        name = _adv_name(idx, seq[idx], orig, adv)
        seq[idx] += 1
        records.append(
            AdversarialRecord(
                input_index=idx,
                original_label=orig,
                adversarial_label=adv,
                mutated=import_image_pgm(campaign / "adversarial" / name),
                distance=dist,
                distance_abs=dist_abs,
                seed_generation=gen,
                iteration=it,
            )
        )
    return records
