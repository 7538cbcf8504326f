"""In-memory span tracer for the benchmark's traced runs.

install() replaces functions, looked up as module or class attributes, with
wrappers that record one span per call: name, start and end
(time.perf_counter_ns) and the index of the span that was open when the call
began. Callers inside neurofuzz that reach a function through its module
(nn.predict, cov.update) or a name imported into another module
(fuzzer.clip) see the wrapper, so the spans nest the way the calls do.
Spans stay in memory until the run ends; nothing is written while tracing.
A target that no longer exists is skipped and its metrics read zero.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # ns
    end: int  # ns
    parent: int  # index of the enclosing span, -1 at the top


# (module, attribute path, span name) of every traced public function. clip,
# elementwise_add and l2_norm are traced where the fuzzer imported them, so
# only the fuzzer's calls to them are counted.
TARGETS = (
    ("neurofuzz.nn", "predict", "nn.predict"),
    ("neurofuzz.nn", "input_gradient", "nn.input_gradient"),
    ("neurofuzz.coverage", "update", "coverage.update"),
    ("neurofuzz.coverage", "select_neurons", "coverage.select_neurons"),
    ("neurofuzz.fuzzer", "fuzz_corpus", "fuzzer.fuzz_corpus"),
    ("neurofuzz.fuzzer", "process_gradient", "fuzzer.process_gradient"),
    ("neurofuzz.fuzzer", "relative_distance", "fuzzer.relative_distance"),
    ("neurofuzz.fuzzer", "write_campaign_report", "fuzzer.write_campaign_report"),
    ("neurofuzz.fuzzer", "clip", "tensor.clip"),
    ("neurofuzz.fuzzer", "elementwise_add", "tensor.elementwise_add"),
    ("neurofuzz.fuzzer", "l2_norm", "tensor.l2_norm"),
    ("neurofuzz.tensor", "Tensor.wrap", "tensor.wrap"),
    ("neurofuzz.trainer", "train", "trainer.train"),
    ("neurofuzz.trainer", "evaluate", "trainer.evaluate"),
    ("neurofuzz.model_io", "load_model", "model_io.load_model"),
    ("neurofuzz.model_io", "load_mnist", "model_io.load_mnist"),
    ("neurofuzz.model_io", "export_image_pgm", "model_io.export_image_pgm"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)

# Pushes of generation >= 1 are mutants the fuzzer kept as new seeds.
SEED_PUSH = ("neurofuzz.fuzzer", "SeedQueue.push")


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self._raw: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter[str] = Counter()

    def _record(self, name: str, fn):
        raw, stack = self._raw, self._stack

        def traced(*args, **kwargs):
            idx = len(raw)
            raw.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                raw[idx][2] = time.perf_counter_ns()

        return traced

    def _patch(self, owner, attr: str, make):
        if owner is None:
            return
        static = inspect.getattr_static(owner, attr, None)
        if static is None:
            return
        if isinstance(static, staticmethod):
            replacement = staticmethod(make(static.__func__))
        else:
            replacement = make(static)
        self._patches.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, name in TARGETS:
            self._patch(*_owner(module, path), lambda fn, name=name: self._record(name, fn))

        counters = self.counters

        def counting_push(push):
            def traced_push(queue, seed):
                if seed.generation >= 1:
                    counters["fuzzer.seeds_kept"] += 1
                return push(queue, seed)

            return traced_push

        self._patch(*_owner(*SEED_PUSH), counting_push)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Spans and counts recorded since the last take(); resets both."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans = [Span(*s) for s in self._raw]
        counts = Counter(self.counters)
        self._raw.clear()
        self.counters.clear()
        return spans, counts


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of it that its direct children
    cover (overlapping children counted once, clipped to the parent)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = [s.end - s.start for s in spans]
    for p, intervals in children.items():
        lo, hi = spans[p].start, spans[p].end
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


@dataclass(frozen=True)
class LayerStats:
    calls: int
    total_s: float  # inclusive
    self_s: float
    self_us: tuple[float, ...]  # one entry per call


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    own = self_times(spans)
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_sum: Counter[str] = Counter()
    self_us: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_sum[s.name] += t
        self_us.setdefault(s.name, []).append(t / 1e3)
    return {
        name: LayerStats(calls[name], total[name] / 1e9, self_sum[name] / 1e9, tuple(self_us[name]))
        for name in calls
    }


def spans_document(groups: dict[str, list[Span]]) -> dict:
    """Columnar form of every recorded span, by group, for writing out."""
    doc = {}
    for group, spans in groups.items():
        names = sorted({s.name for s in spans})
        index = {n: i for i, n in enumerate(names)}
        doc[group] = {
            "names": names,
            "name": [index[s.name] for s in spans],
            "start_ns": [s.start for s in spans],
            "end_ns": [s.end for s in spans],
            "parent": [s.parent for s in spans],
        }
    return doc
