"""Correctness checks on the program's outputs, and output digests.

A campaign operation is one input: it fails when any record found for it
does not hold up when re-checked with a fresh forward pass. A training
operation is one training image; every image of a training run fails when
the run's weights or accuracy do not hold up.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from corpus import file_sha256

# relative_distance is recomputed the same way it was recorded; the tolerance
# only allows for a reordered float64 sum in a future implementation.
DISTANCE_REL_TOL = 1e-9


def record_problems(model, inputs, record, pixel_range, origin_labels: dict) -> list[str]:
    """Reasons one adversarial record is invalid; empty when it is sound.
    origin_labels caches the model's label for each origin input."""
    from neurofuzz import fuzzer, nn

    i = record.input_index
    if not 0 <= i < len(inputs):
        return [f"input_index {i} out of range"]
    origin = inputs[i]
    if record.mutated.shape != origin.shape:
        return [f"record shape {record.mutated.shape} != input shape {origin.shape}"]
    if i not in origin_labels:
        origin_labels[i] = nn.predict(model, origin).predicted_label
    c_orig = origin_labels[i]
    label = nn.predict(model, record.mutated).predicted_label
    problems = []
    if record.original_label != c_orig:
        problems.append(f"original_label {record.original_label} != model label {c_orig}")
    if label == c_orig:
        problems.append(f"mutant keeps the origin's label {c_orig}")
    if label != record.adversarial_label:
        problems.append(f"mutant predicts {label}, record says {record.adversarial_label}")
    lo, hi = pixel_range
    arr = record.mutated.array
    if arr.min() < lo or arr.max() > hi:
        problems.append(f"pixels outside [{lo}, {hi}]")
    dist = fuzzer.relative_distance(record.mutated, origin)
    if not math.isclose(record.distance, dist, rel_tol=DISTANCE_REL_TOL, abs_tol=0.0):
        problems.append(f"distance {record.distance!r} != relative_distance {dist!r}")
    return problems


def failed_inputs(model, inputs, report) -> dict[int, list[str]]:
    """Inputs whose records fail a check, with the reasons."""
    origin_labels: dict[int, int] = {}
    failed: dict[int, list[str]] = {}
    for record in report.records:
        problems = record_problems(model, inputs, record, report.config.pixel_range, origin_labels)
        if problems:
            failed.setdefault(record.input_index, []).extend(problems)
    return failed


def campaign_digests(out_dir: Path, report) -> dict[str, str]:
    h = hashlib.sha256()
    for record in report.records:
        h.update(record.mutated.array.tobytes())
    return {
        "manifest.csv": file_sha256(out_dir / "manifest.csv"),
        "coverage.csv": file_sha256(out_dir / "coverage.csv"),
        "mutated_images": h.hexdigest(),
    }


def weights_digest(model) -> dict[str, str]:
    h = hashlib.sha256()
    for layer in model.layers:
        for t in (layer.weights, layer.bias):
            if t is not None:
                h.update(t.array.tobytes())
    return {"weights": h.hexdigest()}


def agree_with_record(path: Path, digests: dict[str, str]) -> bool:
    """Compare with the digests an earlier run of the same seed and code
    recorded at path, recording them when none exist yet."""
    path = Path(path)
    if path.exists():
        return json.loads(path.read_text(encoding="ascii")) == digests
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True) + "\n", encoding="ascii")
    tmp.replace(path)
    return True
