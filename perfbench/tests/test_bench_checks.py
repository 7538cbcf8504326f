"""The record checker accepts a real campaign and rejects tampered records."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import corpus  # noqa: E402
import env  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def campaign():
    nf = env.import_package()
    model = nf.load_model(workloads.fixture_path("lenet1"))
    images, _ = corpus.synthdigits().make_corpus(30, 0)
    inputs = [nf.Tensor(img.reshape(28, 28, 1) / 255.0) for img in images]
    report = nf.fuzz_corpus(model, inputs, nf.FuzzConfig())
    assert report.records
    return nf, model, inputs, report


def test_untouched_campaign_passes(campaign):
    _, model, inputs, report = campaign
    assert checks.failed_inputs(model, inputs, report) == {}


def tampered(campaign, **changes):
    _, model, inputs, report = campaign
    record = replace(report.records[0], **changes)
    bad = replace(report, records=(record,) + report.records[1:])
    return record.input_index, checks.failed_inputs(model, inputs, bad)


def test_rejects_wrong_adversarial_label(campaign):
    record = campaign[3].records[0]
    other = next(c for c in range(10) if c not in (record.original_label, record.adversarial_label))
    index, failed = tampered(campaign, adversarial_label=other)
    assert list(failed) == [index]


def test_rejects_wrong_distance(campaign):
    record = campaign[3].records[0]
    index, failed = tampered(campaign, distance=record.distance * 1.01)
    assert list(failed) == [index]


def test_rejects_image_that_keeps_its_label(campaign):
    _, _, inputs, report = campaign
    record = report.records[0]
    index, failed = tampered(campaign, mutated=inputs[record.input_index], distance=0.0)
    assert list(failed) == [index]


def test_rejects_pixels_out_of_range(campaign):
    nf, _, _, report = campaign
    mutated = report.records[0].mutated.array.copy()
    mutated[0, 0, 0] = 1.5
    index, failed = tampered(campaign, mutated=nf.Tensor(mutated))
    assert index in failed


def test_digest_record_detects_a_changed_output(tmp_path):
    path = tmp_path / "digests.json"
    assert checks.agree_with_record(path, {"manifest.csv": "aa"})
    assert checks.agree_with_record(path, {"manifest.csv": "aa"})
    assert not checks.agree_with_record(path, {"manifest.csv": "ab"})


def test_benchmark_json_lists_the_per_layer_metrics_a_traced_run_prints():
    doc = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert listed == workloads.per_layer_names()
