"""End-to-end tests of the command-line interface.

Everything goes through main(argv) in-process; exit codes follow the
documented contract (0 ok, 1 runtime failure, 2 usage error).
"""

import argparse
import json
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import synthdigits
from neurofuzz.cli import _resolve_fuzz_config, _summary, build_parser, main
from neurofuzz.fuzzer import AdversarialRecord, CampaignReport, CoveragePoint, FuzzConfig
from neurofuzz.model_io import export_image_pgm, load_model
from neurofuzz.tensor import Tensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--model", "m.json", "--no-such-flag"])
        assert exc.value.code == 2

    def test_missing_data_dir_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("NEUROFUZZ_DATA_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "m.json"])
        assert exc.value.code == 2
        assert "NEUROFUZZ_DATA_DIR" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuzz", "compare-strategies"])
    def test_negative_num_inputs_exits_2(self, capsys, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "m.json", "--data-dir", str(tmp_path),
                  "--num-inputs", "-3"])
        assert exc.value.code == 2
        assert "--num-inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuzz", "compare-strategies"])
    def test_non_integer_num_inputs_exits_2(self, capsys, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "m.json", "--data-dir", str(tmp_path),
                  "--num-inputs", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--num-inputs: not an integer: 'x'" in err
        assert "Traceback" not in err

    # fuzz only: compare-strategies has no --strategies flag (see below)
    @pytest.mark.parametrize("command", ["fuzz"])
    @pytest.mark.parametrize("value", ["x", "5", "0", "1,x", ","])
    def test_bad_strategies_exits_2(self, capsys, command, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "m.json", "--data-dir", str(tmp_path),
                  "--strategies", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--strategies" in err
        assert "Traceback" not in err

    def test_compare_strategies_refuses_strategies(self, capsys, tmp_path):
        # each of its runs sets strategies itself, so the flag would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["compare-strategies", "--model", "m.json", "--data-dir", str(tmp_path),
                  "--strategies", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strategies 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--optimizer", "sgd_momentum"],
        ["train", "--weight-decay", "0"],
        ["train", "--confidence-penalty", "0"],
        ["retrain", "--model", "m.json", "--campaign-dir", "c", "--optimizer", "sgd"],
    ])
    def test_removed_trainer_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"k": 4,', "[1, 2]", "\xff\xfe"])
    def test_malformed_config_exits_1(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_bytes(text.encode("latin-1"))
        code, _, err = run(
            capsys,
            "fuzz",
            "--model", str(tmp_path / "m.json"),
            "--data-dir", str(tmp_path),
            "--config", str(config),
            "--out-dir", str(tmp_path / "campaign"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert str(config) in err

    @pytest.mark.parametrize("text", ['{"k": "4"}', '{"lam": "x"}', '{"strategies": "12"}'])
    def test_wrongly_typed_config_field_exits_1(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, _, err = run(
            capsys,
            "fuzz",
            "--model", str(tmp_path / "m.json"),
            "--data-dir", str(tmp_path),
            "--config", str(config),
            "--out-dir", str(tmp_path / "campaign"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert repr(next(iter(json.loads(text)))) in err

    @pytest.mark.parametrize("text", ['{"strategies": [5]}', '{"strategies": []}'])
    def test_bad_strategies_in_config_exits_1(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, _, err = run(
            capsys,
            "fuzz",
            "--model", str(tmp_path / "m.json"),
            "--data-dir", str(tmp_path),
            "--config", str(config),
            "--out-dir", str(tmp_path / "campaign"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "strategies" in err

    @pytest.mark.parametrize("command", ["fuzz", "compare-strategies"])
    def test_removed_grad_mode_flag_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "m.json", "--grad-mode", "sign"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuzz", "compare-strategies"])
    def test_grad_mode_in_config_exits_1(self, capsys, tmp_path, command):
        # a config saved before the sign rule was removed still names it
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(asdict(FuzzConfig()), grad_mode="scaled_raw")))
        code, _, err = run(
            capsys,
            command,
            "--model", str(tmp_path / "m.json"),
            "--data-dir", str(tmp_path),
            "--config", str(config),
            "--out-dir", str(tmp_path / "campaign"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "grad_mode" in err

    @pytest.mark.parametrize("flags, field", [
        (["--gain-initial", "nan"], "coverage_gain_initial"),
        (["--gain-floor", "inf"], "coverage_gain_floor"),
        (["--step-size", "nan"], "step_size"),
        (["--lambda", "nan"], "lam"),
        (["--lambda", "inf"], "lam"),
        (["--distance-max", "nan"], "distance_max"),
        (["--pixel-range", "-1", "2"], "pixel_range"),
        ('{"lam": NaN}', "lam"),
        (["--seed", "-1"], "rng_seed"),
        (["--gain-initial", "5", "--gain-floor", "5"], "coverage_gain_initial"),
        (["--gain-floor", "1.5"], "coverage_gain_floor"),
    ], ids=["gain-initial-nan", "gain-floor-inf", "step-size-nan", "lambda-nan", "lambda-inf",
            "distance-max-nan", "pixel-range-wide", "config-lam-nan", "seed-negative",
            "gains-above-one", "gain-floor-above-one"])
    def test_out_of_range_value_exits_1(self, capsys, data_dir, model_path, tmp_path,
                                        flags, field):
        # a string is the text of a --config file
        if isinstance(flags, str):
            config = tmp_path / "config.json"
            config.write_text(flags)
            flags = ["--config", str(config)]
        code, _, err = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--out-dir", str(tmp_path / "campaign"),
            *flags,
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert field in err

    def test_missing_model_file_exits_1(self, capsys, data_dir, tmp_path):
        code, _, err = run(
            capsys,
            "fuzz",
            "--model", str(tmp_path / "nope.json"),
            "--data-dir", str(data_dir),
            "--out-dir", str(tmp_path / "campaign"),
        )
        assert code == 1
        assert "error:" in err


def subcommand_parser(command: str) -> argparse.ArgumentParser:
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[command]


@pytest.mark.parametrize("command", ["fuzz", "compare-strategies"])
class TestFuzzConfigFlags:
    NOT_CONFIG = {"help", "config", "model", "data_dir", "num_inputs", "out_dir", "baseline"}

    def test_dests_cover_each_field_once(self, command):
        dests = [a.dest for a in subcommand_parser(command)._actions]
        config_dests = sorted(d for d in dests if d not in self.NOT_CONFIG)
        # compare-strategies sets strategies itself, once per run
        skipped = {"strategies"} if command == "compare-strategies" else set()
        assert config_dests == sorted(f.name for f in fields(FuzzConfig) if f.name not in skipped)

    def test_config_file_sets_strategies(self, command, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"strategies": [2, 3]}))
        args = build_parser().parse_args(
            [command, "--model", "m.json", "--config", str(tmp_path / "c.json")]
        )
        assert _resolve_fuzz_config(args) == FuzzConfig(strategies=(2, 3))

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--lambda", "0.5", "lam", 0.5),
        ("--gain-initial", "0.02", "coverage_gain_initial", 0.02),
        ("--gain-decay", "0.8", "coverage_gain_decay", 0.8),
        ("--gain-floor", "0.002", "coverage_gain_floor", 0.002),
        ("--seed", "7", "rng_seed", 7),
    ])
    def test_renamed_flag_lands_in_its_field(self, command, flag, value, field, expected):
        args = build_parser().parse_args([command, "--model", "m.json", flag, value])
        cfg = _resolve_fuzz_config(args)
        assert getattr(cfg, field) == expected
        assert cfg == FuzzConfig(**{field: expected})


class TestTrain:
    def test_zero_epochs_scores_near_chance(self, capsys, data_dir, tmp_path):
        out = tmp_path / "fresh.json"
        log = tmp_path / "log.csv"
        code, stdout, _ = run(
            capsys,
            "train",
            "--data-dir", str(data_dir),
            "--epochs", "0",
            "--out", str(out),
            "--log", str(log),
        )
        assert code == 0
        assert out.exists()
        match = re.search(r"test accuracy: ([0-9.]+)%", stdout)
        assert match, stdout
        # untrained model: near 10% on 10 balanced classes
        assert float(match.group(1)) < 30.0
        assert log.read_text().splitlines()[0] == "epoch,loss,train_acc,test_acc"

    def test_init_model_continues_from_saved(self, capsys, data_dir, tmp_path,
                                              model_path, trained_model):
        out = tmp_path / "continued.json"
        code, _, _ = run(
            capsys,
            "train",
            "--data-dir", str(data_dir),
            "--init-model", str(model_path),
            "--epochs", "0",
            "--out", str(out),
        )
        assert code == 0
        loaded = load_model(out)
        for got, want in zip(loaded.layers, trained_model.layers):
            if want.weights is not None:
                assert np.array_equal(got.weights.array, want.weights.array)

    def test_data_dir_without_idx_pair_exits_1(self, capsys, tmp_path):
        (tmp_path / "train-images-idx3-ubyte").write_bytes(b"")  # no labels beside it
        code, _, err = run(
            capsys,
            "train",
            "--data-dir", str(tmp_path),
            "--out", str(tmp_path / "never.json"),
        )
        assert code == 1
        assert err == (
            "error: no train-images-idx3-ubyte[.gz] / train-labels-idx1-ubyte[.gz] "
            f"pair in {tmp_path}\n"
        )

    @pytest.mark.parametrize("command, flag, value, error", [
        ("train", "--epochs", "-1", "epochs must be >= 0"),
        ("retrain", "--epochs", "-1", "epochs must be >= 0"),
        ("train", "--seed", "-1", "rng_seed must be >= 0"),
        ("retrain", "--seed", "-1", "rng_seed must be >= 0"),
        ("retrain", "--oversample", "0", "oversample must be >= 1"),
    ], ids=["train", "retrain", "train-seed", "retrain-seed", "retrain-oversample"])
    def test_bad_flag_reported_before_any_file_is_read(self, capsys, tmp_path, command,
                                                       flag, value, error):
        # the data directory is empty and no model file exists: the flag is
        # the first thing wrong, so it is the one reported
        files = ["--model", str(tmp_path / "m.json"), "--campaign-dir", str(tmp_path)]
        code, _, err = run(
            capsys, command, *(files if command == "retrain" else []),
            "--data-dir", str(tmp_path),
            flag, value,
            "--out", str(tmp_path / "never.json"),
        )
        assert code == 1
        assert err == f"error: {error}\n"

    def test_non_finite_learning_rate_exits_1(self, capsys, data_dir, tmp_path):
        out = tmp_path / "never.json"
        code, _, err = run(
            capsys,
            "train",
            "--data-dir", str(data_dir),
            "--lr", "nan",
            "--out", str(out),
        )
        assert code == 1
        assert err == "error: learning_rate must be finite and >= 0\n"
        assert not out.exists()


class TestFuzz:
    def test_same_seed_byte_identical_manifest(self, capsys, data_dir,
                                               model_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(
                capsys,
                "fuzz",
                "--model", str(model_path),
                "--data-dir", str(data_dir),
                "--num-inputs", "4",
                "--seed", "7",
                "--out-dir", str(out_dir),
            )
            assert code == 0
            outs.append((out_dir / "manifest.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_inputs_ok_and_empty(self, capsys, data_dir, model_path, tmp_path):
        out_dir = tmp_path / "empty"
        code, stdout, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "0",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "manifest.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
        assert "adversarial: 0" in stdout

    def test_config_replay_reproduces_campaign(self, capsys, data_dir,
                                               model_path, tmp_path):
        first = tmp_path / "first"
        code, _, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "3",
            "--seed", "3",
            "--iter-times", "2",
            "--out-dir", str(first),
        )
        assert code == 0
        saved = json.loads((first / "config.json").read_text())
        assert FuzzConfig.from_dict(saved) == FuzzConfig(iter_times=2, rng_seed=3)

        replay = tmp_path / "replay"
        code, _, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "3",
            "--config", str(first / "config.json"),
            "--out-dir", str(replay),
        )
        assert code == 0
        assert (replay / "manifest.csv").read_bytes() == (first / "manifest.csv").read_bytes()
        assert (replay / "coverage.csv").read_bytes() == (first / "coverage.csv").read_bytes()

    def test_campaign_layout(self, capsys, data_dir, model_path, tmp_path):
        out_dir = tmp_path / "layout"
        code, _, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "4",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        for name in ("manifest.csv", "coverage.csv", "timing.csv", "config.json"):
            assert (out_dir / name).exists()
        n_rows = len((out_dir / "manifest.csv").read_text().splitlines()) - 1
        n_images = len(list((out_dir / "adversarial").glob("*.pgm")))
        assert n_images == n_rows

    def test_strategy_list_flag_runs(self, capsys, data_dir, model_path, tmp_path):
        out_dir = tmp_path / "mixed"
        code, stdout, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "2",
            "--strategies", "1,2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert stdout.startswith("guided   adversarial: ")
        assert json.loads((out_dir / "config.json").read_text())["strategies"] == [1, 2]

    def test_random_baseline(self, capsys, data_dir, model_path, tmp_path):
        out_dir = tmp_path / "with_baseline"
        code, stdout, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "3",
            "--baseline", "random",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "baseline_random" / "manifest.csv").exists()
        assert re.search(
            r"^guided coverage [0-9.]+% (beats|does NOT beat) random baseline [0-9.]+%$",
            stdout,
            re.M,
        ), stdout


def test_summary_spreads_campaign_wall_time_over_records():
    record = AdversarialRecord(0, 3, 5, Tensor([0.5]), 0.01, 0.1, 0, 1)
    report = CampaignReport(
        records=(record, record),
        coverage_curve=(CoveragePoint(1, 0.5),),
        input_wall_s=(0.01, 0.02, 0.03),
        config=FuzzConfig(),
    )
    assert _summary(report) == (
        "adversarial: 2  within cap: 2/2  coverage: 50.00%  mean rel distance: 0.01000  "
        "mean abs distance: 0.10000  mean ms per adversarial: 30.0"
    )


def test_summary_counts_the_records_within_the_distance_cap():
    # a record exactly at distance_max lies within the cap
    records = tuple(AdversarialRecord(0, 3, 5, Tensor([0.5]), d, 0.1, 0, 1)
                    for d in (0.004, 0.02, 0.0201, 0.3))
    report = CampaignReport(records=records, coverage_curve=(CoveragePoint(1, 0.5),),
                            input_wall_s=(0.01,), config=FuzzConfig(distance_max=0.02))
    assert _summary(report).startswith("adversarial: 4  within cap: 2/4  coverage: 50.00%")
    empty = replace(report, records=())
    assert _summary(empty).startswith("adversarial: 0  within cap: 0/0  coverage: 50.00%")


class TestRetrain:
    def test_empty_campaign_exits_1(self, capsys, data_dir, model_path, tmp_path):
        campaign = tmp_path / "empty_campaign"
        code, _, _ = run(
            capsys,
            "fuzz",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "0",
            "--out-dir", str(campaign),
        )
        assert code == 0
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert "no adversarial records" in err

    @pytest.mark.parametrize("row", ["0,3,5,0.01,0.1,0", "0,3,x,0.01,0.1,0,1",
                                     "0,3,5,nan,inf,-1,0", "-1,3,5,0.01,0.1,0,1"])
    def test_malformed_manifest_exits_1(self, capsys, data_dir, model_path,
                                        tmp_path, row):
        campaign = tmp_path / "campaign"
        (campaign / "adversarial").mkdir(parents=True)
        # the image a parsed row names, so that only the row itself is at fault
        export_image_pgm(Tensor.zeros((28, 28, 1)), campaign / "adversarial" / "adv_0_0_3to5.pgm")
        header = "input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"
        (campaign / "manifest.csv").write_text(f"{header}\n{row}\n")
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "manifest.csv line 2" in err

    def test_manifest_without_header_exits_1(self, capsys, data_dir, model_path, tmp_path):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        (campaign / "manifest.csv").write_text("0,3,5,0.01,0.1,0,1\n")
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "manifest.csv line 1: expected header" in err
        assert not (tmp_path / "retrained.json").exists()

    def test_non_ascii_manifest_exits_1(self, capsys, data_dir, model_path, tmp_path):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
        header = "input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"
        (campaign / "manifest.csv").write_bytes(f"{header}\n0,3,5,0.01,0.1,0,1".encode() + b"\xe9\n")
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "manifest.csv: byte 111 is not ASCII" in err
        assert "Traceback" not in err
        assert not (tmp_path / "retrained.json").exists()

    def test_record_that_does_not_fit_model_exits_1(self, capsys, data_dir, model_path,
                                                      tmp_path):
        campaign = tmp_path / "campaign"
        (campaign / "adversarial").mkdir(parents=True)
        header = "input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"
        (campaign / "manifest.csv").write_text(f"{header}\n0,3,5,0.01,0.1,0,1\n")
        export_image_pgm(Tensor.wrap(np.full((27, 28, 1), 0.5, dtype=np.float32)),
                         campaign / "adversarial" / "adv_0_0_3to5.pgm")
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err == "error: data images (27, 28, 1) do not match model input shape (28, 28, 1)\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("epochs", ["0", "1"])
    def test_training_split_that_does_not_fit_model_exits_1(self, capsys, data_dir, model_path,
                                                            tmp_path, epochs):
        # the test split and the record fit; the 32x32 training split does
        # not, and it is refused before anything is merged or trained
        data = tmp_path / "data"
        data.mkdir()
        for name in ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        synthdigits.write_idx_images(data / "train-images-idx3-ubyte",
                                     np.zeros((2, 32, 32), dtype=np.uint8))
        synthdigits.write_idx_labels(data / "train-labels-idx1-ubyte",
                                     np.array([3, 5], dtype=np.uint8))
        campaign = tmp_path / "campaign"
        (campaign / "adversarial").mkdir(parents=True)
        header = "input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"
        (campaign / "manifest.csv").write_text(f"{header}\n0,3,5,0.01,0.1,0,1\n")
        export_image_pgm(Tensor.zeros((28, 28, 1)), campaign / "adversarial" / "adv_0_0_3to5.pgm")
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data),
            "--campaign-dir", str(campaign),
            "--epochs", epochs,
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err == "error: data images (32, 32, 1) do not match model input shape (28, 28, 1)\n"
        assert not (tmp_path / "retrained.json").exists()

    def test_records_of_mixed_shapes_exit_1(self, capsys, data_dir, model_path, tmp_path):
        campaign = tmp_path / "campaign"
        (campaign / "adversarial").mkdir(parents=True)
        header = "input_index,original_label,adversarial_label,distance,distance_abs,seed_generation,iteration"
        (campaign / "manifest.csv").write_text(f"{header}\n0,3,5,0.01,0.1,0,1\n1,4,6,0.01,0.1,0,1\n")
        for name, h in (("adv_0_0_3to5.pgm", 28), ("adv_1_0_4to6.pgm", 27)):
            export_image_pgm(Tensor.wrap(np.full((h, 28, 1), 0.5, dtype=np.float32)),
                             campaign / "adversarial" / name)
        code, _, err = run(
            capsys,
            "retrain",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--campaign-dir", str(campaign),
            "--out", str(tmp_path / "retrained.json"),
        )
        assert code == 1
        assert err == "error: record 1 has image shape (27, 28, 1), record 0 has (28, 28, 1)\n"
        assert not (tmp_path / "retrained.json").exists()
        assert "Traceback" not in err


class TestCompareStrategies:
    def test_csv_shape_and_monotone_columns(self, capsys, data_dir,
                                            model_path, tmp_path):
        out_dir = tmp_path / "cmp"
        code, stdout, _ = run(
            capsys,
            "compare-strategies",
            "--model", str(model_path),
            "--data-dir", str(data_dir),
            "--num-inputs", "2",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "coverage_by_strategy.csv").read_text().splitlines()
        assert lines[0] == "images_tested,s1,s2,s3,s4,random"
        assert len(lines) == 3
        table = [[float(c) for c in line.split(",")] for line in lines[1:]]
        for col in range(1, 6):
            rates = [row[col] for row in table]
            assert all(0.0 <= r <= 1.0 for r in rates)
            assert rates == sorted(rates)
