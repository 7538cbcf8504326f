"""End-to-end tests of the command-line interface.

Everything goes through main(argv) in-process; exit codes follow the
documented contract (0 ok, 1 runtime failure, 2 usage error).
"""

import argparse
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from neurofuzz.cli import _resolve_fuzz_config, build_parser, main
from neurofuzz.fuzzer import FuzzConfig
from neurofuzz.model_io import load_model


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
    @pytest.mark.parametrize("value", ["x", "5", "0", "1,x", ","])
    def test_bad_strategies_exits_2(self, capsys, command, value, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", "m.json", "--data-dir", str(tmp_path),
                  "--strategies", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--strategies" in err
        assert "Traceback" not in err

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
        config.write_text(json.dumps(dict(FuzzConfig().to_dict(), grad_mode="scaled_raw")))
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
    ], ids=["gain-initial-nan", "gain-floor-inf", "step-size-nan", "lambda-nan", "lambda-inf",
            "distance-max-nan", "pixel-range-wide", "config-lam-nan"])
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
        assert config_dests == sorted(f.name for f in fields(FuzzConfig))

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

    @pytest.mark.parametrize("row", ["0,3,5,0.01,0.1,0", "0,3,x,0.01,0.1,0,1"])
    def test_malformed_manifest_exits_1(self, capsys, data_dir, model_path,
                                        tmp_path, row):
        campaign = tmp_path / "campaign"
        campaign.mkdir()
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
