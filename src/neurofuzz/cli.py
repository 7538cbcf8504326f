"""Command-line surface: train models, run fuzzing campaigns, retrain with
the recorded adversarial inputs, and compare neuron-selection strategies.

Exit codes: 0 success, 1 runtime failure (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .architectures import ARCHITECTURES
from .coverage import STRATEGIES
from .errors import ContractViolation, IngestError, NeuroFuzzError
from .fuzzer import (
    FuzzConfig,
    fuzz_corpus,
    read_campaign_records,
    write_campaign_report,
)
from .model_io import DatasetSplit, load_mnist, load_model, save_model
from .nn import Model
from .tensor import Tensor
from .trainer import TrainConfig, evaluate, retrain_with_adversarial, train

DATA_DIR_ENV = "NEUROFUZZ_DATA_DIR"


# ---------------------------------------------------------------------------
# shared helpers


def _resolve_data_dir(args, parser: argparse.ArgumentParser) -> Path:
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        parser.error(f"--data-dir is required (or set {DATA_DIR_ENV})")
    return Path(data_dir)


def _load_split(data_dir: Path, stem: str) -> DatasetSplit:
    for suffix in ("", ".gz"):
        images = data_dir / f"{stem}-images-idx3-ubyte{suffix}"
        labels = data_dir / f"{stem}-labels-idx1-ubyte{suffix}"
        if images.exists() and labels.exists():
            return load_mnist(images, labels)
    raise IngestError(
        f"no {stem}-images-idx3-ubyte[.gz] / {stem}-labels-idx1-ubyte[.gz] pair in {data_dir}"
    )


def _count(text: str) -> int:
    """argparse type of a count: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _strategies(text: str) -> tuple[int, ...]:
    """argparse type of --strategies: comma-separated strategy numbers 1-4."""
    try:
        values = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        values = ()
    if not values or not set(values) <= set(STRATEGIES):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated strategies from 1-4, got {text!r}"
        )
    return values


def _pick_inputs(split: DatasetSplit, num_inputs: int, rng_seed: int) -> list[Tensor]:
    """Sample test images uniformly at random; the model's own prediction on
    each original serves as its reference label, so no filtering is needed."""
    if num_inputs == 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 997]))
    take = min(num_inputs, len(split))
    chosen = rng.choice(len(split), size=take, replace=False)
    return [split.image(int(i)) for i in chosen]


def _summary(report) -> str:
    n = len(report.records)
    cov_pct = report.final_coverage * 100.0
    if n:
        rel = sum(r.distance for r in report.records) / n
        abs_ = sum(r.distance_abs for r in report.records) / n
        ms = report.seconds_per_adversarial * 1000.0
        tail = f"mean rel distance: {rel:.5f}  mean abs distance: {abs_:.5f}  mean ms per adversarial: {ms:.1f}"
    else:
        tail = "mean rel distance: n/a  mean abs distance: n/a  mean ms per adversarial: n/a"
    return f"adversarial: {n}  coverage: {cov_pct:.2f}%  {tail}"


# ---------------------------------------------------------------------------
# fuzz-config flag plumbing


def _add_fuzz_config_flags(p: argparse.ArgumentParser):
    """Every FuzzConfig knob, each stored under its field name and
    defaulting to None so explicit flags can be told apart from defaults
    when merging with --config."""
    p.add_argument("--config", help="JSON file with a saved FuzzConfig to replay")
    p.add_argument("--k", type=int, default=None, help="top-k other classes in the objective")
    p.add_argument("--m", type=int, default=None, help="neurons targeted per seed")
    p.add_argument(
        "--strategies",
        type=_strategies,
        default=None,
        help="comma-separated neuron-selection strategies, e.g. 1 or 2,3",
    )
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="weight of the neuron terms in the objective")
    p.add_argument("--iter-times", type=int, default=None, help="mutations per seed")
    p.add_argument("--activation-threshold", type=float, default=None)
    p.add_argument("--distance-max", type=float, default=None,
                   help="relative L2 cap for keeping a mutant as a seed")
    p.add_argument("--gain-initial", dest="coverage_gain_initial", type=float, default=None,
                   help="starting coverage-gain ratio required to keep a seed")
    p.add_argument("--gain-decay", dest="coverage_gain_decay", type=float, default=None)
    p.add_argument("--gain-floor", dest="coverage_gain_floor", type=float, default=None)
    p.add_argument("--step-size", type=float, default=None,
                   help="L2 length of each mutation step")
    p.add_argument("--max-seeds-per-input", type=int, default=None)
    p.add_argument("--pixel-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--use-logits", action=argparse.BooleanOptionalAction, default=None,
                   help="build class terms from logits instead of confidences")
    p.add_argument("--seed", dest="rng_seed", type=int, default=None,
                   help="campaign rng seed")


def _resolve_fuzz_config(args) -> FuzzConfig:
    merged = FuzzConfig().to_dict()
    if args.config:
        try:
            saved = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContractViolation(f"{args.config} is not a JSON file: {exc}") from None
        if not isinstance(saved, dict):
            raise ContractViolation(f"{args.config} does not hold a JSON object")
        merged.update(saved)
    for f in fields(FuzzConfig):
        value = getattr(args, f.name)
        if value is not None:
            merged[f.name] = value
    return FuzzConfig.from_dict(merged)


def _campaign_setup(args, parser) -> tuple[FuzzConfig, Model, list[Tensor]]:
    """Config, model and picked test inputs shared by fuzz and
    compare-strategies."""
    data_dir = _resolve_data_dir(args, parser)
    cfg = _resolve_fuzz_config(args)
    model = load_model(args.model)
    test_split = _load_split(data_dir, "t10k")
    return cfg, model, _pick_inputs(test_split, args.num_inputs, cfg.rng_seed)


def _train_config(args) -> TrainConfig:
    """The TrainConfig of train and retrain, from their shared flags."""
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        rng_seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args, parser) -> int:
    data_dir = _resolve_data_dir(args, parser)
    train_split = _load_split(data_dir, "train")
    test_split = _load_split(data_dir, "t10k")
    start = load_model(args.init_model) if args.init_model else args.arch
    model = train(start, train_split, _train_config(args), test_data=test_split, log_path=args.log)
    save_model(model, args.out)
    acc = evaluate(model, test_split)
    what = args.init_model or args.arch
    print(f"saved {what} to {args.out}  test accuracy: {acc * 100.0:.2f}%")
    return 0


def cmd_fuzz(args, parser) -> int:
    cfg, model, inputs = _campaign_setup(args, parser)
    report = fuzz_corpus(model, inputs, cfg)
    write_campaign_report(report, args.out_dir)
    print(f"guided   {_summary(report)}")

    if args.baseline == "random":
        baseline = fuzz_corpus(model, inputs, cfg, mutation="random")
        write_campaign_report(baseline, Path(args.out_dir) / "baseline_random")
        print(f"random   {_summary(baseline)}")
        verdict = "beats" if report.final_coverage > baseline.final_coverage else "does NOT beat"
        print(
            f"guided coverage {report.final_coverage * 100.0:.2f}% {verdict} "
            f"random baseline {baseline.final_coverage * 100.0:.2f}%"
        )
    return 0


def cmd_retrain(args, parser) -> int:
    data_dir = _resolve_data_dir(args, parser)
    model = load_model(args.model)
    train_split = _load_split(data_dir, "train")
    test_split = _load_split(data_dir, "t10k")
    records = read_campaign_records(args.campaign_dir)
    if not records:
        print(f"error: {args.campaign_dir} holds no adversarial records", file=sys.stderr)
        return 1
    result = retrain_with_adversarial(
        model, train_split, test_split, records, _train_config(args),
        oversample=args.oversample,
    )
    save_model(result.model, args.out)
    print(
        f"retrained on {len(records)} adversarial inputs -> {args.out}\n"
        f"test accuracy:        {result.test_acc_before * 100.0:.2f}% -> {result.test_acc_after * 100.0:.2f}%\n"
        f"adversarial accuracy: {result.adv_acc_before * 100.0:.2f}% -> {result.adv_acc_after * 100.0:.2f}%"
    )
    return 0


def cmd_compare_strategies(args, parser) -> int:
    cfg, model, inputs = _campaign_setup(args, parser)
    curves = {}
    for strategy in STRATEGIES:
        report = fuzz_corpus(model, inputs, replace(cfg, strategies=(strategy,)))
        curves[f"s{strategy}"] = report
        print(f"strategy {strategy}  {_summary(report)}")
    baseline = fuzz_corpus(model, inputs, cfg, mutation="random")
    curves["random"] = baseline
    print(f"random      {_summary(baseline)}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["images_tested,s1,s2,s3,s4,random"]
    for i in range(len(inputs)):
        cells = [str(i + 1)]
        for key in ("s1", "s2", "s3", "s4", "random"):
            cells.append(repr(curves[key].coverage_curve[i].coverage_rate))
        rows.append(",".join(cells))
    path = out_dir / "coverage_by_strategy.csv"
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurofuzz",
        description="Coverage-guided differential fuzzing for image classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and save it as JSON")
    p_train.add_argument("--arch", choices=list(ARCHITECTURES), default="lenet1")
    p_train.add_argument("--init-model", default=None,
                         help="saved model JSON to continue training from "
                              "(overrides --arch)")
    p_train.add_argument("--data-dir", default=None)
    p_train.add_argument("--epochs", type=int, default=5)
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--batch", type=int, default=64)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default="model.json")
    p_train.add_argument("--log", default=None, help="training-log CSV path")
    p_train.set_defaults(func=cmd_train)

    p_fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    p_fuzz.add_argument("--model", required=True)
    p_fuzz.add_argument("--data-dir", default=None)
    p_fuzz.add_argument("--num-inputs", type=_count, default=20)
    p_fuzz.add_argument("--out-dir", default="campaign")
    p_fuzz.add_argument("--baseline", choices=["none", "random"], default="none")
    _add_fuzz_config_flags(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_re = sub.add_parser("retrain", help="retrain with a campaign's adversarial outputs")
    p_re.add_argument("--model", required=True)
    p_re.add_argument("--data-dir", default=None)
    p_re.add_argument("--campaign-dir", required=True)
    p_re.add_argument("--epochs", type=int, default=5)
    p_re.add_argument("--lr", type=float, default=0.01)
    p_re.add_argument("--batch", type=int, default=64)
    p_re.add_argument("--seed", type=int, default=0)
    p_re.add_argument("--oversample", type=int, default=1,
                      help="repeat the adversarial block this many times so "
                           "a small repair set registers against a large "
                           "training corpus (try 20 for ~100 records)")
    p_re.add_argument("--out", default="model_retrained.json")
    p_re.set_defaults(func=cmd_retrain)

    p_cmp = sub.add_parser(
        "compare-strategies",
        help="run one campaign per selection strategy plus a random baseline",
    )
    p_cmp.add_argument("--model", required=True)
    p_cmp.add_argument("--data-dir", default=None)
    p_cmp.add_argument("--num-inputs", type=_count, default=20)
    p_cmp.add_argument("--out-dir", default="strategy_comparison")
    _add_fuzz_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare_strategies)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (NeuroFuzzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
