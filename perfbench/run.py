"""Run one benchmark workload against the checkout's neurofuzz, or all three.

    python3 perfbench/run.py --workload campaign-lenet1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single-workload run prints two JSON lines. The last holds `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics listed in
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the provenance, the output digests, every named metric of
the workload and the problems the checks found. The same, plus the spans of
a traced run, is written under .bench_work/results. `--workload all` runs
each workload in its own process and prints one table of every named metric
with its unit. The exit status is 0 only when every check passed; it is 2
when the checkout lacks the package or the input generator.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import env  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The end-to-end metrics named per workload, in the order they are printed.
NAMED_METRICS = (
    "setup_s",
    "seeds_per_s",
    "adversarials_per_s",
    "input_ms_p50",
    "input_ms_p99",
    "adversarial_yield",
    "final_coverage",
    "mean_rel_distance",
    "train_images_per_s",
    "eval_images_per_s",
    "test_accuracy",
    "peak_rss_mb",
)
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def as_metrics(values: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_one(args) -> int:
    try:
        nf = env.configure()
        corpus.synthdigits()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    runner = workloads.Runner(nf, args.workload, args.seed, args.seconds, bool(args.trace))
    out = runner.outcome
    try:
        workloads.run(runner)
    except Exception as exc:  # a workload that raises fails every operation
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"{type(exc).__name__}: {exc}")
        out.attempted = max(out.attempted, workloads.ops_per_rep(args.workload))
        out.failed = out.attempted
    correct = not out.problems and out.failed == 0
    fixtures = {}
    try:
        fixtures = workloads.fixture_digests()
    except (OSError, ValueError) as exc:
        out.problems.append(f"fixture manifest unreadable: {exc}")
        correct = False
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": env.provenance(args.seed, fixtures),
        "digests": out.digests,
        "metrics": as_metrics(out.detail),
        "problems": out.problems,
    }
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": as_metrics(out.per_layer if args.trace else out.end_to_end),
    }
    results = corpus.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    saved = dict(detail, result=result)
    if out.spans:
        saved["spans"] = spans.spans_document(out.spans)
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved) + "\n", encoding="ascii"
    )
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    rows: dict[str, dict] = {}
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            ok = False
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            if len(lines) < 2:
                continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        rows[name] = detail["metrics"]
        for problem in detail["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    names = list(workloads.WORKLOADS)
    print(f"{'metric':<20} {'unit':<6} " + " ".join(f"{n:>22}" for n in names))
    for metric in NAMED_METRICS:
        unit = next((r[metric]["unit"] for r in rows.values() if metric in r), "")
        cells = [f"{rows[n][metric]['value']:>22.6g}" if metric in rows.get(n, {}) else f"{'-':>22}"
                 for n in names]
        print(f"{metric:<20} {unit:<6} " + " ".join(cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
