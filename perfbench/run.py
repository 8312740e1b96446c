"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload block-q8 --seed 1 --seconds 10 --trace 0

Prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A failed correctness check reads ``"correct":
false``; the exit code is non-zero only when no result was printed (the
program's sources are missing, or the run crashed).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench.serving import run_block, run_churn
    from perfbench.sweep import run_sweep

    if workload == "block-q8":
        return asyncio.run(run_block(seed, seconds, trace))
    if workload == "route-churn-q10":
        return asyncio.run(run_churn(seed, seconds, trace))
    return run_sweep(seed, seconds, trace)


def report(spec: dict, outcome, trace: bool) -> dict:
    """Print the human report; return the metrics object of the JSON line."""
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    values = dict(outcome.per_layer if trace else outcome.end_to_end)
    values["failed_share"] = outcome.notes["failed_share"]
    missing = [row["name"] for row in rows if row["name"] not in values]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    print("provenance " + json.dumps(outcome.provenance, sort_keys=True))
    print("notes " + json.dumps(outcome.notes, sort_keys=True))
    metrics = {}
    for row in rows:
        value = values[row["name"]]
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"  {row['name']:<28} {shown:>14} {row['unit']}")
        # The JSON line admits numbers only; an undefined ratio (a layer
        # that did no work) travels as 0 and reads "undefined" above.
        number = 0.0 if value is None or not math.isfinite(value) \
            else float(value)
        metrics[row["name"]] = {"value": number, "unit": row["unit"]}
    # Measured here but reported by the other mode (tails and failed_share
    # of an untraced run): printed for people, kept out of the JSON line.
    units = {row["name"]: row["unit"]
             for row in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(values) - set(metrics)):
        value = values[name]
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {units[name]} (not in the JSON line)")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print(f"correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("block-q8", "route-churn-q10", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    spec = load_spec()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = report(spec, outcome, bool(args.trace))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
