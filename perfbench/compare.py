"""Compare two checkouts on one workload: parent versus change.

    python3 perfbench/compare.py --base ../parent --change . \\
        --workload block-q8 --pairs 10

Both directories must hold the same ``perfbench/`` and ``BENCHMARK.json``
(copy them into the parent checkout first), so only the program differs.
Runs ``pairs`` pairs of ``run_seconds`` runs (``--seconds`` overrides),
alternating which side goes first, with the same seed within a pair, and
prints for every end-to-end metric each side's median and quartiles, how
many pairs the change won, and a verdict:

``gain``        the change won at least nine tenths of the pairs and the
                medians differ by more than the parent's quartile spread
``regression``  the change's median is worse by more than the bound
``unresolved``  the parent's own spread is wider than the bound and not
                every change run beats every parent run
``same``        none of the above
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float
             ) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: run {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(base, change, better: str, bound: float):
    """``(pairs the change won, verdict)`` for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if sign * (b_med - c_med) > bound * b_med:
        return wins, "regression"
    if wins >= 0.9 * len(base) and abs(c_med - b_med) > q3 - q1:
        return wins, "gain"
    if (q3 - q1) / b_med > bound and \
            not min(sign * c for c in change) > max(sign * b for b in base):
        return wins, "unresolved"
    return wins, "same"


def _show(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    base, change = [], []
    for k in range(args.pairs):
        seed = 1000 + k
        order = [("base", args.base), ("change", args.change)]
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            values = run_once(checkout, args.workload, seed, seconds)
            (base if side == "base" else change).append(values)
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{'metric':<16} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} wins  verdict")
    for row in spec["end_to_end"]:
        name = row["name"]
        b = [v[name] for v in base]
        c = [v[name] for v in change]
        wins, word = verdict(b, c, row["better"], row["bound"])
        print(f"{name:<16} {_show(b):>34} {_show(c):>34} "
              f"{wins:>2}/{len(b)}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
