"""The ``sweep`` workload: the offline Monte-Carlo path of E2 and E7.

Runs in-process with one job and no service.  From the seed it draws, per
cell, a ``(trials, 2**n)`` fault-mask matrix and ``(trials, pairs)``
source/destination matrices of healthy nodes, for Q8 cells (f = 1..40)
and Q12 cells.  A cell is one ``compute_safety_levels_batch`` call and
one ``route_unicast_batch(..., return_paths=True)`` call, so Q8 runs the
SWAR level kernel, Q12 the packed one, and routing walks multi-row
matrices.  The timed window runs whole passes over every cell.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.hypercube import Hypercube
from repro.routing.batch import route_unicast_batch
from repro.safety.levels import compute_safety_levels_batch, \
    resolve_level_kernel

from perfbench import layers
from perfbench.common import SETUP_REPEATS, SUBWINDOW_S, Outcome, \
    draw_pairs, median, pct, provenance, ratio, windows
from perfbench.spans import Tracer
from perfbench.verify import audit_cell

SWEEP = {
    "q8_faults": tuple(range(1, 41)),
    "q8_trials": 32,
    "q12_faults": (1, 6, 11, 24, 40),
    "q12_trials": 64,
    "pairs": 16,
    "scalar_samples": 2,   # routes per cell re-routed by the scalar router
}

Cell = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def cell_inputs(seed: int) -> List[Cell]:
    """``(n, f, masks, srcs, dsts)`` for every cell, drawn from ``seed``."""
    cfg = SWEEP
    rng = np.random.default_rng([seed, 12])
    plan = [(8, f, cfg["q8_trials"]) for f in cfg["q8_faults"]] + \
        [(12, f, cfg["q12_trials"]) for f in cfg["q12_faults"]]
    cells = []
    for n, f, trials in plan:
        masks = np.zeros((trials, 1 << n), dtype=bool)
        srcs = np.empty((trials, cfg["pairs"]), dtype=np.int64)
        dsts = np.empty((trials, cfg["pairs"]), dtype=np.int64)
        for t in range(trials):
            masks[t, rng.choice(1 << n, size=f, replace=False)] = True
            srcs[t], dsts[t] = draw_pairs(rng, np.flatnonzero(~masks[t]),
                                          cfg["pairs"])
        cells.append((n, f, masks, srcs, dsts))
    return cells


def run_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cells = cell_inputs(seed)
        topos = {n: Hypercube(n) for n in {c[0] for c in cells}}
        setups.append(time.perf_counter() - start)

    tracer = Tracer()
    levels_fn = {n: tracer.wrap(f"levels.q{n}", compute_safety_levels_batch)
                 for n in topos}
    route_fn = tracer.wrap("kernel.route_unicast_batch", route_unicast_batch)

    def one_pass():
        """Route every cell once; returns per-cell timings and results."""
        rows = []
        for n, _f, masks, srcs, dsts in cells:
            start = time.perf_counter_ns()
            levels, rounds = levels_fn[n](topos[n], masks,
                                          return_rounds=True)
            mid = time.perf_counter_ns()
            batch = route_fn(topos[n], levels, srcs, dsts,
                             return_paths=True)
            end = time.perf_counter_ns()
            rows.append((start, mid, end, levels, rounds, batch))
        return rows

    reference = one_pass()  # warm-up; also the audited pass

    measured: Dict[str, dict] = {}
    last = None
    for name, length in windows(seconds, trace):
        tracer.reset()
        tracer.active = name == "traced"
        timings = []
        start = time.perf_counter()
        while True:
            last = one_pass()
            timings.extend(row[:3] for row in last)
            if time.perf_counter() - start >= length:
                break
        tracer.active = False
        measured[name] = {"timings": timings,
                          "passes": len(timings) // len(cells),
                          "spans": list(tracer.spans)}

    problems = check(cells, reference, last, seed)
    total_trials = sum(c[2].shape[0] for c in cells)
    total_routes = sum(c[3].size for c in cells)

    def summarize(name):
        """Throughput is the median over chunks of whole passes lasting at
        least a sub-window.  The cell population mixes light Q8 and heavy
        Q12 cells, so its percentiles come from the whole window: per chunk
        the p99 would be the slowest one or two cells."""
        rows = measured[name]["timings"]
        per_pass = [rows[k:k + len(cells)]
                    for k in range(0, len(rows), len(cells))]
        rates, chunk = [], []
        for one in per_pass:
            chunk.append(one)
            took = (chunk[-1][-1][2] - chunk[0][0][0]) / 1e9
            if took >= SUBWINDOW_S:
                rates.append(len(chunk) / took)
                chunk = []
        if not rates:
            rates.append(len(chunk) / took)
        cell_ms = [(end - start) / 1e6 for start, _mid, end in rows]
        level_ms = [(mid - start) / 1e6 / cells[k % len(cells)][2].shape[0]
                    for k, (start, mid, _end) in enumerate(rows)]
        passes_per_s = median(rates)
        return {
            "routes_per_s": passes_per_s * total_routes,
            "trials_per_s": passes_per_s * total_trials,
            "latency_p50_ms": pct(cell_ms, 50),
            "latency_p99_ms": pct(cell_ms, 99),
            "fault_p50_ms": pct(level_ms, 50),
            "fault_p99_ms": pct(level_ms, 99),
        }

    e2e = dict(summarize("untraced"), setup_s=float(np.median(setups)),
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    per_layer = {}
    if trace:
        m = measured["traced"]
        trials = {n: m["passes"] * sum(c[2].shape[0] for c in cells
                                       if c[0] == n) for n in topos}
        rounds = np.concatenate([row[4] for row in reference])
        per_layer = layers.sweep_layers(
            m["spans"], trials, m["passes"] * total_routes,
            float(rounds.mean()), e2e, summarize("traced"))
    kernels = {
        f"Q{n} f={f}": {"level": resolve_level_kernel(n, 1 << n),
                        "route": row[5].kernel}
        for (n, f, *_), row in zip(cells, reference)}
    passes = sum(m["passes"] for m in measured.values()) + 1
    return Outcome(
        end_to_end=e2e, per_layer=per_layer,
        attempted=passes * total_trials, failed=len(problems),
        problems=problems, provenance=provenance(kernels),
        notes={"passes": passes, "cells": len(cells),
               "trials_per_pass": total_trials,
               "failed_share": ratio(len(problems),
                                     passes * total_trials)})


def check(cells: List[Cell], reference, last, seed: int) -> List[str]:
    """Audit the warm-up pass; the last timed pass must equal it."""
    problems = []
    rng = np.random.default_rng([seed, 99])
    samples = SWEEP["scalar_samples"]
    for (n, f, masks, srcs, dsts), ref, end in zip(cells, reference, last):
        batch = ref[5]
        sample = [(int(rng.integers(batch.trials)),
                   int(rng.integers(batch.pairs))) for _ in range(samples)]
        for problem in audit_cell(n, masks, ref[3], srcs, dsts, batch,
                                  sample):
            problems.append(f"Q{n} f={f}: {problem}")
        again = end[5]
        if not (np.array_equal(again.status, batch.status)
                and np.array_equal(again.hops, batch.hops)
                and np.array_equal(again.paths, batch.paths)):
            problems.append(f"Q{n} f={f}: timed pass differs from the "
                            f"audited pass")
    return problems
