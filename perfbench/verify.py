"""Offline re-derivation of served and swept routes.

Served replies are checked against a cold safety-level fixed point
(``compute_safety_levels_batch``) and ``route_unicast_batch`` on the
fault set of the epoch the reply is tagged with; sweep cells against the
scalar ``route_unicast`` on sampled routes, plus the paper's audits.
Nothing here touches the service's own level engine or epoch tables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.faults import FaultSet
from repro.core.hypercube import Hypercube
from repro.routing.batch import BatchRouteResult, route_unicast_batch
from repro.routing.safety_unicast import route_unicast
from repro.safety.levels import SafetyLevels, compute_safety_levels_batch
from repro.service.service import REJECTED_CODE

#: Condition code of a refused row (the kernel's "none").
CONDITION_NONE = 3

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _masks(n: int, fault_sets: Sequence[FrozenSet[int]]) -> np.ndarray:
    masks = np.zeros((len(fault_sets), 1 << n), dtype=bool)
    for row, nodes in enumerate(fault_sets):
        masks[row, list(nodes)] = True
    return masks


def expected_columns(
    n: int,
    faults_by_epoch: Dict[int, FrozenSet[int]],
    epochs: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
) -> Columns:
    """What the service must answer for each ``(epoch, src, dst)`` row.

    Returns ``(status, condition, hops, hamming)`` columns in the wire
    encoding: a row whose endpoint is faulty at its epoch is refused
    (``REJECTED_CODE``, condition "none", 0 hops).
    """
    topo = Hypercube(n)
    epochs = np.asarray(epochs, dtype=np.int64)
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    rows = len(srcs)
    status = np.full(rows, REJECTED_CODE, dtype=np.uint8)
    condition = np.full(rows, CONDITION_NONE, dtype=np.uint8)
    hops = np.zeros(rows, dtype=np.int64)
    hamming = np.array([bin(int(s) ^ int(d)).count("1")
                        for s, d in zip(srcs, dsts)], dtype=np.int64)
    distinct = sorted(set(epochs.tolist()))
    masks = _masks(n, [faults_by_epoch[e] for e in distinct])
    levels = compute_safety_levels_batch(topo, masks)
    for row, epoch in enumerate(distinct):
        pick = np.flatnonzero(epochs == epoch)
        live = pick[~masks[row, srcs[pick]] & ~masks[row, dsts[pick]]]
        if live.size == 0:
            continue
        res = route_unicast_batch(topo, levels[row], srcs[live], dsts[live])
        status[live] = res.status[0]
        condition[live] = res.condition[0]
        hops[live] = res.hops[0]
    return status, condition, hops, hamming


def mismatches(served: Columns, expected: Columns) -> np.ndarray:
    """Boolean per row: any served column differs from the expected one."""
    bad = np.zeros(len(expected[0]), dtype=bool)
    for got, want in zip(served, expected):
        bad |= np.asarray(got).astype(np.int64) != want.astype(np.int64)
    return bad


def audit_cell(
    n: int,
    masks: np.ndarray,
    levels: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    batch: BatchRouteResult,
    sample: Sequence[Tuple[int, int]],
) -> List[str]:
    """Problems found in one sweep cell; an empty list means it passed.

    Audits every route: no route gets stuck; a delivered route takes at
    most H+2 hops, exactly H under C1/C2 and exactly H+2 under C3, and
    never visits a faulty node; with fewer faults than ``n`` no route
    aborts (Property 2).  Each sampled ``(trial, pair)`` must equal the
    scalar ``route_unicast`` on a cold, per-trial level computation.
    """
    topo = Hypercube(n)
    problems: List[str] = []
    ham = batch.hamming
    delivered = batch.delivered
    if batch.stuck.any():
        problems.append(f"{int(batch.stuck.sum())} stuck routes")
    over = delivered & (batch.hops > ham + 2)
    if over.any():
        problems.append(f"{int(over.sum())} routes over H+2 hops")
    c12 = delivered & (batch.condition <= 1) & (batch.hops != ham)
    c3 = delivered & (batch.condition == 2) & (batch.hops != ham + 2)
    if c12.any() or c3.any():
        problems.append(f"{int(c12.sum() + c3.sum())} routes with hops "
                        f"inconsistent with their source condition")
    valid = batch.paths >= 0
    trial_idx = np.arange(masks.shape[0])[:, None, None]
    on_fault = (masks[trial_idx, np.where(valid, batch.paths, 0)]
                & valid).any(axis=2)
    if (on_fault & delivered).any():
        problems.append(f"{int((on_fault & delivered).sum())} delivered "
                        f"routes through a faulty node")
    small = masks.sum(axis=1) < n
    aborted = batch.aborted & small[:, None]
    if aborted.any():
        problems.append(f"{int(aborted.sum())} aborts with f < n "
                        f"(Property 2)")
    for trial, pair in sample:
        faults = FaultSet(nodes=np.flatnonzero(masks[trial]).tolist())
        cold = SafetyLevels.compute(topo, faults)
        if not np.array_equal(cold.levels, levels[trial]):
            problems.append(f"trial {trial}: batch levels differ from the "
                            f"scalar fixed point")
            continue
        want = route_unicast(cold, int(srcs[trial, pair]),
                             int(dsts[trial, pair]))
        got = batch.result(trial, pair)
        if (want.status, want.condition, want.path) != \
                (got.status, got.condition, got.path):
            problems.append(f"trial {trial} pair {pair}: batch route "
                            f"differs from scalar route_unicast")
    return problems
