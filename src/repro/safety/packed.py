"""The packed-bitset safety-level kernel: bit-sliced over 64-trial words.

The SWAR kernel in :mod:`repro.safety.levels` runs out of uint64 bits
for its threshold fields past ``n = 13``, and the generic gather+sort
fallback streams a ``(B, 2**n, n)`` int64 tensor through memory every
sweep — the cost that caps Monte-Carlo work on large cubes.  This module
evaluates the same Definition-1 fixed point with a different packing:
**one bit per trial**.

* Every per-node quantity lives in ``(Wb, 2**n)`` uint64 words, where
  word ``w``'s bit ``b`` belongs to trial ``64*w + b`` — 64 trials
  advance per bitwise instruction.
* Levels are **bit-sliced**: plane ``p`` holds bit ``p`` of every node's
  level, so a cube needs only ``ceil(log2(n+1))`` word arrays.
* One synchronous sweep evaluates the collapsed update rule
  ``S(a) = min{t : c_t >= t+1}`` (``c_t`` = #neighbors with level < t,
  see :mod:`repro.safety.levels`) with carry-save adders and bitwise
  comparators: the ``level < t`` masks accumulate incrementally
  (``lt_{t+1} = lt_t | (level == t)``), neighbor masks are the usual
  reversed-axis views of the packed cube, and the per-threshold counters
  never leave bit-sliced form.

Two implementations share this design and are asserted bit-identical to
the swar/sorted kernels (same iterates, same stabilization rounds):

* :func:`_packed_sweep_numpy` — pure-numpy SWAR across words, the
  always-available fallback;
* :func:`_packed_sweep_njit` — a numba ``@njit`` transliteration with
  the per-cell loops fused (no intermediate arrays), dispatched when
  :func:`repro.core.native.numba_available` says so.

Works for any ``1 <= n <= 26``; it is the ``"packed"`` choice of the
``REPRO_LEVEL_KERNEL`` seam and the ``auto`` pick for ``n >= 14``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core import native
from ..core.native import njit

__all__ = ["batch_block_packed"]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _pack_lanes(bools: np.ndarray) -> np.ndarray:
    """``(B, N)`` bool -> ``(Wb, N)`` uint64, bit ``b`` = row ``64*w + b``."""
    batch, num_nodes = bools.shape
    wb = (batch + 63) // 64
    padded = np.zeros((wb * 64, num_nodes), dtype=np.uint8)
    padded[:batch] = bools
    packed = np.packbits(padded.reshape(wb, 64, num_nodes), axis=1,
                         bitorder="little")          # (Wb, 8, N) bytes
    packed = np.ascontiguousarray(packed.transpose(0, 2, 1))
    return packed.reshape(wb, num_nodes * 8).view(np.uint64)


def _unpack_lanes(words: np.ndarray, batch: int) -> np.ndarray:
    """``(Wb, N)`` uint64 -> ``(B, N)`` uint8 of 0/1 (inverse of pack)."""
    wb, num_nodes = words.shape
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8).reshape(wb, num_nodes, 8),
        axis=2, bitorder="little",
    )                                                # (Wb, N, 64)
    return bits.transpose(0, 2, 1).reshape(wb * 64, num_nodes)[:batch]


def _unpack_lane_vector(words: np.ndarray, batch: int) -> np.ndarray:
    """``(Wb,)`` uint64 lane mask -> ``(B,)`` bool."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), bitorder="little"
    )
    return bits[:batch].astype(bool)


def _packed_sweep_numpy(
    planes: np.ndarray,
    new_planes: np.ndarray,
    fault_w: np.ndarray,
    n: int,
    num_planes: int,
    count_planes: int,
) -> np.ndarray:
    """One synchronous sweep, word-parallel; returns (Wb,) changed lanes.

    Reads the pre-sweep state from ``planes`` and writes the swept state
    into ``new_planes`` (Jacobi, exactly like ``levels._sweep``).
    """
    wb, num_nodes = fault_w.shape
    cube_shape = (wb,) + (2,) * n
    alive = ~fault_w
    new_planes[:] = 0
    notdone = alive.copy()
    lt = np.zeros((wb, num_nodes), dtype=np.uint64)
    acc = np.empty((count_planes, wb, num_nodes), dtype=np.uint64)
    for t in range(1, n):
        # lt := (level < t), grown one equality slice per threshold.
        eq = np.full((wb, num_nodes), _ALL_ONES, dtype=np.uint64)
        for p in range(num_planes):
            eq &= planes[p] if ((t - 1) >> p) & 1 else ~planes[p]
        lt |= eq
        # c_t: carry-save sum of the n neighbor views of lt.
        acc[:] = 0
        lt_cube = lt.reshape(cube_shape)
        for axis in range(1, n + 1):
            rev = tuple(
                slice(None, None, -1) if k == axis else slice(None)
                for k in range(n + 1)
            )
            carry = lt_cube[rev].reshape(wb, num_nodes)
            for k in range(count_planes):
                spill = acc[k] & carry
                acc[k] ^= carry
                carry = spill
                if not carry.any():
                    break
        # ge := (c_t >= t + 1), MSB-first bitwise comparator.
        threshold = t + 1
        gt = np.zeros((wb, num_nodes), dtype=np.uint64)
        eqc = np.full((wb, num_nodes), _ALL_ONES, dtype=np.uint64)
        for k in range(count_planes - 1, -1, -1):
            xb = acc[k]
            if (threshold >> k) & 1:
                eqc &= xb
            else:
                gt |= eqc & xb
                eqc &= ~xb
        ge = gt | eqc
        sel = ge & notdone
        for p in range(num_planes):
            if (t >> p) & 1:
                new_planes[p] |= sel
        notdone &= ~ge
    for p in range(num_planes):
        if (n >> p) & 1:
            new_planes[p] |= notdone  # no threshold failed: level n
    changed = np.zeros((wb, num_nodes), dtype=np.uint64)
    for p in range(num_planes):
        changed |= new_planes[p] ^ planes[p]
    return np.bitwise_or.reduce(changed, axis=1)


@njit(cache=True)
def _packed_sweep_njit(
    planes: np.ndarray,
    new_planes: np.ndarray,
    fault_w: np.ndarray,
    n: int,
    num_planes: int,
    count_planes: int,
    changed_words: np.ndarray,
) -> None:  # pragma: no cover - exercised only on numba installs
    """Loop-fused twin of :func:`_packed_sweep_numpy` (same bit algebra)."""
    wb, num_nodes = fault_w.shape
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    zero = np.uint64(0)
    nbrp = np.empty((n, num_planes), np.uint64)
    ltj = np.empty(n, np.uint64)
    acc = np.empty(count_planes, np.uint64)
    for w in range(wb):
        word_changed = zero
        for v in range(num_nodes):
            for j in range(n):
                u = v ^ (1 << j)
                for p in range(num_planes):
                    nbrp[j, p] = planes[p, w, u]
                ltj[j] = zero
            alive = ~fault_w[w, v]
            notdone = alive
            for p in range(num_planes):
                new_planes[p, w, v] = zero
            for t in range(1, n):
                um = t - 1
                for j in range(n):
                    e = ones
                    for p in range(num_planes):
                        if (um >> p) & 1:
                            e &= nbrp[j, p]
                        else:
                            e &= ~nbrp[j, p]
                    ltj[j] |= e
                for k in range(count_planes):
                    acc[k] = zero
                for j in range(n):
                    carry = ltj[j]
                    for k in range(count_planes):
                        if carry == zero:
                            break
                        spill = acc[k] & carry
                        acc[k] ^= carry
                        carry = spill
                threshold = t + 1
                gt = zero
                eqc = ones
                for k in range(count_planes - 1, -1, -1):
                    xb = acc[k]
                    if (threshold >> k) & 1:
                        eqc = eqc & xb
                    else:
                        gt = gt | (eqc & xb)
                        eqc = eqc & ~xb
                sel = (gt | eqc) & notdone
                if sel != zero:
                    for p in range(num_planes):
                        if (t >> p) & 1:
                            new_planes[p, w, v] |= sel
                notdone &= ~(gt | eqc)
            for p in range(num_planes):
                if (n >> p) & 1:
                    new_planes[p, w, v] |= notdone
            for p in range(num_planes):
                word_changed |= new_planes[p, w, v] ^ planes[p, w, v]
        changed_words[w] = word_changed


def batch_block_packed(
    n: int, masks: np.ndarray, use_numba: bool | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Definition-1 fixed point for one block of fault masks, packed tier.

    Same contract as the swar/sorted block kernels in ``levels``: returns
    ``(levels, rounds)`` with ``levels`` an int64 ``(B, 2**n)`` matrix and
    ``rounds`` the per-trial count of change-bearing synchronous sweeps.
    ``use_numba`` pins an implementation for equivalence tests; ``None``
    defers to :func:`repro.core.native.numba_available`.
    """
    batch, num_nodes = masks.shape
    if num_nodes != 1 << n:
        raise ValueError(
            f"packed level kernel needs a full 2**n-node cube, got "
            f"{num_nodes} nodes for n={n}"
        )
    num_planes = max(1, n.bit_length())   # levels live in 0..n
    count_planes = max(1, n.bit_length())  # counters live in 0..n
    fault_w = _pack_lanes(masks)
    alive = ~fault_w
    planes = np.empty((num_planes, *fault_w.shape), dtype=np.uint64)
    for p in range(num_planes):
        planes[p] = alive if (n >> p) & 1 else 0
    new_planes = np.empty_like(planes)
    rounds = np.zeros(batch, dtype=np.int64)
    jit = native.numba_available() if use_numba is None else use_numba
    stable = False
    for sweep_no in range(1, n + 2):
        if jit:
            changed_words = np.empty(fault_w.shape[0], dtype=np.uint64)
            _packed_sweep_njit(planes, new_planes, fault_w, n,
                               num_planes, count_planes, changed_words)
        else:
            changed_words = _packed_sweep_numpy(planes, new_planes, fault_w,
                                                n, num_planes, count_planes)
        planes, new_planes = new_planes, planes
        if not changed_words.any():
            stable = True
            break
        rounds[_unpack_lane_vector(changed_words, batch)] = sweep_no
    if not stable:
        raise AssertionError(
            "packed safety-level iteration failed to stabilize within n+1 "
            "sweeps; this contradicts Property 1 and indicates a kernel bug"
        )
    levels = np.zeros((batch, num_nodes), dtype=np.int64)
    for p in range(num_planes):
        levels |= _unpack_lanes(planes[p], batch).astype(np.int64) << p
    return levels, rounds
