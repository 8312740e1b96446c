"""Safety levels (Definition 1) and their fixed-point computation.

Definition 1 (paper): a faulty node is 0-safe.  For a nonfaulty node ``a``
with *nondecreasing* neighbor-level sequence ``(S_0, ..., S_{n-1})``:

* if ``(S_0, ..., S_{n-1}) >= (0, 1, ..., n-1)`` elementwise, ``S(a) = n``;
* else ``S(a) = k`` where the length-k prefix dominates ``(0, ..., k-1)``
  and ``S_k = k - 1``.

A useful consequence (used by both kernels here): in a sorted sequence the
*first* index ``j`` with ``S_j < j`` automatically satisfies ``S_j = j - 1``
whenever it exists — because ``S_j >= S_{j-1} >= j - 1``.  So the update
rule collapses to::

    S(a) = min { j : S_j < j }        (or n if no such j)

which is exactly what :func:`level_from_sorted` computes and what the
vectorized kernel evaluates for all nodes at once.

The global assignment is the unique fixed point of this rule (Theorem 1).
Iterating from the all-``n`` initial state (the GS initialisation) converges
monotonically downward in at most ``n - 1`` sweeps (Property 1 corollary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.dispatch import resolve_kernel_name
from ..core.fault_models import RngLike, as_rng
from ..core.faults import FaultSet
from ..core.hypercube import Hypercube, neighbor_table
from ..obs.instruments import record_gs_batch

#: Environment variable consulted by :func:`resolve_level_kernel` when no
#: explicit ``kernel=`` argument is given — the level-side mirror of
#: ``REPRO_ROUTE_KERNEL``.
LEVEL_KERNEL_ENV_VAR = "REPRO_LEVEL_KERNEL"

#: Recognized batch level-kernel names.  ``"auto"`` picks by cube shape:
#: the SWAR threshold-field kernel for full cubes with ``n <= 13``, the
#: packed-bitset tier (:mod:`repro.safety.packed`) for larger cubes;
#: ``"sorted"`` is the generic gather+sort formulation that works for any
#: topology.
LEVEL_KERNELS = ("auto", "swar", "sorted", "packed")

#: Largest cube whose SWAR word — ``n - 1`` threshold fields of ``1 +
#: ceil(log2 n)`` bits plus a flag bit — fits one uint64 (61 bits at Q13,
#: 66 at Q14).
SWAR_MAX_DIMENSION = 13

__all__ = [
    "level_from_sorted",
    "level_of_node",
    "LevelsWorkspace",
    "compute_safety_levels",
    "compute_safety_levels_batch",
    "compute_safety_levels_async",
    "verify_fixed_point",
    "SafetyLevels",
]


def level_from_sorted(sorted_levels: Sequence[int]) -> int:
    """Definition 1 applied to an already-sorted neighbor sequence.

    ``sorted_levels`` must be nondecreasing; the result is ``n`` (its
    length) when the sequence dominates ``(0, 1, ..., n-1)`` and otherwise
    the first index falling below the identity staircase.
    """
    for j, s in enumerate(sorted_levels):
        if s < j:
            return j
    return len(sorted_levels)


def level_of_node(neighbor_levels: Sequence[int]) -> int:
    """Definition 1 from an unsorted neighbor-level sequence."""
    return level_from_sorted(sorted(neighbor_levels))


def _sweep(levels: np.ndarray, table: np.ndarray, faulty: np.ndarray,
           staircase: np.ndarray, scratch: np.ndarray) -> int:
    """One synchronous relaxation sweep; returns #nodes whose level changed.

    ``scratch`` is a preallocated ``(N, n)`` buffer reused across sweeps so
    the hot loop performs no allocations beyond numpy temporaries.
    """
    np.take(levels, table, out=scratch)
    scratch.sort(axis=1)
    below = scratch < staircase  # (N, n): S_j < j
    any_below = below.any(axis=1)
    first_fail = np.argmax(below, axis=1)
    n = table.shape[1]
    new_levels = np.where(any_below, first_fail, n).astype(levels.dtype)
    new_levels[faulty] = 0
    changed = int(np.count_nonzero(new_levels != levels))
    levels[:] = new_levels
    return changed


class SwarTables(NamedTuple):
    """Per-dimension constants of the SWAR level kernel (see
    :meth:`LevelsWorkspace.swar_tables`)."""

    dtype: np.dtype
    ones: np.unsignedinteger
    level_one: np.unsignedinteger
    bias: np.unsignedinteger
    over: np.unsignedinteger
    axes: Tuple[Tuple[slice, ...], ...]


class LevelsWorkspace:
    """Reusable scratch buffers for the safety-level kernels.

    The vectorized kernels need an identity staircase, a gather buffer of
    shape ``(batch, 2**n, n)``, and (for the batched SWAR kernel) packed
    threshold constants plus three sweep buffers.  In Monte-Carlo
    loops those allocations dominate small-cube trials, so this class
    caches them keyed on the cube shape, growing batch capacity on demand
    and handing out views.  Buffers are plain mutable scratch: a
    workspace must not be shared between threads (separate *processes*
    each get their own).
    """

    __slots__ = ("_staircases", "_gathers", "_swar", "_swar_scratch")

    def __init__(self) -> None:
        self._staircases: Dict[int, np.ndarray] = {}
        self._gathers: Dict[Tuple[int, int], np.ndarray] = {}
        self._swar: Dict[int, SwarTables] = {}
        self._swar_scratch: Dict[int, np.ndarray] = {}

    def staircase(self, n: int) -> np.ndarray:
        """Read-only ``(0, 1, ..., n-1)`` row for Definition-1 comparisons."""
        arr = self._staircases.get(n)
        if arr is None:
            arr = np.arange(n, dtype=np.int64)
            arr.setflags(write=False)
            self._staircases[n] = arr
        return arr

    def gather(self, batch: int, num_nodes: int, n: int) -> np.ndarray:
        """A ``(batch, num_nodes, n)`` int64 scratch view (uninitialized)."""
        key = (num_nodes, n)
        buf = self._gathers.get(key)
        if buf is None or buf.shape[0] < batch:
            buf = np.empty((batch, num_nodes, n), dtype=np.int64)
            self._gathers[key] = buf
        return buf[:batch]

    def swar_scratch(
        self, num_nodes: int, rows: int, dtype: np.dtype
    ) -> List[np.ndarray]:
        """Three flat scratch buffers of ``num_nodes * rows`` words.

        The SWAR kernel views their prefixes as ``(num_nodes, b)`` arrays
        for whatever ``b <= rows`` trials are still active in a sweep.
        """
        size = num_nodes * rows
        buf = self._swar_scratch.get(num_nodes)
        if buf is None or buf.shape[1] < size or buf.dtype != dtype:
            buf = np.empty((3, size), dtype=dtype)
            self._swar_scratch[num_nodes] = buf
        return list(buf)

    def swar_tables(self, n: int) -> SwarTables:
        """Packed-threshold constants for the SWAR batched kernel.

        Definition 1's update collapses to ``S(a) = min{t : c_t >= t+1}``
        where ``c_t`` counts neighbors with level below ``t`` (or ``n``
        when no threshold fails; ``t = 0`` can never fail).  The SWAR
        kernel keeps every counter ``c_1 .. c_{n-1}`` in its own
        ``width``-bit field of one machine word per node, ``width = 1 +
        ceil(log2 n)``, field ``t`` at bit ``width*(t-1)``, so a single
        add per dimension accumulates all thresholds at once.  The
        ``n - 1`` fields fill ``(n-1)*width`` bits: 28 at Q8 (a uint32
        word serves up to Q8), 60 at Q13 (uint64), and 65 at Q14, which
        is why the kernel stops at Q13.

        A node at level ``L`` contributes the *packed value* with bit
        ``width*(t-1)`` set for every threshold ``t > L`` (it counts
        towards ``c_t``), plus a flag in the word's top bit when
        ``L < n``, so that levels ``n - 1`` and ``n`` (which count towards
        no threshold) stay distinct and ``L = n - popcount(value)``.  The
        flag lies above every field, so the flags' sums carry only out of
        the word.

        * ``dtype`` — the word: uint32 when fields and flag fit, else
          uint64;
        * ``ones`` — the value of a level-0 (faulty) node: every field's
          low bit plus the flag;
        * ``level_one`` — the value of a level-1 node;
        * ``bias`` — adds ``2**(width-1) - (t+1)`` into field ``t``, so
          the field's top bit ``width*t - 1`` is set exactly when
          ``c_t >= t+1`` (``c_t <= n <= 2**(width-1)``, so a field holds
          at most ``2**width - 2``: no carry between fields);
        * ``over`` — the mask of all top (overflow) bits;
        * ``axes`` — per cube dimension, the index that reverses that
          axis of a ``(2,) * n + (b,)`` view: the dimension-``j``
          neighbor of node ``a`` is ``a ^ 2**j``, axis ``n - 1 - j`` read
          backwards.
        """
        cached = self._swar.get(n)
        if cached is None:
            if not 1 <= n <= SWAR_MAX_DIMENSION:
                raise ValueError(
                    f"SWAR kernel supports 1 <= n <= {SWAR_MAX_DIMENSION}")
            width = 1 + (n - 1).bit_length()  # 1 + ceil(log2 n)
            dtype = np.dtype(np.uint32 if (n - 1) * width < 32
                             else np.uint64)
            word = dtype.type
            fields = range(1, n)
            flag = 1 << 8 * dtype.itemsize - 1
            cached = SwarTables(
                dtype=dtype,
                ones=word(flag + sum(1 << width * (t - 1) for t in fields)),
                level_one=word(flag + sum(1 << width * (t - 1)
                                          for t in fields if t > 1)),
                bias=word(sum(((1 << width - 1) - (t + 1)) << width * (t - 1)
                              for t in fields)),
                over=word(sum(1 << width * t - 1 for t in fields)),
                axes=tuple(
                    tuple(slice(None, None, -1) if k == axis
                          else slice(None) for k in range(n))
                    for axis in range(n)
                ),
            )
            self._swar[n] = cached
        return cached


#: Shared workspace for single-threaded callers (the default everywhere).
_DEFAULT_WORKSPACE = LevelsWorkspace()


def compute_safety_levels(
    topo: Hypercube,
    faults: FaultSet,
    workspace: Optional[LevelsWorkspace] = None,
) -> np.ndarray:
    """The unique safety-level assignment of a faulty binary n-cube.

    Vectorized greatest-fixed-point iteration: start every nonfaulty node
    at ``n`` and resweep until no level changes.  Equivalent to the
    distributed GS algorithm (cross-validated in the test suite), but each
    "round" is one fancy-indexed gather + row sort over the whole cube.

    Returns an int64 vector of length ``2**n``; faulty nodes hold 0.
    ``workspace`` defaults to a module-level scratch cache so tight trial
    loops do not reallocate the ``(2**n, n)`` gather buffer every call.

    Note: link faults are outside Definition 1 — use
    :mod:`repro.safety.link_faults` for cubes with faulty links.
    """
    if faults.effective_links():
        raise ValueError(
            "compute_safety_levels handles node faults only; use "
            "repro.safety.link_faults.compute_extended_levels for link faults"
        )
    n = topo.dimension
    table = neighbor_table(n)
    faulty = faults.node_mask(topo.num_nodes)
    levels = np.full(topo.num_nodes, n, dtype=np.int64)
    levels[faulty] = 0
    ws = workspace if workspace is not None else _DEFAULT_WORKSPACE
    staircase = ws.staircase(n)[None, :]
    scratch = ws.gather(1, topo.num_nodes, n)[0]
    # The monotone iteration provably needs at most n-1 sweeps to reach the
    # fixed point (Property 1 corollary); one extra confirms stability.
    for _ in range(n + 1):
        if _sweep(levels, table, faulty, staircase, scratch) == 0:
            return levels
    raise AssertionError(
        "safety-level iteration failed to stabilize within n+1 sweeps; "
        "this contradicts Property 1 and indicates a kernel bug"
    )


#: Row-block size of the packed and sorted batch tiers.
_BATCH_BLOCK = 512

#: Bytes of one SWAR ``(2**n, block)`` scratch array.  A neighbor add
#: streams two of them, so a byte budget (rather than a row count) keeps
#: the working set near a core's L2 whatever the cube size: 1024 trials
#: at Q8 (uint32 words), 32 at Q12, 16 at Q13.
_SWAR_BLOCK_BYTES = 1 << 20


def _swar_block_rows(num_nodes: int, tables: SwarTables) -> int:
    return max(1, _SWAR_BLOCK_BYTES // (tables.dtype.itemsize * num_nodes))


def _batch_block_swar(
    n: int, masks: np.ndarray, ws: LevelsWorkspace,
    out: np.ndarray, rounds: np.ndarray,
) -> None:
    """Definition-1 fixed point for one block of fault masks, SWAR kernel.

    Works for full cubes with ``n <= 13``; writes the ``(b, 2**n)``
    levels into ``out`` and the per-trial rounds into ``rounds``.  The
    block is held trial-contiguous, as ``(2**n, b)`` arrays with the
    ``b`` still-active trials innermost, so each of the ``n``
    reversed-axis neighbor adds streams contiguous runs of at least
    ``b`` words.  Between sweeps every node carries its *packed value*
    (see :meth:`LevelsWorkspace.swar_tables`) instead of its level; one
    sweep sums the bias and the ``n`` neighbor values, so field ``t`` of
    the sum overflows into its top bit exactly when ``c_t >= t + 1``.
    The lowest set overflow bit ``O`` *is* the new level (Definition 1
    collapsed to ``S(a) = min{t : c_t >= t+1}``, else ``n``), and the
    new packed value is ``(O ^ -O) & ones``: the bits strictly above that
    overflow bit keep exactly the fields ``t > S(a)`` and the flag.  No
    gather, no sort, no table lookup, ~n + 6 word ops per node per sweep.
    Trials that reach their fixed point are written out and compacted
    away.
    """
    tables = ws.swar_tables(n)
    axes = tables.axes
    batch, num_nodes = masks.shape
    # Sweep 1 collapses analytically: from the all-n start a neighbor
    # contributes to every threshold iff it is faulty, so each counter
    # c_t equals the faulty-neighbor count F and the swept level is 1
    # where F >= 2, else n.  Counting F is an 8-bit add per dimension.
    faulty = np.ascontiguousarray(masks.T)
    count = np.zeros((num_nodes, batch), dtype=np.uint8)
    count_cube = count.reshape((2,) * n + (batch,))
    mask_cube = faulty.view(np.uint8).reshape(count_cube.shape)
    for index in axes:
        np.add(count_cube, mask_cube[index], out=count_cube)
    dropped = (count >= 2) & ~faulty
    moved = dropped.any(axis=0)
    rounds[:] = moved
    np.multiply(masks, -n, out=out)
    out += n
    active = np.flatnonzero(moved)
    b = active.size
    if b == 0:
        return
    if b < batch:
        dropped = dropped[:, active]
        faulty = faulty[:, active]
    value_buf, total_buf, new_buf = ws.swar_scratch(num_nodes, b,
                                                    tables.dtype)
    value = value_buf[:num_nodes * b].reshape(num_nodes, b)
    np.multiply(dropped, tables.level_one, out=value)
    value[faulty] = tables.ones
    for sweep_no in range(2, n + 2):
        total = total_buf[:num_nodes * b].reshape(num_nodes, b)
        new = new_buf[:num_nodes * b].reshape(num_nodes, b)
        cube = value.reshape((2,) * n + (b,))
        total_cube = total.reshape(cube.shape)
        # Seed the accumulator with the bias so it rides along the
        # neighbor adds instead of costing a separate pass.
        np.add(cube[axes[0]], tables.bias, out=total_cube)
        for index in axes[1:]:
            np.add(total_cube, cube[index], out=total_cube)
        total &= tables.over
        np.negative(total, out=new)
        new ^= total
        new &= tables.ones
        new[faulty] = tables.ones
        changed = (new != value).any(axis=0)
        if changed.all():
            value_buf, new_buf = new_buf, value_buf
            value = new
        else:
            keep = ~changed
            out[active[keep]] = (n - np.bitwise_count(value[:, keep])).T
            active = active[changed]
            b = active.size
            if b == 0:
                return
            value = value_buf[:num_nodes * b].reshape(num_nodes, b)
            np.compress(changed, new, axis=1, out=value)
            faulty = faulty[:, changed]
        rounds[active] = sweep_no
    raise AssertionError(
        "batched safety-level iteration failed to stabilize within n+1 "
        "sweeps; this contradicts Property 1 and indicates a kernel bug"
    )


def _batch_block_sorted(
    n: int, num_nodes: int, table: np.ndarray, masks: np.ndarray,
    ws: LevelsWorkspace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generic fallback fixed point: gather + row sort per sweep.

    Handles any topology, including cubes that are not full; same
    contract as :func:`_batch_block_swar`.
    """
    batch = masks.shape[0]
    levels = np.full((batch, num_nodes), n, dtype=np.int64)
    levels[masks] = 0
    rounds = np.zeros(batch, dtype=np.int64)
    staircase = ws.staircase(n)
    active = np.arange(batch)
    for sweep_no in range(1, n + 2):
        if active.size == 0:
            break
        sub_levels = levels[active]
        scratch = ws.gather(active.size, num_nodes, n)
        np.take(sub_levels, table, axis=1, out=scratch)
        scratch.sort(axis=2)
        below = scratch < staircase  # (b, N, n): S_j < j
        any_below = below.any(axis=2)
        first_fail = np.argmax(below, axis=2)
        new_levels = np.where(any_below, first_fail, n).astype(np.int64)
        new_levels[masks[active]] = 0
        changed = (new_levels != sub_levels).any(axis=1)
        still = active[changed]
        rounds[still] = sweep_no
        levels[still] = new_levels[changed]
        active = still
    if active.size:
        raise AssertionError(
            "batched safety-level iteration failed to stabilize within n+1 "
            "sweeps; this contradicts Property 1 and indicates a kernel bug"
        )
    return levels, rounds


def resolve_level_kernel(
    n: int, num_nodes: int, kernel: Optional[str] = None
) -> str:
    """The concrete batch level kernel to run for an ``n``-cube.

    Resolution order (via :func:`repro.core.dispatch.resolve_kernel_name`,
    the same helper behind ``REPRO_ROUTE_KERNEL``): an explicit ``kernel=``
    argument, else ``$REPRO_LEVEL_KERNEL``, else ``"auto"``.  ``"auto"``
    maps to the shape-appropriate fast tier — ``"swar"`` for ``n <= 13``
    (where its threshold fields fit one uint64), ``"packed"`` above — and
    both fast tiers require a full ``2**n``-node cube; requesting one
    outside its envelope is an error rather than a silent substitution.
    """
    name = resolve_kernel_name(LEVEL_KERNEL_ENV_VAR, LEVEL_KERNELS,
                               kernel, "auto", what="level kernel")
    full_cube = num_nodes == (1 << n)
    if name == "auto":
        if not full_cube:
            return "sorted"
        return "swar" if n <= SWAR_MAX_DIMENSION else "packed"
    if name == "swar" and (n > SWAR_MAX_DIMENSION or not full_cube):
        raise ValueError(
            f"level kernel 'swar' supports full cubes with "
            f"n <= {SWAR_MAX_DIMENSION} only "
            f"(got n={n}, {num_nodes} nodes); use 'packed', 'sorted', or "
            f"'auto'"
        )
    if name == "packed" and not full_cube:
        raise ValueError(
            f"level kernel 'packed' needs a full 2**n-node cube, got "
            f"{num_nodes} nodes for n={n}; use 'sorted' or 'auto'"
        )
    return name


def compute_safety_levels_batch(
    topo: Hypercube,
    fault_masks: np.ndarray,
    workspace: Optional[LevelsWorkspace] = None,
    return_rounds: bool = False,
    kernel: Optional[str] = None,
) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
    """Safety levels of ``B`` independent fault sets in one kernel.

    ``fault_masks`` is a boolean ``(B, 2**n)`` matrix, one row per trial
    (row ``b`` true at ``b``'s faulty nodes).  Each Definition-1 sweep runs
    over every still-unstable trial at once, so a whole Monte-Carlo cell
    amortizes numpy dispatch that the per-trial kernel pays ``B`` times;
    rows that reach their fixed point drop out of subsequent sweeps, and
    large batches are processed in cache-sized row blocks.  The sweep
    kernel is chosen by :func:`resolve_level_kernel` (``kernel=`` argument
    > ``$REPRO_LEVEL_KERNEL`` > ``auto``): the SWAR threshold-counting
    kernel (:func:`_batch_block_swar`) for ``n <= 13``, the packed-bitset
    tier (:func:`repro.safety.packed.batch_block_packed`) for larger
    cubes, with the gather+sort formulation as the generic fallback.

    Returns the ``(B, 2**n)`` int64 level matrix; with ``return_rounds``
    also the ``(B,)`` per-trial stabilization round (the count of
    change-bearing synchronous sweeps — exactly what
    :func:`repro.safety.gs.compute_levels_with_rounds` reports trial by
    trial, cross-checked in the test suite).
    """
    masks = np.asarray(fault_masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != topo.num_nodes:
        raise ValueError(
            f"fault_masks must have shape (B, {topo.num_nodes}), "
            f"got {masks.shape}"
        )
    n = topo.dimension
    num_nodes = topo.num_nodes
    batch = masks.shape[0]
    ws = workspace if workspace is not None else _DEFAULT_WORKSPACE
    chosen = resolve_level_kernel(n, num_nodes, kernel)
    table = None if chosen in ("swar", "packed") else neighbor_table(n)
    levels = np.empty((batch, num_nodes), dtype=np.int64)
    rounds = np.empty(batch, dtype=np.int64)
    block = (_swar_block_rows(num_nodes, ws.swar_tables(n))
             if chosen == "swar" else _BATCH_BLOCK)
    for lo in range(0, batch, block):
        hi = min(lo + block, batch)
        if chosen == "swar":
            _batch_block_swar(n, masks[lo:hi], ws, levels[lo:hi],
                              rounds[lo:hi])
            continue
        if chosen == "packed":
            from .packed import batch_block_packed

            blk_levels, blk_rounds = batch_block_packed(n, masks[lo:hi])
        else:
            blk_levels, blk_rounds = _batch_block_sorted(
                n, num_nodes, table, masks[lo:hi], ws
            )
        levels[lo:hi] = blk_levels
        rounds[lo:hi] = blk_rounds
    record_gs_batch(n, batch, chosen, rounds)
    return (levels, rounds) if return_rounds else levels


def compute_safety_levels_async(
    topo: Hypercube,
    faults: FaultSet,
    rng: RngLike = None,
    start_levels: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chaotic (random node order, one node at a time) relaxation.

    Exercises Theorem 1: the fixed point is unique, so *any* fair update
    order from the all-``n`` start must converge to the same assignment as
    the synchronous kernel.  Used by property-based tests; not a fast path.
    """
    gen = as_rng(rng)
    n = topo.dimension
    faulty = faults.node_mask(topo.num_nodes)
    if start_levels is None:
        levels = np.full(topo.num_nodes, n, dtype=np.int64)
    else:
        levels = np.array(start_levels, dtype=np.int64, copy=True)
    levels[faulty] = 0
    table = topo.neighbor_table()
    # A node's level can drop at most n times, so n * N single-node updates
    # per pass and at most n passes bounds the work.
    for _ in range(n + 1):
        order = gen.permutation(topo.num_nodes)
        changed = False
        for node in order:
            if faulty[node]:
                continue
            new = level_from_sorted(np.sort(levels[table[node]]))
            if new != levels[node]:
                levels[node] = new
                changed = True
        if not changed:
            return levels
    raise AssertionError("asynchronous relaxation failed to stabilize")


def verify_fixed_point(
    topo: Hypercube, faults: FaultSet, levels: np.ndarray
) -> List[int]:
    """Nodes violating Definition 1 under ``levels`` (empty = valid).

    This is the Theorem-1 check: a proposed assignment is *the* safety
    assignment iff every node satisfies the definition locally.
    """
    table = topo.neighbor_table()
    bad = []
    for node in topo.iter_nodes():
        if faults.is_node_faulty(node):
            expect = 0
        else:
            expect = level_from_sorted(np.sort(levels[table[node]]))
        if levels[node] != expect:
            bad.append(node)
    return bad


@dataclass(frozen=True)
class SafetyLevels:
    """An immutable view of a cube's safety assignment with query helpers.

    Build with :meth:`compute`; experiments and routers consume this object
    rather than raw arrays so that level semantics (safe/unsafe, safe set)
    live in one place.
    """

    topo: Hypercube
    faults: FaultSet
    levels: np.ndarray

    @classmethod
    def compute(cls, topo: Hypercube, faults: FaultSet) -> "SafetyLevels":
        faults.validate(topo)
        levels = compute_safety_levels(topo, faults)
        levels.setflags(write=False)
        return cls(topo=topo, faults=faults, levels=levels)

    def level(self, node: int) -> int:
        """``S(node)``; 0 for faulty nodes."""
        self.topo.validate_node(node)
        return int(self.levels[node])

    def is_safe(self, node: int) -> bool:
        """True iff ``node`` is n-safe (the paper's *safe node*)."""
        return self.level(node) == self.topo.dimension

    def is_unsafe(self, node: int) -> bool:
        """True iff nonfaulty with level below ``n``."""
        return (not self.faults.is_node_faulty(node)) and not self.is_safe(node)

    def safe_set(self) -> FrozenSet[int]:
        """All n-safe nodes."""
        n = self.topo.dimension
        return frozenset(np.flatnonzero(self.levels == n).tolist())

    def neighbor_levels(self, node: int) -> List[int]:
        """Levels of ``node``'s neighbors in dimension order — exactly the
        information the distributed algorithm has at ``node``."""
        self.topo.validate_node(node)
        return [int(self.levels[v]) for v in self.topo.neighbors(node)]

    def by_level(self) -> Dict[int, List[int]]:
        """Mapping level -> sorted node list (diagnostics, examples)."""
        # One stable sort groups nodes by level while keeping ascending
        # node ids within each group — no per-node Python loop over 2**n.
        order = np.argsort(self.levels, kind="stable")
        grouped = self.levels[order]
        values, starts = np.unique(grouped, return_index=True)
        bounds = np.append(starts, order.size)
        return {
            int(values[i]): order[bounds[i]:bounds[i + 1]].tolist()
            for i in range(values.size)
        }

    def render(self) -> str:
        """Tabular dump used by the examples to mirror the paper figures."""
        lines = [f"{'node':>8}  level"]
        for node in self.topo.iter_nodes():
            tag = " (faulty)" if self.faults.is_node_faulty(node) else ""
            lines.append(
                f"{self.topo.format_node(node):>8}  {int(self.levels[node])}{tag}"
            )
        return "\n".join(lines)
