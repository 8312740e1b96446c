"""The level-kernel dispatch seam and the packed-bitset tier.

Three claims under test:

* every kernel (swar, sorted, packed — numba or pure-numpy) computes the
  same Definition-1 fixed point and the same per-trial stabilization
  rounds, bit for bit — for swar over its whole Q1–Q13 envelope, against
  the per-trial kernel too;
* ``REPRO_LEVEL_KERNEL`` / ``kernel=`` resolve through the shared
  dispatch helper with routing-kernel precedence semantics and
  informative errors;
* telemetry records the kernel actually dispatched.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FaultSet, Hypercube
from repro.core import native
from repro.obs import instruments as obs
from repro.safety import levels as levels_mod
from repro.safety.gs import compute_levels_with_rounds
from repro.safety.levels import (
    LEVEL_KERNEL_ENV_VAR,
    LEVEL_KERNELS,
    SWAR_MAX_DIMENSION,
    compute_safety_levels_batch,
    resolve_level_kernel,
)
from repro.safety.packed import batch_block_packed


def _random_masks(n, batch, seed, p=0.2):
    rng = np.random.default_rng(seed)
    return rng.random((batch, 1 << n)) < p


class TestPackedEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9])
    def test_matches_swar_small_cubes(self, n):
        topo = Hypercube(n)
        masks = _random_masks(n, 70, seed=n)
        ref, ref_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="swar")
        got, got_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="packed")
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)

    @pytest.mark.parametrize("n", [10, 12])
    def test_matches_sorted_large_cubes(self, n):
        topo = Hypercube(n)
        masks = _random_masks(n, 17, seed=n, p=0.15)
        ref, ref_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="sorted")
        got, got_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="packed")
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)

    @pytest.mark.parametrize("n", [3, 6])
    def test_njit_body_matches_numpy_words(self, n):
        """The loop-fused njit kernel and the word-parallel numpy kernel
        implement the same bit algebra (the njit body runs as plain
        Python when numba is absent, so this holds on every install)."""
        masks = _random_masks(n, 130, seed=31 + n, p=0.3)
        lv_np, rd_np = batch_block_packed(n, masks, use_numba=False)
        lv_jit, rd_jit = batch_block_packed(n, masks, use_numba=True)
        assert np.array_equal(lv_np, lv_jit)
        assert np.array_equal(rd_np, rd_jit)

    def test_numpy_fallback_forced_without_numba(self, monkeypatch):
        """With numba gated off, dispatch lands on the pure-numpy SWAR
        fallback and stays bit-identical to the sorted reference."""
        monkeypatch.setattr(native, "HAVE_NUMBA", False)
        assert not native.numba_available()
        topo = Hypercube(10)
        masks = _random_masks(10, 9, seed=99)
        ref = compute_safety_levels_batch(topo, masks, kernel="sorted")
        got = compute_safety_levels_batch(topo, masks, kernel="packed")
        assert np.array_equal(got, ref)

    def test_disable_env_var_gates_numba(self, monkeypatch):
        monkeypatch.setenv(native.NUMBA_DISABLED_ENV_VAR, "1")
        assert not native.numba_available()

    def test_lane_boundaries(self):
        """Batches straddling the 64-trial word boundary round-trip."""
        n = 4
        topo = Hypercube(n)
        for batch in (1, 63, 64, 65, 128, 129):
            masks = _random_masks(n, batch, seed=batch)
            ref, ref_rounds = compute_safety_levels_batch(
                topo, masks, return_rounds=True, kernel="sorted")
            got, got_rounds = batch_block_packed(n, masks)
            assert np.array_equal(got, ref), batch
            assert np.array_equal(got_rounds, ref_rounds), batch

    def test_all_faulty_and_fault_free(self):
        n = 5
        topo = Hypercube(n)
        masks = np.zeros((2, 1 << n), dtype=bool)
        masks[1] = True
        levels, rounds = batch_block_packed(n, masks)
        assert (levels[0] == n).all()
        assert (levels[1] == 0).all()
        assert rounds[0] == 0 and rounds[1] == 0


class TestSwarProperty:
    """The SWAR kernel over its whole envelope, Q1 to Q13."""

    @pytest.mark.parametrize("n", range(1, SWAR_MAX_DIMENSION + 1))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 3), extra=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sorted_and_per_trial(self, n, data, rows, extra, seed):
        """Levels and rounds equal the sorted kernel's and the per-trial
        kernel's for fault counts anywhere in 0..2**n, with the batch
        spilling past a row block; packed keeps a witness at Q10-Q12."""
        num_nodes = 1 << n
        # Sparse counts give the deep stabilizations; dense ones the
        # all-faulty and isolated-node corners.
        most = data.draw(st.one_of(st.integers(0, 4 * n),
                                   st.integers(0, num_nodes)).map(
                                       lambda f: min(f, num_nodes)),
                         label="faults")
        topo = Hypercube(n)
        batch = rows + extra
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, most + 1, size=batch)
        counts[0] = most
        masks = np.zeros((batch, num_nodes), dtype=bool)
        for row, count in zip(masks, counts):
            row[rng.choice(num_nodes, size=count, replace=False)] = True
        # Shrink the byte budget to ``rows`` trials per block, so the
        # batch crosses at least one block boundary at every n.
        tables = levels_mod.LevelsWorkspace().swar_tables(n)
        with mock.patch.object(levels_mod, "_SWAR_BLOCK_BYTES",
                               rows * tables.dtype.itemsize * num_nodes):
            assert levels_mod._swar_block_rows(num_nodes, tables) == rows
            got, got_rounds = compute_safety_levels_batch(
                topo, masks, return_rounds=True, kernel="swar")
        ref, ref_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="sorted")
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)
        for b, row in enumerate(masks):
            faults = FaultSet(nodes=np.flatnonzero(row).tolist())
            lv, rd = compute_levels_with_rounds(topo, faults)
            assert np.array_equal(got[b], lv), b
            assert got_rounds[b] == rd, b
        if 10 <= n <= 12:
            packed, packed_rounds = compute_safety_levels_batch(
                topo, masks, return_rounds=True, kernel="packed")
            assert np.array_equal(packed, got)
            assert np.array_equal(packed_rounds, got_rounds)

    def test_default_block_boundary_q12(self):
        """One batch just past the real byte-sized block at Q12."""
        n = 12
        topo = Hypercube(n)
        tables = levels_mod.LevelsWorkspace().swar_tables(n)
        batch = levels_mod._swar_block_rows(1 << n, tables) + 1
        masks = _random_masks(n, batch, seed=12, p=0.01)
        got, got_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="swar")
        ref, ref_rounds = compute_safety_levels_batch(
            topo, masks, return_rounds=True, kernel="packed")
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rounds, ref_rounds)


class TestDispatch:
    def test_resolver_precedence(self, monkeypatch):
        monkeypatch.delenv(LEVEL_KERNEL_ENV_VAR, raising=False)
        assert resolve_level_kernel(5, 32) == "swar"
        for n in (10, 13):
            assert resolve_level_kernel(n, 1 << n) == "swar"
        assert resolve_level_kernel(14, 1 << 14) == "packed"
        assert resolve_level_kernel(5, 32, "sorted") == "sorted"
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "sorted")
        assert resolve_level_kernel(5, 32) == "sorted"
        # explicit argument beats the environment
        assert resolve_level_kernel(5, 32, "packed") == "packed"

    def test_unknown_kernel_names_are_informative(self, monkeypatch):
        monkeypatch.delenv(LEVEL_KERNEL_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="unknown level kernel"):
            resolve_level_kernel(5, 32, "simd")
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "avx512")
        with pytest.raises(ValueError) as exc:
            resolve_level_kernel(5, 32)
        assert LEVEL_KERNEL_ENV_VAR in str(exc.value)
        for name in LEVEL_KERNELS:
            assert name in str(exc.value)

    def test_swar_rejected_outside_envelope(self, monkeypatch):
        monkeypatch.delenv(LEVEL_KERNEL_ENV_VAR, raising=False)
        assert resolve_level_kernel(13, 1 << 13, "swar") == "swar"
        with pytest.raises(ValueError, match="swar"):
            resolve_level_kernel(14, 1 << 14, "swar")
        with pytest.raises(ValueError, match="swar"):
            resolve_level_kernel(5, 30, "swar")  # not a full cube

    def test_packed_requires_full_cube(self, monkeypatch):
        monkeypatch.delenv(LEVEL_KERNEL_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="packed"):
            resolve_level_kernel(5, 30, "packed")
        assert resolve_level_kernel(5, 30) == "sorted"  # auto degrades

    def test_env_var_drives_batch_calls(self, monkeypatch):
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "packed")
        topo = Hypercube(4)
        masks = _random_masks(4, 6, seed=1)
        ref = compute_safety_levels_batch(topo, masks, kernel="swar")
        got = compute_safety_levels_batch(topo, masks)
        assert np.array_equal(got, ref)

    def test_explicit_beats_env_and_reports_loser(self, monkeypatch, caplog):
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "sorted")
        with caplog.at_level("DEBUG", logger="repro.dispatch"):
            assert resolve_level_kernel(5, 32, "swar") == "swar"
        # the losing source is reported on the debug path
        messages = [rec.getMessage() for rec in caplog.records]
        assert any(LEVEL_KERNEL_ENV_VAR in m for m in messages), messages
        msg = next(m for m in messages if LEVEL_KERNEL_ENV_VAR in m)
        assert "'swar'" in msg and "'sorted'" in msg

    def test_explicit_agreeing_with_env_is_silent(self, monkeypatch, caplog):
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "sorted")
        with caplog.at_level("DEBUG", logger="repro.dispatch"):
            assert resolve_level_kernel(5, 32, "sorted") == "sorted"
        assert not caplog.records

    def test_explicit_wins_over_unknown_env_name(self, monkeypatch):
        # a garbage environment value must not break explicit callers —
        # the env var is never consulted once kernel= is given
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "avx512")
        assert resolve_level_kernel(5, 32, "swar") == "swar"
        assert resolve_level_kernel(10, 1024, "packed") == "packed"

    def test_unknown_explicit_never_falls_back_to_env(self, monkeypatch):
        # explicit wins even when it is the invalid one: the error blames
        # the kernel argument and names the shadowed environment value
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "sorted")
        with pytest.raises(ValueError) as exc:
            resolve_level_kernel(5, 32, "simd")
        msg = str(exc.value)
        assert "kernel argument" in msg
        assert "'simd'" in msg
        assert f"ignoring ${LEVEL_KERNEL_ENV_VAR}='sorted'" in msg

    def test_both_sources_unknown_blames_explicit(self, monkeypatch):
        monkeypatch.setenv(LEVEL_KERNEL_ENV_VAR, "avx512")
        with pytest.raises(ValueError) as exc:
            resolve_level_kernel(5, 32, "simd")
        msg = str(exc.value)
        assert "'simd'" in msg and "kernel argument" in msg
        assert f"ignoring ${LEVEL_KERNEL_ENV_VAR}='avx512'" in msg
        for name in LEVEL_KERNELS:
            assert name in msg

    def test_telemetry_records_dispatched_kernel(self, monkeypatch):
        monkeypatch.delenv(LEVEL_KERNEL_ENV_VAR, raising=False)
        topo = Hypercube(4)
        masks = _random_masks(4, 5, seed=2)
        with obs.observed() as (registry, _rec):
            compute_safety_levels_batch(topo, masks, kernel="packed")
            compute_safety_levels_batch(topo, masks)  # auto -> swar
            counters = registry.counter_values()
        obs.metrics().reset()
        assert counters["gs.kernel.packed"] == 1
        assert counters["gs.kernel.swar"] == 1
