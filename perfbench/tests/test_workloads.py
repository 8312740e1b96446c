"""Tiny runs of every workload, the correctness check, the missing-source
exit.  Sizes are shrunk through the workload modules' constants."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run, serving, sweep
from perfbench.common import ROOT
from perfbench.verify import expected_columns, mismatches


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(serving, "WARMUP_S", 0.2)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "FAULT_SUBWINDOW_S", 0.5)
    monkeypatch.setitem(serving.BLOCK_Q8, "fault_events", 40)
    monkeypatch.setitem(serving.BLOCK_Q8, "frames", 4)
    monkeypatch.setitem(serving.CHURN_Q10, "rate", 300)
    monkeypatch.setitem(serving.CHURN_Q10, "sample", 200)
    monkeypatch.setattr(sweep, "SETUP_REPEATS", 1)
    monkeypatch.setitem(sweep.SWEEP, "q8_faults", (1, 7, 30))
    monkeypatch.setitem(sweep.SWEEP, "q12_faults", (3,))
    monkeypatch.setitem(sweep.SWEEP, "q12_trials", 4)


def _result(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["block-q8", "route-churn-q10", "sweep"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, tiny, workload,
                                                    trace):
    lines, result = _result(capsys, workload, trace)
    spec = run.load_spec()
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [row["name"] for row in rows]
    for row in rows:
        metric = result["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert isinstance(metric["value"], float)
        assert any(line.split()[:1] == [row["name"]]
                   and line.split()[-1] == row["unit"] for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_predicted_no_work_cells_read_zero(capsys, tiny):
    _lines, block = _result(capsys, "block-q8", 1)
    _lines, churn = _result(capsys, "route-churn-q10", 1)
    _lines, swept = _result(capsys, "sweep", 1)

    def value(result, name):
        return result["metrics"][name]["value"]

    for name in ("epoch.publish_p50_us", "shm.seal_us",
                 "incremental.apply_delta_us", "levels.us_per_trial.q8"):
        assert value(block, name) == 0
    assert value(churn, "levels.us_per_trial.q12") == 0
    assert value(churn, "epoch.publish_p50_us") > 0
    for name in ("server.frames", "batcher.flushes", "wire.encode_us.server",
                 "epoch.publish_p50_us", "incremental.apply_delta_us"):
        assert value(swept, name) == 0
    assert value(swept, "levels.us_per_trial.q12") > 0
    assert value(block, "kernel.rows_per_call") > 200


def test_corrupted_block_reply_fails_the_run(capsys, tiny, monkeypatch):
    original = serving.BlockLoad.on_reply
    corrupted = []

    def corrupt(self, op, req_id, payload, t):
        if not corrupted and op == serving.wire.OP_BLOCK_R:
            payload = bytearray(payload)
            payload[-1] ^= 0x01           # last row's Hamming distance
            payload = bytes(payload)
            corrupted.append(req_id)
        return original(self, op, req_id, payload, t)

    monkeypatch.setattr(serving.BlockLoad, "on_reply", corrupt)
    lines, result = _result(capsys, "block-q8", 0)
    assert corrupted
    assert result["correct"] is False and result["failed"] >= 1
    assert any("differ from the offline derivation" in line
               for line in lines)


def test_corrupted_route_reply_is_caught():
    class Replies:
        pass

    rng = np.random.default_rng(0)
    n = 6
    faults = {1: frozenset(rng.choice(64, 5, replace=False).tolist())}
    alive = np.setdiff1d(np.arange(64), sorted(faults[1]))
    srcs, dsts = serving.draw_pairs(rng, alive, 50)
    want = expected_columns(n, faults, np.ones(50), srcs, dsts)
    routes = Replies()
    routes.count = 50
    routes.srcs, routes.dsts = srcs, dsts
    routes.ok = np.ones(50, dtype=bool)
    routes.acked = np.ones(50, dtype=np.int64)
    routes.reply = np.stack([np.ones(50, dtype=np.int64)]
                            + [c.astype(np.int64) for c in want], axis=1)
    problems = []
    assert serving.churn_check(routes, faults, n, 50, 0, problems) == (0, 50)
    assert problems == []
    routes.reply[17, 3] += 2          # one reply claims a 2-hop detour
    assert serving.churn_check(routes, faults, n, 50, 0, problems) == (1, 50)
    assert problems and "differ from the offline derivation" in problems[0]
    got = tuple(routes.reply[:, k] for k in range(1, 5))
    assert np.flatnonzero(mismatches(got, want)).tolist() == [17]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
