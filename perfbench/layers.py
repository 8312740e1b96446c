"""Fold a traced window into the per-layer metrics.

Each function returns every per-layer metric of ``BENCHMARK.json``.  A
layer that did no work in the window reads 0 (a count) or None (a time
or ratio over zero calls, printed as ``undefined``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from perfbench.common import pct, ratio
from perfbench.spans import SpanStats, durations_us, fold

Metrics = Dict[str, Optional[float]]

ROUTE_SPANS = ("shard.route", "shard.route_block")


def _sum(stats: Dict[str, SpanStats], names: Sequence[str]) -> SpanStats:
    out = SpanStats()
    for name in names:
        part = stats.get(name)
        if part is not None:
            out.calls += part.calls
            out.total_ns += part.total_ns
            out.self_ns += part.self_ns
    return out


def _get(stats: Dict[str, SpanStats], name: str) -> SpanStats:
    return stats.get(name, SpanStats())


def overhead_pct(untraced: Dict[str, float], traced: Dict[str, float],
                 metric: str) -> Optional[float]:
    """How much worse ``metric`` read with tracing on, in percent.

    Throughputs are "higher is better", so their loss is counted as the
    positive direction, like a latency's gain.
    """
    base, with_trace = untraced.get(metric), traced.get(metric)
    if not base or with_trace is None:
        return None
    change = (with_trace - base) / base * 100.0
    return -change if metric.endswith("_per_s") else change


#: Tail percentiles of the untraced window.  They are reported with the
#: per-layer metrics, without a bound: on a small shared host, scheduler
#: stalls of several milliseconds hit about one wake-up in a hundred, so
#: the p99 of a millisecond-scale operation follows the host's stall rate
#: from run to run more than it follows the program.
TAILS = ("latency_p99_ms", "fault_p99_ms")


def idle_layers() -> Metrics:
    """The per-layer metrics of a window in which no layer did work."""
    zero_counts = ("server.frames", "shard.shed", "batcher.flushes",
                   "workers.attaches", "kernel.calls", "epoch.spare_misses",
                   "shm.segment_bytes", "incremental.fallbacks")
    undefined = (
        "client.gen_lag_p99_ms", "wire.encode_us.client",
        "wire.decode_us.client", "wire.encode_us.server",
        "wire.decode_us.server", "wire.bytes_per_route", "server.residual_us",
        "server.self_us", "shard.self_us", "batcher.rows_per_flush",
        "batcher.queue_p50_us", "batcher.queue_p99_us", "service.demux_us",
        "workers.route_task_us", "kernel.rows_per_call",
        "kernel.us_per_call", "kernel.us_per_route", "epoch.publish_p50_us",
        "epoch.publish_p99_us", "epoch.self_us", "shm.seal_us",
        "incremental.apply_delta_us", "incremental.dirty_nodes",
        "levels.us_per_trial.q8", "levels.us_per_trial.q12",
        "levels.rounds_mean", "trace.overhead_pct")
    out: Metrics = {name: 0 for name in zero_counts}
    out.update({name: None for name in undefined})
    return out


def serving_layers(dump: dict, codec, client_rt_us: Optional[float],
                   gen_lag_ms: List[float], untraced: Dict[str, float],
                   traced: Dict[str, float], overhead_metric: str
                   ) -> Metrics:
    """Per-layer metrics of one traced serving window.

    ``dump`` is the server's span/obs/stats dump, ``codec`` the client's
    wire tallies, ``client_rt_us`` the mean client round trip of the
    frames the shard spans served.
    """
    spans = [tuple(s) for s in dump["spans"]]
    stats = fold(spans)
    obs = dump["obs"]
    counters = obs["counters"]
    hists = obs["histograms"]
    server = dump["stats"]

    frames = _get(stats, "server.frame")
    shard = _sum(stats, ROUTE_SPANS)
    encode = _get(stats, "wire.encode")
    decode = _get(stats, "wire.decode")
    task = _get(stats, "workers.route_task")
    kernel = _get(stats, "kernel.route_with_table")
    publish = _get(stats, "epoch.apply_fault_event")
    publish_us = durations_us(spans, "epoch.apply_fault_event")
    exec_us = hists.get("service.exec_us", {})
    queue = hists.get("service.queue_us", {})
    batch = hists.get("service.batch_size", {})
    dirty = hists.get("safety.incremental_dirty", {})
    codec_us = ratio((encode.total_ns + decode.total_ns) / 1e3, frames.calls)
    kernel_rows = counters.get("routing.batch_routes", 0)

    out = idle_layers()
    out.update({
        "client.gen_lag_p99_ms": pct(gen_lag_ms, 99),
        "wire.encode_us.client": ratio(codec.encode_ns / 1e3, codec.encodes),
        "wire.decode_us.client": ratio(codec.decode_ns / 1e3, codec.decodes),
        "wire.encode_us.server": ratio(encode.total_ns / 1e3, frames.calls),
        "wire.decode_us.server": ratio(decode.total_ns / 1e3, frames.calls),
        "wire.bytes_per_route": ratio(codec.bytes, codec.routes),
        "server.frames": frames.calls,
        "server.residual_us": (
            client_rt_us - shard.mean_us - codec_us
            if None not in (client_rt_us, shard.mean_us, codec_us)
            else None),
        "server.self_us": frames.self_mean_us,
        "shard.self_us": shard.self_mean_us,
        "shard.shed": server["shed"],
        "batcher.flushes": counters.get("service.batches", 0),
        "batcher.rows_per_flush": batch.get("mean") if batch.get("count")
        else None,
        "batcher.queue_p50_us": queue.get("p50"),
        "batcher.queue_p99_us": queue.get("p99"),
        "service.demux_us": (
            exec_us["mean"] - task.mean_us
            if exec_us.get("count") and task.calls else None),
        "workers.route_task_us": task.self_mean_us,
        "workers.attaches": _get(stats, "shm.attach").calls,
        "kernel.calls": kernel.calls,
        "kernel.rows_per_call": ratio(kernel_rows, kernel.calls),
        "kernel.us_per_call": kernel.mean_us,
        "kernel.us_per_route": ratio(kernel.total_ns / 1e3, kernel_rows),
        "epoch.publish_p50_us": pct(publish_us, 50),
        "epoch.publish_p99_us": pct(publish_us, 99),
        "epoch.self_us": publish.self_mean_us,
        "epoch.spare_misses": server["spare_misses"],
        "shm.seal_us": _get(stats, "shm.seal").mean_us,
        "shm.segment_bytes": server["segment_bytes"],
        "incremental.apply_delta_us":
            _get(stats, "incremental.apply_delta").mean_us,
        "incremental.dirty_nodes": dirty.get("mean") if dirty.get("count")
        else None,
        "incremental.fallbacks":
            counters.get("safety.incremental_fallbacks", 0),
        "trace.overhead_pct": overhead_pct(untraced, traced,
                                           overhead_metric),
    })
    out.update({name: untraced[name] for name in TAILS})
    return out


def sweep_layers(spans: Sequence[tuple], trials: Dict[int, int],
                 routes: int, rounds_mean: Optional[float],
                 untraced: Dict[str, float], traced: Dict[str, float]
                 ) -> Metrics:
    """Per-layer metrics of one traced sweep window.

    ``trials`` maps cube dimension to trials run in the window, ``routes``
    counts routes the kernel computed there.
    """
    stats = fold(spans)
    kernel = _get(stats, "kernel.route_unicast_batch")
    out = idle_layers()
    out.update({
        "kernel.calls": kernel.calls,
        "kernel.rows_per_call": ratio(routes, kernel.calls),
        "kernel.us_per_call": kernel.mean_us,
        "kernel.us_per_route": ratio(kernel.total_ns / 1e3, routes),
        "levels.us_per_trial.q8": ratio(
            _get(stats, "levels.q8").total_ns / 1e3, trials.get(8, 0)),
        "levels.us_per_trial.q12": ratio(
            _get(stats, "levels.q12").total_ns / 1e3, trials.get(12, 0)),
        "levels.rounds_mean": rounds_mean,
        "trace.overhead_pct": overhead_pct(untraced, traced,
                                           "trials_per_s"),
    })
    out.update({name: untraced[name] for name in TAILS})
    return out
