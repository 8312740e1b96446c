"""Server process for the serving workloads.

Started by :mod:`perfbench.serving` as
``python -m perfbench.launcher '<config json>'``.  It builds a
``ShardRouter``, registers the configured tenants with ``add_tenant``,
and serves them over loopback with ``serve_forever`` until told to stop.

The config JSON holds ``shards``, ``port``, ``token`` (segment name
prefix), ``cpu`` (core to pin to, or null), ``trace`` (install the span
wrappers) and ``tenants``: a list of ``{"name", "n", "faults"}``.

Control is line-based over stdin/stdout, so the launcher needs no
socket of its own:

``READY <json>``      printed once serving; carries per-tenant boot times
``TRACE 1|0``         start/stop recording spans and ``repro.obs``
                      counts (both reset on start); answered ``OK``
``DUMP <path>``       write spans, the obs snapshot and server stats to
                      ``path`` as JSON; answered ``OK``
``STATS``             answered ``STATS <json>`` (peak RSS, shed count,
                      spare misses, live segment bytes)
``STOP`` or EOF       close the router (which unlinks every segment)
                      and exit 0
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import threading
import time

from repro.core.faults import FaultSet
from repro.obs import instruments
from repro.safety.incremental import IncrementalLevelEngine
from repro.service import epoch as svc_epoch
from repro.service import server as svc_server
from repro.service import service as svc_service
from repro.service import wire
from repro.service import workers as svc_workers
from repro.service.epoch import EpochManager
from repro.service.service import RoutingService
from repro.service.shard import ShardRouter

from perfbench.spans import Tracer, patch

SHM_DIR = "/dev/shm"


def trace_targets():
    """``(owner, attr, span name)`` for every wrapped entry point.

    Each name is patched where its caller looks it up: the server calls
    ``wire.<codec>`` through the module, the service calls its imported
    ``route_task``, the worker its imported ``route_with_table`` and
    ``attach_epoch_table``, the epoch manager its imported
    ``seal_epoch_table``; methods are patched on their classes.
    """
    targets = [
        (ShardRouter, "route", "shard.route"),
        (ShardRouter, "route_block", "shard.route_block"),
        (ShardRouter, "inject_faults", "shard.inject_faults"),
        (RoutingService, "route", "service.route"),
        (RoutingService, "route_block", "service.route_block"),
        (svc_service, "route_task", "workers.route_task"),
        (svc_workers, "route_with_table", "kernel.route_with_table"),
        (svc_workers, "attach_epoch_table", "shm.attach"),
        (EpochManager, "apply_fault_event", "epoch.apply_fault_event"),
        (svc_epoch, "seal_epoch_table", "shm.seal"),
        (IncrementalLevelEngine, "apply_delta", "incremental.apply_delta"),
    ]
    for codec in ("decode_route", "decode_block", "decode_fault"):
        targets.append((wire, codec, "wire.decode"))
    for codec in ("encode_route_reply", "encode_block_reply",
                  "encode_fault_reply", "encode_error", "encode_frame"):
        targets.append((wire, codec, "wire.encode"))
    return targets


def install_tracing(tracer: Tracer) -> None:
    patch(tracer, trace_targets())
    # The per-frame server span carries the wire req_id (4th argument),
    # which every span opened beneath it inherits.
    svc_server._run_frame = tracer.wrap(
        "server.frame", svc_server._run_frame,
        req_id_of=lambda *args, **kwargs: args[3])


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def segment_bytes(token: str) -> int:
    total = 0
    for name in os.listdir(SHM_DIR):
        if name.startswith(f"repro_svc_{token}"):
            total += os.stat(os.path.join(SHM_DIR, name)).st_size
    return total


def server_stats(router: ShardRouter, token: str) -> dict:
    managers = [svc.epochs for shard in router.shards.values()
                for svc in shard.tenants.values()]
    return {
        "peak_rss_mb": peak_rss_mb(),
        "shed": router.shed,
        "spare_misses": sum(m.spare_misses for m in managers),
        "segment_bytes": segment_bytes(token),
    }


class Control:
    """Executes stdin commands on the event loop thread."""

    def __init__(self, router: ShardRouter, tracer: Tracer, token: str,
                 stop: asyncio.Event) -> None:
        self.router = router
        self.tracer = tracer
        self.token = token
        self.stop = stop

    def handle(self, line: str) -> None:
        cmd, _, arg = line.strip().partition(" ")
        if cmd == "TRACE":
            if arg == "1":
                self.tracer.reset()
                instruments.metrics().reset()
                instruments.enable_metrics()
                self.tracer.active = True
            else:
                self.tracer.active = False
                instruments.disable_metrics()
            reply = "OK"
        elif cmd == "DUMP":
            snapshot = instruments.metrics().snapshot()
            with open(arg, "w") as fh:
                json.dump({"spans": self.tracer.spans, "obs": snapshot,
                           "stats": server_stats(self.router, self.token)},
                          fh)
            reply = "OK"
        elif cmd == "STATS":
            reply = "STATS " + json.dumps(server_stats(self.router,
                                                       self.token))
        elif cmd in ("STOP", ""):
            self.stop.set()
            return
        else:
            reply = f"ERR unknown command {cmd!r}"
        print(reply, flush=True)


def _read_stdin(loop: asyncio.AbstractEventLoop, control: Control) -> None:
    for line in sys.stdin:
        loop.call_soon_threadsafe(control.handle, line)
        if line.strip() == "STOP":
            return
    loop.call_soon_threadsafe(control.handle, "")  # EOF: stop


async def main(config: dict) -> None:
    tracer = Tracer()
    if config["trace"]:
        install_tracing(tracer)
    token = config["token"]
    boot_ms = {}
    async with ShardRouter(shards=config["shards"], workers=0) as router:
        for i, tenant in enumerate(config["tenants"]):
            start = time.perf_counter()
            await router.add_tenant(
                tenant["name"], dimension=tenant["n"],
                faults=FaultSet(nodes=tenant["faults"]),
                name_token=f"{token}t{i}")
            boot_ms[tenant["name"]] = (time.perf_counter() - start) * 1e3
        ready = asyncio.Event()
        stop = asyncio.Event()
        serving = asyncio.ensure_future(svc_server.serve_forever(
            router, host="127.0.0.1", port=config["port"], ready=ready))
        await ready.wait()
        # Boot-time objects never die; keep them out of every collection.
        gc.freeze()
        loop = asyncio.get_running_loop()
        control = Control(router, tracer, token, stop)
        threading.Thread(target=_read_stdin, args=(loop, control),
                         daemon=True).start()
        print("READY " + json.dumps({
            "boot_ms": boot_ms, "pid": os.getpid(),
            "shards": router.tenants()}), flush=True)
        await stop.wait()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass


if __name__ == "__main__":
    cfg = json.loads(sys.argv[1])
    if cfg.get("cpu") is not None:
        os.sched_setaffinity(0, {cfg["cpu"]})
    asyncio.run(main(cfg))
