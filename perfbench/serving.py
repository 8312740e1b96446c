"""The serving workloads, ``block-q8`` and ``route-churn-q10``.

A server process (:mod:`perfbench.launcher`) serves the tenants; this
module is the single-process asyncio client that loads it over loopback
with binary wire frames, one connection per stream.

``block-q8``
    Two Q8 tenants with 20 faults each on a 2-shard router.  Closed loop:
    each tenant's connection keeps ``depth`` pre-encoded 256-pair
    ``BLOCK`` frames in flight and sends the next one as a reply lands.
    Every reply is compared byte for byte with the offline answer.  After
    the timed windows, a fault phase sends back-to-back ``FAULT`` frames
    to the idle first tenant; it gives ``fault_*`` and no route is in
    flight while it runs.
``route-churn-q10``
    One Q10 tenant with 40 faults.  Open loop: single-pair ``ROUTE``
    frames at a fixed rate, each timed from its scheduled send time.  A
    second connection sends a ``FAULT`` frame every ``fault_period_s``,
    alternating add and remove, so the fault count stays at 40 or 41 and
    the tenant's epoch advances under the reads.  A seeded sample of
    replies is re-derived offline at the epoch each reply is tagged with.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import sys
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.service import wire
from repro.service.wire import HEADER, MAGIC

from perfbench import layers
from perfbench.common import OUT_DIR, ROOT, SETUP_REPEATS, WARMUP_S, \
    Outcome, draw_faults, draw_pairs, mean, median, pct, provenance, ratio, \
    subwindows, windows
from perfbench.verify import expected_columns, mismatches

SHM_DIR = "/dev/shm"
SHARDS = 2

BLOCK_Q8 = {
    "n": 8,
    "faults": 20,
    # Names chosen so the hash ring puts one tenant on each shard.
    "tenants": ("q8a", "q8b"),
    "pairs": 256,
    "frames": 32,          # distinct pre-encoded frames per tenant
    "depth": 4,            # frames in flight per connection
    "fault_events": 1000,  # back-to-back FAULT frames after the windows
}

CHURN_Q10 = {
    "n": 10,
    "faults": 40,
    "tenant": "q10",
    "rate": 1000,            # ROUTE frames per second
    "fault_period_s": 0.005,  # one FAULT frame every 5 ms
    "sample": 2000,          # replies re-derived offline
}

#: route-churn-q10 computes FAULT percentiles over sub-windows this long.
FAULT_SUBWINDOW_S = 4.0

#: Seconds to wait for outstanding replies once sending stops.
DRAIN_S = 10.0


# -- inputs ------------------------------------------------------------------


def fault_events(rng: np.random.Generator, n: int, initial: Sequence[int],
                 count: int):
    """Alternate adding a random healthy node and removing a random fault.

    Returns ``(events, sets)``: ``events[k]`` is ``(add, remove)`` and
    ``sets[k]`` the fault set before event ``k`` (``sets[-1]`` after the
    last one).
    """
    current = set(int(v) for v in initial)
    events: List[Tuple[List[int], List[int]]] = []
    sets: List[FrozenSet[int]] = [frozenset(current)]
    for k in range(count):
        if k % 2 == 0:
            node = int(rng.integers(0, 1 << n))
            while node in current:
                node = int(rng.integers(0, 1 << n))
            current.add(node)
            events.append(([node], []))
        else:
            node = sorted(current)[int(rng.integers(0, len(current)))]
            current.discard(node)
            events.append(([], [node]))
        sets.append(frozenset(current))
    return events, sets


# -- the server process ------------------------------------------------------


def shm_segments() -> set:
    return {name for name in os.listdir(SHM_DIR)
            if name.startswith("repro_svc_")}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A running launcher process and its stdin/stdout control channel."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int,
                 ready: dict) -> None:
        self.proc = proc
        self.port = port
        self.ready = ready

    @classmethod
    async def start(cls, config: dict) -> "Server":
        port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "perfbench.launcher",
            json.dumps(dict(config, port=port)),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            cwd=str(ROOT), env=env)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 120)
        except asyncio.TimeoutError:
            line = b""
        if not line.startswith(b"READY "):
            if proc.returncode is None:
                proc.kill()
            await proc.wait()
            raise RuntimeError(f"server failed to start "
                               f"(exit {proc.returncode}): {line!r}")
        return cls(proc, port, json.loads(line[6:]))

    async def command(self, line: str) -> str:
        self.proc.stdin.write(line.encode() + b"\n")
        await self.proc.stdin.drain()
        reply = await asyncio.wait_for(self.proc.stdout.readline(), 120)
        return reply.decode().strip()

    async def stop(self) -> int:
        """Ask the server to exit; returns its exit code (-9: killed)."""
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write(b"STOP\n")
                await self.proc.stdin.drain()
                self.proc.stdin.close()
            except (BrokenPipeError, ConnectionResetError):
                pass
            try:
                await asyncio.wait_for(self.proc.wait(), 60)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
                return -9
        return self.proc.returncode


async def stop_and_check(server: Server, baseline: set,
                         problems: List[str]) -> None:
    """Stop ``server``; record a non-zero exit or a leaked segment."""
    code = await server.stop()
    if code != 0:
        problems.append(f"server exited with code {code}")
    leaked = sorted(shm_segments() - baseline)
    if leaked:
        problems.append(f"leaked shared-memory segments: {leaked}")


async def boot(config: dict, problems: List[str], baseline: set
               ) -> Tuple[Server, float]:
    """Start the server ``SETUP_REPEATS`` times; keep the last one.

    Returns it with the median time from process start to serving.
    """
    times = []
    server = None
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = await Server.start(config)
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            await stop_and_check(server, baseline, problems)
    return server, float(np.median(times))


# -- connections -------------------------------------------------------------


class Conn:
    """One loopback connection bound to a tenant; replies go to a callback."""

    def __init__(self, reader, writer, on_reply) -> None:
        self.reader = reader
        self.writer = writer
        self.on_reply = on_reply
        self.task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, tenant: str, on_reply) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(wire.encode_frame(wire.OP_TENANT, 0, tenant.encode()))
        await writer.drain()
        op, _req, payload = await wire.read_frame(reader)
        if op != wire.OP_TENANT_R:
            raise RuntimeError(f"tenant bind failed: "
                               f"{wire.decode_error(payload)}")
        return cls(reader, writer, on_reply)

    async def _read_loop(self) -> None:
        unpack = HEADER.unpack
        readexactly = self.reader.readexactly
        clock = time.perf_counter_ns
        try:
            while True:
                _magic, op, length, req_id = unpack(
                    await readexactly(HEADER.size))
                payload = await readexactly(length) if length else b""
                self.on_reply(op, req_id, payload, clock())
        except (asyncio.IncompleteReadError, ConnectionError):
            return

    def send(self, op: int, req_id: int, payload: bytes) -> int:
        """Frame and write one request; returns the framing time (ns)."""
        start = time.perf_counter_ns()
        frame = HEADER.pack(MAGIC, op, len(payload), req_id) + payload
        took = time.perf_counter_ns() - start
        self.writer.write(frame)
        return took

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


@dataclass
class ClientCodec:
    """Client-side wire cost and volume."""

    encode_ns: int = 0
    encodes: int = 0
    decode_ns: int = 0
    decodes: int = 0
    bytes: int = 0
    routes: int = 0


class FaultLoad:
    """Sequential FAULT frames: each waits for the previous reply.

    Waiting keeps the server's epoch order equal to the send order, so
    the client knows the fault set of every epoch it will see.
    """

    def __init__(self, events, base_epoch: int, period_s: float,
                 codec: ClientCodec) -> None:
        self.events = events
        self.period_ns = int(period_s * 1e9)
        self.codec = codec
        self.acked_epoch = base_epoch
        self.base_epoch = base_epoch
        self.sent_ns: List[int] = []
        self.done_ns: List[int] = []
        self.epochs: List[int] = []
        self.errors = 0
        self.stopping = False
        self._waiter: Optional[asyncio.Future] = None

    def on_reply(self, op, req_id, payload, t) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result((op, payload, t))

    async def run(self, conn: Conn, start_ns: int) -> None:
        loop = asyncio.get_running_loop()
        for k, (add, remove) in enumerate(self.events):
            due = start_ns + k * self.period_ns
            now = time.perf_counter_ns()
            if due > now:
                await asyncio.sleep((due - now) / 1e9)
            if self.stopping:
                return
            enc = time.perf_counter_ns()
            payload = wire.encode_fault(add, remove)
            self.codec.encode_ns += time.perf_counter_ns() - enc
            self._waiter = loop.create_future()
            self.codec.encode_ns += conn.send(wire.OP_FAULT, k + 1, payload)
            self.codec.encodes += 1
            sent = time.perf_counter_ns()
            try:
                op, reply, done = await asyncio.wait_for(self._waiter,
                                                         DRAIN_S)
            except asyncio.TimeoutError:
                self.errors += 1
                return
            if op != wire.OP_FAULT_R:
                self.errors += 1
                return  # later epochs' fault sets would be unknown
            dec = time.perf_counter_ns()
            rep = wire.decode_fault_reply(reply)
            self.codec.decode_ns += time.perf_counter_ns() - dec
            self.codec.decodes += 1
            self.sent_ns.append(sent)
            self.done_ns.append(done)
            self.epochs.append(rep.epoch)
            self.acked_epoch = rep.epoch

    def check(self, sets) -> Tuple[Dict[int, FrozenSet[int]], List[str]]:
        """Epoch -> fault set for every epoch seen, and epoch problems."""
        problems = []
        want = list(range(self.base_epoch + 1,
                          self.base_epoch + 1 + len(self.epochs)))
        if self.epochs != want:
            problems.append("FAULT replies skipped or repeated an epoch")
        by_epoch = {self.base_epoch + k: sets[k]
                    for k in range(len(self.epochs) + 1)}
        return by_epoch, problems

    def rt_ms(self, lo: int = 0, hi: int = 1 << 62) -> List[float]:
        return [(d - s) / 1e6 for s, d in zip(self.sent_ns, self.done_ns)
                if lo <= s < hi]


class Phases:
    """Marks the timed windows while the load runs, toggling tracing."""

    def __init__(self, server: Server, seconds: float, trace: bool) -> None:
        self.server = server
        self.plan = windows(seconds, trace)
        self.bounds: Dict[str, Tuple[int, int]] = {}
        self.dump: Optional[dict] = None

    async def run(self) -> None:
        await asyncio.sleep(WARMUP_S)
        for name, length in self.plan:
            if name == "traced":
                await self.server.command("TRACE 1")
            start = time.perf_counter_ns()
            await asyncio.sleep(length)
            self.bounds[name] = (start, time.perf_counter_ns())
            if name == "traced":
                await self.server.command("TRACE 0")
                OUT_DIR.mkdir(exist_ok=True)
                path = OUT_DIR / f"spans_{os.getpid()}.json"
                await self.server.command(f"DUMP {path}")
                with open(path) as fh:
                    self.dump = json.load(fh)
                path.unlink()


def pin_client() -> Tuple[Optional[int], set]:
    """Pin this process to one core.

    Returns another core for the server (None when only one core is
    allowed) and the previous affinity, to restore when the run ends.
    """
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    if len(cpus) < 2:
        return None, before
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0], before


def serving_provenance(tenants: Sequence[Tuple[str, int]]) -> dict:
    return provenance({
        f"{name}/Q{n}": {"level": "incremental (IncrementalLevelEngine)",
                         "route": "vectorized (route_with_table)"}
        for name, n in tenants})


# -- block-q8 ----------------------------------------------------------------


class BlockLoad:
    """Closed loop of pre-encoded BLOCK frames on one connection."""

    def __init__(self, payloads: List[bytes], expected: List[bytes],
                 depth: int, codec: ClientCodec) -> None:
        self.payloads = payloads
        self.expected = expected
        self.depth = depth
        self.codec = codec
        self.conn: Optional[Conn] = None
        self.inflight: Dict[int, Tuple[int, int]] = {}
        self.next_id = 1
        self.running = True
        self.sent = 0
        self.done: List[Tuple[int, int]] = []
        self.errors = 0
        self.mismatched = 0

    def start(self) -> None:
        for _ in range(self.depth):
            self.send_next()

    def send_next(self) -> None:
        req_id = self.next_id
        self.next_id += 1
        idx = req_id % len(self.payloads)
        self.codec.encode_ns += self.conn.send(wire.OP_BLOCK, req_id,
                                               self.payloads[idx])
        self.codec.encodes += 1
        self.inflight[req_id] = (idx, time.perf_counter_ns())
        self.sent += 1

    def on_reply(self, op, req_id, payload, t) -> None:
        idx, sent = self.inflight.pop(req_id)
        self.done.append((sent, t))
        if op != wire.OP_BLOCK_R:
            self.errors += 1
        else:
            dec = time.perf_counter_ns()
            wire.decode_block_reply(payload)
            self.codec.decode_ns += time.perf_counter_ns() - dec
            self.codec.decodes += 1
            if payload != self.expected[idx]:
                self.mismatched += 1
        if self.running:
            self.send_next()

    async def drain(self) -> int:
        """Stop sending; wait for replies.  Returns frames never answered."""
        self.running = False
        deadline = time.perf_counter() + DRAIN_S
        while self.inflight and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        return len(self.inflight)


def block_inputs(seed: int):
    cfg = BLOCK_Q8
    n, pairs = cfg["n"], cfg["pairs"]
    rng = np.random.default_rng([seed, 8])
    tenants = []
    for name in cfg["tenants"]:
        faults = draw_faults(rng, n, cfg["faults"])
        alive = np.setdiff1d(np.arange(1 << n), faults)
        frames = [draw_pairs(rng, alive, pairs) for _ in range(cfg["frames"])]
        tenants.append({"name": name, "faults": faults, "frames": frames})
    first = tenants[0]
    events, sets = fault_events(rng, n, first["faults"], cfg["fault_events"])
    return tenants, events, sets


async def run_block(seed: int, seconds: float, trace: bool) -> Outcome:
    cfg = BLOCK_Q8
    n = cfg["n"]
    problems: List[str] = []
    tenants, events, sets = block_inputs(seed)
    codec = ClientCodec()
    loads = []
    for tenant in tenants:
        faults = frozenset(tenant["faults"].tolist())
        payloads, expected = [], []
        for srcs, dsts in tenant["frames"]:
            enc = time.perf_counter_ns()
            payloads.append(wire.encode_block(srcs, dsts))
            codec.encode_ns += time.perf_counter_ns() - enc
            cols = expected_columns(n, {1: faults}, np.ones(len(srcs)),
                                    srcs, dsts)
            expected.append(wire.encode_block_reply(1, *cols))
        loads.append(BlockLoad(payloads, expected, cfg["depth"], codec))
    # Pre-encoding paid once per frame; spread over every send below.
    preencode_ns = codec.encode_ns / (len(tenants) * cfg["frames"])
    codec.encode_ns = 0

    server_cpu, affinity = pin_client()
    baseline = shm_segments()
    config = {"shards": SHARDS, "token": f"pb{os.getpid()}",
              "cpu": server_cpu, "trace": trace,
              "tenants": [{"name": t["name"], "n": n,
                           "faults": t["faults"].tolist()} for t in tenants]}
    server, setup_s = await boot(config, problems, baseline)
    try:
        shards = server.ready["shards"]
        if len(set(shards.values())) != len(tenants):
            problems.append(f"tenants share a shard: {shards}")
        for load, tenant in zip(loads, tenants):
            load.conn = await Conn.open(server.port, tenant["name"],
                                        load.on_reply)
        phases = Phases(server, seconds, trace)
        gc.disable()
        for load in loads:
            load.start()
        await phases.run()
        # Fault phase: the first tenant's routes stop and its epoch churns
        # while the other tenant's closed loop keeps the server busy.
        first = loads[0]
        unanswered = await first.drain()
        faults = FaultLoad(events, base_epoch=1, period_s=0.0, codec=codec)
        first.conn.on_reply = faults.on_reply
        await faults.run(first.conn, time.perf_counter_ns())
        unanswered += sum([await load.drain() for load in loads[1:]])
        by_epoch, epoch_problems = faults.check(sets)
        problems += epoch_problems
        # Route once more at the last epoch: the churned tables must
        # still answer exactly.
        post_sent, post_bad = await block_after_faults(
            first.conn, tenants[0], by_epoch, n)
        stats = json.loads((await server.command("STATS"))[6:])
        for load in loads:
            await load.conn.close()
    finally:
        gc.enable()
        await stop_and_check(server, baseline, problems)
        os.sched_setaffinity(0, affinity)

    mismatched = sum(load.mismatched for load in loads) + post_bad
    errors = sum(load.errors for load in loads) + faults.errors
    attempted = sum(load.sent for load in loads) + len(events) + post_sent
    failed = errors + unanswered + mismatched + \
        (len(events) - len(faults.epochs) - faults.errors)
    if mismatched:
        problems.append(f"{mismatched} BLOCK replies differ from the "
                        f"offline derivation")

    untraced = block_window(loads, *phases.bounds["untraced"], cfg["pairs"])
    fault_rt = faults.rt_ms()
    e2e = dict(untraced, setup_s=setup_s, fault_p50_ms=pct(fault_rt, 50),
               fault_p99_ms=pct(fault_rt, 99),
               peak_rss_mb=stats["peak_rss_mb"])
    per_layer = {}
    if trace:
        lo, hi = phases.bounds["traced"]
        traced = block_window(loads, lo, hi, cfg["pairs"])
        codec.encode_ns += int(preencode_ns * codec.encodes)
        codec.bytes = (HEADER.size * 2 + len(loads[0].payloads[0])
                       + len(loads[0].expected[0]))
        codec.routes = cfg["pairs"]
        rts = [(d - s) / 1e3 for load in loads for s, d in load.done
               if lo <= d < hi]
        per_layer = layers.serving_layers(
            phases.dump, codec, client_rt_us=mean(rts), gen_lag_ms=[],
            untraced=e2e, traced=traced, overhead_metric="routes_per_s")
    return Outcome(
        end_to_end=e2e, per_layer=per_layer, attempted=attempted,
        failed=failed, problems=problems,
        provenance=serving_provenance([(t["name"], n) for t in tenants]),
        notes={"fault_samples": len(faults.epochs),
               "failed_share": ratio(failed, attempted),
               "shards": shards})


def block_window(loads: Sequence["BlockLoad"], lo: int, hi: int,
                 pairs: int) -> Dict[str, Optional[float]]:
    """Throughput and frame round trip over one window's sub-windows."""
    done = np.array([d for load in loads for _s, d in load.done])
    sent = np.array([s for load in loads for s, _d in load.done])
    rates, p50s, p99s = [], [], []
    for a, b in subwindows(lo, hi):
        sel = (done >= a) & (done < b)
        rts = (done[sel] - sent[sel]) / 1e6
        rates.append(int(sel.sum()) / ((b - a) / 1e9))
        p50s.append(pct(rts, 50))
        p99s.append(pct(rts, 99))
    return {"routes_per_s": median(rates) * pairs,
            "trials_per_s": median(rates),
            "latency_p50_ms": median(p50s),
            "latency_p99_ms": median(p99s)}


async def block_after_faults(conn: Conn, tenant: dict, by_epoch, n: int
                             ) -> Tuple[int, int]:
    """Route four of the tenant's frames at the last epoch.

    Returns ``(frames sent, frames answered wrongly)``.
    """
    loop = asyncio.get_running_loop()
    replies: Dict[int, asyncio.Future] = {}
    conn.on_reply = lambda op, req_id, payload, t: \
        replies[req_id].set_result((op, payload))
    frames = tenant["frames"][:4]
    bad = 0
    for k, (srcs, dsts) in enumerate(frames):
        req_id = 1_000_000 + k
        replies[req_id] = loop.create_future()
        conn.send(wire.OP_BLOCK, req_id, wire.encode_block(srcs, dsts))
        op, payload = await asyncio.wait_for(replies[req_id], DRAIN_S)
        if op != wire.OP_BLOCK_R:
            bad += 1
            continue
        rep = wire.decode_block_reply(payload)
        want = expected_columns(n, by_epoch, np.full(len(srcs), rep.epoch),
                                srcs, dsts)
        got = (rep.status, rep.condition, rep.hops, rep.hamming)
        bad += bool(mismatches(got, want).any() or rep.epoch != max(by_epoch))
    return len(frames), bad


# -- route-churn-q10 ---------------------------------------------------------


class RouteLoad:
    """Open loop of ROUTE frames at a fixed rate."""

    def __init__(self, srcs: np.ndarray, dsts: np.ndarray, rate: float,
                 faults: FaultLoad, codec: ClientCodec) -> None:
        count = len(srcs)
        self.srcs = srcs
        self.dsts = dsts
        self.interval_ns = 1e9 / rate
        self.faults = faults
        self.codec = codec
        enc = time.perf_counter_ns()
        self.payloads = [wire.encode_route(int(s), int(d))
                         for s, d in zip(srcs, dsts)]
        self.preencode_ns = (time.perf_counter_ns() - enc) / count
        self.sched = np.zeros(count, dtype=np.int64)
        self.sent = np.zeros(count, dtype=np.int64)
        self.done = np.zeros(count, dtype=np.int64)
        self.acked = np.zeros(count, dtype=np.int64)
        self.reply = np.zeros((count, 5), dtype=np.int64)
        self.ok = np.zeros(count, dtype=bool)
        self.count = 0
        self.errors = 0
        self.stopping = False

    def on_reply(self, op, req_id, payload, t) -> None:
        i = req_id - 1
        self.done[i] = t
        if op != wire.OP_ROUTE_R:
            self.errors += 1
            return
        dec = time.perf_counter_ns()
        rep = wire.decode_route_reply(payload)
        self.codec.decode_ns += time.perf_counter_ns() - dec
        self.codec.decodes += 1
        self.reply[i] = (rep.epoch, rep.status, rep.condition, rep.hops,
                         rep.hamming)
        self.ok[i] = True

    async def run(self, conn: Conn, start_ns: int) -> None:
        i = 0
        total = len(self.payloads)
        while i < total and not self.stopping:
            due = start_ns + int(i * self.interval_ns)
            now = time.perf_counter_ns()
            if due > now:
                await asyncio.sleep((due - now) / 1e9)
                now = time.perf_counter_ns()
            while i < total and start_ns + int(i * self.interval_ns) <= now:
                self.codec.encode_ns += conn.send(wire.OP_ROUTE, i + 1,
                                                  self.payloads[i])
                self.sched[i] = start_ns + int(i * self.interval_ns)
                self.sent[i] = now
                self.acked[i] = self.faults.acked_epoch
                i += 1
        self.count = i
        self.codec.encodes += i

    async def drain(self) -> int:
        deadline = time.perf_counter() + DRAIN_S
        while (time.perf_counter() < deadline
               and (self.done[:self.count] == 0).any()):
            await asyncio.sleep(0.005)
        return int((self.done[:self.count] == 0).sum())


async def run_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    cfg = CHURN_Q10
    n = cfg["n"]
    problems: List[str] = []
    rng = np.random.default_rng([seed, 10])
    initial = draw_faults(rng, n, cfg["faults"])
    alive = np.setdiff1d(np.arange(1 << n), initial)
    span_s = WARMUP_S + seconds + 5.0
    srcs, dsts = draw_pairs(rng, alive, int(cfg["rate"] * span_s))
    events, sets = fault_events(rng, n, initial,
                                int(span_s / cfg["fault_period_s"]))
    codec = ClientCodec()
    faults = FaultLoad(events, base_epoch=1, period_s=cfg["fault_period_s"],
                       codec=codec)
    routes = RouteLoad(srcs, dsts, cfg["rate"], faults, codec)

    server_cpu, affinity = pin_client()
    baseline = shm_segments()
    config = {"shards": SHARDS, "token": f"pb{os.getpid()}",
              "cpu": server_cpu, "trace": trace,
              "tenants": [{"name": cfg["tenant"], "n": n,
                           "faults": initial.tolist()}]}
    server, setup_s = await boot(config, problems, baseline)
    try:
        route_conn = await Conn.open(server.port, cfg["tenant"],
                                     routes.on_reply)
        fault_conn = await Conn.open(server.port, cfg["tenant"],
                                     faults.on_reply)
        phases = Phases(server, seconds, trace)
        gc.disable()
        start = time.perf_counter_ns()
        route_task = asyncio.ensure_future(routes.run(route_conn, start))
        fault_task = asyncio.ensure_future(faults.run(fault_conn, start))
        await phases.run()
        routes.stopping = faults.stopping = True
        await route_task
        await fault_task
        unanswered = await routes.drain()
        stats = json.loads((await server.command("STATS"))[6:])
        await route_conn.close()
        await fault_conn.close()
    finally:
        gc.enable()
        await stop_and_check(server, baseline, problems)
        os.sched_setaffinity(0, affinity)

    by_epoch, epoch_problems = faults.check(sets)
    problems += epoch_problems
    sent = routes.count
    bad, checked = churn_check(routes, by_epoch, n, cfg["sample"], seed,
                               problems)
    attempted = sent + len(faults.epochs) + faults.errors
    failed = routes.errors + faults.errors + unanswered + bad

    untraced, lag = churn_window(routes, faults, *phases.bounds["untraced"])
    e2e = dict(untraced, setup_s=setup_s, peak_rss_mb=stats["peak_rss_mb"])
    per_layer = {}
    if trace:
        lo, hi = phases.bounds["traced"]
        traced, traced_lag = churn_window(routes, faults, lo, hi)
        idx = np.flatnonzero((routes.sent[:sent] >= lo)
                             & (routes.sent[:sent] < hi)
                             & (routes.done[:sent] > 0))
        client_rt_us = mean((routes.done[idx] - routes.sent[idx]) / 1e3)
        codec.encode_ns += int(routes.preencode_ns * routes.count)
        codec.bytes = HEADER.size * 2 + 16 + 22
        codec.routes = 1
        per_layer = layers.serving_layers(
            phases.dump, codec, client_rt_us=client_rt_us,
            gen_lag_ms=lag + traced_lag, untraced=e2e, traced=traced,
            overhead_metric="latency_p50_ms")
    return Outcome(
        end_to_end=e2e, per_layer=per_layer, attempted=attempted,
        failed=failed, problems=problems,
        provenance=serving_provenance([(cfg["tenant"], n)]),
        notes={"gen_lag_p99_ms": pct(lag, 99),
               "epochs": len(by_epoch),
               "replies_checked": checked,
               "failed_share": ratio(failed, attempted)})


def churn_window(routes: RouteLoad, faults: FaultLoad, lo: int, hi: int
                 ) -> Tuple[Dict[str, Optional[float]], List[float]]:
    """End-to-end statistics of one window, and its generator lags (ms).

    Latency and lag cover the requests scheduled in each sub-window.
    FAULT round trips use longer sub-windows, so each holds enough
    samples for a p99.
    """
    sent = routes.count
    sched, done = routes.sched[:sent], routes.done[:sent]
    p50s, p99s, lags = [], [], []
    for a, b in subwindows(lo, hi):
        idx = np.flatnonzero((sched >= a) & (sched < b))
        answered = idx[done[idx] > 0]
        lat = (done[answered] - sched[answered]) / 1e6
        lags += ((routes.sent[idx] - sched[idx]) / 1e6).tolist()
        p50s.append(pct(lat, 50))
        p99s.append(pct(lat, 99))
    f50s, f99s = [], []
    for a, b in subwindows(lo, hi, FAULT_SUBWINDOW_S):
        rts = faults.rt_ms(a, b)
        f50s.append(pct(rts, 50))
        f99s.append(pct(rts, 99))
    # The load is open, so throughput is the delivered rate over the whole
    # window: it reads the offered rate unless replies fall behind.
    length = (hi - lo) / 1e9
    replies = int(((done >= lo) & (done < hi)).sum())
    return {"routes_per_s": replies / length,
            "trials_per_s": (replies + len(faults.rt_ms(lo, hi))) / length,
            "latency_p50_ms": median(p50s),
            "latency_p99_ms": median(p99s),
            "fault_p50_ms": median(f50s),
            "fault_p99_ms": median(f99s)}, lags


def churn_check(routes: RouteLoad, by_epoch, n: int, sample: int, seed: int,
                problems: List[str]) -> Tuple[int, int]:
    """Re-derive a seeded sample of ROUTE replies; returns (bad, checked).

    Also checks that every reply's epoch is one the client created, and
    no older than the last epoch acknowledged before the request was sent.
    """
    sent = routes.count
    answered = np.flatnonzero(routes.ok[:sent])
    epochs = routes.reply[answered, 0]
    unknown = ~np.isin(epochs, list(by_epoch))
    stale = epochs < routes.acked[answered]
    if unknown.any():
        problems.append(f"{int(unknown.sum())} replies tagged with an "
                        f"epoch the client never created")
    if stale.any():
        problems.append(f"{int(stale.sum())} replies older than an epoch "
                        f"acknowledged before their request")
    pick = np.random.default_rng([seed, 99]).choice(
        answered[~unknown], size=min(sample, int((~unknown).sum())),
        replace=False)
    want = expected_columns(n, by_epoch, routes.reply[pick, 0],
                            routes.srcs[pick], routes.dsts[pick])
    got = tuple(routes.reply[pick, k] for k in range(1, 5))
    bad = int(mismatches(got, want).sum())
    if bad:
        problems.append(f"{bad} of {len(pick)} sampled ROUTE replies "
                        f"differ from the offline derivation")
    return bad + int(unknown.sum()) + int(stale.sum()), len(pick)
