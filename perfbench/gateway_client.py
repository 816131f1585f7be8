"""``gateway_process``: an open loop over HTTP into a process-backed server.

The gateway and its worker processes run in a separate process tree
(``gateway_server.py``); this process only sends load, so the client never
competes with the gateway for a GIL.  The schedule has exponential gaps,
as a Poisson process at ``RATE_RPS`` does, stratified: ``RATE_RPS *
seconds`` one-row requests sent over :data:`CONNECTIONS` keep-alive
connections.  Each latency is timed from when its request was due, so a
stall also charges the requests it delays.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from statistics import fmean

import numpy as np

import replay
from measure import group_members, percentile, session_delta

RATE_RPS = 5.0
CONNECTIONS = 2
WARMUP = 10
#: The request-latency limit ``slo_attainment`` counts against: about
#: twice the p99 of a run on a slow stretch of a 2-core host (128 ms).
SLO_MS = 250.0
#: Traced runs fetch each request's trace right after its response in
#: every other block of this many seconds of the schedule.
TRACE_BLOCK_S = 2.0
DEPLOYMENT = "bert"
SHAPE = (1, 24, 192)
BOOT_TIMEOUT_S = 300.0
#: How long the gateway's workers and resource tracker get to exit after
#: the gateway process itself before they are killed.
GROUP_EXIT_TIMEOUT_S = 10.0


def schedule(seed: int, seconds: float) -> list[float]:
    """Due offsets of one run, the first at 0.

    The gaps are the ``n`` quantile midpoints of an exponential
    distribution, scaled to fill the window, in a seeded order.  A request
    due within a service time of the one before waits for it, and those
    waits make up the tail.  With free gaps their number varied from 8 to
    23 per 100 requests between seeds, so p90 fell among the waits on some
    seeds and below them on others.  Stratified, every seed has the same
    gaps in another order.
    """
    n = int(round(RATE_RPS * seconds))
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n)
    gaps *= seconds / gaps.sum()
    order = np.random.default_rng((seed, 4)).permutation(n)
    return np.concatenate([[0.0], np.cumsum(gaps[order])[:-1]]).tolist()


def gateway_request(seed: int, index: int) -> np.ndarray:
    """Request ``index``'s one-row input (negative: warm-up)."""
    rng = np.random.default_rng((seed, 5, index + (1 << 20)))
    return rng.normal(0.0, 1.0, SHAPE)


def request_body(seed: int, index: int) -> bytes:
    """Request ``index`` as the gateway's lossless base64 JSON body."""
    x = gateway_request(seed, index)
    return json.dumps({"input_b64": base64.b64encode(x.tobytes()).decode(),
                       "dtype": "float64", "shape": list(x.shape)}).encode()


async def open_loop(due, send, connections: int, clock, sleep,
                    after=None) -> list:
    """Send request ``i`` at ``start + due[i]`` on the first free connection.

    ``send(conn, i)`` performs one request and returns its response;
    ``after(conn, i, response)``, when given, runs once the response is
    timed and keeps the connection busy meanwhile.  Returns ``(due, sent,
    done, response)`` per request, in schedule order, all on ``clock``; a
    request waiting for a busy connection is sent late and its latency
    (``done - due``) carries the wait.
    """
    start = clock()
    results = [None] * len(due)
    cursor = 0

    async def connection(conn: int) -> None:
        nonlocal cursor
        while cursor < len(due):
            i = cursor
            cursor += 1
            due_t = start + due[i]
            delay = due_t - clock()
            if delay > 0:
                await sleep(delay)
            sent = clock()
            response = await send(conn, i)
            results[i] = (due_t, sent, clock(), response)
            if after is not None:
                await after(conn, i, response)

    await asyncio.gather(*(connection(c) for c in range(connections)))
    return results


class _Http:
    """Minimal HTTP/1.1 keep-alive client over asyncio streams."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.streams = None

    async def connect(self) -> None:
        self.streams = await asyncio.open_connection("127.0.0.1", self.port)

    async def request(self, method: str, target: str,
                      body: bytes = b"") -> tuple[int, bytes]:
        reader, writer = self.streams
        writer.write(f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    async def close(self) -> None:
        if self.streams is not None:
            writer = self.streams[1]
            writer.close()
            await writer.wait_closed()


class _Server:
    """The gateway process: JSON-line events in, commands out."""

    def __init__(self, out_dir) -> None:
        tmp = out_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # Plan-store snapshots land under the checkout, not the system tmp.
        env = dict(os.environ, TMPDIR=str(tmp))
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "gateway_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, start_new_session=True)
        self.events: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.events.put(json.loads(line))
        self.events.put(None)

    def wait(self, event: str, timeout: float) -> dict:
        message = self.events.get(timeout=timeout)
        if message is None or message.get("event") != event:
            raise RuntimeError(f"gateway process sent {message!r}, "
                               f"expected {event!r}")
        return message

    def command(self, command: str, reply: str, timeout: float) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.wait(reply, timeout)

    def close(self) -> None:
        """Stop the gateway process and wait until every process it started
        (its workers and resource tracker, all in its process group) has
        ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + GROUP_EXIT_TIMEOUT_S
        killed = False
        while group_members(self.proc.pid):
            if not killed and time.monotonic() > deadline:
                killed = True
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)
        self.reader.join(timeout=10)


async def _drive(port: int, seed: int, seconds: float, traced: bool,
                 server: _Server) -> dict:
    due = schedule(seed, seconds)
    bodies = [request_body(seed, i) for i in range(len(due))]
    conns = [_Http(port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.connect()
    target = f"/v1/infer/{DEPLOYMENT}"
    try:
        for i in range(WARMUP):
            status, _ = await conns[i % CONNECTIONS].request(
                "POST", target, request_body(seed, -1 - i))
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status}")
        marked = await asyncio.to_thread(server.command, "mark", "marked",
                                         120.0)

        async def send(conn: int, i: int):
            return await conns[conn].request("POST", target, bodies[i])

        async def fetch_trace(conn: int, i: int, response) -> None:
            status, raw = response
            if status == 200 and i not in traces:
                trace_id = json.loads(raw)["trace_id"]
                found, trace = await conns[conn].request(
                    "GET", f"/v1/trace/{trace_id}")
                if found == 200:    # 404 once evicted from the buffer
                    traces[i] = json.loads(trace)

        async def traced_block(conn: int, i: int, response) -> None:
            if int(due[i] // TRACE_BLOCK_S) % 2 == 1:
                await fetch_trace(conn, i, response)

        traces = {}
        results = await open_loop(due, send, CONNECTIONS, time.perf_counter,
                                  asyncio.sleep,
                                  after=traced_block if traced else None)
        ended = await asyncio.to_thread(server.command, "mark", "marked",
                                        120.0)
        if traced:
            # Requests of untraced blocks: their traces are still buffered.
            for i, (_, _, _, response) in enumerate(results):
                await fetch_trace(0, i, response)
        stopped = await asyncio.to_thread(server.command, "stop", "stopped",
                                          120.0)
    finally:
        for conn in conns:
            await conn.close()
    return {"due": due, "results": results, "traces": traces,
            "marked": marked, "ended": ended, "stopped": stopped}


def _span(trace: dict, name: str) -> dict | None:
    for span in trace["spans"]:
        if span["name"] == name:
            return span
    return None


def _trace_layers(run: dict) -> dict:
    """Per-layer numbers from the gateway's own span trees."""
    server_ms, outside_ms, queue_ms, exec_ms, worker_ms, transport_ms = \
        [], [], [], [], [], []
    batch_sizes = []
    for i, (_, sent, done, _) in enumerate(run["results"]):
        trace = run["traces"].get(i)
        if trace is None:
            continue
        root = trace["spans"][0]
        engine = _span(trace, "engine_execute")
        release = _span(trace, "batch_release")
        server_ms.append(root["duration_s"] * 1e3)
        outside_ms.append((done - sent - root["duration_s"]) * 1e3)
        queue_ms.append(_span(trace, "queue_wait")["duration_s"] * 1e3)
        exec_ms.append(engine["duration_s"] * 1e3)
        worker_s = engine["attrs"]["worker_exec_s"]
        worker_ms.append(worker_s * 1e3)
        transport_ms.append((engine["duration_s"] - worker_s) * 1e3)
        batch_sizes.append(release["attrs"]["batch_size"])
    return {
        "gateway.server_p50_ms": percentile(server_ms, 50),
        "gateway.outside_p50_ms": percentile(outside_ms, 50),
        "batching.queue_wait_p50_ms": percentile(queue_ms, 50),
        "batching.batch_exec_p50_ms": percentile(exec_ms, 50),
        "batching.batch_size_mean": fmean(batch_sizes),
        "procpool.worker_exec_p50_ms": percentile(worker_ms, 50),
        "procpool.roundtrip_p50_ms": percentile(transport_ms, 50),
    }


def run(seed: int, seconds: float, traced: bool, out_dir) -> dict:
    server = _Server(out_dir)
    try:
        ready = server.wait("ready", BOOT_TIMEOUT_S)
        driven = asyncio.run(_drive(ready["port"], seed, seconds, traced,
                                    server))
    finally:
        server.close()
    if server.proc.returncode != 0:
        raise RuntimeError(
            f"gateway process exited with {server.proc.returncode}")

    results = driven["results"]
    marked, ended, stopped = (driven["marked"], driven["ended"],
                              driven["stopped"])
    n = len(results)
    outputs = {}
    for i, (_, _, _, (status, raw)) in enumerate(results):
        if status == 200:
            body = json.loads(raw)
            outputs[i] = np.frombuffer(
                base64.b64decode(body["output_b64"]),
                dtype=body["dtype"]).reshape(body["shape"])
    # Serial replay outside the timed window: bit-exact or failed.
    indices = sorted(outputs)
    refs = replay.parallel(replay.bert_outputs,
                           [("gateway_process", seed, i) for i in indices])
    matched = {i for i, ref in zip(indices, refs)
               if ref.dtype == outputs[i].dtype
               and np.array_equal(ref, outputs[i])}
    failed = n - len(matched)

    latency = [done - due_t for due_t, _, done, _ in results]
    lateness = [sent - due_t for due_t, sent, _, _ in results]
    within = sum(1 for i, lat in enumerate(latency)
                 if i in matched and lat * 1e3 <= SLO_MS)
    cpu_s = ((ended["cpu_s"] - marked["cpu_s"])
             + (ended["worker_cpu_s"] - marked["worker_cpu_s"]))
    s0, s1 = marked["session"], ended["session"]
    served = s1["n_requests"] - s0["n_requests"]
    ops = session_delta(s1, s0)
    a0, a1 = marked["admission"], ended["admission"]
    result = {
        "attempted": n, "failed": failed,
        "samples": {"latency": n},
        "metrics": {
            "setup_s": ready["setup_s"],
            "rss_peak_mib": (stopped["rss_kib"]
                             + sum(stopped["worker_rss_kib"])) / 1024.0,
            "latency_p50_ms": percentile(latency, 50) * 1e3,
            "latency_p90_ms": percentile(latency, 90) * 1e3,
            "cpu_ms_per_req": cpu_s / n * 1e3,
            "slo_attainment": within / n,
        },
        # Batch composition depends on arrival timing, and coalescing
        # changes the modeled op counts, so they stay out of this one.
        "fingerprint": {
            "requests": n, "served": served, "tokens": n * SHAPE[1],
            "store.array_bytes": ready["store_array_bytes"],
        },
    }
    window_s = ended["wall_s"] - marked["wall_s"]
    layers = {
        "engine.calibrate_s": ready["calibrate_s"],
        "store.bytes": ready["store_bytes"],
        "store.save_s": ready["save_s"],
        "procpool.deploy_s": ready["deploy_s"],
        "procpool.worker_rss_mib": fmean(stopped["worker_rss_kib"]) / 1024.0,
        "pool.utilization": ((ended["busy_s"] - marked["busy_s"])
                             / (stopped["workers"] * window_s)),
        "core.mul4_per_req": ops["mul4"] / served,
        "core.ema_nibbles_per_req": ops["ema_nibbles"] / served,
        "core.rho_x": ops["rho_x"],
        "gateway.shed": a1["shed"] - a0["shed"],
        "gateway.rejected": a1["rejected"] - a0["rejected"],
        "client.lateness_p90_ms": percentile(lateness, 90) * 1e3,
    }
    if traced:
        layers.update(_trace_layers(driven))
        on = [lat for lat, d in zip(latency, driven["due"])
              if int(d // TRACE_BLOCK_S) % 2 == 1]
        off = [lat for lat, d in zip(latency, driven["due"])
               if int(d // TRACE_BLOCK_S) % 2 == 0]
        layers["obs.trace_overhead"] = (percentile(on, 50)
                                        / percentile(off, 50) - 1.0)
    result["layers"] = layers
    return result
