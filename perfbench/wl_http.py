"""Workload ``http-recommend``: ``/recommend`` against a served process.

``repro-events serve`` runs in a process of its own (launched through
``serve.py``) over the synthetic world with a 500-event pool.  This
process is the only client.  It keeps two keep-alive connections and
drives them from one thread with ``selectors``:

1. open loop: a seeded Poisson stream at ``RATE`` requests/s; each
   request is timed from its scheduled send time;
2. closed loop: both connections always busy, in one-second blocks
   with a calibration reading between blocks.

About 80% of requests ask for a full-pool top-10; the rest carry an
explicit ``event_ids`` sub-pool and an ``at_time``.  Every response is
checked against a brute-force ranking computed here from the same
seeded world's towers.  Run as a process of its own by ``run.py``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

import checks
from common import (
    OUT_DIR,
    ROOT,
    child_env,
    cpu_seconds_of,
    peak_rss_mb_of,
    percentile,
    scale_time,
    tail_percentile,
)
from tracing import durations, read_spans, self_times
from workload import SETUP_BURST_S, Outcome, parse_args

POOL = 500
TOP_K = 10
# Requests/s in the open-loop phase, about a sixth of the capacity.  At
# half the capacity, hypervisor steal on the host queued requests behind
# the two connections and moved the p50 threefold between runs.
RATE = 50.0
OPEN_SHARE = 0.5  # of the run's seconds; the rest is closed loop
SUBPOOL_SHARE = 0.2
SUBPOOL_SIZE = 100
CONNECTIONS = 2
BLOCK_S = 1.0
SETUP_SPAWNS = 3
# A calibration reading (~2 ms, on the server's CPU) is taken in an
# open-loop gap only when nothing is in flight and the next request is
# due this much later, so readings never delay a send.
CAL_GAP_S = 0.012
# select() waits whole milliseconds, so the open loop wakes this early
# before a request is due and polls until it is.
SPIN_S = 0.002
SERVER_START_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


class RequestMaker:
    """Seeded ``/recommend`` payloads over the served world."""

    def __init__(self, rng: random.Random, users, events) -> None:
        self.rng = rng
        self.user_ids = [user.user_id for user in users]
        self.events = events

    def make(self) -> dict:
        rng = self.rng
        payload = {"user_id": rng.choice(self.user_ids), "top_k": TOP_K}
        if rng.random() < SUBPOOL_SHARE:
            pool = rng.sample(self.events, SUBPOOL_SIZE)
            anchor = rng.choice(pool)  # at least this event is active
            payload["event_ids"] = sorted(event.event_id for event in pool)
            payload["at_time"] = (anchor.created_at + anchor.starts_at) / 2.0
        return payload


def encode_request(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        b"POST /recommend HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"


class Connection:
    """One keep-alive HTTP/1.1 connection with at most one request in flight."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.request = None  # (index, due, sent)

    def send(self, data: bytes) -> None:
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def receive(self) -> tuple[int, bytes] | None:
        """Read what is there; return ``(status, body)`` once complete."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self.buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = head_end + 4 + length
        if len(self.buffer) < total:
            return None
        body = self.buffer[head_end + 4:total]
        self.buffer = self.buffer[total:]
        return int(head[0].split(" ")[1]), body

    def close(self) -> None:
        self.sock.close()


def blocking_exchange(port: int, data: bytes, timeout: float = 5.0) -> tuple[int, bytes]:
    connection = Connection(port)
    try:
        connection.send(data)
        deadline = time.perf_counter() + timeout
        selector = selectors.DefaultSelector()
        selector.register(connection.sock, selectors.EVENT_READ)
        try:
            while time.perf_counter() < deadline:
                if selector.select(0.05):
                    response = connection.receive()
                    if response is not None:
                        return response
        finally:
            selector.close()
        raise TimeoutError("no response")
    finally:
        connection.close()


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """A ``serve.py`` process: spawned, awaited until healthy, stopped."""

    def __init__(self, seed: int, trace: int, spans: Path, log: Path,
                 cpu: int | None) -> None:
        self.spans = spans
        self.log_path = log
        log.parent.mkdir(parents=True, exist_ok=True)
        self.log = open(log, "w")
        command = [
            sys.executable, str(ROOT / "perfbench" / "serve.py"),
            "--trace", str(trace), "--spans", str(spans), "--",
            "--port", "0", "--pool-size", str(POOL), "--seed", str(seed),
        ]
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                        stdout=self.log, stderr=self.log)
        if cpu is not None:  # threads the server starts later inherit this
            os.sched_setaffinity(self.process.pid, {cpu})
        self.port = self._await_port()
        while True:
            try:
                status, _ = blocking_exchange(self.port, HEALTHZ)
            except OSError:
                status = None
            if status == 200:
                break
            if time.perf_counter() > self.spawned_at + SERVER_START_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"/healthz never answered 200; see {self.log_path}")
            time.sleep(0.002)
        self.ready_at = time.perf_counter()

    def _await_port(self) -> int:
        deadline = self.spawned_at + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log_path}")
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    return int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("server did not start in time")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------


class Load:
    """Two connections driven from one thread; every exchange is logged."""

    def __init__(self, port: int, maker: RequestMaker, outcome: Outcome) -> None:
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]
        self.selector = selectors.DefaultSelector()
        for connection in self.connections:
            self.selector.register(connection.sock, selectors.EVENT_READ, connection)
        self.maker = maker
        self.outcome = outcome
        # index -> (phase, payload, due, sent, done, status, body)
        self.log: list[list] = []

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.close()

    def _send(self, connection: Connection, phase: str, due: float | None) -> None:
        payload = self.maker.make()
        data = encode_request(payload)
        sent = time.perf_counter()
        connection.request = (len(self.log), due if due is not None else sent, sent)
        self.log.append([phase, payload, connection.request[1], sent, None, None, None])
        self.outcome.attempted += 1
        connection.send(data)

    def _poll(self, timeout: float | None) -> list[Connection]:
        """Collect finished exchanges; return the connections they freed."""
        freed = []
        for key, _ in self.selector.select(timeout):
            connection = key.data
            response = connection.receive()
            if response is None:
                continue
            index = connection.request[0]
            entry = self.log[index]
            entry[4] = time.perf_counter()
            entry[5], entry[6] = response
            connection.request = None
            freed.append(connection)
        return freed

    def busy(self) -> int:
        return sum(connection.request is not None for connection in self.connections)

    def drain(self) -> None:
        while self.busy():
            self._poll(1.0)

    def open_loop(self, seconds: float, rng: random.Random) -> tuple[float, float]:
        """Poisson arrivals at ``RATE``; calibrate in idle gaps.

        A request due while both connections are busy waits for the
        first one to free up; its latency still counts from when it was
        due (see :func:`lateness`).
        """
        start = time.perf_counter() + 0.05
        due_times = deque(poisson_schedule(rng, RATE, seconds, start))
        cal = self.outcome.calibration
        idle = list(self.connections)
        while due_times or self.busy():
            now = time.perf_counter()
            while due_times and idle and due_times[0] <= now:
                self._send(idle.pop(), "open", due_times.popleft())
                now = time.perf_counter()
            if due_times and idle:
                gap = due_times[0] - now
                if not self.busy() and gap > CAL_GAP_S:
                    cal.take()
                    continue
                timeout = max(0.0, gap - SPIN_S)
            else:
                timeout = 1.0
            idle.extend(self._poll(timeout))
        return start, time.perf_counter()

    def closed_loop(self, seconds: float) -> list[tuple[float, int, float]]:
        """Both connections always busy, in blocks; ``(seconds, done, cal)``."""
        cal = self.outcome.calibration
        blocks = []
        end_all = time.perf_counter() + seconds
        while time.perf_counter() < end_all:
            cal_before = cal.take(8)
            first = len(self.log)
            block_start = time.perf_counter()
            block_end = block_start + min(BLOCK_S, max(0.2, end_all - block_start))
            for connection in self.connections:
                self._send(connection, "closed", None)
            while self.busy():
                for connection in self._poll(1.0):
                    if time.perf_counter() < block_end:
                        self._send(connection, "closed", None)
            finished = time.perf_counter()
            blocks.append((finished - block_start, len(self.log) - first,
                           (cal_before + cal.take(8)) / 2))
        return blocks


def poisson_schedule(rng: random.Random, rate: float, seconds: float,
                     start: float) -> list[float]:
    """Send instants of a Poisson stream at ``rate`` over ``seconds``."""
    due_times = []
    at = start
    while True:
        at += rng.expovariate(rate)
        if at > start + seconds:
            return due_times
        due_times.append(at)


def lateness(entries) -> tuple[list[tuple[float, float]], list[float]]:
    """Open-loop accounting of ``(due, sent, done)`` exchanges.

    Returns ``(latencies, lags)``: each latency as ``(done, done - due)``,
    timed from when the request was due, so a stall also counts against
    the requests it delayed; each lag is how late the request was sent.
    """
    entries = list(entries)
    latencies = [(done, done - due) for due, _, done in entries]
    lags = [sent - due for due, sent, _ in entries]
    return latencies, lags


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


class Reference:
    """Brute-force rankings from the same seeded world's towers."""

    def __init__(self, seed: int) -> None:
        from repro.loadgen import build_synthetic_service

        service, users, events = build_synthetic_service(seed=seed, pool_size=POOL)
        model = service.model
        self.users, self.events = users, events
        self.user_vectors = dict(zip(
            (user.user_id for user in users),
            model.encode_users([model.encoder.encode_user(user) for user in users]),
        ))
        self.ids = np.array([event.event_id for event in events], dtype=np.int64)
        self.matrix = model.encode_events([model.encoder.encode_event(e) for e in events])
        self.created = np.array([event.created_at for event in events])
        self.starts = np.array([event.starts_at for event in events])

    def problems(self, payload: dict, status: int, body: bytes) -> list[str]:
        if status != 200:
            return [f"status {status}: {body[:200]!r}"]
        response = json.loads(body)
        got = [(item["event_id"], item["score"]) for item in response["results"]]
        mask = np.ones(len(self.ids), dtype=bool)
        if "event_ids" in payload:
            mask &= np.isin(self.ids, payload["event_ids"])
        at_time = payload.get("at_time")
        if at_time is not None:
            mask &= (self.created <= at_time) & (at_time < self.starts)
        expected, scores = checks.brute_force_top_k(
            self.user_vectors[payload["user_id"]], self.ids[mask], self.matrix[mask],
            payload["top_k"],
        )
        return checks.check_ranking(got, expected, scores, payload["top_k"])


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def main() -> None:
    args = parse_args(__doc__)
    outcome = Outcome()
    cal = outcome.calibration
    # Server and client each get a CPU of their own; calibration readings
    # are taken on the server's CPU while nothing is in flight.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = None
    if len(cpus) >= 2:
        server_cpu = cpus[-1]
        os.sched_setaffinity(0, {cpus[0]})
        cal.cpu = server_cpu
    outcome.info["cpus"] = {"client": cpus[0], "server": server_cpu}
    rng = random.Random(args.seed)
    reference = Reference(args.seed)
    tag = f"http-s{args.seed}-t{args.trace}"
    tmp = OUT_DIR / "tmp"

    # Set-up, several times: spawn to the first 200 on /healthz.
    setup_samples = []
    server = load = None
    spawns = 1 if args.tiny else SETUP_SPAWNS
    try:
        for index in range(spawns):
            before = cal.burst(SETUP_BURST_S)
            server = Server(args.seed, args.trace, tmp / f"{tag}-{index}.spans",
                            tmp / f"{tag}-{index}.log", server_cpu)
            setup_samples.append({"raw_s": server.ready_at - server.spawned_at,
                                  "cal_s": (before + cal.burst(SETUP_BURST_S)) / 2})
            if index < spawns - 1:
                server.stop()
        outcome.info["setup_samples"] = setup_samples
        outcome.info["seeds"] = {"world": args.seed, "arrivals": args.seed,
                                 "requests": args.seed * 7919 + 1}

        maker = RequestMaker(random.Random(args.seed * 7919 + 1), reference.users,
                             reference.events)
        load = Load(server.port, maker, outcome)
        # warm-up: every connection and code path once, not timed
        for _ in range(20):
            for connection in load.connections:
                load._send(connection, "warmup", None)
            load.drain()
        cal.take(5)
        # The client's own collector must not stall sends or receives.
        gc.collect()
        gc.freeze()
        gc.disable()
        cpu_start = cpu_seconds_of(server.process.pid)
        open_seconds = args.seconds * OPEN_SHARE
        open_start, open_end = load.open_loop(open_seconds, rng)
        blocks = load.closed_loop(args.seconds - open_seconds)
        cpu_end = cpu_seconds_of(server.process.pid)
        outcome.raw["peak_rss_mb"] = peak_rss_mb_of(server.process.pid)
    finally:
        gc.enable()
        if load is not None:
            load.close()
        if server is not None:
            server.stop()

    for phase, payload, due, sent, done, status, body in load.log:
        if done is None:
            outcome.fail(f"{phase} request got no response")
            continue
        problems = reference.problems(payload, status, body)
        if problems:
            outcome.fail(f"{phase} {payload}: {problems[:3]}")

    opened = [entry for entry in load.log if entry[0] == "open" and entry[4] is not None]
    latency, lag = lateness((entry[2], entry[3], entry[4]) for entry in opened)
    tail = tail_percentile(len(latency))
    scaled = [scale_time(seconds, cal.local(at), cal.nominal) for at, seconds in latency]
    raw = [seconds for _, seconds in latency]
    outcome.raw["recommend_p50_ms"] = percentile(raw, 50) * 1e3
    outcome.scaled["recommend_p50_ms"] = percentile(scaled, 50) * 1e3
    if tail is not None:  # not gated: see README.md
        outcome.raw[f"recommend_p{tail:.0f}_ms"] = percentile(raw, tail) * 1e3
        outcome.scaled[f"recommend_p{tail:.0f}_ms"] = percentile(scaled, tail) * 1e3
    completed = sum(done for _, done, _ in blocks)
    busy = sum(seconds for seconds, _, _ in blocks)
    outcome.raw["recommend_max_rps"] = completed / busy
    outcome.scaled["recommend_max_rps"] = completed / sum(
        scale_time(seconds, c, cal.nominal) for seconds, _, c in blocks)
    outcome.info.update(
        open_requests=len(opened), tail_percentile=tail,
        open_seconds=open_end - open_start,
        offered_rps=len(opened) / (open_end - open_start),
        closed_blocks=[[s, d, c] for s, d, c in blocks],
        send_lag_p99_ms=percentile(lag, 99) * 1e3 if lag else None,
        open_latency_ms=[round(seconds * 1e3, 3) for _, seconds in latency],
        open_lag_ms=[round(seconds * 1e3, 3) for seconds in lag],
        server_cpu_s=cpu_end - cpu_start,
    )
    total = len(opened) + completed
    if args.trace:
        spans, trailer = read_spans(server.spans)
        outcome.layers = layer_metrics(spans, trailer, open_start, time.perf_counter(),
                                       lag, (cpu_end - cpu_start) / total)
    outcome.write(args.result)


def layer_metrics(spans, trailer, start, end, lag, cpu_per_request) -> dict:
    measured = [span for span in spans if start <= span["start"] <= end]

    def p50(name, scale):
        values = durations(measured, name)
        return percentile(values, 50) * scale if values else None

    waits = [
        wait for wait, at in zip(trailer["values"].get("serving.batch_wait_s", []),
                                 trailer["values"].get("serving.batch_wait_at", []))
        if start <= at <= end
    ]
    flushes = len(durations(measured, "serving.flush"))
    return {
        "startup.import_s": trailer["import_s"],
        "serving.dispatch_p50_ms": p50("serving.dispatch", 1e3),
        "serving.batch_wait_p50_ms": percentile(waits, 50) * 1e3 if waits else None,
        "serving.batch_size_mean": (
            len(durations(measured, "serving.submit")) / flushes if flushes else None
        ),
        "serving.flush_p50_ms": p50("serving.flush", 1e3),
        "serving.json_decode_p50_us": p50("serving.json_decode", 1e6),
        "serving.render_p50_us": p50("serving.render", 1e6),
        "serving.server_cpu_ms_per_req": cpu_per_request * 1e3,
        "service.rank_p50_us": p50("service.rank_events", 1e6),
        "service.rank_batch_p50_us": p50("service.rank_events_batch", 1e6),
        "client.send_lag_p99_ms": percentile(lag, 99) * 1e3 if lag else None,
        "self_time_s": {
            name: row["self_s"] for name, row in self_times(spans, start, end).items()
        },
    }


if __name__ == "__main__":
    main()
