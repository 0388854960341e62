"""``http_footprint``: ``/v1/footprint`` over HTTP against ``serve``.

The server runs as ``python -m repro.cli serve --port 0`` in a child
process.  This process is the one client, with two keep-alive
connections.  70% of requests repeat one of 32 scenarios (cache hits
after the warm-up) and 30% are scenarios never sent before (misses the
micro-batcher evaluates), so p50 sits in the hit mode and p90 in the
miss mode.

* Phase A, a closed loop on both connections, gives capacity
  (``jobs_per_s``).
* Phase B, an open loop at a fixed 1,000 requests/s, gives latency:
  each request is timed from when it was due, so a stall also delays
  the requests scheduled behind it.

Every 200 body is compared with a direct engine evaluation of the same
scenario, computed before the phase starts.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from lifecycle import die_with_parent
from measure import PeakMemory, calibration_ms, percentile
from protocol import SETUP_REPEATS, Result, timed_setups
from spans import Tracer, delta

HOT = 32
HOT_SHARE = 0.7
#: Phase B's arrival rate.  Phase A measures 1.4k-1.8k requests/s of
#: capacity on a two-core host, so this keeps the server at about a
#: quarter of its capacity (at 1,000 requests/s p90 ranged 2.1-12.2 ms
#: across five seeds: the queue grew whenever the host slowed).
RATE_PER_S = 400.0
CONNECTIONS = 2
#: Fresh scenarios sent before measuring: the server cache's capacity,
#: so its memory has stopped growing when phase A starts.
WARM = 4096
#: Connections that send the warm-up (more rows per micro-batch tick).
WARM_CONNECTIONS = 8
#: Requests in the generated sequence (a run uses well under this).
SEQUENCE = 1 << 18
#: Share of the measuring time spent in phase A (the rest is phase B).
PHASE_A_SHARE = 0.4
FIELDS = {
    "energy_kwh": (1.0, 30.0),
    "ci_use_g_per_kwh": (30.0, 800.0),
    "soc_area_cm2": (0.5, 3.0),
    "dram_gb": (1.0, 16.0),
}
CHECKED = ("total_g", "operational_g", "embodied_g", "amortized_embodied_g")
PATH = "/v1/footprint"


class Requests:
    """The request sequence of one seed and each request's expected answer.

    Rows ``[0, HOT)`` are the repeated scenarios, ``[HOT, HOT + WARM)``
    the warm-up scenarios, and the rest fresh scenarios in the order the
    sequence first uses them.
    """

    def __init__(self, seed: int) -> None:
        from repro.analysis.scenario import ActScenario
        from repro.engine.batch import ScenarioBatch
        from repro.engine.kernels import evaluate_batch

        rng = np.random.default_rng(seed)
        rows = HOT + WARM + SEQUENCE
        self.columns = {
            name: rng.uniform(low, high, rows) for name, (low, high) in FIELDS.items()
        }
        hot = rng.random(SEQUENCE) < HOT_SHARE
        fresh_rank = np.cumsum(~hot) - 1
        self.row_of = np.where(
            hot, rng.integers(0, HOT, SEQUENCE), HOT + WARM + fresh_rank
        )
        result = evaluate_batch(
            ScenarioBatch.from_columns(ActScenario(), rows, self.columns)
        )
        self.expected = {name: getattr(result, name) for name in CHECKED}

    def digest(self) -> str:
        digest = hashlib.sha256(self.row_of.tobytes())
        for column in self.columns.values():
            digest.update(column.tobytes())
        return digest.hexdigest()

    def sequence_row(self, index: int) -> int:
        """The scenario row of request ``index`` of the sequence."""
        return int(self.row_of[index % SEQUENCE])

    def body(self, row: int) -> bytes:
        params = {name: float(column[row]) for name, column in self.columns.items()}
        return json.dumps({"params": params}).encode()

    def check(self, row: int, status: int, data: bytes) -> str | None:
        if status != 200:
            return f"HTTP {status}"
        payload = json.loads(data)
        for name in CHECKED:
            if payload.get(name) != float(self.expected[name][row]):
                return f"row {row}: {name} {payload.get(name)!r} != engine"
        return None


@dataclass
class Tally:
    """Outcomes of one client loop (one connection)."""

    attempted: int = 0
    failed: int = 0
    refused: int = 0
    incorrect: int = 0
    busy_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def outcome(self, problem: str | None, status: int) -> None:
        if problem is None:
            return
        if status in (429, 503, 504):
            self.refused += 1
        else:
            self.incorrect += 1
        if len(self.errors) < 5:
            self.errors.append(problem)

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "refused", "incorrect", "busy_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies_s.extend(other.latencies_s)
        self.lateness_s.extend(other.lateness_s)
        self.errors.extend(other.errors[: 5 - len(self.errors)])

    @property
    def not_ok(self) -> int:
        return self.failed + self.refused + self.incorrect


def open_loop_times(due: float, sent: float, done: float) -> tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request: latency runs
    from when the request was due, lateness is how late it was sent."""
    return done - due, sent - due


class Connection:
    """One keep-alive HTTP/1.1 connection with Nagle off."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._open()

    def _open(self) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        self.http.connect()
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.http.close()
            self._open()
            raise

    def close(self) -> None:
        self.http.close()


class Server:
    """``repro serve --port 0`` in a child process."""

    def __init__(self, root: str, memory: PeakMemory) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.memory = memory
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            preexec_fn=die_with_parent,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        probe = Connection(self.port)
        try:
            deadline = time.monotonic() + 30.0
            while probe.call("GET", "/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)
        finally:
            probe.close()

    def statz(self) -> dict:
        connection = Connection(self.port)
        try:
            return json.loads(connection.call("GET", "/statz")[1])
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.memory.observe_children([self.process.pid])
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()


def _closed_loop(
    send, requests: Requests, indices, row_at, tally: Tally, deadline: float
) -> None:
    """Send the requests of ``indices`` back to back until ``deadline``
    (or they run out); ``row_at`` maps an index to its scenario row."""
    for index in indices:
        if time.perf_counter() >= deadline:
            return
        row = row_at(index)
        body = requests.body(row)
        tally.attempted += 1
        started = time.perf_counter()
        try:
            status, data = send(body)
        except (OSError, http.client.HTTPException) as error:
            tally.failed += 1
            tally.outcome(f"{type(error).__name__}: {error}", 0)
            continue
        elapsed = time.perf_counter() - started
        tally.busy_s += elapsed
        tally.latencies_s.append(elapsed)
        tally.outcome(requests.check(row, status, data), status)


def _open_loop(
    send, requests: Requests, indices, start: float, first: int, tally: Tally
) -> None:
    """Send request ``i`` of ``indices`` when it is due at
    ``start + (i - first) / RATE_PER_S``, late or not."""
    for index in indices:
        row = requests.sequence_row(index)
        body = requests.body(row)
        due = start + (index - first) / RATE_PER_S
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        tally.attempted += 1
        try:
            status, data = send(body)
        except (OSError, http.client.HTTPException) as error:
            tally.failed += 1
            tally.outcome(f"{type(error).__name__}: {error}", 0)
            continue
        latency, lateness = open_loop_times(due, sent, time.perf_counter())
        tally.latencies_s.append(latency)
        tally.lateness_s.append(lateness)
        tally.outcome(requests.check(row, status, data), status)


def _on_connections(connections: list[Connection], client) -> Tally:
    """Run ``client(k, send, tally)`` for connection ``k`` in its own
    thread, all at once, and merge their tallies."""
    tallies = [Tally() for _ in connections]
    threads = [
        threading.Thread(
            target=client,
            args=(k, lambda body, c=c: c.call("POST", PATH, body), tallies[k]),
        )
        for k, c in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total


class HttpFootprint:
    """The HTTP workload: its own phases instead of one closed job loop."""

    name = "http_footprint"

    def __init__(self, root: str) -> None:
        self.root = root
        self.memory = PeakMemory()
        self.server: Server | None = None
        self.connections: list[Connection] = []
        self.next_index = 0

    def make_inputs(self, seed: int) -> None:
        self.requests = Requests(seed)

    def setup(self) -> None:
        """One setup repetition: a fresh server, warmed and connected."""
        self.close()
        self.server = Server(self.root, self.memory)
        self.connections = [Connection(self.server.port) for _ in range(CONNECTIONS)]
        requests = self.requests
        for row in range(HOT):
            status, data = self.connections[0].call("POST", PATH, requests.body(row))
            problem = requests.check(row, status, data)
            if problem is not None:
                raise RuntimeError(f"warm-up: {problem}")
        warmers = [Connection(self.server.port) for _ in range(WARM_CONNECTIONS)]
        try:
            warm = _on_connections(
                warmers,
                lambda k, send, tally: _closed_loop(
                    send, requests, range(k, WARM, WARM_CONNECTIONS),
                    lambda i: HOT + i, tally, float("inf"),
                ),
            )
        finally:
            for connection in warmers:
                connection.close()
        if warm.not_ok:
            raise RuntimeError(f"warm-up: {warm.errors}")
        self.next_index = 0

    def phase_a(self, seconds: float) -> Tally:
        """Closed loop on every connection for ``seconds``."""
        counter = itertools.count(self.next_index)
        deadline = time.perf_counter() + seconds
        tally = _on_connections(
            self.connections,
            lambda k, send, tally: _closed_loop(
                send, self.requests, counter, self.requests.sequence_row,
                tally, deadline,
            ),
        )
        self.next_index = next(counter)
        return tally

    def phase_b(self, seconds: float) -> Tally:
        """Open loop at ``RATE_PER_S`` for ``seconds``, requests dealt
        round-robin to the connections."""
        first = self.next_index
        count = int(RATE_PER_S * seconds)
        start = time.perf_counter() + 0.01
        tally = _on_connections(
            self.connections,
            lambda k, send, tally: _open_loop(
                send, self.requests, range(first + k, first + count, CONNECTIONS),
                start, first, tally,
            ),
        )
        self.next_index = first + count
        return tally

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            self.server.stop()
            self.server = None


def end_to_end(workload: HttpFootprint, seed: int, seconds: float, import_s: float) -> Result:
    calibration_start = calibration_ms()
    workload.make_inputs(seed)
    setups = timed_setups(workload, SETUP_REPEATS)
    capacity = workload.phase_a(seconds * PHASE_A_SHARE)
    latency = workload.phase_b(seconds * (1.0 - PHASE_A_SHARE))
    calibration_end = calibration_ms()
    workload.close()  # records the server's peak memory
    total = Tally()
    total.merge(capacity)
    total.merge(latency)
    ok = total.attempted - total.not_ok
    result = Result(attempted=total.attempted, failed=total.not_ok, errors=total.errors)
    completed = len(capacity.latencies_s)
    result.metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "jobs_per_s": (completed * CONNECTIONS / capacity.busy_s, "1/s"),
        "job_p50_ms": (percentile(latency.latencies_s, 50.0) * 1e3, "ms"),
        "job_p90_ms": (percentile(latency.latencies_s, 90.0) * 1e3, "ms"),
        "peak_rss_mb": (workload.memory.total_mb(), "MiB"),
        "success_rate": (ok / total.attempted, "ratio"),
    }
    result.detail = {
        "phase_a_requests": completed,
        "phase_b_requests": len(latency.latencies_s),
        "lateness_p90_ms": percentile(latency.lateness_s, 90.0) * 1e3,
        "error_rate": total.not_ok / total.attempted,
        "refused": total.refused,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "inputs_sha256": workload.requests.digest(),
    }
    return result


def _in_process(service, requests: Requests, first: int, seconds: float, tracer: Tracer | None):
    """Sequential ``CarbonQueryService.handle`` calls for ``seconds``:
    per-request times and, when traced, per-request layer self times."""
    times, layers, problems = [], [], []
    deadline = time.perf_counter() + seconds
    index = first
    while time.perf_counter() < deadline or len(times) < 100:
        row = requests.sequence_row(index)
        body = requests.body(row)
        before = tracer.totals() if tracer else None
        started = time.perf_counter()
        response = service.handle("POST", PATH, body, "bench")
        elapsed = time.perf_counter() - started
        if tracer:
            layers.append(delta(tracer.totals(), before))
        times.append(elapsed)
        problem = requests.check(row, response.status, response.body())
        if problem is not None:
            problems.append(problem)
        index += 1
    return times, layers, problems, index


def layer_budget(workload: HttpFootprint, seed: int, seconds: float) -> Result:
    """Per-layer split of one request: parse and handle in-process, the
    HTTP transport as the rest of the HTTP p50, and batcher and cache
    figures read from ``/statz`` around the open loop."""
    import repro.service.app as app
    from repro.service.config import ServiceConfig

    workload.make_inputs(seed)
    workload.setup()
    before = workload.server.statz()
    latency = workload.phase_b(seconds / 2)
    after = workload.server.statz()
    workload.close()
    http_p50 = percentile(latency.latencies_s, 50.0)

    service = app.CarbonQueryService(ServiceConfig(port=0))
    try:
        requests = workload.requests
        for row in range(HOT):
            service.handle("POST", PATH, requests.body(row), "bench")
        plain, _, problems, index = _in_process(
            service, requests, workload.next_index, seconds / 4, None
        )
        tracer = Tracer()
        tracer.wrap(app, "parse_body", "service.app.parse")
        tracer.wrap(app, "parse_scenario", "service.app.parse")
        tracer.wrap(app.CarbonQueryService, "handle", "service.app.handle")
        with tracer:
            traced, layers, traced_problems, _ = _in_process(
                service, requests, index, seconds / 4, tracer
            )
    finally:
        service.close()
    problems += traced_problems

    def median_ms(layer: str) -> float:
        return statistics.median(d.get(layer, 0.0) for d in layers) * 1e3

    plain_p50 = statistics.median(plain)
    transport_ms = (http_p50 - plain_p50) * 1e3
    batcher = {k: after["batcher"][k] - before["batcher"][k] for k in ("ticks", "coalesced")}
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")}
    attempted = latency.attempted + len(plain) + len(traced)
    result = Result(
        attempted=attempted,
        failed=latency.not_ok + len(problems),
        errors=latency.errors + problems[:5],
    )
    result.metrics = {
        "service.app.parse_ms": (median_ms("service.app.parse"), "ms"),
        "service.app.handle_ms": (median_ms("service.app.handle"), "ms"),
        "service.http.transport_ms": (transport_ms, "ms"),
        "service.batcher.rows_per_tick": (batcher["coalesced"] / batcher["ticks"], "rows"),
        "service.cache.hit_ratio": (cache["hits"] / (cache["hits"] + cache["misses"]), "ratio"),
        "loadgen.lateness_p90_ms": (percentile(latency.lateness_s, 90.0) * 1e3, "ms"),
        "layer_coverage": (
            (median_ms("service.app.parse") + median_ms("service.app.handle") + transport_ms)
            / (http_p50 * 1e3),
            "ratio",
        ),
        "trace_overhead": (statistics.median(traced) / plain_p50, "ratio"),
    }
    result.detail = {
        "http_p50_ms": http_p50 * 1e3,
        "in_process_p50_ms": plain_p50 * 1e3,
        "open_loop_requests": len(latency.latencies_s),
        "in_process_requests": len(plain) + len(traced),
    }
    return result
