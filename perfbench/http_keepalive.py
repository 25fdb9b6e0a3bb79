"""``http-keepalive``: cache-hit queries over pooled keep-alive connections.

A child process (``http_server.py``) serves a warmed ``DatalogService``
through ``serve_http``.  This process holds two ``http.client`` keep-alive
connections (one per core of the reference machine), each driven by its
own closed-loop thread that POSTs ``/v1/query`` for a random query of the
hot set.  Every read is a cache hit, so HTTP framing, sockets, the query
parser and JSON do the work and the engine does none.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import common
from common import Chains, Result, SpanStats, Tally

HERE = Path(__file__).resolve().parent
SIZE = dict(chains=16, length=48, fresh=60)
SMOKE = dict(chains=3, length=8, fresh=5)
CONNECTIONS = 2
CHUNK_S = 1.0
SETUPS = 9
#: bound on waiting for the server process (start, commands, exit)
CHILD_TIMEOUT_S = 60

LAYERS = [
    "parser.parse_query_us",
    "service.read_hit_us",
    "service.read_hit_ratio",
    "http.server_ms",
    "http.wire_ms",
    "http.fresh_conn_ms",
    "obs.trace_overhead_pct",
    "fail_ratio",
]


class Server:
    """The server child process and its command pipe."""

    def __init__(self, seed: int, size: dict, trace: bool) -> None:
        command = [
            sys.executable, str(HERE / "http_server.py"),
            "--seed", str(seed),
            "--chains", str(size["chains"]),
            "--length", str(size["length"]),
            "--trace", "1" if trace else "0",
        ]
        self.process = subprocess.Popen(
            command,
            cwd=HERE.parent,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        line = _readline(self.process.stdout, CHILD_TIMEOUT_S)
        if not line:
            raise RuntimeError(
                f"server process exited ({self.process.poll()}) without replying"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.process.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdin.close()
            self.process.stdout.close()


def _readline(stream, timeout: float) -> str:
    """One line from *stream*, or ``""`` after *timeout* seconds."""
    box: List[str] = [""]
    reader = threading.Thread(target=lambda: box.__setitem__(0, stream.readline()))
    reader.daemon = True
    reader.start()
    reader.join(timeout)
    return box[0]


class Client:
    """One keep-alive connection driven by one closed-loop thread."""

    def __init__(self, port: int, hot, chains: Chains, seed: int, number: int, tally: Tally):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.hot = hot
        self.rng = random.Random(f"http-keepalive-{seed}-{number}")
        self.tally = tally
        self.expected = {
            body: sorted([name] for name in chains.expected(pred, edge))
            for pred, edge, body in hot
        }

    def request(self, body: str) -> Optional[float]:
        return _timed_post(self.connection, body, self.expected[body], self.tally)

    def loop(self, deadline: float, into: List[float]) -> None:
        while time.perf_counter() < deadline:
            _, _, body = self.rng.choice(self.hot)
            took = self.request(body)
            if took is not None:
                into.append(took)

    def close(self) -> None:
        self.connection.close()


def _timed_post(connection, body: str, expected: list, tally: Tally) -> Optional[float]:
    """POST one query; returns its latency, or ``None`` when it raised.
    The answer is checked after the clock stops."""
    t0 = time.perf_counter()
    try:
        connection.request(
            "POST", "/v1/query", body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        data = response.read()
    except (OSError, http.client.HTTPException) as error:
        tally.error("POST /v1/query", error)
        connection.close()
        return None
    took = time.perf_counter() - t0
    tally.check(response_ok(response.status, data, expected), f"POST /v1/query {body}")
    return took


def response_ok(status: int, data: bytes, expected: list) -> bool:
    """A query response is correct when it is a 200 carrying exactly the
    expected answer rows (the server sorts them)."""
    if status != 200:
        return False
    try:
        payload = json.loads(data)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("answers") == expected


def _chunk(clients: List[Client], seconds: float, into: List[float]) -> float:
    """Run every client for *seconds*; returns the chunk's wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(target=client.loop, args=(deadline, into)) for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    size = SMOKE if smoke else SIZE
    tally = Tally()
    chains = Chains(size["chains"], size["length"], seed)
    hot = [
        (pred, edge, json.dumps({"query": common.query_text(pred, edge)}))
        for pred, edge in common.hot_set(size["chains"], size["length"])
    ]
    setup_times = []
    server = None
    clients: List[Client] = []
    try:
        for attempt in range(SETUPS):
            for client in clients:
                client.close()
            if server is not None:
                server.close()
                server = None
            probes = common.probe_times()
            started = time.perf_counter()
            server = Server(seed, size, trace)
            clients = [
                Client(server.port, hot, chains, seed, number, Tally())
                for number in range(CONNECTIONS)
            ]
            # The server read the hot set in-process; one request per
            # connection opens it and starts its server-side thread.
            for client in clients:
                client.request(hot[0][2])
            took = time.perf_counter() - started
            probes += common.probe_times()
            setup_times.append(common.at_reference_speed(took, probes))
        for client in clients:
            client.tally = tally
        return _measure(server, clients, hot, size, seconds, trace, tally, setup_times)
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.close()


def _measure(server, clients, hot, size, seconds, trace, tally, setup_times) -> Result:
    untraced: List[float] = []
    traced: List[float] = []
    wall = {False: 0.0, True: 0.0}
    server.command("mark")
    if trace:
        chunk, spent = 0, 0.0
        while spent < seconds or chunk < 2:
            tracing = chunk % 2 == 1
            if tracing:
                server.command("trace 1")
            took = _chunk(clients, min(CHUNK_S, seconds), traced if tracing else untraced)
            if tracing:
                server.command("trace 0")
            wall[tracing] += took
            spent += took
            chunk += 1
    else:
        wall[False] = _chunk(clients, seconds, untraced)
    dump = server.command("dump")

    metrics = {
        "setup_s": common.p50(setup_times),
        "read_p50_ms": common.p50(untraced) * 1e3,
        "read_p99_ms": common.windowed_p99(untraced) * 1e3,
        "ops_per_s": common.ratio(len(untraced), wall[False]),
        "peak_rss_mb": dump["rss_mb"],
    }
    info = {
        "requests": len(untraced) + len(traced),
        "untraced_requests": len(untraced),
        "connections": CONNECTIONS,
        "sizes": size,
    }
    if trace:
        stats = SpanStats()
        stats.merge_dict(dump["spans"])
        counters = dump["counters"]
        server_ms = stats.mean_wall("http.request") * 1e3
        fresh = _fresh_connections(server.port, hot, clients[0].expected, size["fresh"], tally)
        metrics.update(
            {
                "parser.parse_query_us": stats.median_wall("bench.parse_query") * 1e6,
                "service.read_hit_us": stats.median_wall("bench.service_read") * 1e6,
                "service.read_hit_ratio": common.ratio(
                    counters.get("service_read_cache_hits", 0),
                    counters.get("service_reads_served", 0),
                ),
                "http.server_ms": server_ms,
                "http.wire_ms": common.mean(traced) * 1e3 - server_ms,
                "http.fresh_conn_ms": common.p50(fresh) * 1e3,
                "obs.trace_overhead_pct": (
                    common.ratio(
                        metrics["ops_per_s"], common.ratio(len(traced), wall[True])
                    )
                    - 1.0
                )
                * 100.0,
            }
        )
    metrics["fail_ratio"] = tally.fail_ratio
    return Result(tally, metrics, info)


def _fresh_connections(port, hot, expected, count, tally) -> List[float]:
    """Latency of a query on a brand-new connection (no keep-alive)."""
    rng = random.Random(f"http-fresh-{count}")
    out = []
    for _ in range(count):
        _, _, body = rng.choice(hot)
        t0 = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            if _timed_post(connection, body, expected[body], tally) is not None:
                out.append(time.perf_counter() - t0)
        finally:
            connection.close()
    return out
