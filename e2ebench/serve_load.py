"""The ``serve`` workload: a ``repro-hdpll serve`` daemon under seeded load.

One client process drives the daemon over a UNIX socket with two
connections (``--max-inflight 2``), closed loop: each connection sends
its next request when its previous one answers.  Client and daemon are
pinned to one CPU, so a round's time does not depend on the host
granting both of the machine's CPUs at once.

A round asks every request of the menu once: each key of ``SERVE_KEYS``
with each pin of its ``pin_menu`` (one primary input at one frame set
to one value), 348 requests of which 143 are SAT.  The seed shuffles
the menu into the round's order; a run replays that order in whole
rounds until the next round would overrun ``--seconds``.  Every answer
is checked against the oracle table and every SAT model is replayed on
the simulator.

Open-loop load (seeded Poisson arrivals at a fixed rate, and a search
for the highest rate meeting a p99 limit) is not measured: on a shared
2-core host its tails did not repeat between runs (see README.md).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from queries import SERVE_KEYS, pin_menu
from stats import median, nearest_rank, pid_peak_rss_mb, tail

HERE = os.path.dirname(os.path.abspath(__file__))

#: Socket directory, relative to the checkout root (the working
#: directory) so the socket path stays short.
RUN_DIR = ".e2ebench-run"
MAX_INFLIGHT = 2
CONNECTIONS = 2
#: Per-request guard deadline (``timeout_s``).  The slowest warm request
#: takes about 60 ms; the guard is almost two orders of magnitude above.
GUARD_S = 5.0
#: Daemon starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

Request = Tuple[str, int, str, int]


def make_requests(rng: random.Random) -> List[Request]:
    """One round: the whole request menu, in a seeded order."""
    requests = [
        (case, bound, net, value)
        for case, bound in SERVE_KEYS
        for net, value in pin_menu(case, bound)
    ]
    rng.shuffle(requests)
    return requests


class Daemon:
    """A daemon child process on a UNIX socket in :data:`RUN_DIR`."""

    def __init__(self, root: str, trace_out: Optional[str] = None):
        os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
        self.socket = os.path.join(RUN_DIR, f"d{os.getpid()}.sock")
        self.root = root
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        path = os.path.join(self.root, self.socket)
        if os.path.exists(path):
            os.unlink(path)
        command = [sys.executable, os.path.join(HERE, "daemon.py")]
        if self.trace_out is not None:
            command += ["--trace-out", self.trace_out]
        command += [
            "serve",
            "--no-tcp",
            "--unix-socket",
            self.socket,
            "--max-inflight",
            str(MAX_INFLIGHT),
        ]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE
        )
        line = self.process.stdout.readline()
        if b"listening" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        path = os.path.join(self.root, self.socket)
        if os.path.exists(path):
            os.unlink(path)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
async def _clients(socket: str):
    from repro.serve.client import ServeClient

    return [await ServeClient.open(path=socket) for _ in range(CONNECTIONS)]


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _closed_loop(socket, requests) -> Tuple[float, List[dict]]:
    """Answer ``requests`` over :data:`CONNECTIONS` lanes; returns the
    wall time and one record (request, response, latency) each."""
    loop = asyncio.get_running_loop()
    clients = await _clients(socket)
    records: List[dict] = []
    queue = list(reversed(requests))

    async def lane(client) -> None:
        while queue:
            request = queue.pop()
            case, bound, net, value = request
            start = loop.time()
            try:
                response = await client.solve(
                    case, bound, assumptions={net: value}, timeout_s=GUARD_S
                )
            except Exception as error:  # counted as a protocol error
                response = error
            records.append({"request": request, "response": response,
                            "latency": loop.time() - start})

    start = loop.time()
    try:
        await asyncio.gather(*(lane(client) for client in clients))
    finally:
        await _close(clients)
    return loop.time() - start, records


async def _ping_and_warm(socket, checker) -> None:
    """Wait for ``ping``, then build each key cold (one unpinned solve)."""
    clients = await _clients(socket)
    try:
        pong = await clients[0].ping()
        if not pong.get("ok"):
            raise RuntimeError(f"ping failed: {pong}")
        for case, bound in SERVE_KEYS:
            start = time.perf_counter()
            response = await clients[0].solve(case, bound, timeout_s=60.0)
            _check(checker, response, (case, bound, None, None),
                   time.perf_counter() - start, 60.0)
    finally:
        await _close(clients)


async def _daemon_stats(socket) -> dict:
    clients = await _clients(socket)
    try:
        return await clients[0].stats()
    finally:
        await _close(clients)


def _check(checker, response, request, seconds: float, guard_s: float):
    """Count one answer; returns its failure kind, if any."""
    case, bound, net, value = request
    if isinstance(response, BaseException) or not response.get("ok"):
        checker.attempted += 1
        checker.failures["protocol_error"] += 1
        return "protocol_error"
    pin = None if net is None else (net, value)
    return checker.check(case, bound, response["status"],
                         response.get("model"), seconds, guard_s, pin=pin)


def _round(socket, checker, requests) -> Tuple[float, List[dict]]:
    """One closed-loop round; checks every record and returns the round's
    wall time and the records that carry an answer.  Late and wrong
    answers stay in (their failures are counted by the checker); only
    protocol errors, which have no answer, are left out."""
    wall, records = asyncio.run(_closed_loop(socket, requests))
    answered = []
    for record in records:
        kind = _check(checker, record["response"], record["request"],
                      record["latency"], GUARD_S)
        if kind != "protocol_error":
            answered.append(record)
    return wall, answered


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _start(root: str, checker, trace_out: Optional[str]) -> Tuple[Daemon, float]:
    daemon = Daemon(root, trace_out)
    start = time.perf_counter()
    daemon.start()
    try:
        asyncio.run(_ping_and_warm(daemon.socket, checker))
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def run(root: str, seed: int, seconds: float, trace: bool, checker) -> dict:
    """Run the serve workload; returns its metrics (and spans if traced)."""
    # The daemon inherits this process's CPU set.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    requests = make_requests(random.Random(seed))
    setups = []
    daemon = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon, setup = _start(root, checker, None)
        setups.append(setup)
    try:
        if trace:
            return _run_traced(root, daemon, requests, checker)
        return {"metrics": _measure(daemon, requests, checker, seconds, setups)}
    finally:
        daemon.stop()


def _measure(daemon, requests, checker, seconds, setups) -> Dict[str, float]:
    walls: List[float] = []
    latencies: List[float] = []
    daemon_wall: List[float] = []
    begin = time.perf_counter()
    while True:
        wall, answered = _round(daemon.socket, checker, requests)
        walls.append(wall)
        latencies += [record["latency"] for record in answered]
        daemon_wall += [record["response"]["wall_s"] for record in answered]
        if time.perf_counter() - begin + max(walls) > seconds:
            break
    wall_s = median(walls)
    return {
        "setup_s": median(setups),
        "wall_s": wall_s,
        "query_p50_s": nearest_rank(daemon_wall, 0.50),
        "query_p95_s": tail(daemon_wall, 0.95),
        "serve_p50_s": nearest_rank(latencies, 0.50),
        "serve_p99_s": tail(latencies, 0.99),
        "serve_max_rps": len(requests) / wall_s,
        "peak_rss_mb": daemon.peak_rss_mb(),
    }


def _run_traced(root, daemon, requests, checker) -> dict:
    """One round on the untraced daemon, then one on a traced daemon;
    per-layer metrics come from the traced daemon and its responses."""
    import layers

    _, plain = _round(daemon.socket, checker, requests)
    daemon.stop()
    trace_out = os.path.join(RUN_DIR, f"trace{os.getpid()}.json")
    traced_daemon, _ = _start(root, checker, trace_out)
    try:
        _, answered = _round(traced_daemon.socket, checker, requests)
        stats = asyncio.run(_daemon_stats(traced_daemon.socket))
    finally:
        traced_daemon.stop()
    path = os.path.join(root, trace_out)
    with open(path) as handle:
        dump = json.load(handle)
    os.unlink(path)
    responses = [record["response"] for record in answered]
    metrics = layers.summarize(dump)
    metrics.update(
        {
            "serve.queue_s": median([r["queue_s"] for r in responses]),
            "serve.solve_s": median([r["solve_s"] for r in responses]),
            "serve.overhead_s": median(
                [rec["latency"] - rec["response"]["wall_s"] for rec in answered]
            ),
            "serve.cache_hits": stats["cache"]["hits"],
            "serve.cache_misses": stats["cache"]["misses"],
            "trace.overhead_s": sum(r["solve_s"] for r in responses)
            - sum(rec["response"]["solve_s"] for rec in plain),
        }
    )
    return {"metrics": metrics, "spans": dump}
