"""Epoch replication: multi-process read scaling, exactness, staleness.

Three claims of :mod:`repro.service.net.replication` are measured:

* **Replica processes scale past the GIL.**  A single service process
  caps at roughly one core of evaluation no matter how many reader
  threads it runs; replica *processes* each bring their own interpreter.
  The hard assertion: aggregate reads/sec across **4 replica processes**
  (each a real subprocess following the writer over TCP) is at least
  **2x** one process serving the same total load on the largest
  instance.  The assertion needs real cores to mean anything, so it is
  gated on ≥3 usable CPUs (CI runners have 4; a 1-core container still
  runs the correctness and staleness checks below).
* **Replicas are exact, not approximately fresh.**  After catching up,
  every replica's answers equal the perfect-model oracle
  (``full_fixpoint_answers``) over the writer's facts — at the replica's
  applied revision, which must equal the writer's.
* **Staleness is bounded by the publish cadence.**  While the writer
  publishes a delta every ``PUBLISH_INTERVAL_S``, a background-pumped
  replica's per-record apply staleness stays within the interval plus
  scheduling slack — replication lag is operational, never unbounded.

Counters (frames published, snapshots served, records applied) are
attached via ``benchmark.extra_info``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.obs.metrics import MetricsRegistry
from repro.query import full_fixpoint_answers
from repro.service import DatalogService
from repro.service.net import (
    LocalReplicaLink,
    Replica,
    ReplicationPublisher,
    ReplicationServer,
)

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

#: (number of disjoint chains, chain length) — mirrors the serving bench.
SIZES = [(8, 16), (24, 16), (72, 16)]

REPLICA_PROCESSES = 4
REQUESTS_TOTAL = 4000

PUBLISH_INTERVAL_S = 0.05
PUBLISH_ROUNDS = 12
#: generous scheduling slack on top of the publish interval (CI runners)
STALENESS_SLACK_S = 2.0

WORKER = Path(__file__).parent.parent / "tests" / "replica_worker.py"

_SCALING_CORES = 3


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def chain_atoms(chains: int, length: int) -> list[Atom]:
    return [
        Atom(LINK, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
        for c in range(chains)
        for i in range(length)
    ]


def selective_query(chain: int) -> ConjunctiveQuery:
    y = Variable("Y")
    return ConjunctiveQuery(
        (Atom(REACHABLE, (Constant(f"n{chain}_0"), y)).positive(),), (y,)
    )


def query_text(chain: int) -> str:
    return f"?(Y) :- reachable(n{chain}_0, Y)"


def spawn_worker(address) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    env["PYTHONFAULTHANDLER"] = "1"
    return subprocess.Popen(
        [sys.executable, str(WORKER), address[0], str(address[1])],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )


def ask(worker: subprocess.Popen, command: dict) -> dict:
    worker.stdin.write(json.dumps(command) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    assert line, "replica worker died mid-command"
    return json.loads(line)


def oracle_first_column(facts, query) -> list[str]:
    return sorted(
        str(row[0]) for row in full_fixpoint_answers(facts, RULES, query)
    )


@pytest.mark.parametrize("chains,length", SIZES)
def test_replica_exactness_and_catchup(benchmark, chains, length):
    """A TCP replica process catches up and answers exactly the oracle."""
    service = DatalogService(
        chain_atoms(chains, length), RULES, metrics=MetricsRegistry()
    )
    publisher = ReplicationPublisher(service, metrics=MetricsRegistry())
    server = ReplicationServer(publisher)
    worker = None
    try:
        # A couple of post-attach deltas so catch-up is snapshot + stream.
        service.add_facts(
            [Atom(LINK, (Constant("x0"), Constant(f"n0_0")))]
        ).result()
        service.add_facts(
            [Atom(LINK, (Constant("x1"), Constant("x0")))]
        ).result()

        def bootstrap_and_verify() -> None:
            process = spawn_worker(server.address)
            try:
                state = ask(
                    process, {"op": "wait", "revision": service.revision}
                )
                assert state["ok"]
                assert state["revision"] == service.revision
                assert state["snapshots"] == 1  # resynced exactly once
                probe = ask(
                    process, {"op": "probe", "query": query_text(0)}
                )
                assert probe["revision"] == service.revision
                assert probe["answers"] == oracle_first_column(
                    service.facts, selective_query(0)
                )
                ask(process, {"op": "exit"})
                process.wait(timeout=30)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=30)

        benchmark(bootstrap_and_verify)
        benchmark.extra_info.update(
            facts=len(service.facts), revision=service.revision
        )
    finally:
        server.close()
        publisher.close()
        service.close()


def test_multiprocess_read_scaling_4x_vs_1x(benchmark):
    """Acceptance criterion: ≥2x aggregate reads/sec with 4 replica
    processes vs one process serving the whole load (largest instance).

    Requires real CPUs to be meaningful — on fewer than 3 usable cores
    the processes time-slice one core and measure the scheduler, not the
    architecture, so the test skips (CI runs it on 4-vCPU runners).
    """
    cores = usable_cores()
    if cores < _SCALING_CORES:
        pytest.skip(
            f"{cores} usable core(s): multi-process scaling needs "
            f">= {_SCALING_CORES}"
        )
    chains, length = SIZES[-1]
    service = DatalogService(
        chain_atoms(chains, length), RULES, metrics=MetricsRegistry()
    )
    publisher = ReplicationPublisher(service, metrics=MetricsRegistry())
    server = ReplicationServer(publisher)
    texts = [query_text(c) for c in range(chains)]
    workers: list[subprocess.Popen] = []
    try:
        service.add_facts(
            [Atom(LINK, (Constant("w0"), Constant("n0_0")))]
        ).result()

        # --- baseline: ONE replica process serves the whole load -------
        baseline = spawn_worker(server.address)
        workers.append(baseline)
        assert ask(
            baseline, {"op": "wait", "revision": service.revision}
        )["ok"]
        ask(  # warm the plan/answer caches out of the measurement
            baseline,
            {"op": "bench", "queries": texts, "requests": len(texts)},
        )
        single = ask(
            baseline,
            {"op": "bench", "queries": texts, "requests": REQUESTS_TOTAL},
        )
        single_rate = REQUESTS_TOTAL / single["elapsed"]

        # --- fleet: FOUR replica processes split the same load ---------
        fleet = [baseline]
        for _ in range(REPLICA_PROCESSES - 1):
            process = spawn_worker(server.address)
            workers.append(process)
            fleet.append(process)
        for process in fleet:
            assert ask(
                process, {"op": "wait", "revision": service.revision}
            )["ok"]
            ask(
                process,
                {"op": "bench", "queries": texts, "requests": len(texts)},
            )
        share = REQUESTS_TOTAL // REPLICA_PROCESSES

        def fleet_round() -> float:
            # Dispatch to all, then collect: the loops run concurrently,
            # and the aggregate rate is bounded by the slowest member.
            for process in fleet:
                process.stdin.write(
                    json.dumps(
                        {
                            "op": "bench",
                            "queries": texts,
                            "requests": share,
                        }
                    )
                    + "\n"
                )
                process.stdin.flush()
            elapsed = 0.0
            for process in fleet:
                line = process.stdout.readline()
                assert line, "replica worker died mid-benchmark"
                elapsed = max(elapsed, json.loads(line)["elapsed"])
            return elapsed

        fleet_elapsed = benchmark(fleet_round)
        fleet_rate = (share * REPLICA_PROCESSES) / fleet_elapsed
        speedup = fleet_rate / single_rate
        benchmark.extra_info.update(
            cores=cores,
            single_rate_rps=round(single_rate),
            fleet_rate_rps=round(fleet_rate),
            speedup=round(speedup, 2),
        )
        # The hard bound: 4 processes on >= 3 cores must at least double
        # aggregate throughput (locally ~3-4x; CI headroom for noise).
        assert speedup >= 2.0, (
            f"4 replica processes served {fleet_rate:.0f} reads/s vs "
            f"{single_rate:.0f} single-process ({speedup:.2f}x < 2x)"
        )
        for process in fleet:
            ask(process, {"op": "exit"})
            process.wait(timeout=30)
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        server.close()
        publisher.close()
        service.close()


def test_staleness_bounded_by_publish_interval(benchmark):
    """While the writer publishes every PUBLISH_INTERVAL_S, a pumped
    replica's apply staleness stays within interval + slack."""
    chains, length = SIZES[0]
    service = DatalogService(
        chain_atoms(chains, length), RULES, metrics=MetricsRegistry()
    )
    publisher = ReplicationPublisher(service, metrics=MetricsRegistry())
    registry = MetricsRegistry()
    replica = Replica(RULES, metrics=registry)
    linkage = LocalReplicaLink(publisher, replica).start(
        poll_interval=PUBLISH_INTERVAL_S / 5
    )
    try:
        linkage.sync()

        def publish_round() -> float:
            worst = 0.0
            for round_index in range(PUBLISH_ROUNDS):
                service.add_facts(
                    [
                        Atom(
                            LINK,
                            (
                                Constant(f"s{round_index}"),
                                Constant(f"s{round_index + 1}"),
                            ),
                        )
                    ]
                ).result()
                time.sleep(PUBLISH_INTERVAL_S)
                worst = max(worst, replica.last_staleness)
            deadline = time.monotonic() + 30
            while (
                replica.applied_revision != service.revision
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            return worst

        worst = benchmark.pedantic(publish_round, rounds=1, iterations=1)
        assert replica.applied_revision == service.revision
        assert replica.facts == service.facts
        assert worst <= PUBLISH_INTERVAL_S + STALENESS_SLACK_S, (
            f"worst apply staleness {worst:.3f}s exceeds publish interval "
            f"{PUBLISH_INTERVAL_S}s + slack {STALENESS_SLACK_S}s"
        )
        snapshot = registry.snapshot()
        benchmark.extra_info.update(
            worst_staleness_s=round(worst, 4),
            records_applied=snapshot.counters["replica_records_applied"],
        )
    finally:
        linkage.close()
        replica.close()
        publisher.close()
        service.close()
