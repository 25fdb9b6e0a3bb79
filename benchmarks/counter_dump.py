"""Dump the metrics registry after one fixed workload that touches every
component that counts, to compare counter keys and values across commits.

Run from a checkout root::

    PYTHONPATH=src python benchmarks/counter_dump.py OUT.json

It prints the number of counters and the sha256 of the dump, then the one
counter left out of the dump.  One private registry is installed as the
global one too, so the chase reports there, and it is dumped while every
object is still alive.  Counters are dumped as they are; of the gauges,
only the two that are not sampled from a clock or a live queue.  Older
commits kept those two as counters, so a counter of either name is reported
as a gauge, and both as floats.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

from repro import parse_database, parse_program, parse_query
from repro.chase import restricted_chase
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.query import QuerySession
from repro.service import DatalogService
from repro.service.net import LocalReplicaLink, Replica, ReplicationPublisher

RULES = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    path(X, Y), edge(Y, Z) -> path(X, Z)
    """
)
CHASE_RULES = parse_program(
    """
    edge(X, Y) -> exists Z. link(Y, Z)
    link(X, Y) -> node(X)
    """
)
DATABASE = parse_database("edge(a, b). edge(b, c). edge(c, d).")
QUERY = parse_query("?(Y) :- path(a, Y)")
OTHER = parse_query("?(Y) :- path(b, Y)")
GAUGES = ("service_queue_high_water", "service_symbols_interned")
#: Each replication delta frame carries the writer's ``time.monotonic()`` as
#: a JSON float, whose printed length varies from run to run, so the bytes
#: sent vary by a byte or two with the same workload.  This counter is
#: printed beside the digest, not dumped.
UNSTABLE = "service_replication_bytes"


def edges(text: str):
    return parse_database(text).atoms


def dump(registry: MetricsRegistry) -> dict:
    snapshot = registry.snapshot()
    counters = dict(snapshot.counters)
    gauges = {
        name: float(counters.pop(name) if name in counters else snapshot.gauges[name])
        for name in GAUGES
    }
    return {"counters": dict(sorted(counters.items())), "gauges": gauges}


def main(out: str, store: str) -> None:
    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    opened = []
    try:
        session = QuerySession(DATABASE, RULES, metrics=registry)
        session.answers(QUERY)  # miss
        session.answers(QUERY)  # hit
        session.add_facts(edges("edge(d, e)."))
        session.remove_facts(edges("edge(b, c)."))

        service = DatalogService(
            DATABASE, RULES, metrics=registry, durability=store
        )
        opened.append(service)
        service.answers(QUERY)  # reader miss
        service.add_facts(edges("edge(d, e).")).result(10)
        service.answers(QUERY)  # hit, warmed by the writer
        service.answers(QUERY)  # hit
        subscription = service.subscribe(OTHER)
        publisher = ReplicationPublisher(service, metrics=registry)
        replica = Replica(RULES, metrics=registry)
        link = LocalReplicaLink(publisher, replica)
        opened.extend((publisher, replica, link))
        link.sync()
        service.add_facts(edges("edge(e, f).")).result(10)
        link.sync()
        replica.answers(QUERY)
        service.checkpoint(10)

        chased = restricted_chase(DATABASE, CHASE_RULES)

        # session, subscription and chased are still referenced here.
        data = dump(registry)
        unstable = data["counters"].pop(UNSTABLE)
        text = json.dumps(data, indent=1, sort_keys=True)
        with open(out, "w") as handle:
            handle.write(text + "\n")
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(len(data["counters"]) + 1, "counters", digest)
        print(UNSTABLE, unstable, "(not in the digest)")
    finally:
        for item in reversed(opened):
            item.close()
        set_global_registry(previous)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        main(sys.argv[1], directory)
