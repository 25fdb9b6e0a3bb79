"""Subprocess replica for the multi-process replication battery.

Connects a :class:`~repro.service.net.Replica` to the writer's TCP
replication endpoint (``argv``: host, port) and then serves line-JSON
commands on stdin/stdout::

    {"op": "wait", "revision": R}  block until the replica applied >= R
    {"op": "query"}                the running example's answers
    {"op": "probe", "query": text} answers + revision for an ad-hoc query
    {"op": "bench", "queries": [text, ...], "requests": N}
                                   serve N reads round-robin; reply with
                                   elapsed wall seconds
    {"op": "facts"}                size of the replica's fact base
    {"op": "stats"}                apply/skip/snapshot counters
    {"op": "exit"}                 clean shutdown

The test harness SIGKILLs this process mid-stream and restarts it to
prove that a crashed replica resynchronises from a snapshot exactly once
and never double-applies a delta; the replication benchmark uses the
``bench`` op to measure aggregate multi-process read throughput.
"""

from __future__ import annotations

import json
import sys
import time

from repro import parse_program, parse_query
from repro.obs.metrics import MetricsRegistry
from repro.service.net import Replica, ReplicationClient

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERY = parse_query("?(Y) :- reachable(a, Y)")


def state(replica: Replica) -> dict:
    counters = replica.stats().counters
    return {
        "revision": replica.applied_revision,
        "applied": counters["replica_records_applied"],
        "skipped": counters["replica_records_skipped"],
        "snapshots": counters["replica_snapshots_applied"],
    }


def main() -> int:
    host, port = sys.argv[1], int(sys.argv[2])
    replica = Replica(RULES, metrics=MetricsRegistry())
    client = ReplicationClient((host, port), replica)
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "wait":
            target = int(command["revision"])
            ok = client.wait_for_revision(target, timeout=60)
            response = state(replica)
            response["ok"] = ok
        elif op == "query":
            revision, answers = replica.read(QUERY)
            response = {
                "revision": revision,
                "answers": sorted(str(row[0]) for row in answers),
            }
        elif op == "probe":
            probe = parse_query(command["query"])
            revision, answers = replica.read(probe)
            response = {
                "revision": revision,
                "answers": sorted(str(row[0]) for row in answers),
                "staleness": replica.last_staleness,
            }
        elif op == "bench":
            queries = [parse_query(text) for text in command["queries"]]
            requests = int(command["requests"])
            start = time.perf_counter()
            for index in range(requests):
                answers = replica.answers(queries[index % len(queries)])
                assert answers
            elapsed = time.perf_counter() - start
            response = {"elapsed": elapsed, "requests": requests}
        elif op == "facts":
            response = {"count": len(replica.facts)}
        elif op == "stats":
            response = state(replica)
        elif op == "exit":
            sys.stdout.write(json.dumps({"ok": True}) + "\n")
            sys.stdout.flush()
            break
        else:
            response = {"error": f"unknown op {op!r}"}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()
    client.close()
    replica.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
