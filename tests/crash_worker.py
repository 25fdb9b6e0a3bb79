"""Subprocess driver for the crash-recovery battery.

Run as ``python crash_worker.py <store> <seed> <batches> <checkpoint_every>``
with ``PYTHONPATH`` pointing at ``src``.  Drives a durable
:class:`~repro.service.DatalogService` through a deterministic, seeded
sequence of add/remove batches, *synchronously*: each batch's future is
awaited, and only then is the acknowledgement appended (and flushed) to
``<store>/../acks.txt`` as a ``<index>:<count>`` line.  The harness arms a
crash point via ``REPRO_CRASH_POINT``, SIGKILLs land mid-run, and the test
reconciles the recovered store against an oracle that replays exactly the
acknowledged prefix — see ``tests/test_crash_recovery.py``.

``make_batches`` is imported by the test for the oracle, so the batch
sequence is the single source of truth shared by both processes.
"""

import random
import sys
from pathlib import Path

from repro.core.atoms import Atom, Literal, Predicate
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.lp.programs import NormalRule
from repro.service import DatalogService, DurabilityConfig

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)
NODES = 10


def rules():
    x, y, z = Variable("X"), Variable("Y"), Variable("Z")
    return (
        NormalRule(
            Atom(REACHABLE, (x, y)), (Literal(Atom(LINK, (x, y))),)
        ),
        NormalRule(
            Atom(REACHABLE, (x, y)),
            (Literal(Atom(LINK, (x, z))), Literal(Atom(REACHABLE, (z, y)))),
        ),
    )


def probe_query():
    y = Variable("Y")
    return ConjunctiveQuery(
        (Literal(Atom(REACHABLE, (Constant("v0"), y))),), (y,)
    )


def edge(i, j):
    return Atom(LINK, (Constant(f"v{i}"), Constant(f"v{j}")))


def make_batches(seed, count):
    """The deterministic batch sequence: one (kind, atoms) op per batch.

    Adds dominate so the graph grows, removes hit previously likely-added
    edges so double-application of a replayed batch would change counts and
    facts detectably; atoms repeat across batches on purpose.
    """
    rng = random.Random(seed)
    batches = []
    for _ in range(count):
        kind = "add" if rng.random() < 0.65 else "remove"
        atoms = tuple(
            edge(rng.randrange(NODES), rng.randrange(NODES))
            for _ in range(rng.randint(1, 4))
        )
        batches.append((kind, atoms))
    return batches


def main(argv):
    store, seed, count, every = (
        Path(argv[1]),
        int(argv[2]),
        int(argv[3]),
        int(argv[4]),
    )
    acks = store.parent / "acks.txt"
    service = DatalogService(
        (),
        rules(),
        durability=DurabilityConfig(path=store, checkpoint_every=every),
    )
    query = probe_query()
    with open(acks, "a", encoding="utf-8") as out:
        for index, (kind, atoms) in enumerate(make_batches(seed, count)):
            if kind == "add":
                future = service.add_facts(atoms)
            else:
                future = service.remove_facts(atoms)
            applied = future.result(timeout=30)
            out.write(f"{index}:{applied}\n")
            out.flush()
            if index % 3 == 0:
                # Read the probe so the writer keeps a maintained view
                # and repairs it under the batches that follow.
                service.answers(query)
        service.close()
        out.write("done\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
