"""Recovery-path benchmark: reopening a durable store replays O(log tail).

A checkpoint holds the base facts, the high-water batch id and the revision
(see ``docs/durability.md``); nothing derived is stored.  Reopening a store
loads the newest checkpoint and replays, through ordinary ``apply_batch``
calls, only the logged batches past its batch id, so the cadence
(``checkpoint_every``) bounds recovery work however long the history grows.

The store holds the largest ``bench_service_throughput`` instance (72 chains
x 16 nodes, 96 batches of 12 facts) written with a cadence of 7 batches.
The benchmark times a reopen and asserts that the replayed tail is shorter
than the cadence and a small share of the history.

Timings and the recovery counters land in ``BENCH_results.json`` via
``benchmark.extra_info``.
"""

from __future__ import annotations

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant
from repro.obs.metrics import MetricsRegistry
from repro.service import DatalogService, DurabilityConfig

LINK = Predicate("link", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

#: The largest bench_service_throughput instance.
CHAINS, LENGTH = 72, 16
#: Facts per acknowledged batch while building the store.
BATCH_SIZE = 12


def chain_atoms() -> list[Atom]:
    return [
        Atom(LINK, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
        for c in range(CHAINS)
        for i in range(LENGTH)
    ]


def test_checkpoint_bounds_tail_replay(benchmark, tmp_path):
    """Recovery work is O(log tail), not O(history): with a checkpoint
    cadence, reopening replays only the batches after the last checkpoint."""
    store = tmp_path / "store"
    atoms = chain_atoms()
    # A cadence that does not divide the batch count, so recovery always
    # replays a real (but bounded) tail.
    config = DurabilityConfig(
        path=store, checkpoint_every=7, checkpoint_on_close=False
    )
    with DatalogService(
        (), RULES, durability=config, metrics=MetricsRegistry()
    ) as service:
        for i in range(0, len(atoms), BATCH_SIZE):
            service.add_facts(atoms[i : i + BATCH_SIZE]).result(30)
    total_batches = (len(atoms) + BATCH_SIZE - 1) // BATCH_SIZE

    def reopen():
        registry = MetricsRegistry()
        with DatalogService(
            (),
            RULES,
            durability=DurabilityConfig(path=store, checkpoint_on_close=False),
            metrics=registry,
        ) as service:
            assert len(service.facts) >= len(atoms)
        return registry.counter("service_recovered_batches").value

    replayed = benchmark(reopen)
    benchmark.extra_info.update(
        total_batches=total_batches, tail_replayed=replayed
    )
    assert 0 < replayed < 7, (
        f"cadence-7 checkpointing left a {replayed}-batch tail"
    )
    assert replayed < total_batches / 4, "tail replay is not O(tail)"
