"""``durable-mix``: acknowledged durable writes beside reads on one service.

One client drives an in-process ``DatalogService(durability=<dir>)`` with
the default flush policy (one fsync per drain, a checkpoint every 64 logged
batches) and, in rounds of 31 remove/add pairs:

* removes a random present chain link and adds back a random removed one,
  waiting for each acknowledgement (two links are always missing, so the
  store's final state records which writes were acknowledged);
* after every acknowledgement drains the iterator-mode standing
  subscriptions and checks each one's notification fold, then reads a few
  queries of a fixed hot set that fits the service's caches;
* every few pairs reads a replica before and after ``LocalReplicaLink.sync``.

Host probes run between rounds, and the timed operations are reported at
reference speed (see ``common.HostSpeed``).  Set-ups, writes, folds and
replica operations are timed with :func:`common.since`, which leaves out
the time the process's threads spent queued for a processor; hot reads
take a few microseconds and use the plain wall clock.  After the timed
rounds it closes the service and reopens the store with
``DatalogService.open`` a few times, checking every acknowledged write.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro import DatalogService, MetricsRegistry, QueryPlan, Tracer, use_tracer
from repro.query.session import full_fixpoint_answers
from repro.service.durability import CheckpointStore, FactLog
from repro.service.net.replication import (
    LocalReplicaLink,
    Replica,
    ReplicationPublisher,
)

import common
from common import Chains, Result, SpanStats, Tally

#: 31 pairs (62 writes) per round, against a checkpoint every 64 logged
#: batches, so the cadence checkpoint lands on a different write of each round
#: and the write after it waits for it, inside the timed operations
SIZE = dict(chains=16, length=24, hot_chains=8, pairs=31, reads=32, sync_every=4)
SMOKE = dict(chains=4, length=8, hot_chains=2, pairs=4, reads=2, sync_every=2)
#: about one node in this many has a shortcut link two positions ahead
SHORTCUT_EVERY = 4
#: links missing at any time (one removed, then another added back, per pair)
MISSING = 2
SUBSCRIPTIONS = 4
#: host probes between two rounds (see ``common.HostSpeed``)
ROUND_PROBES = common.PROBE_NEIGHBOURS + 1
REOPENS = 3
SETUPS = 5

LAYERS = [
    "maintenance.view_repair_ms",
    "maintenance.overdeletions_per_write",
    "maintenance.rederivations_per_write",
    "session.mutate_ms",
    "session.warm_miss_ms",
    "service.read_hit_us",
    "service.read_miss_ms",
    "service.read_hit_ratio",
    "service.queue_wait_ms",
    "service.drain_ms",
    "service.publish_ms",
    "service.epochs_per_write",
    "durability.wal_append_us",
    "durability.wal_sync_ms",
    "durability.wal_bytes_per_write",
    "durability.syncs_per_write",
    "durability.checkpoint_ms",
    "durability.checkpoints",
    "durability.recover_ms",
    "subscriptions.notify_ms",
    "subscriptions.notifications_per_write",
    "replication.publish_us",
    "replication.apply_ms",
    "replication.sync_ms",
    "replication.lag_revisions",
    "write_p50_ms",
    "write_p99_ms",
    "recover_s",
    "disk_bytes_per_write",
    "obs.trace_overhead_pct",
    "fail_ratio",
]


class Store:
    """One durable service with its subscriptions and replica."""

    def __init__(self, chains: Chains, removed: Set, path: Path, hot) -> None:
        self.path = path
        self.registry = MetricsRegistry()
        self.service = DatalogService(
            chains.atoms(removed),
            common.rules(),
            metrics=self.registry,
            durability=str(path),
        )
        self.hot = [(pred, edge, common.query(pred, edge)) for pred, edge in hot]
        stride = max(1, len(self.hot) // SUBSCRIPTIONS)
        self.subscriptions = []
        for pred, edge, query in self.hot[::stride][:SUBSCRIPTIONS]:
            subscription = self.service.subscribe(query, timeout=60)
            self.subscriptions.append(
                [subscription, pred, edge, subscription.snapshot_answers]
            )
        self.publisher = ReplicationPublisher(self.service, metrics=self.registry)
        self.replica = Replica(common.rules(), metrics=MetricsRegistry())
        self.link = LocalReplicaLink(self.publisher, self.replica)
        self.link.sync()
        # Warm-up: a first pass misses and records the hot set, the flush
        # lets the writer warm it, and from then on hot reads are hits.
        for _, _, query in self.hot:
            self.service.answers(query)
            self.replica.read(query)
        self.service.flush(60)
        for _, _, query in self.hot:
            self.service.answers(query)

    def close(self) -> None:
        self.link.close()
        self.publisher.close()
        self.replica.close()
        self.service.close()


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    size = SMOKE if smoke else SIZE
    tally = Tally()
    rng = random.Random(f"durable-mix-{seed}")
    chains = Chains(size["chains"], size["length"], seed, shortcut_every=SHORTCUT_EVERY)
    links = chains.links()
    hot = common.hot_set(size["hot_chains"], size["length"])
    common.WORK.mkdir(parents=True, exist_ok=True)
    setup_times = []
    paths = [common.WORK / f"durable-{os.getpid()}-{k}" for k in range(SETUPS)]
    try:
        store = None
        for path in paths:
            if store is not None:
                store.close()
                shutil.rmtree(store.path)
                gc.collect()
            removed = set(random.Random(f"missing-{seed}").sample(links, MISSING))
            probes = common.probe_times()
            started = common.start()
            store = Store(chains, removed, path, hot)
            took = common.since(started)
            probes += common.probe_times()
            setup_times.append(common.at_reference_speed(took, probes))
        loop = Loop(store, chains, size, rng, removed, tally)
        return loop.run(seconds, trace, setup_times)
    finally:
        for path in paths:
            shutil.rmtree(path, ignore_errors=True)


class Loop:
    """The closed loop of one client, with its checks and its samples."""

    def __init__(self, store, chains, size, rng, removed, tally) -> None:
        self.store = store
        self.chains = chains
        self.size = size
        self.rng = rng
        self.removed = removed
        self.tally = tally
        self.links = chains.links()
        #: revision -> links missing at it (for checking stale replica reads)
        self.history: Dict[int, frozenset] = {
            store.service.revision: frozenset(removed)
        }
        self.stats = SpanStats()
        self.speed = common.HostSpeed()
        #: the probes that scale the current round's operations
        self.mark = 0
        self.lags: List[int] = []
        self.syncs: List[float] = []

    # ------------------------------------------------------------ the loop
    def run(self, seconds: float, trace: bool, setup_times) -> Result:
        store, service = self.store, self.store.service
        tracer = Tracer(capacity=1, sinks=[self.stats])
        checkpoint_bytes: List[int] = []
        samples = {flag: _Samples() for flag in (False, True)}
        patches = (
            (FactLog, "append", common.timer("bench.wal_append")),
            (FactLog, "sync", common.timer("bench.wal_sync")),
            (CheckpointStore, "write", _sized(checkpoint_bytes)),
            (QueryPlan, "execute_on", common.forward_tracer),
        )
        before = store.registry.snapshot()
        rounds = 0
        # Probes go between rounds, after the barrier, so no writer work
        # (a checkpoint, say) competes with them: a round is scaled by the
        # probes just before it and just after it.
        self.mark = self.speed.probe(ROUND_PROBES)
        with common.patched(*(patches if trace else ())):
            while (
                samples[False].busy + samples[True].busy < seconds
                or rounds < (2 if trace else 1)
            ):
                tracing = trace and rounds % 2 == 1
                bucket = samples[tracing]
                with use_tracer(tracer) if tracing else nullcontext():
                    self._round(bucket, tracing)
                    service.flush(60)
                self.mark = self.speed.probe(ROUND_PROBES)
                rounds += 1
                self._oracle_check(rounds)
            delta = store.registry.snapshot().diff(before)
        peak = common.peak_rss_mb()
        recover_times, recover_stats = self._reopen(trace)

        plain, traced = samples[False], samples[True]
        speed = self.speed
        reads, writes = speed.scaled(plain.reads), speed.scaled(plain.writes)
        metrics = {
            "setup_s": common.p50(setup_times),
            "read_p50_ms": common.p50(reads) * 1e3,
            "read_p99_ms": common.windowed_p99(reads) * 1e3,
            "ops_per_s": plain.rate(speed),
            "peak_rss_mb": peak,
            "write_p50_ms": common.p50(writes) * 1e3,
            "write_p99_ms": common.windowed_p99(writes) * 1e3,
            "recover_s": common.p50(recover_times),
        }
        if trace:
            metrics.update(
                self._layers(delta, plain, traced, checkpoint_bytes)
            )
            metrics["durability.recover_ms"] = (
                recover_stats.mean_wall("service.recover") * 1e3
            )
            metrics["obs.trace_overhead_pct"] = (
                common.ratio(metrics["ops_per_s"], traced.rate(speed))
                - 1.0
            ) * 100.0
        metrics["fail_ratio"] = self.tally.fail_ratio
        info = {
            "rounds": rounds,
            "writes": len(plain.writes) + len(traced.writes),
            "untraced_writes": len(plain.writes),
            "untraced_reads": len(plain.reads),
            "measured_write_p50_ms": common.p50([t for t, _ in plain.writes]) * 1e3,
            "probe_p50_ms": common.p50(speed.times) * 1e3,
            "recover_s": recover_times,
            "sizes": self.size,
        }
        return Result(self.tally, metrics, info)

    def _round(self, bucket: "_Samples", tracing: bool) -> None:
        size = self.size
        for pair in range(size["pairs"]):
            victim = self.rng.choice([e for e in self.links if e not in self.removed])
            self._write("remove", victim, bucket, tracing)
            back = self.rng.choice(sorted(self.removed - {victim}))
            self._write("add", back, bucket, tracing)
            if pair % size["sync_every"] == size["sync_every"] - 1:
                self._replicate(bucket, tracing)

    # ---------------------------------------------------------------- ops
    def _write(self, kind: str, edge, bucket: "_Samples", tracing: bool) -> None:
        service, tally = self.store.service, self.tally
        atom = common.link_atom(edge)
        mark = self.mark
        t0 = common.start()
        try:
            future = (
                service.remove_facts([atom])
                if kind == "remove"
                else service.add_facts([atom])
            )
            count = future.result(60)
        except Exception as error:  # counted, the run goes on
            bucket.add(common.since(t0), mark, op=False)
            tally.error(f"{kind} {edge}", error)
            return
        took = common.since(t0)
        bucket.add(took, mark)
        bucket.writes.append((took, mark))
        tally.check(count == 1, f"{kind} {edge} acknowledged {count} facts")
        if kind == "remove":
            self.removed.add(edge)
        else:
            self.removed.discard(edge)
        self.history[service.revision] = frozenset(self.removed)

        # Fan-out happens before the acknowledgement, so every notification
        # of this write is already queued.
        t0 = common.start()
        for entry in self.store.subscriptions:
            subscription = entry[0]
            while subscription.pending():
                entry[3] = subscription.get(0).apply(entry[3])
        bucket.add(common.since(t0), mark, op=False)
        for _, pred, sub_edge, state in self.store.subscriptions:
            tally.check(
                common.names(state) == self.chains.expected(pred, sub_edge, self.removed),
                f"subscription fold of {pred}{sub_edge} at {service.revision}",
            )

        for _ in range(self.size["reads"]):
            pred, hot_edge, query = self.rng.choice(self.store.hot)
            t0 = time.perf_counter()
            try:
                answers = service.answers(query)
            except Exception as error:
                tally.error(f"read {pred}{hot_edge}", error)
                continue
            took = time.perf_counter() - t0
            bucket.add(took, mark)
            bucket.reads.append((took, mark))
            if tracing and self.stats.last_read() == "hit":
                bucket.hits.append(took)
            tally.check(
                common.names(answers) == self.chains.expected(pred, hot_edge, self.removed),
                f"hot read {pred}{hot_edge}",
            )

    def _replicate(self, bucket: "_Samples", tracing: bool) -> None:
        store, tally, mark = self.store, self.tally, self.mark
        pred, edge, query = self.rng.choice(store.hot)
        t0 = common.start()
        revision, answers = store.replica.read(query)
        bucket.add(common.since(t0), mark)
        self.lags.append(store.service.revision - revision)
        missing = self.history.get(revision)
        tally.check(
            missing is not None
            and common.names(answers) == self.chains.expected(pred, edge, missing),
            f"stale replica read {pred}{edge} at {revision}",
        )
        t0 = common.start()
        store.link.sync()
        took = common.since(t0)
        bucket.add(took, mark)
        if tracing:
            self.syncs.append(took)
        t0 = common.start()
        revision, answers = store.replica.read(query)
        bucket.add(common.since(t0), mark)
        epoch = store.service.epoch()
        tally.check(
            revision == epoch.revision
            and common.names(answers) == common.names(epoch.answers(query)),
            f"replica read {pred}{edge} equals the writer at {revision}",
        )

    # ------------------------------------------------------------- checks
    def _oracle_check(self, rounds: int) -> None:
        """The whole perfect model from scratch against a served answer."""
        pred, edge, query = self.store.hot[rounds % len(self.store.hot)]
        epoch = self.store.service.epoch()
        expected = full_fixpoint_answers(epoch.facts(), common.rules(), query)
        self.tally.check(
            common.names(epoch.answers(query)) == common.names(expected),
            f"revision {epoch.revision} agrees with full_fixpoint_answers",
        )

    def _reopen(self, trace: bool):
        """Close, then ``DatalogService.open`` the store a few times.

        Each cycle is timed from ``open`` to the first correct answer, then
        checks that the recovered facts are exactly the acknowledged state
        and every hot query agrees with the oracle.  A traced run adds one
        traced cycle for the ``service.recover`` span.
        """
        store, tally, chains = self.store, self.tally, self.chains
        store.close()
        expected_facts = frozenset(chains.atoms(self.removed))
        stats = SpanStats()
        tracer = Tracer(capacity=1, sinks=[stats])
        times: List[float] = []
        cycles = REOPENS + (1 if trace else 0)
        for cycle in range(cycles):
            tracing = cycle == REOPENS
            pred, edge, query = store.hot[cycle % len(store.hot)]
            with use_tracer(tracer) if tracing else nullcontext():
                t0 = time.perf_counter()
                service = DatalogService.open(
                    str(store.path), common.rules(), metrics=MetricsRegistry()
                )
                try:
                    answers = service.answers(query)
                    took = time.perf_counter() - t0
                    correct = common.names(answers) == chains.expected(
                        pred, edge, self.removed
                    )
                    tally.check(correct, f"first read after reopen {cycle}")
                    if not tracing:
                        times.append(took)
                    tally.check(
                        service.facts == expected_facts,
                        f"reopen {cycle} holds every acknowledged write",
                    )
                    for pred, edge, query in store.hot:
                        tally.check(
                            common.names(service.answers(query))
                            == chains.expected(pred, edge, self.removed),
                            f"reopen {cycle} answers {pred}{edge}",
                        )
                finally:
                    service.close()
        return times, stats

    # ------------------------------------------------------------- layers
    def _layers(self, delta, plain, traced, checkpoint_bytes) -> dict:
        stats, counters = self.stats, delta.counters
        traced_writes = len(traced.writes)
        writes = len(plain.writes) + traced_writes

        def per_write(name: str) -> float:
            return common.ratio(counters.get(name, 0), writes)

        drain = stats.wall.get("service.drain@writer", 0.0)
        checkpoint = stats.wall.get("service.checkpoint@writer", 0.0)
        return {
            "maintenance.view_repair_ms": stats.self_per("engine.view_repair@writer", traced_writes) * 1e3,
            "maintenance.overdeletions_per_write": per_write("session_engine_overdeletions"),
            "maintenance.rederivations_per_write": per_write("session_engine_rederivations"),
            "session.mutate_ms": stats.self_per("session.mutate@writer", traced_writes) * 1e3,
            "session.warm_miss_ms": stats.wall_per("session.answers[miss]@writer", traced_writes) * 1e3,
            "service.read_hit_us": common.p50(traced.hits) * 1e6,
            "service.read_miss_ms": stats.median_wall("service.read[miss]") * 1e3,
            "service.read_hit_ratio": common.ratio(
                counters.get("service_read_cache_hits", 0),
                counters.get("service_reads_served", 0),
            ),
            # The writer resolves a drain's futures before it writes the
            # cadence checkpoint, so the checkpoint is not ack latency of
            # that drain; it is queue wait of the next write.
            "service.queue_wait_ms": (
                common.mean([took for took, _ in traced.writes])
                - common.ratio(drain - checkpoint, traced_writes)
            ) * 1e3,
            "service.drain_ms": stats.self_per("service.drain@writer", traced_writes) * 1e3,
            "service.publish_ms": stats.self_per("service.publish@writer", traced_writes) * 1e3,
            "service.epochs_per_write": per_write("service_epochs_published"),
            "durability.wal_append_us": stats.self_per("bench.wal_append@writer", traced_writes) * 1e6,
            "durability.wal_sync_ms": stats.self_per("bench.wal_sync@writer", traced_writes) * 1e3,
            "durability.wal_bytes_per_write": per_write("service_wal_bytes"),
            "durability.syncs_per_write": per_write("service_wal_syncs"),
            "durability.checkpoint_ms": stats.mean_wall("service.checkpoint@writer") * 1e3,
            "durability.checkpoints": float(counters.get("service_checkpoints", 0)),
            "subscriptions.notify_ms": stats.self_per("service.notify@writer", traced_writes) * 1e3,
            "subscriptions.notifications_per_write": per_write("service_notifications_sent"),
            "replication.publish_us": stats.self_per("replication.publish@writer", traced_writes) * 1e6,
            "replication.apply_ms": stats.mean_wall("replica.apply") * 1e3,
            "replication.sync_ms": common.mean(self.syncs) * 1e3,
            "replication.lag_revisions": common.mean(self.lags),
            "disk_bytes_per_write": common.ratio(
                counters.get("service_wal_bytes", 0) + sum(checkpoint_bytes), writes
            ),
        }


class _Samples:
    """Latencies and busy time of the untraced or the traced rounds.

    Timed pieces are ``(seconds, mark)`` pairs, the mark naming the last
    host probe taken before their round (see :class:`common.HostSpeed`).
    """

    def __init__(self) -> None:
        self.writes: List[Tuple[float, int]] = []
        self.reads: List[Tuple[float, int]] = []
        self.hits: List[float] = []
        self.ops = 0
        self.busy = 0.0
        #: every timed piece of work, operations and subscription folds
        self.work: List[Tuple[float, int]] = []

    def add(self, took: float, mark: int, op: bool = True) -> None:
        self.busy += took
        self.work.append((took, mark))
        if op:
            self.ops += 1

    def rate(self, speed: "common.HostSpeed") -> float:
        """Ops per busy second at reference speed, over every round.

        A total, not a median over rounds: rounds vary by a quarter either
        way (where the checkpoint lands, which cones the writes hit), and
        the total over the run's ~50 rounds spreads less between runs.
        """
        return common.ratio(self.ops, sum(speed.scaled(self.work)))


def _sized(sizes: List[int]):
    """A :func:`common.patched` factory recording each checkpoint's size."""

    def wrap(original):
        def write(self, payload):
            sequence = original(self, payload)
            for path in Path(self.directory).glob("checkpoint-*.ckpt"):
                if int(path.stem.split("-")[1]) == sequence:
                    sizes.append(path.stat().st_size)
            return sequence

        return write

    return wrap
