"""Concurrency battery: snapshot isolation under real thread interleavings.

The contract under test: N reader threads and one writer thread share a
:class:`~repro.service.DatalogService`, and **every** answer set a reader
observes is exactly the from-scratch answer set of *some* published revision
— no stale reads (a revision the reader already moved past), no torn reads
(a half-applied batch), and per-reader revision monotonicity.  The stress
test verifies this a posteriori: each read captures ``(revision, pinned
facts, query, answers)`` from one epoch object, then the main thread
recomputes every observed ``(revision, query)`` pair from scratch with
``full_fixpoint_answers`` and compares.  Revisions observed by different
threads must also agree on their fact base (one published fact set per
revision).

Alongside the service battery: the push-based subscription layer under the
same treatment — N subscriber threads with slow/fast consumers under both
overflow policies, folded streams reconciled against the final published
answers, and ``close()`` racing writer deliveries blocked on full queues
(``TestSubscriptionStress``; single-threaded delivery semantics live in
``tests/test_subscriptions.py``) — and the engine-level guarantees it all
builds on: cold lazy pattern tables built once under the per-snapshot lock
while 8 threads hammer them through a barrier, and overlay forks of one
shared snapshot built and read from several threads at once.  Last,
the process-wide memos of the engine's hot path: threads racing to create
the same interned predicates get one object per name, and readers racing
first-touch queries of one new shape fill the same join-programme memos
and still answer exactly (``TestHotPathMemoRaces``).
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import DatalogService, parse_program, parse_query
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant, Variable
from repro.engine import (
    EngineStatistics,
    RelationIndex,
)
from repro.obs import MetricsRegistry
from repro.query import QuerySession, full_fixpoint_answers

LINK = Predicate("link", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERIES = [
    parse_query("?(Y) :- reachable(a, Y)"),
    parse_query("?(X) :- reachable(X, d)"),
    parse_query("?(X, Y) :- link(X, Y)"),
]

NODES = "abcdef"
ATOM_POOL = [
    Atom(LINK, (Constant(source), Constant(target)))
    for source in NODES
    for target in NODES
    if source != target
]


def link(source: str, target: str) -> Atom:
    return Atom(LINK, (Constant(source), Constant(target)))


def _join_all(threads, timeout=60):
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads), "worker hung"


class TestServiceStress:
    READERS = 4
    READS_PER_READER = 25
    WRITER_OPS = 30
    SEEDS = range(10)

    def _run_interleaving(self, seed: int, observations: list) -> None:
        rng = random.Random(seed)
        base = rng.sample(ATOM_POOL, 8)
        expected = set(base)
        errors: list = []

        def reader(reader_seed: int) -> None:
            reader_rng = random.Random(reader_seed)
            last_revision = -1
            try:
                for _ in range(self.READS_PER_READER):
                    epoch = service.epoch()
                    # Monotonicity: the published revision never goes back.
                    assert epoch.revision >= last_revision
                    last_revision = epoch.revision
                    query = reader_rng.choice(QUERIES)
                    answers = epoch.answers(query)
                    observations.append(
                        (epoch.revision, epoch.facts(), query, answers)
                    )
            except BaseException as error:  # pragma: no cover - reported below
                errors.append(error)

        registry = MetricsRegistry()
        with DatalogService(base, RULES, metrics=registry) as service:
            threads = [
                threading.Thread(target=reader, args=(seed * 101 + i,))
                for i in range(self.READERS)
            ]
            for thread in threads:
                thread.start()
            futures = []
            for _ in range(self.WRITER_OPS):
                atoms = rng.sample(ATOM_POOL, rng.randint(1, 3))
                if rng.random() < 0.55:
                    futures.append(service.add_facts(atoms))
                    expected.update(atoms)
                else:
                    futures.append(service.remove_facts(atoms))
                    expected.difference_update(atoms)
            for future in futures:
                future.result(30)
            _join_all(threads)
            assert not errors, errors
            # Readers and the writer bumped shared counters concurrently;
            # none of their increments may be lost.
            counters = registry.snapshot().counters
            assert counters["service_reads_served"] == (
                self.READERS * self.READS_PER_READER
            )
            assert counters["service_writes_enqueued"] == self.WRITER_OPS
            # The writer applied every op in submission order: the final
            # published fact base equals the sequentially simulated one.
            service.flush(30)
            assert service.facts == frozenset(expected)

    def test_randomized_reader_writer_interleavings(self):
        observations: list = []
        for seed in self.SEEDS:
            self._run_interleaving(seed, observations)

        # The acceptance bar: enough genuinely distinct interleavings.
        assert len(observations) >= 200

        # One published fact base per revision — no torn reads.  (Revisions
        # restart per service instance, so key by fact base identity too:
        # group observations by run via object identity of the facts set is
        # unnecessary — distinct runs are distinguished by their epoch fact
        # sets matching their own revision history, checked per run below.)
        verified: dict = {}
        for revision, facts, query, answers in observations:
            key = (id(facts), query)
            if key not in verified:
                verified[key] = full_fixpoint_answers(facts, RULES, query)
            # Every observed answer set is the from-scratch answer set of
            # the very revision the reader was pinned to.
            assert answers == verified[key], (
                f"stale/torn read at revision {revision}: {query}"
            )

    def test_revisions_agree_on_their_fact_base(self):
        observations: list = []
        self._run_interleaving(99, observations)
        by_revision: dict = {}
        for revision, facts, _, _ in observations:
            assert by_revision.setdefault(revision, facts) == facts


class TestSubscriptionStress:
    """N subscriber threads × 1 writer: delivery survives real scheduling.

    Each consumer thread drains its own subscription until the stream ends
    (``get()`` returns ``None`` after ``close()``), recording every item;
    the main thread then folds each recorded stream over its registration
    snapshot and requires it to land exactly on the final published answers
    — slow consumers, both overflow policies, and a ``close()`` racing
    blocked deliveries included.  One consumer per subscription (the queue
    is single-consumer by contract); the writer side is exercised through
    the service's real writer thread.
    """

    def _consume(self, subscription, items, errors, delay=0.0):
        try:
            while True:
                item = subscription.get(30)
                if item is None:
                    return
                items.append(item)
                if delay:
                    time.sleep(delay)
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    def _fold(self, subscription, items):
        state = subscription.snapshot_answers
        last = subscription.snapshot_revision
        for item in items:
            assert item.revision > last, "out-of-order or duplicated delivery"
            last = item.revision
            state = item.apply(state)
        return state

    def test_mixed_consumers_reconcile_under_both_policies(self):
        rng = random.Random(7)
        profiles = [
            dict(on_overflow="block", max_queue=128, delay=0.0),
            dict(on_overflow="block", max_queue=4, delay=0.002),
            dict(on_overflow="drop_and_mark_gap", max_queue=2, delay=0.004),
            dict(on_overflow="drop_and_mark_gap", max_queue=64, delay=0.0),
            dict(on_overflow="block", max_queue=16, delay=0.001),
            dict(on_overflow="drop_and_mark_gap", max_queue=1, delay=0.006),
        ]
        errors: list = []
        consumers = []
        with DatalogService(rng.sample(ATOM_POOL, 6), RULES) as service:
            for index, profile in enumerate(profiles):
                subscription = service.subscribe(
                    QUERIES[index % len(QUERIES)],
                    max_queue=profile["max_queue"],
                    on_overflow=profile["on_overflow"],
                )
                items: list = []
                thread = threading.Thread(
                    target=self._consume,
                    args=(subscription, items, errors, profile["delay"]),
                )
                thread.start()
                consumers.append((subscription, items, thread))
            futures = []
            for _ in range(40):
                atoms = rng.sample(ATOM_POOL, rng.randint(1, 3))
                if rng.random() < 0.55:
                    futures.append(service.add_facts(atoms))
                else:
                    futures.append(service.remove_facts(atoms))
            for future in futures:
                future.result(60)
        # close() (via the context manager) ended every stream; consumers
        # drain their backlog and exit on the end-of-stream None.
        _join_all([thread for _, _, thread in consumers])
        assert not errors, errors
        for subscription, items, _ in consumers:
            final = self._fold(subscription, items)
            assert final == service.answers(subscription.query), (
                "a consumer's folded stream diverged from the final answers"
            )

    def test_drop_and_mark_gap_never_loses_a_delta_silently(self):
        rng = random.Random(21)
        errors: list = []
        consumers = []
        with DatalogService((), RULES) as service:
            for _ in range(4):
                subscription = service.subscribe(
                    QUERIES[0], max_queue=1, on_overflow="drop_and_mark_gap"
                )
                items: list = []
                thread = threading.Thread(
                    target=self._consume,
                    args=(subscription, items, errors, 0.005),
                )
                thread.start()
                consumers.append((subscription, items, thread))
            futures = []
            for _ in range(30):
                atoms = rng.sample(ATOM_POOL, rng.randint(1, 2))
                kind = service.add_facts if rng.random() < 0.6 else (
                    service.remove_facts
                )
                futures.append(kind(atoms))
            for future in futures:
                future.result(60)
        _join_all([thread for _, _, thread in consumers])
        assert not errors, errors
        for subscription, items, _ in consumers:
            # Every coalesced delivery is accounted for: a non-zero dropped
            # counter implies gap markers, and the markers were actually
            # observed in the stream — never swallowed silently.
            if subscription.dropped:
                assert subscription.gaps > 0
                assert any(item.is_gap for item in items)
            assert self._fold(subscription, items) == service.answers(
                subscription.query
            )

    def test_close_races_blocked_deliveries_without_deadlock(self):
        """Full ``block``-policy queues with *no* consumers: ``close()``
        must wake the blocked writer (coalescing into gaps), join, and
        still leave every queued item drainable and reconcilable."""
        service = DatalogService((), RULES)
        subscriptions = [
            service.subscribe(QUERIES[0], max_queue=1, on_overflow="block")
            for _ in range(3)
        ]
        rng = random.Random(3)
        for _ in range(6):
            service.add_facts(rng.sample(ATOM_POOL, 2))  # futures not awaited
        time.sleep(0.2)  # let the writer block on the full queues
        started = time.time()
        service.close(timeout=30)
        assert time.time() - started < 20, "close() deadlocked on consumers"
        for subscription in subscriptions:
            items = list(subscription)
            assert self._fold(subscription, items) == service.answers(
                subscription.query
            )
            assert subscription.get(0.1) is None

    def test_concurrent_unsubscribe_during_writes(self):
        rng = random.Random(11)
        errors: list = []
        with DatalogService((), RULES) as service:
            subscriptions = [
                service.subscribe(QUERIES[i % len(QUERIES)], max_queue=256)
                for i in range(6)
            ]

            def churn(subscription) -> None:
                try:
                    time.sleep(rng.random() * 0.05)
                    subscription.unsubscribe()
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=churn, args=(subscription,))
                for subscription in subscriptions
            ]
            for thread in threads:
                thread.start()
            futures = [
                service.add_facts(rng.sample(ATOM_POOL, 2)) for _ in range(20)
            ]
            for future in futures:
                future.result(60)
            _join_all(threads)
            assert not errors, errors
            service.flush(30)
            assert service.subscriptions_active == 0
            # The writer-side pins all died with the releases.
            assert not service._session._standing_tokens


class TestSnapshotConcurrency:
    def test_cold_pattern_table_built_once_under_barrier(self):
        statistics = EngineStatistics()
        index = RelationIndex(ATOM_POOL, statistics=statistics)
        snapshot = index.snapshot().detach()
        builds_before = statistics.index_builds
        barrier = threading.Barrier(8)
        errors: list = []
        results: list = []

        def hammer(worker: int) -> None:
            try:
                barrier.wait(10)
                for _ in range(50):
                    source = NODES[worker % len(NODES)]
                    pattern = Atom(LINK, (Constant(source), Variable("X")))
                    got = frozenset(snapshot.candidates_for(pattern))
                    results.append((source, got))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert not errors, errors
        # All 8 threads raced one cold (predicate, positions) table; the
        # per-snapshot lock admits exactly one build.
        assert statistics.index_builds == builds_before + 1
        for source, got in results:
            expected = frozenset(
                atom for atom in ATOM_POOL if atom.terms[0] == Constant(source)
            )
            assert got == expected

    def test_concurrent_readers_and_mutating_head(self):
        """Readers on a detached snapshot race the head being mutated."""
        index = RelationIndex(ATOM_POOL[:12])
        snapshot = index.snapshot().detach()
        pinned = snapshot.atoms()
        stop = threading.Event()
        errors: list = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    assert snapshot.atoms() == pinned
                    pattern = Atom(LINK, (Constant("a"), Variable("X")))
                    frozenset(snapshot.candidates_for(pattern))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for atom in ATOM_POOL[12:]:
                index.add(atom)
            for atom in ATOM_POOL[:6]:
                index.remove(atom)
        finally:
            stop.set()
        _join_all(threads)
        assert not errors, errors
        assert snapshot.atoms() == pinned

    def test_overlay_fork_readable_from_many_threads(self):
        snapshot = RelationIndex(ATOM_POOL[:10]).snapshot().detach()
        barrier = threading.Barrier(4)
        errors: list = []

        def fork_and_read() -> None:
            try:
                barrier.wait(10)
                fork = snapshot.fork()
                fork.add(link("z", "a"))
                assert link("z", "a") in fork
                assert len(fork) == 11
                assert len(snapshot) == 10
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=fork_and_read) for _ in range(4)]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert not errors, errors


class TestHotPathMemoRaces:
    def test_racing_creators_get_one_predicate_per_name(self):
        threads_n, names = 16, 200
        barrier = threading.Barrier(threads_n)
        # Each worker keeps every predicate it built alive, so no entry of
        # the weak intern table can die and be legitimately recreated.
        built: list = [None] * threads_n
        errors: list = []

        def create(worker: int) -> None:
            try:
                barrier.wait(10)
                built[worker] = [
                    Predicate(f"interning_race_{i}", 2) for i in range(names)
                ]
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=create, args=(worker,))
                for worker in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            _join_all(threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        for i in range(names):
            assert len({id(predicates[i]) for predicates in built}) == 1

    def test_racing_readers_past_the_plan_bound_keep_one_plan_per_shape(self):
        """Readers racing over more shapes than ``plan_cache_size`` keep
        evicting each other's plans from the evaluator's cache; every shape
        a pinned view holds must still have that one plan, never a second
        compile."""
        rules = parse_program(
            """
            link(X, Y) -> reachable(X, Y)
            reachable(X, Y), link(Y, Z) -> reachable(X, Z)
            """
        )
        nodes = [f"v{i}" for i in range(8)]
        facts = [link(a, b) for a, b in zip(nodes, nodes[1:])]
        shapes = [
            "?(Y) :- reachable({}, Y)",
            "?(X) :- reachable(X, {})",
            "?(X) :- reachable({}, X), link(X, v7)",
            "?(Y) :- link({}, Y), reachable(Y, v7)",
        ]
        session = QuerySession(facts, rules, plan_cache_size=2)
        held = {}
        for position, shape in enumerate(shapes):
            query = parse_query(shape.format(nodes[0]))
            session.register_standing(query, token=position)
            held[position] = session.plan_for(query)
        evaluator = session.evaluator
        snapshot = session.epoch().snapshot
        readers, rounds = 8, 12
        barrier = threading.Barrier(readers)
        seen: list = []
        errors: list = []

        def reader(worker: int) -> None:
            try:
                barrier.wait(10)
                for i in range(rounds):
                    position = (worker + i) % len(shapes)
                    # v7 stays out: a repeated constant is another shape.
                    node = nodes[(worker + i) % (len(nodes) - 1)]
                    query = parse_query(shapes[position].format(node))
                    seen.append((position, evaluator.plan(query)))
                    answers, fell_back = evaluator.answers(snapshot, query)
                    assert not fell_back
                    assert answers == full_fixpoint_answers(facts, rules, query)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(worker,))
                for worker in range(readers)
            ]
            for thread in threads:
                thread.start()
            _join_all(threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        assert len(seen) == readers * rounds
        for position, plan in seen:
            assert plan is held[position], shapes[position]

    def test_first_touch_readers_race_to_fill_one_programme_memo(
        self, monkeypatch
    ):
        from repro.engine import planner

        original = planner.order_body
        original_generate = planner.generate_join
        original_programme = planner.EncodedRule.programme

        def slow_order_body(*args, **kwargs):
            # Widen the window between a memo miss and its fill, so readers
            # arriving together all miss the same (rule, position) entries.
            time.sleep(0.002)
            return original(*args, **kwargs)

        def slow_generate_join(*args, **kwargs):
            time.sleep(0.002)
            return original_generate(*args, **kwargs)

        # Every join function fixpoint is handed, per (rule, delta position).
        handed: dict = {}

        def recording_programme(encoded, index, delta_position=-1):
            join = original_programme(encoded, index, delta_position)
            handed.setdefault((encoded, delta_position), set()).add(join)
            return join

        monkeypatch.setattr(planner, "order_body", slow_order_body)
        monkeypatch.setattr(planner, "generate_join", slow_generate_join)
        monkeypatch.setattr(planner.EncodedRule, "programme", recording_programme)
        rules = parse_program(
            """
            link(X, Y) -> reachable(X, Y)
            reachable(X, Y), link(Y, Z) -> reachable(X, Z)
            reachable(X, Y), mark(Y, M), not blocked(Y) -> flagged(X, M)
            """
        )
        rng = random.Random(7)
        nodes = [f"v{i}" for i in range(24)]
        facts = [link(a, b) for a, b in zip(nodes, nodes[1:])]
        facts += [link(rng.choice(nodes), rng.choice(nodes)) for _ in range(6)]
        facts += [
            Atom(Predicate("mark", 2), (Constant(node), Constant(f"m{i % 3}")))
            for i, node in enumerate(nodes)
        ]
        facts += [
            Atom(Predicate("blocked", 1), (Constant(node),))
            for node in rng.sample(nodes, 4)
        ]
        readers, reads = 8, 6
        barrier = threading.Barrier(readers)
        observed: list = []
        errors: list = []

        def reader(worker: int) -> None:
            try:
                barrier.wait(10)
                for i in range(reads):
                    # One query shape, never asked before this service
                    # existed; each constant is a first-touch miss.
                    node = nodes[(worker * reads + i) % len(nodes)]
                    query = parse_query(f"?(M) :- flagged({node}, M)")
                    observed.append((query, service.answers(query)))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DatalogService(facts, rules) as service:
                threads = [
                    threading.Thread(target=reader, args=(worker,))
                    for worker in range(readers)
                ]
                for thread in threads:
                    thread.start()
                _join_all(threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        assert len(observed) == readers * reads
        assert any(answers for _, answers in observed)
        for query, answers in observed:
            assert answers == full_fixpoint_answers(facts, rules, query)
        # Racing readers all ran the first stored function of each memo
        # entry, whichever of them generated it.
        assert handed
        for (encoded, position), joins in handed.items():
            assert joins == {encoded._programmes[position]}
