"""The serving layer: batch coalescing semantics and the service facade.

Two halves:

* **the write coalescer** (``QuerySession.apply_batch``) is property-tested:
  random interleaved add/remove batches — including add-then-remove of the
  same atom inside one batch — must produce exactly the same final fact
  base, the same per-call counts, and the same query answers as applying
  the operations one call at a time, while settling derived state (revision,
  caches, views) at most once per batch;
* **the service facade** (``repro.service.DatalogService``) is unit-tested
  single-threaded here — exact future counts, read-your-writes after an
  acknowledged future, epoch immutability, warm-cache promotion,
  backpressure policies, close semantics.  The multi-threaded interleaving
  battery lives in ``tests/test_concurrency.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DatalogService,
    ServiceClosedError,
    ServiceOverloadedError,
    parse_database,
    parse_program,
    parse_query,
)
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant
from repro.obs import MetricsRegistry
from repro.query import QuerySession, full_fixpoint_answers

LINK = Predicate("link", 2)
MARK = Predicate("mark", 1)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERY = parse_query("?(Y) :- reachable(a, Y)")


def link(source: str, target: str) -> Atom:
    return Atom(LINK, (Constant(source), Constant(target)))


BASE = [link("a", "b"), link("b", "c")]

#: a small atom pool so random batches collide (add-then-remove, duplicates)
ATOM_POOL = [link(s, t) for s in "abcd" for t in "abcd" if s != t] + [
    Atom(MARK, (Constant(name),)) for name in "abcd"
]

atoms_strategy = st.lists(
    st.sampled_from(ATOM_POOL), min_size=0, max_size=4
)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), atoms_strategy),
    min_size=1,
    max_size=8,
)


class TestApplyBatchCoalescing:
    """apply_batch == the same ops applied sequentially, settled once."""

    @settings(max_examples=120, deadline=None)
    @given(ops=ops_strategy)
    def test_batch_matches_sequential_application(self, ops):
        sequential = QuerySession(BASE, RULES)
        batched = QuerySession(BASE, RULES)
        # Warm both sessions so the batch also exercises repair/invalidation.
        assert sequential.answers(QUERY) == batched.answers(QUERY)

        expected_counts = []
        for kind, atoms in ops:
            if kind == "add":
                expected_counts.append(sequential.add_facts(atoms))
            else:
                expected_counts.append(sequential.remove_facts(atoms))
        actual_counts = batched.apply_batch(ops)

        assert actual_counts == expected_counts
        assert batched.facts == sequential.facts
        assert batched.answers(QUERY) == sequential.answers(QUERY)
        assert batched.answers(QUERY) == full_fixpoint_answers(
            batched.facts, RULES, QUERY
        )

    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy)
    def test_batch_settles_derived_state_at_most_once(self, ops):
        registry = MetricsRegistry()
        session = QuerySession(BASE, RULES, metrics=registry)
        session.answers(QUERY)
        revision = session.revision
        invalidations = registry.counter("session_invalidations").value
        session.apply_batch(ops)
        assert session.revision - revision <= 1
        assert registry.counter("session_invalidations").value - invalidations <= 1

    def test_cancelling_batch_preserves_caches(self):
        registry = MetricsRegistry()
        session = QuerySession(BASE, RULES, metrics=registry)
        session.answers(QUERY)
        hits = registry.counter("session_answer_hits").value
        extra = link("c", "d")
        counts = session.apply_batch(
            [("add", [extra]), ("remove", [extra])]
        )
        # Both calls saw their exact effect...
        assert counts == [1, 1]
        # ...but the net change is empty: no revision bump, cache intact.
        assert session.revision == 0
        assert session.answers(QUERY) == frozenset(
            {(Constant("b"),), (Constant("c"),)}
        )
        assert registry.counter("session_answer_hits").value == hits + 1

    def test_remove_then_readd_is_net_zero(self):
        session = QuerySession(BASE, RULES)
        session.answers(QUERY)
        revision = session.revision
        counts = session.apply_batch(
            [("remove", [BASE[0]]), ("add", [BASE[0], BASE[0]])]
        )
        assert counts == [1, 1]
        assert session.revision == revision
        assert BASE[0] in session.facts

    def test_unknown_operation_is_rejected_before_any_mutation(self):
        session = QuerySession(BASE, RULES)
        with pytest.raises(ValueError):
            session.apply_batch([("add", [link("c", "d")]), ("upsert", [])])
        assert link("c", "d") not in session.facts


class TestSessionEpoch:
    def test_epoch_pins_facts_and_answers(self):
        session = QuerySession(BASE, RULES)
        before = session.answers(QUERY)
        epoch = session.epoch()
        assert epoch.revision == 0
        assert epoch.facts() == frozenset(BASE)
        assert epoch.answers[QUERY] == before
        session.add_facts([link("c", "d")])
        # The old epoch is immutable: the mutation is invisible through it.
        assert epoch.facts() == frozenset(BASE)
        assert session.epoch().revision == 1
        assert link("c", "d") in session.epoch().facts()

    def test_epoch_snapshot_is_detached(self):
        session = QuerySession(BASE, RULES)
        snapshot = session.epoch().snapshot
        assert snapshot._source is None
        # Cold pattern lookups on the detached snapshot still work (built
        # privately from the pinned backend) and see the pinned contents.
        from repro.core.terms import Variable

        got = snapshot.candidates_for(Atom(LINK, (Constant("a"), Variable("X"))))
        assert frozenset(got) == {link("a", "b")}


class TestServiceBasics:
    def test_futures_carry_exact_counts(self):
        with DatalogService(BASE, RULES) as service:
            assert service.add_facts([link("c", "d")]).result(5) == 1
            assert service.add_facts([link("c", "d")]).result(5) == 0
            assert (
                service.remove_facts([link("c", "d"), link("x", "y")]).result(5)
                == 1
            )

    def test_read_your_writes_after_acknowledgement(self):
        with DatalogService(BASE, RULES) as service:
            service.add_facts([link("c", "d")]).result(5)
            answers = service.answers(QUERY)
            assert (Constant("d"),) in answers
            service.remove_facts([link("a", "b")]).result(5)
            assert service.answers(QUERY) == frozenset()

    def test_reads_match_from_scratch_evaluation(self):
        rng = random.Random(7)
        with DatalogService(BASE, RULES) as service:
            for _ in range(20):
                atom = rng.choice(ATOM_POOL)
                if rng.random() < 0.5:
                    service.add_facts([atom]).result(5)
                else:
                    service.remove_facts([atom]).result(5)
                epoch = service.epoch()
                assert epoch.answers(QUERY) == full_fixpoint_answers(
                    epoch.facts(), RULES, QUERY
                )

    def test_flush_is_a_barrier(self):
        with DatalogService(BASE, RULES) as service:
            futures = [service.add_facts([atom]) for atom in ATOM_POOL[:8]]
            service.flush(5)
            assert all(future.done() for future in futures)
            assert service.facts >= frozenset(ATOM_POOL[:8])

    def test_revision_monotone_and_epoch_immutable(self):
        with DatalogService(BASE, RULES) as service:
            first = service.epoch()
            facts_before = first.facts()
            revisions = [first.revision]
            for atom in ATOM_POOL[:5]:
                service.add_facts([atom]).result(5)
                revisions.append(service.epoch().revision)
            assert revisions == sorted(revisions)
            assert first.facts() == facts_before

    def test_close_is_idempotent_and_reads_survive(self):
        service = DatalogService(BASE, RULES)
        service.add_facts([link("c", "d")]).result(5)
        service.close()
        service.close()
        assert service.closed
        assert (Constant("d"),) in service.answers(QUERY)
        with pytest.raises(ServiceClosedError):
            service.add_facts([link("d", "a")])
        with pytest.raises(ServiceClosedError):
            service.flush()

    def test_statistics_reflect_serving(self):
        with DatalogService(BASE, RULES, metrics=MetricsRegistry()) as service:
            service.answers(QUERY)  # miss
            service.answers(QUERY)  # epoch-memo hit
            service.add_facts([link("c", "d")]).result(5)
            service.answers(QUERY)  # published-cache hit (warmed)
            stats = service.stats()
            assert stats.counters["service_reads_served"] == 3
            assert stats.counters["service_read_cache_hits"] == 2
            assert stats.counters["service_writes_enqueued"] == 1
            assert stats.counters["service_epochs_published"] >= 2
            assert stats.gauges["service_queue_high_water"] >= 1


class TestWarmCache:
    def test_reader_miss_is_promoted_into_published_cache(self):
        registry = MetricsRegistry()
        hits = registry.counter("service_read_cache_hits")
        with DatalogService(BASE, RULES, metrics=registry) as service:
            assert service.epoch().cached(QUERY) is None
            service.answers(QUERY)
            # The next publish replays the miss through the session...
            service.add_facts([Atom(MARK, (Constant("a"),))]).result(5)
            assert service.epoch().cached(QUERY) is not None
            before = hits.value
            service.answers(QUERY)
            assert hits.value == before + 1


class TestReaderMemory:
    def test_fresh_reader_misses_leave_the_goal_decode_cache_alone(self):
        # A reader miss evaluates in a throwaway fork; collecting its
        # answers must not leave goal atoms in the process-wide decode
        # cache, or a long-running service grows with every answer served.
        from repro.engine import global_symbols
        from repro.query import compile_query_plan

        chain = [link(f"mem{i}", f"mem{i + 1}") for i in range(12)]
        query = lambda node: parse_query(f"?(Y) :- reachable({node}, Y)")
        goal = compile_query_plan(RULES, query("mem0")).program.goal.renamed
        cache = global_symbols().atom_cache(goal)
        with DatalogService(chain, RULES) as service:
            service.answers(query("mem0"))
            before = len(cache)
            for i in range(1, 12):
                answers = service.answers(query(f"mem{i}"))
                assert answers == {
                    (Constant(f"mem{j}"),) for j in range(i + 1, 13)
                }
            assert len(cache) == before


class TestBackpressure:
    def test_reject_policy_raises_when_queue_full(self):
        # A long linger window keeps the first op pending, so the second
        # enqueue observes a full queue deterministically.
        registry = MetricsRegistry()
        with DatalogService(
            BASE,
            RULES,
            max_pending=1,
            backpressure="reject",
            coalesce_window=0.5,
            metrics=registry,
        ) as service:
            service.add_facts([link("c", "d")])
            with pytest.raises(ServiceOverloadedError):
                service.add_facts([link("d", "a")])
            assert registry.counter("service_backpressure_rejections").value == 1

    def test_block_policy_times_out(self):
        with DatalogService(
            BASE,
            RULES,
            max_pending=1,
            backpressure="block",
            enqueue_timeout=0.05,
            coalesce_window=0.5,
        ) as service:
            service.add_facts([link("c", "d")])
            with pytest.raises(ServiceOverloadedError):
                service.add_facts([link("d", "a")])

    def test_block_policy_eventually_admits(self):
        with DatalogService(
            BASE, RULES, max_pending=2, coalesce_window=0.01
        ) as service:
            futures = [service.add_facts([atom]) for atom in ATOM_POOL[:10]]
            expected = len(set(ATOM_POOL[:10]) - set(BASE))
            assert sum(future.result(10) for future in futures) == expected

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DatalogService(BASE, RULES, backpressure="drop")


class TestCoalescing:
    def test_burst_rides_few_epochs(self):
        registry = MetricsRegistry()
        count = lambda name: registry.counter(f"service_{name}").value
        with DatalogService(
            BASE, RULES, coalesce_window=0.1, metrics=registry
        ) as service:
            before = count("epochs_published")
            futures = [service.add_facts([atom]) for atom in ATOM_POOL[:12]]
            counts = [future.result(10) for future in futures]
            assert sum(counts) == len({a for a in ATOM_POOL[:12]} - set(BASE))
            published = count("epochs_published") - before
            assert published <= 2
            assert count("batches_coalesced") >= 1
            assert count("coalesced_ops") >= len(futures) - published

    def test_cancelled_future_does_not_kill_writer(self):
        """Regression: the writer transitions futures to RUNNING before
        applying; a pending future the caller cancelled is dropped (its op
        is never applied) instead of blowing up set_result and silently
        killing the writer thread."""
        with DatalogService(BASE, RULES, coalesce_window=0.5) as service:
            cancelled = service.add_facts([link("c", "d")])
            assert cancelled.cancel()  # still pending: the writer lingers
            survivor = service.add_facts([link("d", "a")])
            assert survivor.result(10) == 1
            # The writer is alive and the cancelled op was never applied.
            assert link("c", "d") not in service.facts
            assert link("d", "a") in service.facts
            assert service.flush(10) is None

    def test_coalesced_counts_stay_exact_under_collisions(self):
        with DatalogService(BASE, RULES, coalesce_window=0.05) as service:
            atom = link("c", "d")
            add1 = service.add_facts([atom])
            add2 = service.add_facts([atom])
            gone = service.remove_facts([atom])
            add3 = service.add_facts([atom])
            assert add1.result(10) == 1
            assert add2.result(10) == 0
            assert gone.result(10) == 1
            assert add3.result(10) == 1
            assert atom in service.facts


class TestFallbackService:
    def test_unstratifiable_rules_served_by_cautious_fallback(self):
        rules = parse_program(
            """
            p(X), not q(X) -> r(X)
            p(X), not r(X) -> q(X)
            """
        )
        database = parse_database("p(a).")
        query = parse_query("?(X) :- p(X)")
        registry = MetricsRegistry()
        with DatalogService(database, rules, metrics=registry) as service:
            assert service.answers(query) == frozenset({(Constant("a"),)})
            assert registry.counter("service_reads_fallback").value == 1
            service.add_facts([Atom(Predicate("p", 1), (Constant("b"),))]).result(5)
            assert service.answers(query) == frozenset(
                {(Constant("a"),), (Constant("b"),)}
            )

    def test_fallback_queries_are_not_warm_replayed_on_the_writer(self):
        """Fallback answers have no plan or maintained view: warming them
        would put a from-scratch stable-model evaluation on the serialised
        write path at every publish, so they must not be hinted."""
        rules = parse_program(
            """
            p(X), not q(X) -> r(X)
            p(X), not r(X) -> q(X)
            """
        )
        query = parse_query("?(X) :- p(X)")
        registry = MetricsRegistry()
        with DatalogService(
            parse_database("p(a)."), rules, metrics=registry
        ) as service:
            service.answers(query)
            assert registry.counter("service_reads_fallback").value == 1
            assert not service._hot  # no warm hint recorded
            service.add_facts([Atom(Predicate("p", 1), (Constant("b"),))]).result(5)
            # The publish did not pre-warm it into the epoch cache.
            assert service.epoch().cached(query) is None

    def test_strict_service_raises_out_of_fragment(self):
        rules = parse_program(
            """
            p(X), not q(X) -> r(X)
            p(X), not r(X) -> q(X)
            """
        )
        with DatalogService(
            parse_database("p(a)."), rules, fallback=False
        ) as service:
            with pytest.raises(Exception):
                service.answers(parse_query("?(X) :- r(X)"))


class TestEpochLagGauge:
    """``service_epoch_lag_seconds`` is monotonic-clock based.

    Regression: the gauge used to be ``time.time() - published_at``, so an
    NTP step backwards drove it negative (and a step forwards faked a lag
    spike) on a perfectly healthy service.  It must track only the
    monotonic clock, clamp at zero, and reset on every publish; the wall
    timestamp survives solely as the informational ``published_at``.
    """

    @staticmethod
    def _gauge(service):
        return service.stats().gauges["service_epoch_lag_seconds"]

    def test_wall_clock_steps_do_not_move_the_gauge(self, monkeypatch):
        import time as real_time

        import repro.service.service as service_module

        class SteppingClock:
            """Delegates to the real module, with adjustable offsets."""

            wall_offset = 0.0
            mono_offset = 0.0

            def time(self):
                return real_time.time() + self.wall_offset

            def monotonic(self):
                return real_time.monotonic() + self.mono_offset

            def __getattr__(self, name):
                return getattr(real_time, name)

        clock = SteppingClock()
        monkeypatch.setattr(service_module, "time", clock)
        with DatalogService(rules=RULES) as service:
            service.add_facts([link("a", "b")]).result(5)
            baseline = self._gauge(service)
            assert 0.0 <= baseline < 5.0

            # An NTP step backwards: a time.time()-based gauge would go
            # a full hour negative here.
            clock.wall_offset = -3600.0
            assert self._gauge(service) >= 0.0
            assert self._gauge(service) < 5.0

            # A step forwards must not fake an hour of staleness either.
            clock.wall_offset = +3600.0
            assert self._gauge(service) < 5.0

            # ...but the *monotonic* clock advancing is real lag:
            clock.mono_offset = 7.0
            assert self._gauge(service) >= 7.0

            # and a publish resets it.
            service.add_facts([link("b", "c")]).result(5)
            assert self._gauge(service) < 5.0

    def test_gauge_is_never_negative_even_with_monotonic_skew(
        self, monkeypatch
    ):
        """Defence in depth: even a (theoretically impossible) backwards
        monotonic step must clamp at zero, not report negative lag."""
        with DatalogService(rules=RULES) as service:
            service.add_facts([link("a", "b")]).result(5)
            import time as real_time

            service._published_monotonic = real_time.monotonic() + 3600.0
            assert self._gauge(service) == 0.0

    def test_published_at_remains_a_wall_timestamp(self):
        import time as real_time

        before = real_time.time()
        with DatalogService(rules=RULES) as service:
            service.add_facts([link("a", "b")]).result(5)
            after = real_time.time()
            assert before <= service.published_at <= after
