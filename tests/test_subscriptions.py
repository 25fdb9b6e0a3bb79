"""Push-based subscriptions: the delivery-semantics property battery.

The contract under test (``repro.service.subscriptions``): a subscriber's
notification stream must be *indistinguishable from poll-and-diff* over the
same epochs —

* **fold ≡ poll** — applying the stream in order over the registration-time
  snapshot reproduces the from-scratch answers at every observed revision
  (and, between observed revisions, the answers must not have changed);
* **exactly-once, in-revision-order** — at most one stream item per
  published revision, revisions strictly increasing, none before the
  registration snapshot;
* **gaps are honest** — a :class:`~repro.service.subscriptions.Gap` carries
  a resync set equal to the from-scratch answers at the gap's epoch, and a
  subscriber that folds through gaps still converges on the poll answers.

The Hypothesis battery drives a live :class:`~repro.DatalogService` through
random add/remove batch interleavings with subscribers registering at random
points mid-stream, then replays every subscriber's stream against a
from-scratch fixpoint oracle (``full_fixpoint_answers``) per revision.  Unit
classes below pin down the API edges: consumption modes, overflow policies,
close ordering (the satellite bug fix: in-flight notifications flushed, late
``subscribe()`` refused), and the session-level standing-query machinery
(pinning, capture, budget loss).  Thread-interleaving stress lives in
``tests/test_concurrency.py``.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DatalogService,
    MetricsRegistry,
    ServiceClosedError,
    SubscriptionError,
    Tracer,
    parse_program,
    parse_query,
    use_tracer,
)
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant
from repro.errors import SolverLimitError, UnsupportedClassError
from repro.query import QuerySession, full_fixpoint_answers
from repro.service import Gap, Notification

LINK = Predicate("link", 2)
MARK = Predicate("mark", 1)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

QUERIES = [
    parse_query("?(Y) :- reachable(a, Y)"),
    parse_query("?(X) :- reachable(X, d)"),
    parse_query("?(X, Y) :- reachable(X, Y)"),
]

QUERY = QUERIES[0]


def link(source: str, target: str) -> Atom:
    return Atom(LINK, (Constant(source), Constant(target)))


def mark(name: str) -> Atom:
    return Atom(MARK, (Constant(name),))


#: small pool so random batches collide (re-adds, removes of absent atoms)
ATOM_POOL = [link(s, t) for s in "abcd" for t in "abcd" if s != t]

atoms_strategy = st.lists(st.sampled_from(ATOM_POOL), min_size=0, max_size=3)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), atoms_strategy),
    min_size=1,
    max_size=6,
)


def oracle(facts, query):
    return full_fixpoint_answers(facts, RULES, query)


def drain(subscription, budget=64):
    """Everything currently queued (bounded, never blocking on the writer)."""
    items = []
    while subscription.pending() and len(items) < budget:
        items.append(subscription.get(1))
    return items


def replay(subscription, items, history, query):
    """Assert the delivery contract of one subscriber's drained stream.

    *history* is the ordered list of ``(revision, facts)`` the service
    published.  Folds *items* over the registration snapshot, checking
    fold ≡ poll at every published revision the subscriber lived through
    (matched by revision; unmatched revisions must not have changed the
    answers), strict revision ordering, and gap-resync honesty.
    """
    revisions = [item.revision for item in items]
    assert revisions == sorted(set(revisions)), "not exactly-once-in-order"
    assert all(
        revision > subscription.snapshot_revision for revision in revisions
    ), "delivery at or before the registration snapshot"
    published = {revision for revision, _ in history}
    assert set(revisions) <= published, "delivery at an unpublished revision"

    state = subscription.snapshot_answers
    queue = list(items)
    for revision, facts in history:
        if revision <= subscription.snapshot_revision:
            continue
        while queue and queue[0].revision < revision:  # pragma: no cover
            raise AssertionError("stream item at a skipped revision")
        if queue and queue[0].revision == revision:
            item = queue.pop(0)
            if item.is_gap:
                assert item.resync == oracle(facts, query), (
                    "gap resync differs from from-scratch answers at its epoch"
                )
            state = item.apply(state)
        assert state == oracle(facts, query), (
            f"fold != poll at revision {revision}"
        )
    assert not queue, "stream item beyond the last published revision"
    return state


class TestDeliveryEquivalence:
    """The Hypothesis battery: random interleavings × registration times."""

    @settings(max_examples=140, deadline=None)
    @given(
        ops=ops_strategy,
        registrations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.sampled_from(QUERIES),
            ),
            min_size=1,
            max_size=3,
        ),
        base=atoms_strategy,
    )
    def test_fold_equals_poll_at_every_revision(
        self, ops, registrations, base
    ):
        with DatalogService(base, RULES) as service:
            history = [(service.revision, service.facts)]
            subscriptions = []
            pending = sorted(
                (min(when, len(ops)), index, query)
                for index, (when, query) in enumerate(registrations)
            )
            for step, (kind, atoms) in enumerate(ops):
                while pending and pending[0][0] <= step:
                    _, _, query = pending.pop(0)
                    subscription = service.subscribe(query, max_queue=512)
                    assert subscription.snapshot_revision == service.revision
                    assert subscription.snapshot_answers == oracle(
                        service.facts, query
                    )
                    subscriptions.append((subscription, query))
                future = (
                    service.add_facts(atoms)
                    if kind == "add"
                    else service.remove_facts(atoms)
                )
                future.result(5)
                if service.revision != history[-1][0]:
                    history.append((service.revision, service.facts))
            while pending:
                _, _, query = pending.pop(0)
                subscription = service.subscribe(query, max_queue=512)
                subscriptions.append((subscription, query))
            for subscription, query in subscriptions:
                items = drain(subscription)
                assert not any(item.is_gap for item in items), (
                    "unforced gap on an unbounded, fully-drained stream"
                )
                final = replay(subscription, items, history, query)
                assert final == service.answers(query)

    @settings(max_examples=80, deadline=None)
    @given(ops=ops_strategy, base=atoms_strategy)
    def test_slow_consumer_gaps_are_honest(self, ops, base):
        """A never-draining drop_and_mark_gap subscriber still reconciles."""
        with DatalogService(base, RULES) as service:
            subscription = service.subscribe(
                QUERY, max_queue=2, on_overflow="drop_and_mark_gap"
            )
            history = [(service.revision, service.facts)]
            for kind, atoms in ops:
                future = (
                    service.add_facts(atoms)
                    if kind == "add"
                    else service.remove_facts(atoms)
                )
                future.result(5)
                if service.revision != history[-1][0]:
                    history.append((service.revision, service.facts))
            items = drain(subscription)
            facts_at = dict(history)
            state = subscription.snapshot_answers
            last = subscription.snapshot_revision
            for item in items:
                assert item.revision > last, "not in strict revision order"
                last = item.revision
                if item.is_gap:
                    assert item.resync == oracle(
                        facts_at[item.revision], QUERY
                    )
                state = item.apply(state)
            if items:
                assert state == oracle(facts_at[items[-1].revision], QUERY)
            # Nothing was lost silently: every coalesced delivery is
            # accounted for by the gap counters.
            assert subscription.gaps == sum(
                1 for item in items if item.is_gap
            ) or subscription.gaps > len([i for i in items if i.is_gap])
            if subscription.dropped:
                assert subscription.gaps > 0


class TestNotificationSemantics:
    """Unit pins on what gets delivered (and what must not be)."""

    def test_notification_carries_exact_answer_delta(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            service.add_facts([link("a", "b"), link("b", "c")]).result(5)
            item = subscription.get(5)
            assert isinstance(item, Notification)
            assert item.revision == service.revision
            assert item.added == frozenset(
                {(Constant("b"),), (Constant("c"),)}
            )
            assert item.removed == frozenset()
            service.remove_facts([link("b", "c")]).result(5)
            item = subscription.get(5)
            assert item.added == frozenset()
            assert item.removed == frozenset({(Constant("c"),)})

    def test_irrelevant_mutation_delivers_nothing(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            service.add_facts([mark("a")]).result(5)
            service.flush(5)
            assert subscription.pending() == 0

    def test_no_op_mutation_delivers_nothing(self):
        with DatalogService([link("a", "b")], RULES) as service:
            subscription = service.subscribe(QUERY)
            assert service.add_facts([link("a", "b")]).result(5) == 0
            assert service.remove_facts([link("c", "d")]).result(5) == 0
            service.flush(5)
            assert subscription.pending() == 0

    def test_relevant_change_with_empty_answer_delta_delivers_nothing(self):
        # b->c changes reachable(b, ·) but not reachable(a, ·): the plan's
        # view repairs, yet this subscriber's projected delta is empty.
        with DatalogService([link("c", "d")], RULES) as service:
            subscription = service.subscribe(QUERY)
            service.add_facts([link("b", "c")]).result(5)
            service.flush(5)
            assert subscription.pending() == 0

    def test_same_plan_subscribers_share_one_delta(self):
        with DatalogService((), RULES) as service:
            first = service.subscribe(QUERY)
            second = service.subscribe(QUERY)
            other = service.subscribe(parse_query("?(X) :- reachable(X, d)"))
            service.add_facts([link("a", "b"), link("c", "d")]).result(5)
            assert first.get(5).added == second.get(5).added
            assert other.get(5).added == frozenset({(Constant("c"),)})

    def test_acknowledged_write_observes_own_notification(self):
        """By the time a mutation future resolves, the delivery is queued."""
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            service.add_facts([link("a", "b")]).result(5)
            assert subscription.pending() == 1

    def test_iterator_stops_at_unsubscribe(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            service.add_facts([link("a", "b")]).result(5)
            subscription.unsubscribe()
            items = list(subscription)
            assert [item.revision for item in items] == [1]
            assert subscription.get(1) is None
            assert not subscription.active

    def test_unsubscribe_stops_deliveries_and_unpins(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            subscription.unsubscribe()
            subscription.unsubscribe()  # idempotent
            service.flush(5)
            assert service.subscriptions_active == 0
            service.add_facts([link("a", "b")]).result(5)
            assert subscription.pending() == 0
            # The writer-side session dropped the pin with the release op.
            assert not service._session._standing_tokens

    def test_context_manager_unsubscribes(self):
        with DatalogService((), RULES) as service:
            with service.subscribe(QUERY) as subscription:
                pass
            service.flush(5)
            assert not subscription.active
            assert service.subscriptions_active == 0

    def test_callback_mode_delivers_in_order(self):
        received = []
        with DatalogService((), RULES) as service:
            service.subscribe(
                QUERY, mode="callback", callback=received.append
            )
            service.add_facts([link("a", "b")]).result(5)
            service.add_facts([link("b", "c")]).result(5)
            deadline = time.time() + 5
            while len(received) < 2 and time.time() < deadline:
                time.sleep(0.005)
        assert [item.revision for item in received] == [1, 2]

    def test_callback_error_is_recorded_and_pump_continues(self):
        received = []

        def flaky(item):
            received.append(item)
            if len(received) == 1:
                raise RuntimeError("subscriber bug")

        with DatalogService((), RULES) as service:
            subscription = service.subscribe(
                QUERY, mode="callback", callback=flaky
            )
            service.add_facts([link("a", "b")]).result(5)
            service.add_facts([link("b", "c")]).result(5)
            deadline = time.time() + 5
            while len(received) < 2 and time.time() < deadline:
                time.sleep(0.005)
        assert len(received) == 2
        assert len(subscription.callback_errors) == 1
        assert isinstance(subscription.callback_errors[0], RuntimeError)

    def test_get_timeout_raises(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(QUERY)
            with pytest.raises(TimeoutError):
                subscription.get(0.05)

    def test_subscribe_argument_validation(self):
        with DatalogService((), RULES) as service:
            with pytest.raises(ValueError):
                service.subscribe(QUERY, mode="pull")
            with pytest.raises(ValueError):
                service.subscribe(QUERY, mode="callback")  # no callback
            with pytest.raises(ValueError):
                service.subscribe(QUERY, callback=print)  # not callback mode
            with pytest.raises(ValueError):
                service.subscribe(QUERY, max_queue=0)
            with pytest.raises(ValueError):
                service.subscribe(QUERY, on_overflow="shed")

    def test_subscribe_outside_fragment_raises_scope_error(self):
        rules = parse_program("person(X) -> exists Y. parent(X, Y)")
        with DatalogService((), rules) as service:
            with pytest.raises(UnsupportedClassError):
                service.subscribe(parse_query("?(Y) :- parent(a, Y)"))

    def test_metrics_and_span(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        with use_tracer(tracer):
            with DatalogService((), RULES, metrics=registry) as service:
                subscription = service.subscribe(QUERY)
                service.add_facts([link("a", "b")]).result(5)
                subscription.get(5)
                snapshot = service.stats()
        assert snapshot.gauges["service_subscriptions_active"] == 1
        assert snapshot.counters["service_subscriptions_registered"] == 1
        assert snapshot.counters["service_notifications_sent"] == 1
        assert snapshot.counters["service_subscription_gaps"] == 0
        (span,) = tracer.spans("service.notify")
        assert span.attributes["notifications"] == 1


class TestOverflowPolicies:
    def test_drop_and_mark_gap_coalesces_into_one_honest_gap(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(
                QUERY, max_queue=1, on_overflow="drop_and_mark_gap"
            )
            for target in "bcde":
                service.add_facts([link("a", target)]).result(5)
            items = drain(subscription)
            assert len(items) == 1 and items[0].is_gap
            gap = items[0]
            assert gap.revision == service.revision
            assert gap.resync == service.answers(QUERY)
            assert subscription.dropped > 0 and subscription.gaps > 0
            # Folding through the gap reconciles with poll.
            state = gap.apply(subscription.snapshot_answers)
            assert state == service.answers(QUERY)

    def test_drop_policy_stream_resumes_exactly_after_gap(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(
                QUERY, max_queue=1, on_overflow="drop_and_mark_gap"
            )
            service.add_facts([link("a", "b")]).result(5)
            service.add_facts([link("a", "c")]).result(5)  # overflow -> gap
            state = subscription.get(5).apply(subscription.snapshot_answers)
            assert subscription.pending() == 0
            service.add_facts([link("a", "d")]).result(5)
            item = subscription.get(5)
            assert not item.is_gap, "stream must be exact again after a gap"
            state = item.apply(state)
            assert state == service.answers(QUERY)

    def test_block_policy_backpressures_the_writer(self):
        with DatalogService((), RULES) as service:
            subscription = service.subscribe(
                QUERY, max_queue=1, on_overflow="block"
            )
            service.add_facts([link("a", "b")]).result(5)  # queue now full
            blocked = service.add_facts([link("a", "c")])
            time.sleep(0.1)
            assert not blocked.done(), (
                "mutation acknowledged while its delivery was blocked"
            )
            first = subscription.get(5)  # frees the queue slot
            assert blocked.result(5) == 1
            state = first.apply(subscription.snapshot_answers)
            state = subscription.get(5).apply(state)
            assert state == service.answers(QUERY)
            assert subscription.gaps == 0


class TestCloseOrdering:
    """The satellite bug fix: auxiliary consumers now drain through close."""

    def test_close_flushes_in_flight_notifications(self):
        service = DatalogService((), RULES)
        subscription = service.subscribe(QUERY)
        service.add_facts([link("a", "b")]).result(5)
        service.add_facts([link("b", "c")]).result(5)
        service.close(timeout=10)
        items = list(subscription)  # drains, then stops
        assert [item.revision for item in items] == [1, 2]
        state = subscription.snapshot_answers
        for item in items:
            state = item.apply(state)
        assert state == service.answers(QUERY)
        assert subscription.get(0.1) is None

    def test_late_subscribe_raises_service_closed(self):
        service = DatalogService((), RULES)
        service.close(timeout=10)
        with pytest.raises(ServiceClosedError):
            service.subscribe(QUERY)

    def test_close_with_full_blocking_queue_does_not_deadlock(self):
        service = DatalogService((), RULES)
        subscription = service.subscribe(
            QUERY, max_queue=1, on_overflow="block"
        )
        service.add_facts([link("a", "b")]).result(5)  # fills the queue
        service.add_facts([link("a", "c")])  # writer blocks delivering this
        time.sleep(0.1)
        started = time.time()
        service.close(timeout=10)
        assert time.time() - started < 8, "close() deadlocked on a consumer"
        items = list(subscription)
        state = subscription.snapshot_answers
        for item in items:
            state = item.apply(state)
        # The interrupted delivery became a gap; the fold still reconciles.
        assert state == service.answers(QUERY)
        assert any(item.is_gap for item in items) or len(items) == 2

    def test_close_flushes_callback_backlog(self):
        received = []
        service = DatalogService((), RULES)
        service.subscribe(
            QUERY, mode="callback", callback=received.append
        )
        service.add_facts([link("a", "b")]).result(5)
        service.add_facts([link("b", "c")]).result(5)
        service.close(timeout=10)  # joins the pump after it drains
        assert [item.revision for item in received] == [1, 2]

    def test_unsubscribe_after_close_is_harmless(self):
        service = DatalogService((), RULES)
        subscription = service.subscribe(QUERY)
        service.close(timeout=10)
        subscription.unsubscribe()  # must not raise (writer is gone)
        assert not subscription.active

    def test_double_close_idempotent_with_subscribers(self):
        service = DatalogService((), RULES)
        service.subscribe(QUERY)
        service.close(timeout=10)
        service.close(timeout=10)
        assert service.subscriptions_active == 0


class TestStandingQuerySession:
    """White-box: the QuerySession standing-query machinery underneath."""

    def test_register_returns_current_answers_and_toggles_capture(self):
        session = QuerySession([link("a", "b")], RULES)
        standing = session.register_standing(QUERY, token=1)
        assert standing.answers == session.answers(QUERY)
        assert session._capture_deltas
        assert session.standing_exact(standing)
        assert session.standing_answers(standing) == standing.answers
        session.release_standing(standing, token=1)
        assert not session._capture_deltas

    def test_drain_composes_net_deltas_across_mutations(self):
        session = QuerySession((), RULES)
        session.register_standing(QUERY, token=1)
        session.drain_standing_deltas()
        session.add_facts([link("a", "b")])
        session.remove_facts([link("a", "b")])
        deltas = session.drain_standing_deltas()
        # Touched predicates are reported, but the net view delta is empty.
        for delta in deltas.views.values():
            assert not delta.added and not delta.removed
        assert not session.drain_standing_deltas(), "drain must reset"

    def test_pinned_seed_survives_seed_pruning(self):
        session = QuerySession([link(s, t) for s, t in zip("abc", "bcd")], RULES)
        session._view_seed_cap = 1
        standing = session.register_standing(QUERY, token=1)
        for source in "bcd":
            session.answers(parse_query(f"?(Y) :- reachable({source}, Y)"))
        assert session.standing_exact(standing)
        assert session.standing_answers(standing) == session.answers(QUERY)

    def test_pinned_plan_survives_cache_eviction(self):
        session = QuerySession([link("a", "b")], RULES, plan_cache_size=1)
        standing = session.register_standing(QUERY, token=1)
        session.answers(parse_query("?(X, Y) :- link(X, Y)"))
        session.answers(parse_query("?(X) :- reachable(X, b)"))
        assert session.standing_exact(standing)

    def test_budget_loss_is_reported_not_silent(self):
        session = QuerySession([link("a", "b")], RULES, max_atoms=500)
        standing = session.register_standing(QUERY, token=1)
        session.drain_standing_deltas()
        # Grow the chain until the view repair exceeds the budget and the
        # view is dropped; the drain must then report the plan as lost.
        lost = False
        for length in range(60):
            session.add_facts(
                [link(f"n{length}", f"n{length + 1}"), link("a", f"n{length}")]
            )
            deltas = session.drain_standing_deltas()
            if standing.plan_key in deltas.lost:
                lost = True
                break
        assert lost, "budget-dropped view never reported as lost"
        assert not session.standing_exact(standing)
        assert session.standing_answers(standing) is None

    def test_register_over_budget_raises(self):
        chain = [link(f"n{i}", f"n{i + 1}") for i in range(30)]
        session = QuerySession(chain, RULES, max_atoms=40)
        with pytest.raises(SubscriptionError):
            session.register_standing(
                parse_query("?(Y) :- reachable(n0, Y)"), token=1
            )
        assert not session._capture_deltas

    def test_reregistration_is_idempotent(self):
        session = QuerySession([link("a", "b")], RULES)
        first = session.register_standing(QUERY, token=1)
        second = session.register_standing(QUERY, token=1)
        assert first.plan_key == second.plan_key
        assert second.answers == session.answers(QUERY)
        session.release_standing(second, token=1)
        assert not session._capture_deltas


class TestFoldPrimitives:
    def test_notification_apply(self):
        item = Notification(3, frozenset({("b",)}), frozenset({("c",)}))
        assert item.apply(frozenset({("a",), ("c",)})) == frozenset(
            {("a",), ("b",)}
        )
        assert not item.is_gap

    def test_gap_apply_replaces_state(self):
        gap = Gap(7, frozenset({("x",)}), dropped=4)
        assert gap.apply(frozenset({("a",)})) == frozenset({("x",)})
        assert gap.is_gap and gap.dropped == 4
