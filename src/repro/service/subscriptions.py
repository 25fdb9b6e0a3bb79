"""Standing queries: push-based subscriptions with per-subscriber delta queues.

Polling a :class:`~repro.service.service.DatalogService` answers "what are the
answers *now*"; a **subscription** answers "tell me whenever they change".
Clients register a query with :meth:`DatalogService.subscribe` and receive an
ordered stream of :class:`Notification`\\ s — ``(epoch revision, added answer
tuples, removed answer tuples)`` — derived from the maintained view's exact
:class:`~repro.engine.maintenance.ViewDelta` at publish time, **never by
re-evaluation**: the writer already repairs one
:class:`~repro.engine.maintenance.MaterializedView` per compiled plan on every
mutation, so pushing the change to subscribers costs one projection of the
delta's goal relation per epoch, shared across every subscriber of the same
plan.

The delivery contract (certified by ``tests/test_subscriptions.py``):

* **fold ≡ poll-and-diff** — applying a subscriber's notifications in order
  over its registration-time snapshot reproduces the poll answers at every
  observed revision;
* **exactly-once, in-revision-order** — at most one item per published
  revision per subscriber, revisions strictly increasing;
* **no silent loss** — a slow consumer under ``drop_and_mark_gap`` gets a
  :class:`Gap` marker carrying a full-resync answer set equal to the
  from-scratch answers at the gap epoch, so it can always re-join a
  consistent stream; under ``block`` the writer waits instead (backpressure
  propagates to mutators, exactly like the write queue's ``block`` policy).

Each subscriber owns a bounded delta queue written only by the writer thread
(single producer — ordering is structural, not locked-in) and drained either
by iterating the :class:`Subscription` (``mode="iterator"``) or by a
dedicated pump thread invoking a callback (``mode="callback"``).  Closing the
service flushes in-flight notifications — queued items stay consumable, then
the stream ends — and late ``subscribe()`` calls raise
:class:`~repro.errors.ServiceClosedError`.

See ``docs/subscriptions.md`` for the walkthrough and the knob table.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..core.queries import ConjunctiveQuery
from ..errors import ReproError, ServiceClosedError
from ..obs.metrics import MetricsRegistry
from ..query.magic import MagicProgram
from ..query.session import QuerySession, StandingDeltas, StandingQuery

__all__ = ["Gap", "Notification", "Subscription", "SubscriptionRegistry"]


@dataclass(frozen=True)
class Notification:
    """One epoch's exact answer change for one subscriber.

    ``added`` and ``removed`` are disjoint frozensets of answer tuples;
    folding ``(state - removed) | added`` over a subscriber's stream —
    starting from its registration snapshot — reproduces the poll answers
    at ``revision``.
    """

    revision: int
    added: frozenset
    removed: frozenset

    #: discriminates the stream items without isinstance at every fold step
    is_gap = False

    def apply(self, answers: frozenset) -> frozenset:
        """Fold this change into a subscriber-held answer set."""
        return (answers - self.removed) | self.added

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Notification(revision={self.revision}, "
            f"+{len(self.added)}, -{len(self.removed)})"
        )


@dataclass(frozen=True)
class Gap:
    """A marker that exact per-epoch deltas were interrupted.

    Emitted when an overflowing queue coalesced undelivered notifications
    (``drop_and_mark_gap``, or a ``block``\\ ed delivery interrupted by
    ``close()``), or when the maintained view itself was lost mid-repair
    (``max_atoms`` budget).  ``resync`` is the **complete** answer set at
    ``revision`` — a consumer replaces its state with it and the stream is
    consistent again; ``dropped`` counts the stream items the gap swallowed
    (0 when the gap replaced no queued deliveries, e.g. a pure view loss).
    """

    revision: int
    resync: frozenset
    dropped: int = 0

    is_gap = True

    def apply(self, answers: frozenset) -> frozenset:
        """Fold semantics of a gap: replace the state with the resync set."""
        return self.resync

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gap(revision={self.revision}, resync={len(self.resync)}, "
            f"dropped={self.dropped})"
        )


#: what one delivery attempt did (registry counters are keyed off this)
_DELIVERED, _GAPPED, _SKIPPED = "delivered", "gapped", "skipped"


class Subscription:
    """One subscriber's handle: a bounded delta queue plus its standing query.

    Created by :meth:`DatalogService.subscribe`; never construct directly.
    The **writer thread** is the only producer, so items arrive exactly once
    and in revision order by construction.  Consumption is either pull —
    iterate the subscription (or call :meth:`get`) from any one consumer
    thread — or push: ``mode="callback"`` runs a dedicated pump thread that
    drains the same queue and invokes the callback per item.

    ``snapshot_revision`` / ``snapshot_answers`` pin the registration point:
    the first notification's fold applies on top of ``snapshot_answers``,
    and every notification's ``revision`` is strictly greater than
    ``snapshot_revision``.
    """

    def __init__(
        self,
        registry: "SubscriptionRegistry",
        token: int,
        query: ConjunctiveQuery,
        standing: StandingQuery,
        *,
        mode: str,
        callback: Optional[Callable] = None,
        max_queue: int = 256,
        on_overflow: str = "block",
    ) -> None:
        self._registry = registry
        self._token = token
        self.query = query
        self.mode = mode
        self.max_queue = max_queue
        self.on_overflow = on_overflow
        #: the session-side registration; writer-only writes (resync swaps it)
        self._standing = standing
        self.snapshot_revision: int = registry._session.revision
        self.snapshot_answers: frozenset = standing.answers
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._ended = False
        self._error: Optional[BaseException] = None
        self._delivered = 0
        self._gaps = 0
        self._dropped = 0
        self._callback = callback
        self._callback_errors: list = []
        self._pump: Optional[threading.Thread] = None
        if mode == "callback":
            self._pump = threading.Thread(
                target=self._pump_loop,
                name=f"repro-subscription-{token}",
                daemon=True,
            )
            self._pump.start()

    # ------------------------------------------------------------- consumer
    def get(self, timeout: Optional[float] = None):
        """The next :class:`Notification`/:class:`Gap`, blocking.

        Returns ``None`` once the stream has ended (unsubscribe or service
        close) **and** every queued item has been consumed — in-flight
        notifications are always drained first.  Raises ``TimeoutError``
        when *timeout* seconds pass without an item, and re-raises a
        delivery error that terminated the stream (after the drain).
        """
        deadline = (
            None
            if timeout is None
            else threading.TIMEOUT_MAX
            if timeout < 0
            else timeout
        )
        with self._cond:
            while not self._items:
                if self._error is not None:
                    raise self._error
                if self._ended:
                    return None
                if deadline is not None:
                    if not self._cond.wait(deadline):
                        raise TimeoutError(
                            f"no notification within {timeout} seconds"
                        )
                    deadline = None  # one bounded wait per call
                else:
                    self._cond.wait()
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def __iter__(self) -> Iterator:
        """Yield stream items until the subscription ends (then stop)."""
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    def pending(self) -> int:
        """Queued, not-yet-consumed items."""
        with self._cond:
            return len(self._items)

    @property
    def delivered(self) -> int:
        """Items enqueued for this subscriber (notifications and gaps)."""
        return self._delivered

    @property
    def gaps(self) -> int:
        """Gap markers enqueued (every overflow/loss leaves exactly one)."""
        return self._gaps

    @property
    def dropped(self) -> int:
        """Stream items coalesced away by gaps (never lost silently)."""
        return self._dropped

    @property
    def active(self) -> bool:
        """``True`` while new notifications can still arrive."""
        return not self._ended

    @property
    def callback_errors(self) -> Tuple[BaseException, ...]:
        """Exceptions raised by the callback (callback mode), in order."""
        return tuple(self._callback_errors)

    def unsubscribe(self) -> None:
        """Stop the stream: no further deliveries, queued items drainable.

        Idempotent and callable from any thread (including from inside a
        callback).  The session-side pin is released through a control op
        riding the write queue; on a closed service the pin is moot (the
        writer is gone) and the release is skipped.
        """
        self._registry._unsubscribe(self)

    #: ``close()`` reads naturally next to ``service.close()``
    close = unsubscribe

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unsubscribe()

    # ------------------------------------------------------------- producer
    def _offer(self, item, resync: Callable[[], frozenset]) -> str:
        """Enqueue *item* (writer thread only), honouring the overflow policy.

        ``block`` waits for queue space — woken by consumers, by
        :meth:`unsubscribe`, or by the registry beginning to close, in which
        case (and under ``drop_and_mark_gap`` immediately) a full queue is
        coalesced into one :class:`Gap` at *item*'s revision carrying
        ``resync()``.  Returns what happened (delivered/gapped/skipped).
        """
        with self._cond:
            if self._ended:
                return _SKIPPED
            if self.on_overflow == "block":
                while (
                    len(self._items) >= self.max_queue
                    and not self._ended
                    and not self._registry._closing
                ):
                    self._cond.wait()
                if self._ended:
                    # The stream ended while the delivery waited: nothing
                    # can observe the difference, the item is not "lost".
                    return _SKIPPED
            if len(self._items) >= self.max_queue:
                # Coalesce everything undelivered — the queued backlog plus
                # this item — into one gap whose resync *is* the cumulative
                # effect of all of them.
                swallowed = len(self._items) + 1
                self._items.clear()
                gap = (
                    Gap(item.revision, item.resync, item.dropped + swallowed - 1)
                    if item.is_gap
                    else Gap(item.revision, resync(), swallowed)
                )
                self._items.append(gap)
                self._delivered += 1
                self._gaps += 1
                self._dropped += swallowed
                self._cond.notify_all()
                return _GAPPED
            self._items.append(item)
            self._delivered += 1
            if item.is_gap:
                self._gaps += 1
                self._dropped += item.dropped
            self._cond.notify_all()
            return _DELIVERED if not item.is_gap else _GAPPED

    def _end(self, error: Optional[BaseException] = None) -> None:
        """Terminate the stream (queued items remain consumable)."""
        with self._cond:
            if self._ended:
                return
            self._ended = True
            if error is not None:
                self._error = error
            self._cond.notify_all()

    def _wake(self) -> None:
        """Nudge a producer blocked on this queue (registry close path)."""
        with self._cond:
            self._cond.notify_all()

    # ------------------------------------------------------------- callback
    def _pump_loop(self) -> None:
        """Drain the queue and invoke the callback (callback mode only)."""
        while True:
            try:
                item = self.get()
            except BaseException:  # delivery error: surface via get(), stop
                return
            if item is None:
                return
            try:
                self._callback(item)
            except Exception as error:
                # A broken callback must not kill delivery for good: record
                # and keep pumping (the subscriber inspects callback_errors).
                self._callback_errors.append(error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ended" if self._ended else "active"
        return (
            f"Subscription({state}, query={self.query}, "
            f"pending={len(self._items)}, delivered={self._delivered}, "
            f"gaps={self._gaps})"
        )


class SubscriptionRegistry:
    """The writer-side fan-out hub of one :class:`DatalogService`.

    Owns the live :class:`Subscription`\\ s and, once per published epoch,
    projects the session's drained per-plan
    :class:`~repro.engine.maintenance.ViewDelta`\\ s onto per-subscriber
    answer deltas (:meth:`fan_out`).  All registration, release, and fan-out
    runs on the **writer thread** (registration rides the write queue as a
    control op), so the session is only ever touched under its single-writer
    contract; consumer-side calls (``get``/``unsubscribe``) touch only the
    per-subscription queues.
    """

    def __init__(
        self, service, session: QuerySession, metrics: MetricsRegistry
    ) -> None:
        self._service = service
        self._session = session
        self._registered = metrics.counter("service_subscriptions_registered")
        self._lock = threading.Lock()
        self._subs: Dict[int, Subscription] = {}
        self._tokens = count(1)
        #: set (before the writer is joined) when the service starts closing:
        #: blocked deliveries convert to gaps instead of deadlocking close()
        self._closing = False
        self._ended = False

    def active_count(self) -> int:
        return len(self._subs)

    # ---------------------------------------------------------- writer side
    def register(
        self,
        query: ConjunctiveQuery,
        *,
        mode: str,
        callback: Optional[Callable],
        max_queue: int,
        on_overflow: str,
    ) -> Subscription:
        """Register a subscription (writer thread; raises scope errors)."""
        if self._ended:
            raise ServiceClosedError("service is closed")
        token = next(self._tokens)
        standing = self._session.register_standing(query, token)
        subscription = Subscription(
            self,
            token,
            query,
            standing,
            mode=mode,
            callback=callback,
            max_queue=max_queue,
            on_overflow=on_overflow,
        )
        with self._lock:
            self._subs[token] = subscription
        self._registered.inc()
        return subscription

    def release(self, subscription: Subscription) -> None:
        """Release the session-side pin (writer thread, via control op)."""
        self._session.release_standing(
            subscription._standing, subscription._token
        )

    def fan_out(self, revision: int, deltas: StandingDeltas) -> Tuple[int, int]:
        """Push one epoch's changes to every affected subscriber.

        Runs on the writer thread immediately after the epoch publish.  The
        per-plan goal-relation projection is computed **once** and shared by
        every subscriber of that plan; a subscriber whose dependency cone
        misses the epoch's touched predicates costs one set probe.  Returns
        ``(notifications, gaps)`` enqueued.
        """
        with self._lock:
            subscribers = list(self._subs.values())
        if not subscribers:
            return 0, 0
        notified = gaps = 0
        #: plan key -> (suffix -> added answers, suffix -> removed answers)
        projections: Dict[tuple, Tuple[dict, dict]] = {}
        for subscription in subscribers:
            standing = subscription._standing
            lost = standing.plan_key in deltas.lost
            if not lost and deltas.touched.isdisjoint(standing.depends):
                continue  # the epoch cannot have changed this query's answers
            try:
                if not lost and self._session.standing_exact(standing):
                    delta = deltas.views.get(standing.plan_key)
                    if delta is None:
                        continue  # cone touched, view repaired, net change empty
                    added, removed = self._project(projections, standing, delta)
                    if not added and not removed:
                        continue
                    outcome = subscription._offer(
                        Notification(revision, added, removed),
                        lambda s=subscription: self._resync(s),
                    )
                else:
                    # Exactness was lost (budget-dropped view): re-register —
                    # which rebuilds and re-pins the view so the stream is
                    # exact again from the next epoch — and hand the
                    # subscriber the full current answer set to rebase on.
                    outcome = subscription._offer(
                        Gap(revision, self._resync(subscription), 0),
                        lambda s=subscription: self._resync(s),
                    )
            except BaseException as error:
                # One broken subscriber (e.g. its resync re-raised a budget
                # error) must not take down the writer or its siblings.
                subscription._end(error)
                continue
            if outcome == _DELIVERED:
                notified += 1
            elif outcome == _GAPPED:
                gaps += 1
        return notified, gaps

    def _project(
        self,
        projections: Dict[tuple, Tuple[dict, dict]],
        standing: StandingQuery,
        delta,
    ) -> Tuple[frozenset, frozenset]:
        """This standing query's answer delta, from its plan's shared
        goal-relation projection (built once per plan per epoch)."""
        projection = projections.get(standing.plan_key)
        if projection is None:
            added_by: dict = {}
            removed_by: dict = {}
            goal, arity = standing.goal, standing.answer_arity
            decode = delta.symbols.decode_term
            for source, target in (
                (delta.added_rows, added_by),
                (delta.removed_rows, removed_by),
            ):
                # A goal row's parameters follow its answer positions.
                by_parameters: dict = {}
                for predicate, row in source:
                    if predicate is goal:
                        by_parameters.setdefault(row[arity:], []).append(row)
                for parameters, rows in by_parameters.items():
                    target[tuple(map(decode, parameters))] = (
                        MagicProgram.goal_answers(rows, arity, delta.symbols)
                    )
            projection = (added_by, removed_by)
            projections[standing.plan_key] = projection
        added = frozenset(projection[0].get(standing.constants, ()))
        removed = frozenset(projection[1].get(standing.constants, ()))
        return added, removed

    def _resync(self, subscription: Subscription) -> frozenset:
        """The full answer set at the current revision (writer thread).

        Prefers re-registering the standing query — one filtered scan of the
        (re)pinned view, restoring exactness for later epochs; falls back to
        a one-off session evaluation when the view cannot be held (budget),
        in which case the subscriber keeps receiving gaps on every relevant
        epoch rather than wrong deltas.
        """
        try:
            standing = self._session.register_standing(
                subscription.query, subscription._token
            )
        except ReproError:
            return self._session.answers(subscription.query)
        subscription._standing = standing
        return standing.answers

    # -------------------------------------------------------------- closing
    def begin_close(self) -> None:
        """Make ``close()`` deadlock-free: wake every blocked delivery.

        Called *before* the writer thread is joined.  A producer blocked on
        a full ``block``-policy queue wakes, sees the flag, and coalesces
        into a gap — so the writer always drains and joins, no matter how
        slow the consumers are.
        """
        self._closing = True
        with self._lock:
            subscribers = list(self._subs.values())
        for subscription in subscribers:
            subscription._wake()

    def finish_close(self, timeout: Optional[float] = None) -> None:
        """End every stream after the writer is gone (in-flight items stay).

        Queued notifications remain consumable — iterator consumers drain
        then stop; callback pumps flush their backlog and exit (joined here,
        bounded by *timeout*).
        """
        self._ended = True
        with self._lock:
            subscribers = list(self._subs.values())
            self._subs.clear()
        for subscription in subscribers:
            subscription._end()
        for subscription in subscribers:
            pump = subscription._pump
            if pump is not None and pump is not threading.current_thread():
                pump.join(timeout)

    # ------------------------------------------------------------- consumer
    def _unsubscribe(self, subscription: Subscription) -> None:
        """Consumer-side unsubscribe: stop deliveries now, unpin later."""
        with self._lock:
            present = self._subs.pop(subscription._token, None) is not None
        subscription._end()
        pump = subscription._pump
        if pump is not None and pump is not threading.current_thread():
            pump.join(5)
        if present:
            try:
                self._service._enqueue(
                    "unsubscribe", (), payload=subscription, force=True
                )
            except ServiceClosedError:
                pass  # the writer is gone; the pin dies with the process
