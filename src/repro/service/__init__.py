"""repro.service — concurrent snapshot-isolated query serving.

The serving layer of the stack: :class:`DatalogService` owns one writer
:class:`~repro.query.session.QuerySession` and publishes immutable
:class:`Epoch` objects (revision → detached
:class:`~repro.engine.index.RelationSnapshot` + frozen answer-cache view)
through an atomic reference swap, so any number of reader threads answer
queries lock-free on the last published epoch while a single writer thread
applies coalesced mutation batches and incremental view repairs.  Admission
control (bounded write queue, ``block``/``reject`` backpressure) and the
``service_*`` registry counters make the serving behaviour observable.

With ``durability=`` (or :meth:`DatalogService.open`), the service adds a
write-ahead fact log, periodic checkpoints of the base facts, and a
recovery path that replays the log tail past the latest checkpoint — an
acknowledged write is never lost by a crash and never applied twice by
recovery (:mod:`repro.service.durability`).

Beyond polling, :meth:`DatalogService.subscribe` registers **standing
queries**: each subscriber owns a bounded delta queue receiving ordered
:class:`Notification` objects — per-epoch added/removed answer sets derived
from the maintained views' exact deltas, with ``block`` /
``drop_and_mark_gap`` backpressure and :class:`Gap` resync markers
(:mod:`repro.service.subscriptions`).

See ``docs/serving.md`` for the architecture walk-through,
``docs/subscriptions.md`` for the push-based delivery contract, and
``docs/durability.md`` for the durability layer.
"""

from .durability import DurabilityConfig, DurabilityManager
from .service import DatalogService, Epoch
from .subscriptions import Gap, Notification, Subscription, SubscriptionRegistry

__all__ = [
    "DatalogService",
    "DurabilityConfig",
    "DurabilityManager",
    "Epoch",
    "Gap",
    "Notification",
    "Subscription",
    "SubscriptionRegistry",
]
