"""Subscription fan-out benchmark: notify-on-delta vs poll-and-diff.

The subscription layer's headline claim (see ``docs/subscriptions.md``):
pushing each epoch's **exact view delta** to standing-query subscribers is
fundamentally cheaper than every client re-reading and diffing its answers
after every epoch.  The accounting, per published epoch with K standing
queries:

* **push** — the writer already repairs one maintained view per compiled
  plan; the fan-out adds one goal-relation projection of the captured
  ``ViewDelta`` (shared across all subscribers of the plan) plus one queue
  append per *affected* subscriber.  Subscribers whose dependency cone
  misses the epoch's touched predicates are skipped outright, so an epoch
  that extends one chain costs one projection and one notification no
  matter how large K grows.
* **poll** — every client must read its answers (K reads) and two-way
  set-diff them against its previous state (K diffs), every epoch, just to
  discover that K-1 of them did not change.  Worse, the service's
  reader-warming hot set is bounded (128 queries): past that, polled
  queries thrash the warm cache and re-evaluate on the published snapshot,
  while subscriptions *pin* their standing queries in the writer session
  and stay exact-delta forever.

Both modes run the identical steady-state workload: disjoint ``link``
chains under transitive reachability, one standing query per chain head,
one chain extended per epoch (every mutation acknowledged before the next,
so both modes observe the same epoch sequence).  Setup — service
construction, plan compilation, view seeding, cache warming — is excluded
from both sides; what is timed is the steady-state loop a long-lived
serving deployment actually lives in: mutate, propagate, consume.

Correctness is asserted on every round: each subscriber's stream folded
over its registration snapshot must equal the poll client's final state,
poll must detect exactly as many changed (query, epoch) pairs as push
delivered notifications, and no gaps may be emitted (the queues are never
contended here).  The acceptance criterion is HARD: on the largest
instance, notify-on-delta must beat poll-and-diff by at least **3x**
(locally ~7x; the CI bound leaves headroom for noisy runners).

Timings for the full scaling table land in ``BENCH_results.json`` via
``benchmark.extra_info``.
"""

from __future__ import annotations

import time

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.obs import MetricsRegistry
from repro.service import DatalogService

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

#: (chains, chain length, epochs) — K standing queries over K disjoint
#: chains.  The largest instance holds more standing queries (160) than the
#: service's reader-warming hot set (128), the regime subscriptions exist
#: for.
SIZES = [(32, 12, 24), (96, 16, 45), (160, 16, 60)]

#: Interleaved repetitions on the largest instance; min-of-N per mode so
#: scheduler noise cannot bias one side.
REPS_LARGEST = 3


def chain_atoms(chains: int, length: int) -> list[Atom]:
    return [
        Atom(LINK, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
        for c in range(chains)
        for i in range(length)
    ]


def standing_query(chain: int) -> ConjunctiveQuery:
    """``?(Y) :- reachable(n<chain>_0, Y)`` — everything the head reaches."""
    y = Variable("Y")
    return ConjunctiveQuery(
        (Atom(REACHABLE, (Constant(f"n{chain}_0"), y)).positive(),), (y,)
    )


def epoch_atom(chains: int, length: int, epoch: int) -> Atom:
    """Epoch ``e`` extends chain ``e % chains`` at its current tail."""
    c = epoch % chains
    k = length + epoch // chains
    return Atom(LINK, (Constant(f"n{c}_{k}"), Constant(f"n{c}_{k + 1}")))


def run_push(chains: int, length: int, epochs: int):
    """Subscribe every chain head, then time mutate + consume."""
    with DatalogService(
        chain_atoms(chains, length), RULES, metrics=MetricsRegistry()
    ) as service:
        subscriptions = [
            service.subscribe(standing_query(c)) for c in range(chains)
        ]
        states = [sub.snapshot_answers for sub in subscriptions]

        start = time.perf_counter()
        for epoch in range(epochs):
            service.add_facts([epoch_atom(chains, length, epoch)]).result(30)
        for i, subscription in enumerate(subscriptions):
            while subscription.pending():
                states[i] = subscription.get(5).apply(states[i])
        elapsed = time.perf_counter() - start

        stats = service.stats().counters
        assert stats["service_subscription_gaps"] == 0, "uncontended run emitted gaps"
        assert stats["service_notifications_sent"] == epochs, (
            f"expected exactly one notification per epoch, got "
            f"{stats['service_notifications_sent']} for {epochs} epochs"
        )
        return elapsed, states


def run_poll(chains: int, length: int, epochs: int):
    """Warm every query, then time mutate + K reads + K diffs per epoch."""
    with DatalogService(chain_atoms(chains, length), RULES) as service:
        queries = [standing_query(c) for c in range(chains)]
        for query in queries:
            service.answers(query)
        service.flush(30)  # replay the warm hints into the session
        states = [service.answers(query) for query in queries]

        changed = 0
        start = time.perf_counter()
        for epoch in range(epochs):
            service.add_facts([epoch_atom(chains, length, epoch)]).result(30)
            for i, query in enumerate(queries):
                new = service.answers(query)
                added, removed = new - states[i], states[i] - new
                if added or removed:
                    changed += 1
                states[i] = new
        elapsed = time.perf_counter() - start
        return elapsed, states, changed


def test_notify_beats_poll_3x_on_largest(benchmark):
    """Acceptance criterion: ≥3x over poll-and-diff on the largest instance
    (CI bound; locally ~7x), with stream-fold == poll-state on every run."""
    scaling = []
    for chains, length, epochs in SIZES:
        reps = REPS_LARGEST if (chains, length, epochs) == SIZES[-1] else 1
        push_times, poll_times = [], []
        for _ in range(reps):
            push_s, push_states = run_push(chains, length, epochs)
            poll_s, poll_states, changed = run_poll(chains, length, epochs)
            assert push_states == poll_states, (
                "folded subscription streams diverged from poll-and-diff"
            )
            assert changed == epochs, (
                f"poll detected {changed} changes across {epochs} epochs"
            )
            push_times.append(push_s)
            poll_times.append(poll_s)
        speedup = min(poll_times) / min(push_times)
        scaling.append(
            {
                "chains": chains,
                "length": length,
                "epochs": epochs,
                "push_s": round(min(push_times), 4),
                "poll_s": round(min(poll_times), 4),
                "speedup": round(speedup, 2),
            }
        )

    largest = scaling[-1]
    benchmark.extra_info.update(
        scaling=scaling,
        push_s=largest["push_s"],
        poll_s=largest["poll_s"],
        speedup=largest["speedup"],
    )
    assert largest["speedup"] >= 3.0, (
        f"notify-on-delta only {largest['speedup']:.2f}x over poll-and-diff "
        f"on the largest instance ({largest})"
    )

    # The recorded timing: one steady-state push run on the smallest
    # instance (the scaling table above carries the headline numbers).
    chains, length, epochs = SIZES[0]
    benchmark(run_push, chains, length, epochs)
