"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate parse errors, safety violations, solver resource
exhaustion, and misuse of the public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the library."""


class ParseError(ReproError):
    """Raised when a rule, query, or database cannot be parsed.

    The offending text and, when available, the position of the error are
    embedded in the message.
    """

    def __init__(self, message: str, text: str | None = None, position: int | None = None):
        details = message
        if text is not None:
            details += f" (while parsing: {text!r}"
            if position is not None:
                details += f", at position {position}"
            details += ")"
        super().__init__(details)
        self.text = text
        self.position = position


class SafetyError(ReproError):
    """Raised when a rule or query violates the safety condition.

    The paper restricts attention to *safe* NTGDs and queries: every variable
    occurring in a negative literal must also occur in a positive body literal,
    and every universally quantified head variable must occur in the body.
    """


class ArityError(ReproError):
    """Raised when a predicate is used with inconsistent arities."""


class GroundingError(ReproError):
    """Raised when an operation requires ground input but received variables."""


class SolverLimitError(ReproError):
    """Raised when a solver exceeds a user-supplied resource budget.

    The stable-model engines work on finite universes but can still face
    combinatorial explosion; budgets (maximum models, maximum branching steps,
    maximum derived atoms) turn runaway searches into clean errors.
    """


class UnsupportedClassError(ReproError):
    """Raised when an algorithm is applied outside its class of applicability.

    For example, the restricted-chase termination guarantee only applies to
    weakly-acyclic rule sets; callers may opt in to running the chase anyway
    with an explicit step budget.
    """


class InconsistentProgramError(ReproError):
    """Raised when a program is expected to have a stable model but has none."""


class ServiceClosedError(ReproError):
    """Raised when a mutation is submitted to a closed :class:`DatalogService`.

    Reads keep working after ``close()`` — the last published epoch is
    immutable — but the writer thread is gone, so nothing could ever apply a
    late mutation.
    """


class ServiceOverloadedError(ReproError):
    """Raised by a :class:`DatalogService` shedding write load.

    Under the ``"reject"`` backpressure policy a full write queue refuses new
    mutations immediately; under the default ``"block"`` policy this is only
    raised when a caller-supplied enqueue timeout expires first.
    """


class SubscriptionError(ReproError):
    """Raised when a standing query cannot be registered (or kept) exactly.

    Push-based subscriptions are certified against poll-and-diff: every
    notification must be derived from the maintained view's exact
    :class:`~repro.engine.maintenance.ViewDelta`, never by re-evaluation.
    A query whose evaluation exceeds the ``max_atoms`` budget makes exact
    deltas impossible (the shared view would be dropped), and ``subscribe``
    refuses instead of silently degrading.  Rules outside the rewritable
    fragment raise their own scope error (:class:`UnsupportedClassError` /
    :class:`StratificationError`) unchanged.
    """


class DurabilityError(ReproError):
    """Raised by the durability layer on misuse or damaged store files.

    Torn log tails are *not* errors — they are expected crash artefacts,
    silently recovered to the longest valid prefix — and neither is an
    invalid newest checkpoint while the log still holds every batch after
    the valid one recovery falls back to.  This error covers the genuinely
    unrecoverable or ambiguous cases: a log file that is not a repro WAL at
    all, a store already locked by another live process, invalid
    checkpoints whose fallback would drop acknowledged batches (the log
    was compacted past them), or opening an existing store with a
    conflicting initial database.
    """


class ReplicationError(ReproError):
    """Raised by the epoch-replication layer on protocol violations.

    A replica that observes a revision gap in its delta stream (a record
    it cannot compose onto its last-applied revision) raises this instead
    of silently applying — the transport layer reacts by resynchronising
    from a snapshot.  Malformed wire records and use of a closed
    publisher/transport raise it too.
    """


class StratificationError(ReproError):
    """Raised when a program is not stratified w.r.t. default negation.

    A normal program is stratified iff no cycle of the predicate dependency
    graph contains a negative edge.  Goal-directed evaluation
    (:mod:`repro.query`) requires stratification: it evaluates the rewritten
    program stratum by stratum, testing negative literals against strata that
    are already complete.  The offending predicates (one strongly connected
    component through a negative edge) are listed in the message.
    """
