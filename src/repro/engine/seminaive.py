"""The generic semi-naive fixpoint driver.

**The delta-rule transformation.**  Naive bottom-up evaluation re-runs every
rule against the *whole* interpretation on every round, re-deriving everything
it already knows.  Semi-naive evaluation exploits a simple fact: a rule
instantiation can produce a *new* atom in round ``k`` only if at least one of
its positive body atoms was itself derived in round ``k - 1``.  Each rule

    h  <-  b1, b2, ..., bn

is therefore evaluated as the union of its *delta rules*

    h  <-  Δb1, b2, ..., bn
    h  <-  b1, Δb2, ..., bn
    ...
    h  <-  b1, b2, ..., Δbn

where ``Δbi`` ranges only over the atoms added in the previous round (obtained
from :meth:`RelationIndex.rows_added_since`) and the remaining literals join
against the full index.  Atom insertion deduplicates, so the overlap between
delta rules is harmless, and no derivation is missed because every new match
must involve at least one new atom.

**Round structure.**  Each round of :func:`fixpoint` groups the previous
round's delta by predicate in one pass.  A delta rule whose ``Δbi`` has no
rows this round cannot fire anything new, so that (rule, position) is
skipped without entering the join; every other position is handed only
its own predicate's rows.  Round 1 joins every rule's full body, including
rules with no positive body, whose join has no loop: they fire there
once, after their negative literals are checked.  The join of each
(rule, delta position), and of each rule's full body for round 1, is a
generated Python function memoised on the rule's
:class:`~repro.engine.planner.EncodedRule`
(:meth:`~repro.engine.planner.EncodedRule.programme`: ``order_body``
plans it, :func:`~repro.engine.planner.generate_join` writes it);
:func:`fixpoint` calls it directly and builds head rows with the rule's
generated ``build_head_rows``.  A join is planned and generated the first
time any fixpoint needs it, from the relation cardinalities of that
moment, and every later round and every later fixpoint over the same rule
object reuses it.  A query plan's magic rules live as long as the plan,
so a query shape is planned once, not once per read or per round.  Join
order affects only cost: the bindings enumerated are the same in any
order.

:func:`fixpoint` packages this loop for arbitrary rule shapes (normal rules,
NTGDs, pre-compiled rules); :class:`GroundProgramEvaluator` is the
special-case engine for *ground* programs, where matching degenerates to
counter-based propagation (each rule watches its body atoms and fires when the
count of underived ones reaches zero) — the classic linear-time T_P used here
for reduct and well-founded computations.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, Predicate
from ..errors import SolverLimitError
from .index import RelationIndex
from .intern import Row
from .planner import (
    CompiledRule,
    EncodedRule,
    compile_rule,
    encode_rule,
    negation_oracle,
)
from .stats import EngineStatistics

__all__ = ["fixpoint", "GroundProgramEvaluator"]

#: callback invoked for every newly derived atom: (atom, source rule, assignment)
DeriveCallback = Callable[[Atom, object, dict], None]

#: opt-in callback invoked for EVERY enumerated rule firing — including
#: firings that only re-derive an atom the index already holds.  This is the
#: hook :mod:`repro.engine.maintenance` uses to build derivation-support
#: tables (pass ``on_fire=SupportTable().record``); ``on_derive`` cannot serve
#: that purpose because it fires only for *new* atoms, and incremental
#: deletion needs to know about *alternative* derivations too.
FireCallback = Callable[["CompiledRule", dict], None]

#: row-plane twin of :data:`FireCallback`: invoked as ``(compiled, encoded,
#: payload)`` where *encoded* is the rule's :class:`EncodedRule` and
#: *payload* its interned slot-binding tuple.  Supplying this instead of
#: ``on_fire`` keeps per-firing bookkeeping in the integer domain — no
#: assignment dict is ever decoded for firings that merely re-derive.
FireBindingCallback = Callable[["CompiledRule", "EncodedRule", tuple], None]


def fixpoint(
    rules: Iterable,
    facts: Iterable[Atom] = (),
    *,
    index: Optional[RelationIndex] = None,
    on_derive: Optional[DeriveCallback] = None,
    on_fire: Optional[FireCallback] = None,
    on_fire_bindings: Optional[FireBindingCallback] = None,
    ignore_negation: bool = False,
    negative_against: Optional[RelationIndex] = None,
    max_atoms: Optional[int] = None,
    limit_message: str = "fixpoint exceeded max_atoms",
    statistics: Optional[EngineStatistics] = None,
    tracer=None,
    profiler=None,
) -> RelationIndex:
    """Compute the least fixpoint of *rules* over *facts*, semi-naively.

    Parameters
    ----------
    rules:
        Normal rules, NTGDs or :class:`CompiledRule` objects.  Heads with
        several atoms derive all of them; head instances that are not ground
        after substitution are skipped (they cannot enter an interpretation).
    facts:
        The initial atoms (round 0 delta).
    index:
        An existing :class:`RelationIndex` to grow; a fresh in-memory index is
        created when omitted.
    on_derive:
        Invoked as ``on_derive(atom, rule, assignment)`` for every atom newly
        added by a rule firing (not for the seed facts).
    on_fire:
        Invoked as ``on_fire(compiled_rule, assignment)`` for **every**
        enumerated firing, whether or not its heads are new.  Semi-naive
        evaluation enumerates each ground firing at least once (in the round
        after its last body atom arrives) and possibly several times (once
        per delta position of that round); callers that need exact support
        sets must deduplicate — :class:`repro.engine.maintenance.SupportTable`
        does.  Opt-in: when ``None`` (default) no per-firing work happens.
    on_fire_bindings:
        Row-plane alternative to ``on_fire`` (see
        :data:`FireBindingCallback`); when both are given, only this one is
        invoked.  Firings pass the raw slot binding instead of a decoded
        assignment dict.
    ignore_negation:
        Drop negative body literals (the positive-closure approximation).
    negative_against:
        When negation is kept, the *fixed* index against which negative
        literals are tested for absence.  Defaults to the growing index
        itself, which is only sound for stratified uses — the callers in this
        codebase either ignore negation or pass a fixed oracle.
    max_atoms:
        Budget on the total index size; exceeding it raises
        :class:`~repro.errors.SolverLimitError` with *limit_message*.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When enabled, one
        ``engine.fixpoint`` span wraps the whole computation and one
        ``engine.fixpoint.round`` span wraps each semi-naive round (delta
        size, pending firings).  Disabled or absent: a single ``is not
        None`` / ``.enabled`` check per fixpoint, nothing per round.
    profiler:
        Optional :class:`~repro.obs.profile.RuleProfiler`.  When given,
        each rule's join-enumeration wall time, enumerated firings and
        newly derived tuples are attributed to it per round.
    """
    target = index if index is not None else RelationIndex(statistics=statistics)
    symbols = target.symbols
    encoded_rules: List[EncodedRule] = [
        encode_rule(
            compile_rule(rule, ignore_negation=ignore_negation, statistics=statistics),
            symbols,
        )
        for rule in rules
    ]
    rows_for, rows_of = target.rows_for, target.rows_of
    contains_row = negation_oracle(target, negative_against)
    tracing = tracer is not None and tracer.enabled
    fixpoint_span = (
        tracer.start("engine.fixpoint", rules=len(encoded_rules)) if tracing else None
    )

    def derive_row(encoded: EncodedRule, predicate, row, binding) -> None:
        # build_head_rows already dropped non-ground heads, so *row* is ground.
        if target.add_row(predicate, row):
            rule = encoded.compiled
            if statistics is not None:
                statistics.triggers_fired += 1
            if profiler is not None:
                profiler.record(rule, tuples=1)
            if on_derive is not None:
                on_derive(
                    symbols.atom(predicate, row),
                    rule.source if rule.source is not None else rule,
                    encoded.decode_binding(binding),
                )
            if max_atoms is not None and len(target) > max_atoms:
                raise SolverLimitError(limit_message)

    try:
        target.update(facts)
        if max_atoms is not None and len(target) > max_atoms:
            raise SolverLimitError(limit_message)

        first_round = True
        rounds = 0
        tick = target.tick()
        while True:
            # One pass groups the round's delta by predicate; the entries
            # stay encoded ``(predicate, row)`` pairs.
            delta: Dict[Predicate, List[Tuple[Predicate, Row]]] = {}
            if first_round:
                delta_size = 0
            else:
                entries = target.rows_added_since(tick)
                delta_size = len(entries)
                if delta_size == 0:
                    break
                for entry in entries:
                    group = delta.get(entry[0])
                    if group is None:
                        delta[entry[0]] = [entry]
                    else:
                        group.append(entry)
            tick = target.tick()
            # The delta is materialised (and round 1 scans everything anyway);
            # older log entries are dead weight — compacting them keeps the log
            # to one round of atoms.
            target.compact(tick)
            rounds += 1
            if statistics is not None:
                statistics.iterations += 1
            round_span = (
                tracer.start(
                    "engine.fixpoint.round", round=rounds, delta=delta_size
                )
                if tracing
                else None
            )
            # Materialise each round's matches, as ``(encoded rule, slot-
            # binding tuple)`` pairs, before inserting, so the hash indexes
            # are never mutated while the join iterates over them.
            pending: List[Tuple[EncodedRule, tuple]] = []
            for encoded in encoded_rules:
                if profiler is not None:
                    rule_t0 = perf_counter()
                    rule_n0 = len(pending)
                if first_round:
                    join = encoded.programme(target)
                    for binding in join(
                        None, (), rows_for, rows_of, contains_row, statistics
                    ):
                        pending.append((encoded, binding))
                else:
                    for position, atom in enumerate(encoded.compiled.positive):
                        group = delta.get(atom.predicate)
                        if group is None:
                            # No rows for this position's predicate: no new
                            # firing can come from it this round.
                            continue
                        join = encoded.programme(target, position)
                        for binding in join(
                            None, group, rows_for, rows_of, contains_row, statistics
                        ):
                            pending.append((encoded, binding))
                if profiler is not None:
                    profiler.record(
                        encoded.compiled,
                        seconds=perf_counter() - rule_t0,
                        triggers=len(pending) - rule_n0,
                        rounds=1,
                    )
            first_round = False
            try:
                for encoded, payload in pending:
                    if on_fire_bindings is not None:
                        on_fire_bindings(encoded.compiled, encoded, payload)
                    elif on_fire is not None:
                        on_fire(encoded.compiled, encoded.decode_binding(payload))
                    for predicate, row in encoded.build_head_rows(payload):
                        derive_row(encoded, predicate, row, payload)
            finally:
                if round_span is not None:
                    round_span.finish(firings=len(pending))
    finally:
        if fixpoint_span is not None:
            fixpoint_span.finish(atoms=len(target))
    return target


class GroundProgramEvaluator:
    """A ground normal program compiled for repeated least-model queries.

    The evaluator analyses the program once — mapping every body atom to the
    rules watching it and recording per-rule body sizes — and then answers
    :meth:`least_model` / :meth:`reduct_least_model` queries by counter-based
    propagation: when an atom is derived, the unsatisfied-body counters of the
    rules watching it are decremented, and a rule fires the moment its counter
    reaches zero.  Each query is linear in the size of the (reduct of the)
    program, which is what makes the alternating-fixpoint well-founded
    computation and the stable-model checks affordable on large groundings.
    """

    __slots__ = ("_heads", "_negatives", "_watchers", "_body_sizes", "_rule_count")

    def __init__(self, program: Iterable) -> None:
        heads: List[Atom] = []
        negatives: List[Tuple[Atom, ...]] = []
        body_sizes: List[int] = []
        watchers: Dict[Atom, List[int]] = {}
        for rule_id, rule in enumerate(program):
            heads.append(rule.head)
            negatives.append(tuple(rule.negative_body))
            body = tuple(rule.positive_body)
            body_sizes.append(len(body))
            for atom in body:
                watchers.setdefault(atom, []).append(rule_id)
        self._heads = heads
        self._negatives = negatives
        self._watchers = watchers
        self._body_sizes = body_sizes
        self._rule_count = len(heads)

    def least_model(
        self, *, blocked: Optional[Sequence[bool]] = None
    ) -> frozenset[Atom]:
        """The least model of the positive part, skipping *blocked* rules.

        ``blocked[i]`` marks rule ``i`` as deleted (the reduct's first step);
        negative bodies of surviving rules are *erased* (the second step), so
        calling this with no blocking on a program with negation computes the
        least model of the program's positive projection.
        """
        counters = list(self._body_sizes)
        derived: set[Atom] = set()
        queue: deque[Atom] = deque()

        def fire(rule_id: int) -> None:
            head = self._heads[rule_id]
            if head not in derived:
                derived.add(head)
                queue.append(head)

        for rule_id in range(self._rule_count):
            if counters[rule_id] == 0 and (blocked is None or not blocked[rule_id]):
                fire(rule_id)
        while queue:
            atom = queue.popleft()
            for rule_id in self._watchers.get(atom, ()):
                counters[rule_id] -= 1
                if counters[rule_id] == 0 and (
                    blocked is None or not blocked[rule_id]
                ):
                    fire(rule_id)
        return frozenset(derived)

    def reduct_least_model(self, interpretation: Iterable[Atom]) -> frozenset[Atom]:
        """``lm(Π^I)`` without materialising the reduct program.

        A rule is blocked exactly when one of its negative body atoms belongs
        to *interpretation* — the Gelfond–Lifschitz deletion step — and the
        remaining rules run positively.
        """
        atoms = (
            interpretation
            if isinstance(interpretation, (set, frozenset))
            else frozenset(interpretation)
        )
        blocked = [
            any(negative in atoms for negative in self._negatives[rule_id])
            for rule_id in range(self._rule_count)
        ]
        return self.least_model(blocked=blocked)
