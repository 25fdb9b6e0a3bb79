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

where ``Δbi`` ranges only over the atoms added in the previous round and the
remaining literals join against the full index.  Atom insertion
deduplicates, so the overlap between delta rules is harmless, and no
derivation is missed because every new match must involve at least one
new atom.

**The driver owns its delta.**  Each rule's generated insert
(:meth:`~repro.engine.planner.EncodedRule.inserter`, written by
:func:`~repro.engine.planner.generate_insert`) takes one join's bindings,
builds each ground head row inline, stores it with
:meth:`RelationIndex.add_row` and files each row ``add_row`` reports new
under its predicate: those groups are the next round's delta, and a round
that files nothing ends the fixpoint.  The insert returns how many rows
were new, which is all the driver counts, and it stops at the first row
past ``max_atoms``.  The index keeps no log of its additions and the
driver reads nothing back from it.

**Round structure.**  The structure of a rule set's rounds is built once
per rule objects and symbol table and memoised like the rules themselves:
the encoded rules and, for each body predicate, its *sites* — the (rule,
delta position) pairs whose literal ranges over it — in rule order.  A
call encodes nothing.  A delta round enters only the sites of the
predicates that gained rows, hands each only its own predicate's rows,
and fires them in rule order, then position order; a delta rule whose
``Δbi`` gained no rows cannot fire anything new and is never entered.
Round 1 joins every rule's full body, including rules with no positive
body, whose join has no loop: they fire there once, after their negative
literals are checked.  The join of each (rule, delta position), and of
each rule's full body for round 1, is a generated Python function
memoised on the rule's :class:`~repro.engine.planner.EncodedRule`
(:meth:`~repro.engine.planner.EncodedRule.programme`: ``order_body``
plans it, :func:`~repro.engine.planner.generate_join` writes it);
:func:`fixpoint` calls it directly and collects each join's bindings in
one list before inserting anything.  A join is planned and generated the
first time any fixpoint needs it, from the relation cardinalities of that
moment, and every later round and every later fixpoint over the same rule
object reuses it.  A query plan's magic rules live as long as the plan, so
a query shape is planned once, not once per read or per round.  Join order
affects only cost: the bindings enumerated are the same in any order.

**Seeded start.**  An index that already holds a least fixpoint needs no
full round 1 when a few atoms arrive: only firings that use a new atom
can derive anything.  Given ``delta=`` — the new rows as ``(predicate,
row)`` entries, already stored in the index — round 1 is a delta round
over those rows instead, and only the rules in ``rescan=`` join their
full body, merged with the seeded sites in the same rule order.  Every
later round is the driver's own.  This is the insert
step of Delete-and-Rederive (Gupta, Mumick and Subrahmanian, SIGMOD 1993):
:class:`~repro.engine.maintenance.MaterializedView` runs each stratum's
add phase as one seeded call, with the rules that a deletion below a
negation re-opened as ``rescan``, and records support through
``on_fire``, which sees every enumerated firing before its heads are
inserted.

:func:`fixpoint` packages this loop for arbitrary rule shapes (normal rules,
NTGDs, pre-compiled rules); :class:`GroundProgramEvaluator` is the
special-case engine for *ground* programs, where matching degenerates to
counter-based propagation (each rule watches its body atoms and fires when the
count of underived ones reaches zero) — the classic linear-time T_P used here
for reduct and well-founded computations.
"""

from __future__ import annotations

import sys
from collections import deque
from operator import is_
from time import perf_counter
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Predicate
from ..errors import SolverLimitError
from .index import RelationIndex
from .intern import Row, SymbolTable
from .planner import (
    _COMPILE_CACHE_LIMIT,
    CompiledRule,
    EncodedRule,
    compile_rule,
    encode_rule,
    negation_oracle,
)
from .stats import EngineStatistics

__all__ = ["fixpoint", "GroundProgramEvaluator"]

#: opt-in callback invoked as ``(compiled, encoded, payload)`` for EVERY
#: enumerated rule firing, before the firing's heads are inserted —
#: including firings that only re-derive an atom the index already holds.
#: *encoded* is the rule's :class:`EncodedRule` and *payload* its interned
#: slot-binding tuple, so per-firing bookkeeping stays in the integer
#: domain: :meth:`EncodedRule.firing_rows` turns the pair into the
#: firing's ground head, body and negative ``(predicate, row)`` entries.
#: :mod:`repro.engine.maintenance` builds its derivation-support tables
#: through it (``on_fire=SupportTable().record_firing_binding``), keyed on
#: those entries: incremental deletion needs to know about *alternative*
#: derivations too.
FireCallback = Callable[["CompiledRule", "EncodedRule", tuple], None]

#: One place a round can enter: ``(rule number, delta position, the
#: position's predicate, encoded rule, the rule's generated insert)``;
#: position -1 (predicate ``None``) is the rule's full body.  Sorting sites
#: orders them by rule, then position, which is the order rules fire in.
_Site = Tuple[int, int, Optional[Predicate], EncodedRule, Callable[..., int]]

#: The room left under no ``max_atoms`` budget.
_UNBOUNDED = sys.maxsize


class _Rounds:
    """One rule set's round structure on one symbol table, built once.

    It holds the encoded rules and, for each body predicate, the sites —
    (rule, delta position) pairs — whose literal ranges over it, in rule
    order; a delta round enters only the sites of the predicates that
    gained rows.
    """

    __slots__ = ("rules", "symbols", "encoded", "full", "sites")

    def __init__(
        self,
        rules: Tuple[object, ...],
        symbols: SymbolTable,
        ignore_negation: bool,
        statistics: Optional[EngineStatistics],
    ) -> None:
        self.rules = rules
        self.symbols = symbols
        self.encoded = tuple(
            encode_rule(
                compile_rule(
                    rule, ignore_negation=ignore_negation, statistics=statistics
                ),
                symbols,
            )
            for rule in rules
        )
        #: round 1 of an unseeded call: every rule's full body, in rule order
        self.full: Tuple[_Site, ...] = tuple(
            (number, -1, None, encoded, encoded.inserter())
            for number, encoded in enumerate(self.encoded)
        )
        sites: Dict[Predicate, List[_Site]] = {}
        for number, _, _, encoded, insert in self.full:
            for position, (predicate, _) in enumerate(encoded.positive):
                sites.setdefault(predicate, []).append(
                    (number, position, predicate, encoded, insert)
                )
        #: body predicate -> its sites, in rule order
        self.sites: Dict[Predicate, Tuple[_Site, ...]] = {
            predicate: tuple(found) for predicate, found in sites.items()
        }

    def entered(self, grouped: Dict[Predicate, list]) -> Sequence[_Site]:
        """The sites a delta round over *grouped* enters, in firing order."""
        if len(grouped) == 1:
            for predicate in grouped:
                return self.sites.get(predicate, ())
        found: List[_Site] = []
        for predicate in grouped:
            found.extend(self.sites.get(predicate, ()))
        found.sort()
        return found

    def seeded(
        self, grouped: Dict[Predicate, list], rescan: Collection
    ) -> Sequence[_Site]:
        """Round 1 of a seeded call: the full bodies of the *rescan* rules
        merged with every other rule's sites over the seed, in firing
        order."""
        if not rescan:
            return self.entered(grouped)
        rescanned = {id(rule) for rule in rescan}
        found = [
            site for site, rule in zip(self.full, self.rules) if id(rule) in rescanned
        ]
        full = {site[0] for site in found}
        found.extend(site for site in self.entered(grouped) if site[0] not in full)
        found.sort()
        return found


_ROUNDS_CACHE: Dict[tuple, _Rounds] = {}
#: rules the cached structures hold, bounded like the rule caches
_rounds_held = 0


def _rounds(
    rules: Tuple[object, ...],
    symbols: SymbolTable,
    ignore_negation: bool,
    statistics: Optional[EngineStatistics],
) -> _Rounds:
    """The round structure of *rules* on *symbols*, memoised per rule
    objects and table like :func:`~repro.engine.planner.compile_rule` and
    :func:`~repro.engine.planner.encode_rule`: the cache is reset once the
    structures in it hold as many rules as those caches may."""
    global _rounds_held
    key = (tuple(map(id, rules)), id(symbols), ignore_negation)
    cached = _ROUNDS_CACHE.get(key)
    if (
        cached is not None
        and cached.symbols is symbols
        and all(map(is_, cached.rules, rules))
    ):
        return cached
    rounds = _Rounds(rules, symbols, ignore_negation, statistics)
    if _rounds_held + len(rules) > _COMPILE_CACHE_LIMIT:
        _ROUNDS_CACHE.clear()
        _rounds_held = 0
    _ROUNDS_CACHE[key] = rounds
    _rounds_held += len(rules)
    return rounds


def fixpoint(
    rules: Iterable,
    facts: Iterable[Atom] = (),
    *,
    index: Optional[RelationIndex] = None,
    delta: Optional[Sequence[Tuple[Predicate, Row]]] = None,
    rescan: Collection = (),
    on_fire: Optional[FireCallback] = None,
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
        Atoms added to the index before round 1.
    index:
        An existing :class:`RelationIndex` to grow; a fresh in-memory index is
        created when omitted.
    delta:
        The seeded start (see the module docstring): ``(predicate, row)``
        entries the index already holds, where the index is closed under
        *rules* except for firings that use one of these rows.  Round 1
        then joins each rule's delta positions against these rows instead
        of its full body.  ``None`` (default): round 1 joins every full body.
    rescan:
        With *delta*, the rules (the same objects as in *rules*) whose full
        body round 1 joins anyway: rules that something other than new rows
        may have enabled, such as a deletion below a negation.
    on_fire:
        Invoked as ``on_fire(compiled_rule, encoded_rule, payload)`` for
        **every** enumerated firing, before its heads are inserted and
        whether or not they are new (see :data:`FireCallback`).  Semi-naive
        evaluation enumerates each ground firing at least once (in the
        round after its last body atom arrives) and possibly several times
        (once per delta position of that round); callers that need exact
        support sets must deduplicate —
        :class:`repro.engine.maintenance.SupportTable` does.  Opt-in: when
        ``None`` (default) no per-firing work happens.
    ignore_negation:
        Drop negative body literals (the positive-closure approximation).
    negative_against:
        When negation is kept, the *fixed* index against which negative
        literals are tested for absence.  Defaults to the growing index
        itself, which is only sound for stratified uses — the callers in this
        codebase either ignore negation or pass a fixed oracle.
    max_atoms:
        Budget on the total index size; exceeding it raises
        :class:`~repro.errors.SolverLimitError` with *limit_message*.  A
        round stops inserting at the first row past it, so when a derived
        row crosses it the index holds exactly ``max_atoms + 1`` rows.
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
    structure = _rounds(tuple(rules), target.symbols, ignore_negation, statistics)
    rows_for, rows_of, add_row = target.rows_for, target.rows_of, target.add_row
    contains_row = negation_oracle(target, negative_against)
    tracing = tracer is not None and tracer.enabled
    fixpoint_span = (
        tracer.start("engine.fixpoint", rules=len(structure.rules))
        if tracing
        else None
    )
    try:
        target.update(facts)
        room = _UNBOUNDED
        if max_atoms is not None:
            room = max_atoms - len(target)
            if room < 0:
                raise SolverLimitError(limit_message)
        # The round's delta, grouped by predicate; the entries stay encoded
        # ``(predicate, row)`` pairs.
        grouped: Dict[Predicate, List[Tuple[Predicate, Row]]] = {}
        for entry in delta or ():
            group = grouped.get(entry[0])
            if group is None:
                grouped[entry[0]] = [entry]
            else:
                group.append(entry)
        sites = structure.full if delta is None else structure.seeded(grouped, rescan)
        rounds = 0
        while True:
            rounds += 1
            if statistics is not None:
                statistics.iterations += 1
            round_span = (
                tracer.start(
                    "engine.fixpoint.round",
                    round=rounds,
                    delta=sum(map(len, grouped.values())),
                )
                if tracing
                else None
            )
            # Materialise each round's matches, one binding list per join,
            # before inserting, so the hash indexes are never mutated while
            # a join iterates over them.  A full-body site (predicate None)
            # gets no delta rows.
            pending: List[Tuple[EncodedRule, Callable[..., int], List[tuple]]] = []
            firings = 0
            for _, position, predicate, encoded, insert in sites:
                if profiler is not None:
                    started = perf_counter()
                join = encoded.programme(target, position)
                found = list(
                    join(
                        None,
                        grouped.get(predicate, ()),
                        rows_for,
                        rows_of,
                        contains_row,
                        statistics,
                    )
                )
                if profiler is not None:
                    profiler.record(
                        encoded.compiled,
                        seconds=perf_counter() - started,
                        triggers=len(found),
                    )
                if found:
                    pending.append((encoded, insert, found))
                    firings += len(found)
            if profiler is not None:
                for encoded in structure.encoded:
                    profiler.record(encoded.compiled, rounds=1)
            # The rows each insert reports new are the next round's delta.
            grouped = {}
            try:
                for encoded, insert, bindings in pending:
                    added = insert(bindings, add_row, grouped, on_fire, room)
                    if added:
                        room -= added
                        if statistics is not None:
                            statistics.triggers_fired += added
                        if profiler is not None:
                            profiler.record(encoded.compiled, tuples=added)
                        if room < 0:
                            raise SolverLimitError(limit_message)
            finally:
                if round_span is not None:
                    round_span.finish(firings=firings)
            if not grouped:
                break
            sites = structure.entered(grouped)
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
