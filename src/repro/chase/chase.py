"""The chase procedure for (positive) TGDs.

The chase is the classical tool for reasoning with TGDs: starting from a
database it repeatedly repairs violated dependencies by adding new atoms,
inventing fresh labelled nulls for existentially quantified variables.  Two
variants are provided:

* the **restricted** (standard) chase, which fires a trigger only when its
  head is not already satisfied — this is the variant to which the Lemma 8
  bound refers;
* the **oblivious** chase, which fires every trigger exactly once regardless
  of satisfaction — coarser, but useful as an over-approximation.

Both variants run on the shared semi-naive engine
(:mod:`repro.engine`): trigger discovery is *delta-driven* — after the first
round, only rule bodies that overlap the atoms added in the previous round
are re-matched (each body literal in turn plays the delta role, joined
against the full :class:`~repro.engine.index.RelationIndex` through the
planner's compiled join order), so the chase never rescans old assignments.
A round's delta is the atoms that ``RelationIndex.add`` reported new while
the previous round fired.
Engine counters are surfaced on :class:`ChaseResult.statistics` and added
to the global registry's ``chase_*`` counters when a run ends.

Termination is guaranteed for weakly-acyclic rule sets; for other sets the
caller must supply a step budget (``max_steps``) and the chase raises
:class:`~repro.errors.SolverLimitError` when the budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..classes.position_graph import is_weakly_acyclic
from ..core.atoms import Atom, apply_substitution
from ..core.database import Database
from ..core.homomorphism import extend_homomorphisms
from ..core.interpretation import Interpretation
from ..core.rules import NTGD, RuleSet
from ..core.terms import NullFactory
from ..engine import (
    CompiledRule,
    EngineStatistics,
    RelationIndex,
    RelationSnapshot,
    compile_rule,
    enumerate_matches,
)
from ..engine.stats import engine_counters
from ..errors import UnsupportedClassError
from ..obs.metrics import global_registry

__all__ = [
    "ChaseResult",
    "ChaseStep",
    "restricted_chase",
    "oblivious_chase",
    "query_driven_chase",
]


@dataclass(frozen=True)
class ChaseStep:
    """One firing of a trigger during the chase."""

    rule: NTGD
    assignment: tuple[tuple, ...]
    added: tuple[Atom, ...]


@dataclass(frozen=True)
class ChaseResult:
    """The outcome of a chase run.

    Attributes
    ----------
    atoms:
        The (finite) set of atoms produced.
    steps:
        The sequence of trigger firings, in order.
    terminated:
        ``True`` if a fixpoint was reached, ``False`` if the run stopped
        because the step budget was exhausted (only possible when the caller
        opted into running a non-terminating chase with a budget).
    statistics:
        Engine counters for the run (triggers fired, tuples derived and
        scanned, hash indexes built, semi-naive rounds).
    """

    atoms: frozenset[Atom]
    steps: tuple[ChaseStep, ...] = field(default_factory=tuple)
    terminated: bool = True
    statistics: EngineStatistics = field(
        default_factory=EngineStatistics, compare=False
    )

    def interpretation(self) -> Interpretation:
        return Interpretation(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def nulls_invented(self) -> int:
        return sum(
            1
            for step in self.steps
            for atom in step.added
            for _ in atom.nulls
        )


def _chase_index(
    database, statistics: EngineStatistics
) -> RelationIndex:
    """The working index of a chase run.

    A :class:`Database` is indexed from scratch (the historical behaviour).
    A :class:`RelationSnapshot` — or a head :class:`RelationIndex`, which is
    snapshotted here — is *forked*: the chase writes nulls and derived atoms
    into a throwaway overlay sharing the base's already-built hash tables, so
    chasing over a large shared base costs O(1) setup and never mutates the
    caller's index.
    """
    if isinstance(database, RelationSnapshot):
        return database.fork(statistics=statistics)
    if isinstance(database, RelationIndex):
        return database.snapshot().fork(statistics=statistics)
    return RelationIndex(database.atoms, statistics=statistics)


def _result(
    index: RelationIndex, steps, terminated: bool, statistics: EngineStatistics
) -> ChaseResult:
    """A run's result; its engine counts go to the ``chase_*`` counters."""
    statistics.report(engine_counters(global_registry(), "chase"))
    return ChaseResult(
        index.atoms(), tuple(steps), terminated=terminated, statistics=statistics
    )


def _prepare(rules: RuleSet | Sequence[NTGD]) -> RuleSet:
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(tuple(rules))
    for rule in rule_set:
        if not rule.is_positive:
            raise UnsupportedClassError(
                "the chase operates on positive TGDs; strip negation first "
                "or use repro.chase.operational for NTGDs"
            )
    return rule_set


@dataclass(frozen=True)
class _PreparedRule:
    """Per-rule data computed once per chase run (not per trigger)."""

    existentials: tuple
    head: tuple[Atom, ...]

    @staticmethod
    def of(rule: NTGD) -> "_PreparedRule":
        return _PreparedRule(
            tuple(sorted(rule.existential_variables, key=lambda v: v.name)),
            tuple(rule.head),
        )


def _fire(
    prepared: _PreparedRule,
    assignment: dict,
    nulls: NullFactory,
) -> tuple[Atom, ...]:
    extended = dict(assignment)
    for variable in prepared.existentials:
        extended[variable] = nulls.fresh()
    return tuple(apply_substitution(atom, extended) for atom in prepared.head)


def _check_guarantee(
    rule_set: RuleSet, require_termination_guarantee: bool, max_steps: Optional[int]
) -> None:
    if require_termination_guarantee and max_steps is None:
        if not is_weakly_acyclic(rule_set):
            raise UnsupportedClassError(
                "rule set is not weakly acyclic; pass max_steps to chase anyway"
            )


def _round_matches(
    rule_set: RuleSet,
    compiled: Sequence[CompiledRule],
    index: RelationIndex,
    delta: Optional[Sequence[Atom]],
    statistics: EngineStatistics,
) -> list[tuple[int, NTGD, dict]]:
    """All candidate triggers of one chase round, materialised.

    In the first round (``delta is None``) every rule is matched in full; in
    later rounds each positive body literal in turn is restricted to the
    previous round's delta.  Matches are collected *before* any firing so the
    index is never mutated under a live join iterator.  Duplicate assignments
    (a body overlapping the delta in two literals) are harmless: the
    restricted chase re-checks head satisfaction at fire time and the
    oblivious chase deduplicates by trigger key.
    """
    found: list[tuple[int, NTGD, dict]] = []
    for position, (rule, compiled_rule) in enumerate(zip(rule_set, compiled)):
        if delta is None:
            for assignment in enumerate_matches(
                compiled_rule, index, statistics=statistics
            ):
                found.append((position, rule, assignment))
        else:
            for literal_position in range(len(compiled_rule.positive)):
                for assignment in enumerate_matches(
                    compiled_rule,
                    index,
                    delta=delta,
                    delta_position=literal_position,
                    statistics=statistics,
                ):
                    found.append((position, rule, assignment))
    return found


def restricted_chase(
    database: Database | RelationIndex | RelationSnapshot,
    rules: RuleSet | Sequence[NTGD],
    max_steps: Optional[int] = None,
    require_termination_guarantee: bool = True,
) -> ChaseResult:
    """Run the restricted (standard) chase of *database* with *rules*.

    Parameters
    ----------
    database:
        The initial instance — a :class:`Database`, or a
        :class:`~repro.engine.index.RelationSnapshot` /
        :class:`~repro.engine.index.RelationIndex` to chase *over* without
        re-indexing or mutating it (derivations go to an overlay fork).
    rules:
        A set of positive TGDs.
    max_steps:
        Optional budget on the number of trigger firings.
    require_termination_guarantee:
        When ``True`` (default) the rule set must be weakly acyclic unless a
        step budget is supplied; this protects callers from accidentally
        launching a non-terminating chase.
    """
    rule_set = _prepare(rules)
    _check_guarantee(rule_set, require_termination_guarantee, max_steps)
    statistics = EngineStatistics()
    index = _chase_index(database, statistics)
    compiled = [compile_rule(rule, statistics=statistics) for rule in rule_set]
    prepared = {position: _PreparedRule.of(rule) for position, rule in enumerate(rule_set)}
    nulls = NullFactory(prefix="n")
    steps: list[ChaseStep] = []

    delta: Optional[list[Atom]] = None  # None = first (full) round
    while delta is None or delta:
        statistics.iterations += 1
        matches = _round_matches(rule_set, compiled, index, delta, statistics)
        delta = []
        for rule_position, rule, assignment in matches:
            prep = prepared[rule_position]
            satisfied = next(
                extend_homomorphisms(prep.head, index, partial=assignment),
                None,
            )
            if satisfied is not None:
                continue
            if max_steps is not None and len(steps) >= max_steps:
                return _result(index, steps, False, statistics)
            added = _fire(prep, assignment, nulls)
            delta.extend(atom for atom in added if index.add(atom))
            statistics.triggers_fired += 1
            steps.append(
                ChaseStep(
                    rule,
                    tuple(sorted(assignment.items(), key=lambda kv: str(kv[0]))),
                    added,
                )
            )
    return _result(index, steps, True, statistics)


def query_driven_chase(
    database: Database | RelationIndex | RelationSnapshot,
    rules: RuleSet | Sequence[NTGD],
    query,
    max_steps: Optional[int] = None,
    require_termination_guarantee: bool = True,
) -> ChaseResult:
    """Chase only the rules the *query* transitively depends on.

    An atom over a predicate ``p`` can only be produced by rules whose head
    mentions ``p``, whose bodies in turn read predicates reachable backwards
    from ``p`` — so for a positive TGD set, slicing away every rule whose head
    predicate lies outside the query's dependency cone changes nothing about
    the chase's restriction to the query predicates, while skipping all
    null-inventing work on unrelated parts of the schema.  The certain
    answers of a positive query over the sliced chase therefore coincide with
    those over the full chase.

    *query* is a :class:`~repro.core.queries.ConjunctiveQuery` (or anything
    with a ``predicates`` attribute).  The database is **not** sliced: atoms
    over irrelevant predicates stay in the result, they are simply never
    joined by a sliced-away rule.
    """
    rule_set = _prepare(rules)
    # Deferred import: the goal-directed subsystem builds on the chase layer
    # in the layer map; its predicate-level cone analysis accepts NTGDs.
    from ..query.stratify import relevant_predicates

    relevant = relevant_predicates(rule_set, query.predicates)
    sliced = RuleSet(
        tuple(
            rule
            for rule in rule_set
            if any(p in relevant for p in rule.head_predicates)
        )
    )
    return restricted_chase(
        database,
        sliced,
        max_steps=max_steps,
        require_termination_guarantee=require_termination_guarantee,
    )


def oblivious_chase(
    database: Database | RelationIndex | RelationSnapshot,
    rules: RuleSet | Sequence[NTGD],
    max_steps: Optional[int] = None,
    require_termination_guarantee: bool = True,
) -> ChaseResult:
    """Run the oblivious chase: every trigger fires exactly once.

    The oblivious chase invents a fresh null for every trigger even when the
    head is already satisfied, so its result is a superset (up to
    homomorphism) of the restricted chase result.
    """
    rule_set = _prepare(rules)
    _check_guarantee(rule_set, require_termination_guarantee, max_steps)
    statistics = EngineStatistics()
    index = _chase_index(database, statistics)
    compiled = [compile_rule(rule, statistics=statistics) for rule in rule_set]
    prepared = {position: _PreparedRule.of(rule) for position, rule in enumerate(rule_set)}
    nulls = NullFactory(prefix="o")
    steps: list[ChaseStep] = []
    fired: set[tuple[int, tuple]] = set()

    delta: Optional[list[Atom]] = None  # None = first (full) round
    while delta is None or delta:
        statistics.iterations += 1
        matches = _round_matches(rule_set, compiled, index, delta, statistics)
        delta = []
        for rule_position, rule, assignment in matches:
            key = (
                rule_position,
                tuple(sorted(assignment.items(), key=lambda kv: str(kv[0]))),
            )
            if key in fired:
                continue
            if max_steps is not None and len(steps) >= max_steps:
                return _result(index, steps, False, statistics)
            added = _fire(prepared[rule_position], assignment, nulls)
            delta.extend(atom for atom in added if index.add(atom))
            fired.add(key)
            statistics.triggers_fired += 1
            steps.append(ChaseStep(rule, key[1], added))
    return _result(index, steps, True, statistics)
