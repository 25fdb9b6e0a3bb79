"""Consistent query answering (CQA) under set-based repairs (Section 7.1, application (i)).

The paper points out that WATGD¬_c can express consistent query answering
relative to set-based (subset) repairs — a prototypical ΠP2 task.  This module
provides

* the *reference* semantics: subset repairs of a database w.r.t. a set of
  constraints interpreted under the closed-world assumption, and the certain
  (consistent) answers of a conjunctive query over all repairs;
* a declarative WATGD¬ encoding for the **denial-constraint** fragment
  (constraints forbidding a conjunctive pattern), where a repair is a maximal
  subset containing no forbidden pattern.  The encoding guesses kept/removed
  facts with stable negation, rejects inconsistent guesses through the
  ``false``/``aux`` pattern, and enforces maximality by requiring every
  removed fact to be *blamed* on a violation it would re-introduce.

General weakly-acyclic TGD constraints are handled by the reference
implementation only; DESIGN.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import EngineStatistics

from ..core.atoms import Atom, Literal, Predicate
from ..core.database import Database
from ..core.homomorphism import AtomIndex, extend_homomorphisms
from ..core.interpretation import Interpretation
from ..core.modelcheck import satisfies_rules
from ..core.queries import ConjunctiveQuery
from ..core.rules import NTGD, RuleSet
from ..core.terms import Constant, Term, Variable
from ..errors import SolverLimitError
from ..languages.watgd import WatgdQuery

__all__ = [
    "DenialConstraint",
    "is_consistent",
    "subset_repairs",
    "consistent_answers",
    "denial_cqa_query",
]


@dataclass(frozen=True)
class DenialConstraint:
    """A forbidden conjunctive pattern: the atoms must not jointly hold."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a denial constraint needs at least one atom")

    def violated_by(self, atoms: Iterable[Atom]) -> bool:
        index = AtomIndex(atoms)
        return next(extend_homomorphisms(list(self.atoms), index), None) is not None


def is_consistent(
    database: Database | Iterable[Atom],
    constraints: Sequence[DenialConstraint] | RuleSet,
) -> bool:
    """Closed-world consistency of a set of facts w.r.t. the constraints."""
    atoms = database.atoms if isinstance(database, Database) else frozenset(database)
    if isinstance(constraints, RuleSet):
        return satisfies_rules(Interpretation(frozenset(atoms)), constraints)
    return not any(constraint.violated_by(atoms) for constraint in constraints)


def subset_repairs(
    database: Database,
    constraints: Sequence[DenialConstraint] | RuleSet,
    max_facts: int = 16,
) -> list[frozenset[Atom]]:
    """All set-based (⊆-maximal consistent subset) repairs of the database."""
    facts = sorted(database.atoms, key=lambda atom: atom.sort_key())
    if len(facts) > max_facts:
        raise SolverLimitError(
            f"{len(facts)} facts exceed the brute-force repair budget ({max_facts})"
        )
    consistent_subsets: list[frozenset[Atom]] = []
    for size in range(len(facts), -1, -1):
        for keep in combinations(facts, size):
            candidate = frozenset(keep)
            if not is_consistent(candidate, constraints):
                continue
            if any(candidate < existing for existing in consistent_subsets):
                continue
            consistent_subsets.append(candidate)
    # Keep only the maximal ones.
    return [
        subset
        for subset in consistent_subsets
        if not any(subset < other for other in consistent_subsets)
    ]


def consistent_answers(
    database: Database,
    constraints: Sequence[DenialConstraint] | RuleSet,
    query: ConjunctiveQuery,
    max_facts: int = 16,
    *,
    statistics: Optional["EngineStatistics"] = None,
) -> frozenset[tuple[Term, ...]]:
    """Certain answers of the query over every subset repair.

    The query is compiled once into a goal-directed plan
    (:func:`repro.query.compile_query_plan`) and the plan is materialised
    **once** over the full database, with derivation-support recording
    (:class:`repro.engine.maintenance.MaterializedView`).  A repair differs
    from the base by a handful of removed facts, so each repair is evaluated
    as a **deletion delta**: apply the removed facts as deletions (a counting
    cascade through the recorded derivations), read the repaired goal
    relation, and add the facts back — per-repair cost O(|delta| cascade),
    never a re-evaluation of the plan.  Queries outside the plan compiler's
    fragment (nulls, function terms) fall back to direct homomorphism
    evaluation per repair.  The view holds every fact of the database: the
    plan's magic and adorned relations are generated predicates, which no
    fact can share.

    Pass *statistics* to observe the work (``deltas_applied`` grows by two
    per repair — apply and restore — while ``index_builds`` stays flat).
    """
    repairs = subset_repairs(database, constraints, max_facts)
    if not repairs:
        return frozenset()
    # Deferred import: encodings sit above repro.query in the layer map.
    from ..errors import UnsupportedClassError
    from ..query import compile_query_plan

    try:
        plan = compile_query_plan(RuleSet(()), query)
    except UnsupportedClassError:
        plan = None

    all_atoms = frozenset(database.atoms)
    if plan is None:
        evaluate = query.answers
    else:
        from ..engine import MaterializedView
        from itertools import chain as _chain

        view = MaterializedView(
            plan.program.rules,
            _chain(all_atoms, (plan.program.seed(),)),
            stratification=plan.program.stratification,
            statistics=statistics,
        )

        def evaluate(repair, _plan=plan, _view=view):
            removed = all_atoms - repair
            _view.apply_delta(deletions=removed)
            current = _plan.program.collect_answers(_view.index)
            _view.apply_delta(additions=removed)
            return current

    answers: Optional[set[tuple[Term, ...]]] = None
    for repair in repairs:
        current = set(evaluate(repair))
        answers = current if answers is None else answers & current
        if not answers:
            return frozenset()
    return frozenset(answers) if answers is not None else frozenset()


# --------------------------------------------------------------------------
# Declarative encoding for denial constraints
# --------------------------------------------------------------------------

def _source_predicate(predicate: Predicate) -> Predicate:
    return Predicate(f"{predicate.name}_d", predicate.arity)


def _removed_predicate(predicate: Predicate) -> Predicate:
    return Predicate(f"{predicate.name}_out", predicate.arity)


def _blamed_predicate(predicate: Predicate) -> Predicate:
    return Predicate(f"{predicate.name}_blamed", predicate.arity)


def denial_cqa_query(
    constraints: Sequence[DenialConstraint],
    query: ConjunctiveQuery,
    schema: Iterable[Predicate],
) -> tuple[WatgdQuery, "CqaEncoding"]:
    """Build the WATGD¬ query whose cautious answers are the consistent answers.

    The input database must be supplied through the *source* predicates
    ``p_d`` (use :meth:`CqaEncoding.encode_database`); the stable models of
    the program are exactly the subset repairs, so the cautious answers of the
    copied query predicate coincide with :func:`consistent_answers`.
    """
    predicates = sorted(set(schema), key=lambda p: (p.name, p.arity))
    rules: list[NTGD] = []
    false_atom = Atom(Predicate("false", 0), ())
    aux_atom = Atom(Predicate("aux", 0), ())

    # Guess kept / removed facts.
    for predicate in predicates:
        variables = tuple(Variable(f"V{i}") for i in range(predicate.arity))
        source = Atom(_source_predicate(predicate), variables)
        kept = Atom(predicate, variables)
        removed = Atom(_removed_predicate(predicate), variables)
        rules.append(
            NTGD(
                (Literal(source, True), Literal(removed, False)),
                (kept,),
                label=f"keep_{predicate.name}",
            )
        )
        rules.append(
            NTGD(
                (Literal(source, True), Literal(kept, False)),
                (removed,),
                label=f"remove_{predicate.name}",
            )
        )

    # Consistency: no denial pattern among the kept facts.
    for index, constraint in enumerate(constraints):
        body = tuple(Literal(atom, True) for atom in constraint.atoms)
        rules.append(NTGD(body, (false_atom,), label=f"denial_{index}"))

    # Maximality: every removed fact must be blamed on a violation it would
    # re-introduce together with kept facts.
    for predicate in predicates:
        variables = tuple(Variable(f"V{i}") for i in range(predicate.arity))
        removed = Atom(_removed_predicate(predicate), variables)
        blamed = Atom(_blamed_predicate(predicate), variables)
        rules.append(
            NTGD(
                (Literal(removed, True), Literal(blamed, False)),
                (false_atom,),
                label=f"maximality_{predicate.name}",
            )
        )
    for index, constraint in enumerate(constraints):
        for position, atom in enumerate(constraint.atoms):
            body = [Literal(_rename(atom, _removed_predicate(atom.predicate)), True)]
            body.append(Literal(_rename(atom, _source_predicate(atom.predicate)), True))
            for other_position, other in enumerate(constraint.atoms):
                if other_position != position:
                    body.append(Literal(other, True))
            head = _rename(atom, _blamed_predicate(atom.predicate))
            rules.append(
                NTGD(tuple(body), (head,), label=f"blame_{index}_{position}")
            )

    # The false / aux constraint.
    rules.append(
        NTGD(
            (Literal(false_atom, True), Literal(aux_atom, False)),
            (aux_atom,),
            label="false_constraint",
        )
    )

    # Copy the query into a fresh answer predicate.
    answer = Predicate("cqa_ans", query.arity)
    rules.append(
        NTGD(
            tuple(query.literals),
            (Atom(answer, tuple(query.answer_variables)),),
            label="query_copy",
        )
    )
    encoding = CqaEncoding(tuple(predicates))
    return WatgdQuery(RuleSet(tuple(rules)), answer), encoding


def _rename(atom: Atom, predicate: Predicate) -> Atom:
    return Atom(predicate, atom.terms)


@dataclass(frozen=True)
class CqaEncoding:
    """Helper mapping an input database onto the encoding's source predicates."""

    schema: tuple[Predicate, ...]

    def encode_database(self, database: Database) -> Database:
        atoms = [
            Atom(_source_predicate(atom.predicate), atom.terms) for atom in database
        ]
        return Database.of(atoms)
