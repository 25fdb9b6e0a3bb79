"""Normal conjunctive queries (NCQs) and their Boolean variant (NBCQs).

An ``n``-ary normal conjunctive query (paper, Section 2) is a formula

    exists Y ( p1(X, Y) ∧ ... ∧ pm(X, Y) ∧ ¬p_{m+1}(X, Y) ∧ ... ∧ ¬p_{m+k}(X, Y) )

with at least one positive atom, where the *answer variables* ``X`` are free.
Queries must be *safe*: every variable of a negative literal also occurs in a
positive literal.  A 0-ary query is Boolean (NBCQ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import SafetyError
from .atoms import Atom, Literal, Predicate, apply_substitution
from .homomorphism import AtomIndex, extend_homomorphisms
from .interpretation import Interpretation
from .terms import Constant, Term, Variable

__all__ = ["ConjunctiveQuery", "atom_query", "certain_answers"]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A normal conjunctive query.

    Attributes
    ----------
    literals:
        The (positive and negative) literals of the query.
    answer_variables:
        The free variables ``X``; the empty tuple makes the query Boolean.
    """

    literals: tuple[Literal, ...]
    answer_variables: tuple[Variable, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))
        object.__setattr__(self, "answer_variables", tuple(self.answer_variables))
        if not self.literals:
            raise SafetyError("a conjunctive query needs at least one literal")
        # The paper's definition requires m >= 1 positive atoms; we additionally
        # accept purely negative queries as long as they are ground (they are
        # used verbatim in Examples 2 and 3), which keeps them trivially safe.
        if not any(literal.positive for literal in self.literals):
            if any(not literal.is_ground for literal in self.literals):
                raise SafetyError(
                    "a query without positive literals must be ground to be safe"
                )
        positive_vars: set[Variable] = set()
        for literal in self.literals:
            if literal.positive:
                positive_vars.update(literal.variables)
        for literal in self.literals:
            if not literal.positive and not literal.variables <= positive_vars:
                missing = sorted(v.name for v in literal.variables - positive_vars)
                raise SafetyError(
                    f"query variables {missing} occur only in negative literals"
                )
        for variable in self.answer_variables:
            if variable not in positive_vars:
                raise SafetyError(
                    f"answer variable {variable} does not occur in a positive literal"
                )

    # ----------------------------------------------------------------- views
    @property
    def arity(self) -> int:
        return len(self.answer_variables)

    @property
    def is_boolean(self) -> bool:
        return not self.answer_variables

    @property
    def is_positive(self) -> bool:
        """``True`` iff the query is negation-free."""
        return all(literal.positive for literal in self.literals)

    @property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(l.atom for l in self.literals if l.positive)

    @property
    def negative_atoms(self) -> tuple[Atom, ...]:
        return tuple(l.atom for l in self.literals if not l.positive)

    @property
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for literal in self.literals:
            result.update(literal.variables)
        return frozenset(result)

    @property
    def predicates(self) -> frozenset[Predicate]:
        return frozenset(literal.predicate for literal in self.literals)

    # ------------------------------------------------------------ evaluation
    def answers(
        self, interpretation: Interpretation | Iterable[Atom]
    ) -> frozenset[tuple[Term, ...]]:
        """``q(I)``: all answer tuples of the query over *interpretation*.

        Following the paper, only tuples of constants are returned for
        non-Boolean queries; for a Boolean query the result is either the
        singleton containing the empty tuple or the empty set.
        """
        atoms = (
            interpretation.positive
            if isinstance(interpretation, Interpretation)
            else frozenset(interpretation)
        )
        index = AtomIndex(atoms)
        answers: set[tuple[Term, ...]] = set()
        for assignment in extend_homomorphisms(
            list(self.positive_atoms), index, None, self.negative_atoms
        ):
            answer = tuple(assignment[v] for v in self.answer_variables)
            if all(isinstance(term, Constant) for term in answer):
                answers.add(answer)
            elif not self.answer_variables:
                answers.add(())
        return frozenset(answers)

    def holds_in(self, interpretation: Interpretation | Iterable[Atom]) -> bool:
        """``I |= q`` for a Boolean query (positive answer)."""
        return bool(self.answers(interpretation))

    def substitute_answer(self, answer: Sequence[Term]) -> "ConjunctiveQuery":
        """The Boolean query ``q(t)`` obtained by fixing the answer variables."""
        if len(answer) != self.arity:
            raise ValueError("answer tuple arity mismatch")
        substitution = dict(zip(self.answer_variables, answer))
        literals = tuple(
            Literal(apply_substitution(l.atom, substitution), l.positive)
            for l in self.literals
        )
        return ConjunctiveQuery(literals, ())

    def negate_literals(self) -> Iterator[Literal]:  # pragma: no cover - helper
        for literal in self.literals:
            yield literal.negate()

    def __str__(self) -> str:
        body = ", ".join(str(literal) for literal in self.literals)
        if self.answer_variables:
            head = ",".join(v.name for v in self.answer_variables)
            return f"q({head}) :- {body}"
        return f"q :- {body}"


def atom_query(predicate: Predicate, *terms: Term) -> ConjunctiveQuery:
    """The atomic Boolean query ``exists Y  p(terms)`` (variables are projected)."""
    atom = Atom(predicate, tuple(terms))
    return ConjunctiveQuery((atom.positive(),), ())


def certain_answers(
    database,
    rules,
    query: ConjunctiveQuery,
    *,
    goal_directed: bool = True,
    max_atoms: int | None = None,
) -> frozenset[tuple[Term, ...]]:
    """Certain answers of *query* over stratified Datalog¬ ``(D, Σ)``.

    For existential-free stratified rules the unique stable model is the
    perfect model, so the certain answers are the query's answers over it.
    With ``goal_directed`` (default) the computation routes through the
    magic-set rewriting of :mod:`repro.query` and touches only the part of
    the model the query's bound arguments reach; otherwise the whole perfect
    model is materialised first (the full-fixpoint baseline).

    Raises :class:`~repro.errors.UnsupportedClassError` on existential rules
    and :class:`~repro.errors.StratificationError` on unstratified programs —
    use :func:`repro.stable.cautious_answers` (or a
    :class:`repro.query.QuerySession` with its stable-model fallback) for the
    general case.
    """
    # Deferred import: repro.query builds on core; this convenience entry
    # point dispatches upward without making core depend on it at load time.
    from ..engine import RelationIndex
    from ..query.session import compile_query_plan, full_fixpoint_answers
    from .database import Database

    if not goal_directed:
        return full_fixpoint_answers(database, rules, query, max_atoms=max_atoms)
    plan = compile_query_plan(rules, query)
    atoms = database.atoms if isinstance(database, Database) else database
    return plan.execute_on(RelationIndex(atoms), query, max_atoms=max_atoms)
