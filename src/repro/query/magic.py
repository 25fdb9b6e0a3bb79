"""Magic-set rewriting of stratified Datalog¬ programs w.r.t. a query.

Given an existential-free, stratified program and a normal conjunctive query,
the rewriting produces a program whose bottom-up evaluation performs the
*top-down, goal-directed* computation: only atoms that can contribute to the
query's answers are derived.  The classic construction (Bancilhon-Maier-Sagiv-
Ullman / Beeri-Ramakrishnan) is followed:

1. the query becomes a fresh *goal rule*, with every query constant replaced
   by a **parameter variable** so the compiled plan is reusable across
   constant values (the values travel through the magic seed at run time);
2. the reachable intensional predicates are *adorned* per call pattern
   (:mod:`repro.query.adornment`);
3. every adorned rule gets a guarding **magic literal** ``m__p__a(bound
   head args)``, and every adorned subgoal a **magic rule** deriving the
   bound tuples the subgoal is called with from the rule's SIPS prefix;
4. intensional predicates reachable *through negation* are left un-rewritten:
   their full definitions (and everything they depend on) are copied verbatim
   and evaluated in lower strata, so negative literals are always tested
   against complete relations.  This is the restriction that keeps magic sets
   sound under stratified negation — magic pruning is only ever applied to
   purely positively relevant predicates, where it can drop work but never
   answers.

The rewritten program is stratified whenever the input is (magic and adorned
predicates only ever appear positively, and copied predicates never refer
back to them), so it evaluates on :func:`repro.query.stratify.evaluate_stratified`
— stratum-local semi-naive fixpoints on the shared engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, Literal, Predicate, apply_substitution
from ..core.queries import ConjunctiveQuery
from ..core.terms import Constant, Term, Variable
from ..engine import RelationIndex, Row, SymbolTable
from ..errors import UnsupportedClassError
from ..lp.programs import NormalRule
from .adornment import AdornedPredicate, AdornedRule, adorn_atom, adorn_rule
from .stratify import (
    Stratification,
    normalize_rules,
    relevant_predicates,
    stratify,
)

__all__ = ["MagicProgram", "magic_rewrite", "canonicalize_query"]

_GOAL_NAME = "_goal"
_PARAMETER_PREFIX = "$P"


def canonicalize_query(
    query: ConjunctiveQuery,
) -> Tuple[Tuple[Literal, ...], Tuple[Variable, ...], Tuple[Constant, ...]]:
    """Replace query constants by parameter variables.

    Returns the rewritten literals, the parameter variables (first-occurrence
    order) and the constants they stand for.  Two occurrences of the same
    constant share one parameter, preserving the induced join.  The plan
    compiled from the canonical form depends only on the query's *shape*, so
    it is shared by all queries differing only in constant values.
    """
    parameters: Dict[Constant, Variable] = {}
    literals: List[Literal] = []
    for literal in query.literals:
        terms: List[Term] = []
        for term in literal.atom.terms:
            if isinstance(term, Constant):
                parameter = parameters.get(term)
                if parameter is None:
                    parameter = Variable(f"{_PARAMETER_PREFIX}{len(parameters)}")
                    parameters[term] = parameter
                terms.append(parameter)
            elif isinstance(term, Variable):
                terms.append(term)
            else:
                raise UnsupportedClassError(
                    f"query term {term} is outside the Datalog fragment"
                )
        literals.append(
            Literal(Atom(literal.predicate, tuple(terms)), literal.positive)
        )
    return (
        tuple(literals),
        tuple(parameters.values()),
        tuple(parameters.keys()),
    )


@dataclass(frozen=True)
class MagicProgram:
    """A query-specialised, parameterised, stratified rewritten program.

    Attributes
    ----------
    rules:
        Magic rules, adorned rules, base-import rules, and the verbatim copies
        of negation-reachable definitions.
    goal:
        The adorned goal predicate; answers are the atoms of ``goal.renamed``.
    seed_template:
        The magic seed for the goal, over the parameter variables; ground it
        with :meth:`seed` to run the plan for concrete constants.
    parameters / constants:
        The parameter variables and the constant values they had in the query
        the plan was compiled from (the defaults for :meth:`seed`).
    answer_arity:
        Number of answer positions (the query's arity).
    stratification:
        The strata of the rewritten program, computed once at rewrite time.
    """

    rules: Tuple[NormalRule, ...]
    goal: AdornedPredicate
    seed_template: Atom
    parameters: Tuple[Variable, ...]
    constants: Tuple[Constant, ...]
    answer_arity: int
    stratification: Stratification = field(compare=False)

    def seed(self, constants: Optional[Sequence[Constant]] = None) -> Atom:
        """The ground magic seed for *constants* (default: the compiled ones)."""
        values = tuple(constants) if constants is not None else self.constants
        if len(values) != len(self.parameters):
            raise ValueError(
                f"plan expects {len(self.parameters)} constants, got {len(values)}"
            )
        return apply_substitution(
            self.seed_template, dict(zip(self.parameters, values))
        )

    def collect_answers(
        self,
        index: RelationIndex,
        constants: Optional[Sequence[Constant]] = None,
    ) -> frozenset[Tuple[Term, ...]]:
        """The answer tuples recorded in an evaluated index.

        The goal relation carries the plan's parameters after the answer
        positions, so one index can hold the derivations of **several seeds**
        at once (magic programs are monotone in their seeds — every magic or
        adorned predicate occurs only positively).  Pass *constants* to
        collect only the answers of that seed; with ``None`` every goal atom
        is collected, which is only meaningful for single-seed evaluations
        (:meth:`repro.query.QueryPlan.execute_on`).

        Collection stays on the row plane: goal rows are read as int tuples
        and only their answer terms decoded, so no goal :class:`Atom` is
        built — the symbol table's process-wide atom cache never holds the
        goal rows of a throwaway reader fork.
        """
        goal = self.goal.renamed
        arity = self.answer_arity
        symbols = index.symbols
        if constants:
            # Indexed lookup on the parameter suffix: the goal tuples of one
            # seed come out of a hash bucket, so collecting stays O(answers
            # of this seed) no matter how many seeds share the index.
            key: List[int] = []
            for constant in constants:
                tid = symbols.try_encode_term(constant)
                if tid is None:
                    # No stored row can hold a term never interned.
                    return frozenset()
                key.append(tid)
            rows = index.rows_for(
                goal, tuple(range(arity, arity + len(key))), tuple(key)
            )
        else:
            rows = index.rows_of(goal)
        return frozenset(self.goal_answers(rows, arity, symbols))

    @staticmethod
    def goal_answers(
        rows: Iterable[Row], arity: int, symbols: SymbolTable
    ) -> Set[Tuple[Term, ...]]:
        """The answer tuples goal *rows* hold: each row's first *arity*
        terms, decoded; the rest are the parameters of the seed that
        derived it.  Mirroring ``ConjunctiveQuery.answers``, a row whose
        answer holds a term that is not a constant (a null from
        chase-produced facts) holds no answer tuple."""
        decode = symbols.decode_term
        answers: Set[Tuple[Term, ...]] = set()
        for row in rows:
            answer = tuple(map(decode, row[:arity]))
            for term in answer:
                if not isinstance(term, Constant):
                    break
            else:
                answers.add(answer)
        return answers

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "\n".join(str(rule) for rule in self.rules)


def _fresh_goal_predicate(taken: Set[str], arity: int) -> Predicate:
    name = _GOAL_NAME
    while name in taken:
        name += "_"
    return Predicate(name, arity)


def _fresh_infix(taken: Set[str]) -> str:
    """A namespace separator occurring in no predicate name of the program.

    The ``generated`` flag keeps generated predicates apart from user ones,
    but two generated names can still coincide.  With a fixed ``"__"``, the
    rules ``e(X) -> x(X)`` and ``f(X) -> "m__x"(X)`` give the adorned copy
    of ``m__x`` and the magic predicate of ``x`` the same name,
    ``m__x__b/1``; over the facts ``e(a). f(b).`` the query
    ``? :- x(a), "m__x"(a)`` then holds, though ``m__x(a)`` does not.  An
    infix found in no name of the program keeps every generated name
    distinct.
    """
    infix = "__"
    while any(infix in name for name in taken):
        infix += "_"
    return infix


def magic_rewrite(rules, query: ConjunctiveQuery) -> MagicProgram:
    """Rewrite ``(rules, query)`` into a goal-directed :class:`MagicProgram`.

    Raises :class:`~repro.errors.UnsupportedClassError` on existential rules
    and :class:`~repro.errors.StratificationError` on unstratified programs.

    When the process-global tracer (:func:`repro.obs.get_tracer`) is
    enabled, the rewrite is wrapped in a ``query.magic_rewrite`` span —
    plan *compilation* is the seam the plan caches amortise, so its cost
    belongs in any trace of a cold query.
    """
    from ..obs.trace import get_tracer

    tracer = get_tracer()
    span = (
        tracer.start("query.magic_rewrite", query=str(query))
        if tracer.enabled
        else None
    )
    try:
        return _magic_rewrite(rules, query)
    finally:
        if span is not None:
            span.finish()


def _magic_rewrite(rules, query: ConjunctiveQuery) -> MagicProgram:
    program = normalize_rules(rules)
    stratify(program)  # reject unstratified inputs up front

    literals, parameters, constants = canonicalize_query(query)
    taken = {p.name for rule in program for p in rule.predicates}
    taken.update(p.name for lit in literals for p in (lit.predicate,))
    goal_predicate = _fresh_goal_predicate(
        taken, query.arity + len(parameters)
    )
    infix = _fresh_infix(taken | {goal_predicate.name})
    goal_head = Atom(
        goal_predicate, tuple(query.answer_variables) + parameters
    )
    goal_rule = NormalRule(
        goal_head,
        tuple(lit.atom for lit in literals if lit.positive),
        tuple(lit.atom for lit in literals if not lit.positive),
        label="goal",
    )

    by_head: Dict[Predicate, List[NormalRule]] = {}
    for rule in program:
        by_head.setdefault(rule.head.predicate, []).append(rule)
    by_head[goal_predicate] = [goal_rule]
    intensional = set(by_head)

    # Only the goal's dependency cone matters: rules outside it are never
    # adorned, and negation occurring only outside it must not force
    # materialisation of unrelated predicates.
    cone = relevant_predicates(
        chain(program, (goal_rule,)), {goal_predicate}, follow_negation=True
    )

    # Predicates reachable through a negative literal (of a cone rule) must be
    # materialised in full: magic restriction of a negated relation could turn
    # absence of a pruned (irrelevant-to-the-goal) atom into a wrong positive
    # answer.
    negated: Set[Predicate] = set()
    for rule in chain(program, (goal_rule,)):
        if rule.head.predicate not in cone:
            continue
        for atom in rule.negative_body:
            if atom.predicate in intensional:
                negated.add(atom.predicate)
    tainted = (
        relevant_predicates(program, negated, follow_negation=True)
        if negated
        else frozenset()
    )

    def eligible(predicate: Predicate) -> bool:
        return predicate in intensional and predicate not in tainted

    goal = AdornedPredicate(
        goal_predicate,
        adorn_atom(goal_head, set(parameters)),
        infix,
    )

    # Worklist over (predicate, adornment) call patterns.
    adorned_rules: List[AdornedRule] = []
    seen: Set[AdornedPredicate] = {goal}
    queue: List[AdornedPredicate] = [goal]
    while queue:
        pattern = queue.pop()
        for rule in by_head.get(pattern.predicate, ()):
            adorned = adorn_rule(rule, pattern, eligible)
            adorned_rules.append(adorned)
            for subgoal in adorned.subgoals:
                if subgoal not in seen:
                    seen.add(subgoal)
                    queue.append(subgoal)

    rewritten: List[NormalRule] = []
    emitted: Set[NormalRule] = set()

    def emit(rule: NormalRule) -> None:
        # Structural dedup (NormalRule is a frozen dataclass): renderings are
        # not injective — Constant("Y") and Variable("Y") print alike.
        if rule not in emitted:
            emitted.add(rule)
            rewritten.append(rule)

    for adorned in adorned_rules:
        pattern = adorned.head_adornment
        magic_guard = Atom(pattern.magic, pattern.bound_terms(adorned.head))
        positive_prefix: List[Atom] = [magic_guard]
        negative_prefix: List[Atom] = []
        for entry in adorned.body:
            if entry.adorned is not None:
                # Magic rule: the bound tuples this subgoal is called with are
                # derivable from the guarded SIPS prefix computed so far.
                emit(
                    NormalRule(
                        Atom(
                            entry.adorned.magic,
                            entry.adorned.bound_terms(entry.atom),
                        ),
                        tuple(positive_prefix),
                        tuple(negative_prefix),
                        label=f"magic[{adorned.source.label or pattern.predicate.name}]",
                    )
                )
            if entry.positive:
                atom = entry.atom
                if entry.adorned is not None:
                    atom = Atom(entry.adorned.renamed, atom.terms)
                positive_prefix.append(atom)
            else:
                negative_prefix.append(entry.atom)
        emit(
            NormalRule(
                Atom(pattern.renamed, adorned.head.terms),
                tuple(positive_prefix),
                tuple(negative_prefix),
                label=f"adorned[{adorned.source.label or pattern.predicate.name}]",
            )
        )

    # Base-import rules: an adorned intensional predicate may also have plain
    # database facts; funnel them (magic-guarded) into the adorned copy.
    for pattern in sorted(
        seen, key=lambda p: (p.predicate.name, p.predicate.arity, p.adornment)
    ):
        if pattern.predicate == goal_predicate:
            continue
        variables = tuple(
            Variable(f"$B{i}") for i in range(pattern.predicate.arity)
        )
        base = Atom(pattern.predicate, variables)
        emit(
            NormalRule(
                Atom(pattern.renamed, variables),
                (Atom(pattern.magic, pattern.bound_terms(base)), base),
                (),
                label=f"base[{pattern.predicate.name}]",
            )
        )

    # Verbatim copies of the negation-reachable definitions (lower strata).
    for predicate in sorted(
        tainted & intensional, key=lambda p: (p.name, p.arity)
    ):
        for rule in by_head.get(predicate, ()):
            emit(rule)

    seed_template = Atom(goal.magic, parameters)
    rewritten_program = tuple(rewritten)
    return MagicProgram(
        rules=rewritten_program,
        goal=goal,
        seed_template=seed_template,
        parameters=parameters,
        constants=constants,
        answer_arity=query.arity,
        stratification=stratify(rewritten_program),
    )
