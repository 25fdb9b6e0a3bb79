"""Bound/free adornments and sideways information passing.

Magic-set rewriting starts from an *adornment* of the query predicate: a
string over ``{b, f}`` — one letter per argument position — recording which
positions are **b**ound (to a constant, or to a variable whose value flows in
from the query) and which are **f**ree at call time.  Adornments propagate
through rule bodies by a *sideways information passing strategy* (SIPS): body
literals are visited in an order, every visited positive literal binds its
variables for the literals after it, and each intensional subgoal is adorned
with the bound/free status its arguments have at the moment it is visited.

The SIPS used here mirrors the engine's greedy join planner
(:func:`repro.engine.planner.order_body`): prefer the positive literal with
the most bound argument positions (those can drive the
:class:`~repro.engine.index.RelationIndex` hash lookups the rewriting exists
to exploit — the multi-probe flavour of per-access-pattern indexing), break
ties by written position, and schedule each negative literal at the earliest
point where safety has bound all of its variables.  Keeping the SIPS aligned
with the join planner means the bound positions the rewriting advertises are
exactly the access patterns the evaluator will probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Set, Tuple

from ..core.atoms import Atom, Literal, Predicate
from ..core.terms import Term, Variable
from ..engine.index import is_flexible
from ..lp.programs import NormalRule

__all__ = [
    "AdornedPredicate",
    "AdornedLiteral",
    "AdornedRule",
    "adorn_atom",
    "adorn_rule",
    "sips_order",
]

#: The letters of an adornment string.
BOUND = "b"
FREE = "f"


def _term_is_bound(term: Term, bound: Set[Term]) -> bool:
    """A term is bound when it is a constant or a variable bound by the SIPS."""
    if is_flexible(term):
        return term in bound
    if hasattr(term, "arguments"):  # function terms: bound iff all parts are
        return all(
            _term_is_bound(argument, bound)
            for argument in term.arguments  # type: ignore[attr-defined]
        )
    return True  # constants


@dataclass(frozen=True)
class AdornedPredicate:
    """A predicate together with an adornment of its argument positions.

    :attr:`renamed` and :attr:`magic` are *generated* predicates
    (``Predicate(..., generated=True)``), so they never meet a relation of
    the program or the fact base.  ``infix`` separates the parts of their
    names; the rewriting picks one that occurs in no predicate name of the
    program (:func:`repro.query.magic._fresh_infix`), which keeps two
    generated names apart.
    """

    predicate: Predicate
    adornment: str
    infix: str = "__"

    def __post_init__(self) -> None:
        if len(self.adornment) != self.predicate.arity:
            raise ValueError(
                f"adornment {self.adornment!r} does not fit {self.predicate}"
            )
        if any(letter not in (BOUND, FREE) for letter in self.adornment):
            raise ValueError(f"bad adornment {self.adornment!r}")

    @property
    def bound_positions(self) -> Tuple[int, ...]:
        return tuple(
            position
            for position, letter in enumerate(self.adornment)
            if letter == BOUND
        )

    @property
    def renamed(self) -> Predicate:
        """The adorned copy ``p__a`` standing for ``p`` called with pattern ``a``."""
        return Predicate(
            f"{self.predicate.name}{self.infix}{self.adornment}",
            self.predicate.arity,
            generated=True,
        )

    @property
    def magic(self) -> Predicate:
        """The magic predicate ``m__p__a`` holding the relevant bound tuples."""
        return Predicate(
            f"m{self.infix}{self.predicate.name}{self.infix}{self.adornment}",
            len(self.bound_positions),
            generated=True,
        )

    def bound_terms(self, atom: Atom) -> Tuple[Term, ...]:
        """The terms of *atom* at this adornment's bound positions."""
        return tuple(atom.terms[position] for position in self.bound_positions)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.predicate.name}^{self.adornment or 'ε'}"


def adorn_atom(atom: Atom, bound: Set[Term]) -> str:
    """The adornment *atom* receives when called with *bound* terms known."""
    return "".join(
        BOUND if _term_is_bound(term, bound) else FREE for term in atom.terms
    )


@dataclass(frozen=True)
class AdornedLiteral:
    """One body literal of an adorned rule.

    ``adorned`` is the adorned version of the literal's predicate when the
    predicate is magic-eligible intensional (the rewriting renames it and
    derives a magic rule for it); ``None`` for extensional predicates, for
    negated literals, and for predicates evaluated without magic restriction.
    """

    literal: Literal
    adorned: "AdornedPredicate | None" = None

    @property
    def positive(self) -> bool:
        return self.literal.positive

    @property
    def atom(self) -> Atom:
        return self.literal.atom


@dataclass(frozen=True)
class AdornedRule:
    """A rule adorned for one call pattern of its head predicate.

    The body is stored in SIPS order; ``head_adornment`` is the call pattern
    the rule was specialised for.
    """

    head: Atom
    head_adornment: AdornedPredicate
    body: Tuple[AdornedLiteral, ...]
    source: NormalRule

    @property
    def subgoals(self) -> Tuple[AdornedPredicate, ...]:
        """The adorned intensional subgoals, in SIPS order."""
        return tuple(
            entry.adorned for entry in self.body if entry.adorned is not None
        )


def sips_order(
    rule: NormalRule, bound: Iterable[Term] = ()
) -> Tuple[Literal, ...]:
    """Order the body of *rule* by the planner-aligned greedy SIPS.

    Positive literals are picked most-bound-first (ties by written position);
    each negative literal is emitted as soon as all of its variables are
    bound.  Safety guarantees every negative literal is eventually emitted;
    unsafe stragglers are appended last so the evaluator can report them.
    """
    bound_terms: Set[Term] = set(bound)
    positives: List[Tuple[int, Atom]] = list(enumerate(rule.positive_body))
    negatives: List[Tuple[int, Atom]] = list(enumerate(rule.negative_body))
    ordered: List[Literal] = []

    def flush_negatives() -> None:
        remaining: List[Tuple[int, Atom]] = []
        for position, atom in negatives:
            if all(variable in bound_terms for variable in atom.variables):
                ordered.append(Literal(atom, False))
            else:
                remaining.append((position, atom))
        negatives[:] = remaining

    flush_negatives()
    while positives:
        def rank(entry: Tuple[int, Atom]) -> Tuple[int, int]:
            position, atom = entry
            bound_count = sum(
                1 for term in atom.terms if _term_is_bound(term, bound_terms)
            )
            return (-bound_count, position)

        best = min(positives, key=rank)
        positives.remove(best)
        ordered.append(Literal(best[1], True))
        bound_terms.update(best[1].variables)
        flush_negatives()
    for _, atom in negatives:  # unsafe leftovers; surfaced at evaluation time
        ordered.append(Literal(atom, False))
    return tuple(ordered)


def adorn_rule(
    rule: NormalRule,
    head_adornment: AdornedPredicate,
    eligible: Callable[[Predicate], bool],
) -> AdornedRule:
    """Specialise *rule* for the call pattern *head_adornment*.

    Variables at bound head positions are bound from the start (their values
    arrive through the magic predicate); the body is ordered by
    :func:`sips_order` and every positive subgoal whose predicate satisfies
    *eligible* is adorned with its call-time bound/free pattern.
    """
    bound: Set[Term] = {
        term
        for term in head_adornment.bound_terms(rule.head)
        if is_flexible(term)
    }
    body: List[AdornedLiteral] = []
    for literal in sips_order(rule, bound):
        if literal.positive and eligible(literal.predicate):
            adorned = AdornedPredicate(
                literal.predicate,
                adorn_atom(literal.atom, bound),
                head_adornment.infix,
            )
            body.append(AdornedLiteral(literal, adorned))
        else:
            body.append(AdornedLiteral(literal))
        if literal.positive:
            bound.update(literal.atom.variables)
    return AdornedRule(rule.head, head_adornment, tuple(body), rule)
