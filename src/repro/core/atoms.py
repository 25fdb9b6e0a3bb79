"""Predicates, atoms and literals.

An atom is ``p(t1, ..., tn)`` for a predicate ``p`` of arity ``n`` and terms
``ti``.  A literal is an atom (positive literal) or a negated atom (negative
literal, written ``not p(t)`` in the concrete syntax).  Following the paper,
negation is *default* negation interpreted under the stable model semantics.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Mapping

from .terms import (
    Constant,
    FunctionTerm,
    Null,
    Term,
    Variable,
    is_ground_term,
    term_sort_key,
)

__all__ = ["Predicate", "Atom", "Literal", "Substitution", "apply_substitution"]

#: A substitution maps variables (and possibly nulls) to terms.
Substitution = Mapping[Term, Term]

#: Predicate names the concrete syntax reads back unquoted: a parser name
#: token that is not a keyword (``not`` starts a negative literal, ``exists``
#: an existential head prefix).  Anything else renders double-quoted — the
#: parser accepts quoted predicate names in atom position.  Aligned with the
#: tokeniser of :mod:`repro.core.parser`; the parser fuzz suite round-trips
#: this.  Exclusions: a name containing ``"`` is unrepresentable anywhere
#: (the string production has no escapes), and names containing ``%``, ``#``
#: or a newline additionally break the *program/database* productions, whose
#: line splitting and comment stripping run before tokenisation and are not
#: quote-aware.  Such names render quoted, best effort, and re-parsing fails
#: loudly with ``ParseError``.
_PLAIN_PREDICATE_RE = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_']*|\d+)$")
_PREDICATE_KEYWORDS = frozenset({"not", "exists"})


#: ``(name, arity, generated)`` -> the one live :class:`Predicate` for that
#: key.  Weak values: a predicate nothing references any more (say, one an
#: HTTP query made up) leaves the table, so the table does not grow with
#: every name ever seen.
_PREDICATES: weakref.WeakValueDictionary[tuple[str, int, bool], Predicate] = (
    weakref.WeakValueDictionary()
)
_PREDICATES_LOCK = threading.Lock()


class Predicate:
    """A relational symbol ``name/arity``, interned.

    ``Predicate(name, arity)`` returns the one live instance for that pair,
    so two equal predicates are the same object.  Equality and hashing are
    therefore ``object``'s identity slots, implemented in C: every
    predicate-keyed dict probe of the engine (relations, pattern tables,
    delta grouping) compares and hashes without running Python code.  The
    intern table holds its predicates weakly, so an unreferenced predicate
    is collected and a later ``Predicate(name, arity)`` creates it again;
    lookups are lock-free and only creation takes a lock, so threads racing
    to create one predicate all get the same object.

    ``generated`` is part of the identity.  Only the magic-set rewrite sets
    it, on the adorned and magic relations it makes up
    (:class:`~repro.query.adornment.AdornedPredicate`).  So a fact base's
    ``Predicate("p__bf", 2)`` is never the rewrite's ``p__bf``, and no fact
    can land in a generated relation.  ``str`` does not show the flag, and
    no durable or wire format stores it: those hold base facts only.

    Instances are immutable, and pickling or copying one returns the
    interned instance.
    """

    __slots__ = ("name", "arity", "generated", "__weakref__")

    name: str
    arity: int
    generated: bool

    def __new__(
        cls, name: str, arity: int, generated: bool = False
    ) -> "Predicate":
        key = (name, arity, generated)
        predicate = _PREDICATES.get(key)
        if predicate is not None:
            return predicate
        if not name:
            raise ValueError("predicate name must be non-empty")
        if arity < 0:
            raise ValueError("predicate arity must be non-negative")
        with _PREDICATES_LOCK:
            predicate = _PREDICATES.get(key)
            if predicate is None:
                predicate = object.__new__(cls)
                object.__setattr__(predicate, "name", name)
                object.__setattr__(predicate, "arity", arity)
                object.__setattr__(predicate, "generated", generated)
                _PREDICATES[key] = predicate
        return predicate

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (Predicate, (self.name, self.arity, self.generated))

    def __repr__(self) -> str:
        flag = ", generated=True" if self.generated else ""
        return f"Predicate(name={self.name!r}, arity={self.arity!r}{flag})"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}/{self.arity}"

    def __call__(self, *terms: Term) -> "Atom":
        """Convenience constructor: ``p(x, y)`` builds an :class:`Atom`."""
        return Atom(self, tuple(terms))


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``p(t1, ..., tn)``.

    Atoms are hashed constantly by the evaluation engine (set membership,
    hash-index keys), so the hash is computed once at construction and cached.
    """

    predicate: Predicate
    terms: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) != self.predicate.arity:
            raise ValueError(
                f"predicate {self.predicate} applied to {len(self.terms)} terms"
            )
        object.__setattr__(self, "_hash", hash((self.predicate, self.terms)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_ground(self) -> bool:
        """``True`` iff the atom contains no variables."""
        return all(is_ground_term(term) for term in self.terms)

    @property
    def variables(self) -> frozenset[Variable]:
        """The set of variables occurring in the atom."""
        return frozenset(term for term in self.terms if isinstance(term, Variable))

    @property
    def constants(self) -> frozenset[Constant]:
        """The set of constants occurring in the atom (including inside functions)."""
        found: set[Constant] = set()
        stack: list[Term] = list(self.terms)
        while stack:
            term = stack.pop()
            if isinstance(term, Constant):
                found.add(term)
            elif isinstance(term, FunctionTerm):
                stack.extend(term.arguments)
        return frozenset(found)

    @property
    def nulls(self) -> frozenset[Null]:
        """The set of labelled nulls occurring in the atom."""
        found: set[Null] = set()
        stack: list[Term] = list(self.terms)
        while stack:
            term = stack.pop()
            if isinstance(term, Null):
                found.add(term)
            elif isinstance(term, FunctionTerm):
                stack.extend(term.arguments)
        return frozenset(found)

    def rename_predicate(self, predicate: Predicate) -> "Atom":
        """Return a copy of the atom over *predicate* (same arity required)."""
        return Atom(predicate, self.terms)

    def positive(self) -> "Literal":
        """This atom as a positive literal."""
        return Literal(self, positive=True)

    def negated(self) -> "Literal":
        """This atom as a negative (default-negated) literal."""
        return Literal(self, positive=False)

    def __str__(self) -> str:
        name = self.predicate.name
        if _PLAIN_PREDICATE_RE.match(name) is None or name in _PREDICATE_KEYWORDS:
            name = f'"{name}"'
        if not self.terms:
            return name
        args = ",".join(str(term) for term in self.terms)
        return f"{name}({args})"

    def sort_key(self) -> tuple:
        """Deterministic ordering key (by predicate name, arity, then terms)."""
        return (
            self.predicate.name,
            self.predicate.arity,
            tuple(term_sort_key(term) for term in self.terms),
        )


@dataclass(frozen=True, slots=True)
class Literal:
    """A positive or negative (default-negated) literal."""

    atom: Atom
    positive: bool = True

    @property
    def predicate(self) -> Predicate:
        return self.atom.predicate

    @property
    def terms(self) -> tuple[Term, ...]:
        return self.atom.terms

    @property
    def variables(self) -> frozenset[Variable]:
        return self.atom.variables

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def negate(self) -> "Literal":
        """The complementary literal."""
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"

    def sort_key(self) -> tuple:
        return (0 if self.positive else 1, self.atom.sort_key())


def _substitute_term(term: Term, substitution: Substitution) -> Term:
    if term in substitution:
        return substitution[term]
    if isinstance(term, FunctionTerm):
        return FunctionTerm(
            term.function,
            tuple(_substitute_term(argument, substitution) for argument in term.arguments),
        )
    return term


def apply_substitution(atom: Atom, substitution: Substitution) -> Atom:
    """Apply *substitution* to *atom* and return the resulting atom.

    Terms not in the domain of the substitution are left unchanged; function
    terms are substituted recursively in their arguments.
    """
    return Atom(
        atom.predicate,
        tuple(_substitute_term(term, substitution) for term in atom.terms),
    )


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """The set of variables occurring in a collection of atoms."""
    result: set[Variable] = set()
    for atom in atoms:
        result.update(atom.variables)
    return frozenset(result)
