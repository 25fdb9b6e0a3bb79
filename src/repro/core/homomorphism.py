"""Homomorphisms between sets of literals.

A homomorphism (paper, Section 2) from a set of literals ``L`` to a set of
literals ``L'`` is a mapping on terms that is the identity on constants and
maps every (positive or negative) literal of ``L`` to a literal of ``L'``.
In all the algorithms of the paper the source contains variables (rule bodies,
queries) and the target is ground (an interpretation), and negative literals
are checked against the target interpretation by *absence* of the
corresponding positive atom; this module implements exactly that, on the
engine's join executor over the multi-key
:class:`~repro.engine.index.RelationIndex`.

Nulls occurring in the *source* are treated like variables (they may be mapped
to any term), which is what is needed when checking whether one chase result
maps into another; nulls in the *target* are plain domain elements.

The matching primitives (:func:`match_terms`, :func:`match_atom`) and the
index itself live in :mod:`repro.engine`; this module re-exports them and
keeps the historical entry points (``AtomIndex``, ``extend_homomorphisms``,
``ground_matches``) working unchanged on top of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence

from ..engine.index import (
    RelationIndex,
    is_flexible as _is_flexible,
    match_atom,
    match_terms,
)
from ..engine.planner import CompiledRule, enumerate_matches as _enumerate_matches
from .atoms import Atom, Literal, Predicate, apply_substitution
from .terms import Term

__all__ = [
    "AtomIndex",
    "RelationIndex",
    "match_terms",
    "match_atom",
    "homomorphisms",
    "extend_homomorphisms",
    "has_homomorphism",
    "embeds",
]

#: A (partial) homomorphism: maps variables and nulls to ground terms.
Homomorphism = Dict[Term, Term]


class AtomIndex(RelationIndex):
    """Backward-compatible alias of :class:`~repro.engine.index.RelationIndex`.

    Historically this class indexed ground atoms by predicate only (its
    docstring over-promised indexing "by first constant argument", which the
    implementation never did).  It is now a thin subclass of the engine's
    multi-key :class:`RelationIndex`, which builds hash indexes on whatever
    argument positions are bound at lookup time — so the old promise is
    finally true, and then some.  Existing imports and the construction,
    ``add``/``update``, membership, iteration and ``candidates`` APIs keep
    working unchanged.
    """


#: headless patterns compiled for the engine executor, keyed by literal shape
_PATTERN_CACHE: Dict[tuple, CompiledRule] = {}
_PATTERN_CACHE_LIMIT = 4096


def _compiled_pattern(
    positive_atoms: Sequence[Atom], negative_atoms: Sequence[Atom]
) -> CompiledRule:
    key = (tuple(positive_atoms), tuple(negative_atoms))
    compiled = _PATTERN_CACHE.get(key)
    if compiled is None:
        if len(_PATTERN_CACHE) >= _PATTERN_CACHE_LIMIT:
            _PATTERN_CACHE.clear()
        compiled = CompiledRule(heads=(), positive=key[0], negative=key[1])
        _PATTERN_CACHE[key] = compiled
    return compiled


def extend_homomorphisms(
    positive_atoms: Sequence[Atom],
    index: RelationIndex,
    partial: Optional[Mapping[Term, Term]] = None,
    negative_atoms: Sequence[Atom] = (),
    negative_against: Optional[RelationIndex] = None,
) -> Iterator[Homomorphism]:
    """Enumerate all homomorphisms mapping the pattern into *index*.

    The pattern is compiled (and cached, keyed on its literal shape) to a
    headless :class:`~repro.engine.planner.CompiledRule` and enumerated by
    the engine executor, so homomorphism checks run on the same interned
    row-plane join as rule evaluation, function terms and all.

    Parameters
    ----------
    positive_atoms:
        Atoms that must map into *index*.
    index:
        The target atoms (typically ``I⁺``).
    partial:
        A partial assignment that every produced homomorphism must extend.
    negative_atoms:
        Atoms whose images must be *absent* from ``negative_against`` (used
        for default-negated body literals).  All their variables must be bound
        by the positive part or by *partial* (safety).
    negative_against:
        The index against which negative atoms are checked; defaults to
        *index*.
    """
    compiled = _compiled_pattern(positive_atoms, negative_atoms)
    yield from _enumerate_matches(
        compiled, index, partial=partial, negative_against=negative_against
    )


def homomorphisms(
    source: Sequence[Literal] | Sequence[Atom],
    target: Iterable[Atom] | RelationIndex,
    partial: Optional[Mapping[Term, Term]] = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms from a conjunction of literals into a ground set.

    Positive literals must map onto atoms of *target*; negative literals must
    map onto atoms absent from *target*.
    """
    index = target if isinstance(target, RelationIndex) else AtomIndex(target)
    positive: list[Atom] = []
    negative: list[Atom] = []
    for item in source:
        if isinstance(item, Literal):
            (positive if item.positive else negative).append(item.atom)
        else:
            positive.append(item)
    yield from extend_homomorphisms(positive, index, partial, tuple(negative))


def has_homomorphism(
    source: Sequence[Literal] | Sequence[Atom],
    target: Iterable[Atom] | RelationIndex,
    partial: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """``True`` iff at least one homomorphism exists."""
    return next(homomorphisms(source, target, partial), None) is not None


def embeds(source: Iterable[Atom], target: Iterable[Atom] | RelationIndex) -> bool:
    """``True`` iff the set of (possibly null-containing) atoms maps into target.

    Nulls of the source are treated as variables, so this realises the
    standard "homomorphically embeds" check used to compare chase results.
    """
    return has_homomorphism(list(source), target)


@dataclass(frozen=True)
class GroundMatch:
    """A successful ground instantiation of a rule body.

    Attributes
    ----------
    assignment:
        The homomorphism used for the body.
    positive:
        The ground positive body atoms (all present in the target).
    negative:
        The ground negative body atoms (all absent from the target).
    """

    assignment: tuple[tuple[Term, Term], ...]
    positive: tuple[Atom, ...]
    negative: tuple[Atom, ...]

    def as_dict(self) -> Homomorphism:
        return dict(self.assignment)


def ground_matches(
    body: Sequence[Literal],
    target: Iterable[Atom] | RelationIndex,
    negative_against: Optional[Iterable[Atom] | RelationIndex] = None,
) -> Iterator[GroundMatch]:
    """Enumerate ground instantiations of *body* supported by *target*.

    This is the workhorse used by the immediate-consequence operator and by
    the chase: it returns, for every homomorphism of the positive body into
    the target whose negative images are absent (from ``negative_against`` or
    the target itself), the corresponding ground body.
    """
    index = target if isinstance(target, RelationIndex) else AtomIndex(target)
    if negative_against is None:
        check = index
    elif isinstance(negative_against, RelationIndex):
        check = negative_against
    else:
        check = AtomIndex(negative_against)
    positive = [literal.atom for literal in body if literal.positive]
    negative = [literal.atom for literal in body if not literal.positive]
    for assignment in extend_homomorphisms(
        positive, index, None, tuple(negative), negative_against=check
    ):
        ground_positive = tuple(apply_substitution(a, assignment) for a in positive)
        ground_negative = tuple(apply_substitution(a, assignment) for a in negative)
        yield GroundMatch(tuple(sorted(assignment.items(), key=lambda kv: str(kv[0]))),
                          ground_positive, ground_negative)
