"""In-memory storage for :class:`~repro.engine.index.RelationIndex`.

The evaluation engine separates *what* is stored (ground atoms, grouped by
predicate) from the access paths built over it (hash indexes, join
planning).  A backend supports row insertion and removal with dedup,
membership, per-predicate scan and counting, plus two versioning
operations — ``snapshot`` (a stable read-only view of the current contents)
and the :class:`OverlayBackend` wrapper (a read view layering a branch's
additions over a snapshot).

Every backend speaks **two planes** over the same data:

* the *atom plane* (``atoms_of``/``in``/``iter``) — read-only, trading in
  :class:`~repro.core.atoms.Atom` objects; and
* the *row plane* (``insert_row``/``remove_row``/``contains_row``/
  ``rows_of``) — the engine-internal fast path, trading in interned integer
  tuples (see :mod:`repro.engine.intern`).  Atoms are encoded once, in
  ``RelationIndex.add``, and decoded back only through the symbol table's
  canonical-atom cache, so the join engine above never hashes a term tree.

Two backends ship with the engine:

* :class:`MemoryBackend` — per-predicate :class:`TupleRelation` storage
  (int-tuple rows with columnar scan arrays) with predicate-level
  copy-on-write: ``snapshot()`` is O(#predicates) and shares each relation
  until either side of the split writes it.
* :class:`OverlayBackend` — the read view of an add-only branch over a
  :class:`MemoryBackend` snapshot: the branch's additions live in a private
  :class:`MemoryBackend`, the base is never written.  Creating one is O(1)
  regardless of base size, which is what makes per-query and per-chase
  evaluation branches affordable.  Its owner,
  :class:`~repro.engine.index.OverlayRelationIndex`, writes the local layer
  and answers the row plane itself.

Nothing but ids round-trips: all sharing between snapshots and forks is
sharing of flat int structures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence

from ..core.atoms import Atom, Predicate
from .intern import Row, SymbolTable, TupleRelation, global_symbols

__all__ = [
    "MemoryBackend",
    "OverlayBackend",
]


class MemoryBackend:
    """Default in-memory storage with predicate-level copy-on-write.

    Each predicate owns a :class:`~repro.engine.intern.TupleRelation`
    (insertion-ordered dict of int-tuple rows with cached scan lists and
    columnar arrays).  ``snapshot()`` shares every relation with the new view
    and marks it ``shared``; the first subsequent write to a shared relation
    — from either side — copies it, so a snapshot costs O(#predicates) and
    later mutations cost O(|mutated relation|) once.  What is shared and
    copied are dicts of small int tuples, never term-object graphs.  Rows
    are encoded against the process-wide
    :func:`~repro.engine.intern.global_symbols` table.
    """

    __slots__ = ("_rows", "_size", "_symbols")

    def __init__(self) -> None:
        self._rows: Dict[Predicate, TupleRelation] = {}
        self._size = 0
        self._symbols = global_symbols()

    @property
    def symbols(self) -> SymbolTable:
        return self._symbols

    @property
    def relations(self) -> Dict[Predicate, TupleRelation]:
        """The stored relations by predicate.  Read them only: every write
        goes through :meth:`insert_row` or :meth:`remove_row`, which copy a
        shared relation first."""
        return self._rows

    def _writable(self, predicate: Predicate) -> TupleRelation:
        relation = self._rows.get(predicate)
        if relation is None:
            relation = TupleRelation(predicate.arity)
            self._rows[predicate] = relation
        elif relation.shared:
            relation = relation.copy()
            self._rows[predicate] = relation
        return relation

    # ------------------------------------------------------------- row plane
    def insert_row(self, predicate: Predicate, row: Row) -> bool:
        # Hot path: two dict probes in the common case.
        relation = self._rows.get(predicate)
        if relation is None:
            relation = TupleRelation(predicate.arity)
            self._rows[predicate] = relation
        elif row in relation.rows:
            return False
        elif relation.shared:
            relation = relation.copy()
            self._rows[predicate] = relation
        relation.append(row)
        self._size += 1
        return True

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._rows.get(predicate)
        if relation is None or row not in relation.rows:
            return False
        relation = self._writable(predicate)
        # O(1) on the ordered dict; the cached scan list is invalidated and
        # rebuilt once per removal batch (insertion order is preserved, as
        # the protocol promises and deterministic chase runs rely on).
        relation.discard(row)
        self._size -= 1
        return True

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._rows.get(predicate)
        return relation is not None and row in relation.rows

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        relation = self._rows.get(predicate)
        return relation.scan() if relation is not None else ()

    # ------------------------------------------------------------ atom plane
    def snapshot(self) -> "MemoryBackend":
        """An O(#predicates) copy-on-write view of the current contents.

        Invariant: a relation marked ``shared`` is referenced by at least two
        backends and must never be mutated in place — every write path goes
        through ``_writable`` (or the inlined equivalent in ``insert_row``),
        which copies first.  The mark is sticky (cleared only by copying),
        so chains of snapshots stay safe: sharing with a newer view cannot
        un-protect an older one.
        """
        clone = MemoryBackend()
        for predicate, relation in self._rows.items():
            relation.shared = True
            clone._rows[predicate] = relation
        clone._size = self._size
        return clone

    def __contains__(self, atom: Atom) -> bool:
        relation = self._rows.get(atom.predicate)
        if relation is None:
            return False
        row = self._symbols.try_encode_atom(atom)
        return row is not None and row in relation.rows

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Atom]:
        for predicate, relation in list(self._rows.items()):
            yield from relation.atoms(self._symbols, predicate)

    def atoms_of(self, predicate: Predicate) -> Sequence[Atom]:
        relation = self._rows.get(predicate)
        if relation is None:
            return ()
        return relation.atoms(self._symbols, predicate)

    def count(self, predicate: Predicate) -> int:
        relation = self._rows.get(predicate)
        return len(relation.rows) if relation is not None else 0

    def predicates(self) -> Iterable[Predicate]:
        return self._rows.keys()


class OverlayBackend:
    """The read view of an add-only branch over a :class:`MemoryBackend` base.

    The branch's additions live in a private :class:`MemoryBackend`
    (sharing the base's symbol table, so rows from both layers are directly
    comparable); its owner writes them through :attr:`local`, storing only
    rows the base does not hold.  The base is never written, so any number
    of overlays can branch off one base concurrently and each costs O(1) to
    create plus O(its own writes) to hold.  An overlay is a leaf: it cannot
    remove rows or be snapshotted.

    The base must not be mutated while overlays over it are alive; take it
    from ``snapshot()``, whose copy-on-write keeps such views valid.
    """

    __slots__ = ("_base", "_local")

    def __init__(self, base: MemoryBackend) -> None:
        self._base = base
        self._local = MemoryBackend()

    # ------------------------------------------------------------ layering
    @property
    def symbols(self) -> SymbolTable:
        return self._local.symbols

    @property
    def base(self) -> MemoryBackend:
        return self._base

    @property
    def local(self) -> MemoryBackend:
        return self._local

    # ------------------------------------------------------------- row plane
    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        raise TypeError("overlay branches are add-only: rows cannot be removed")

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        base_rows = self._base.rows_of(predicate)
        local_rows = self._local.rows_of(predicate)
        if not local_rows:
            return base_rows
        if not base_rows:
            return local_rows
        return list(base_rows) + list(local_rows)

    # ------------------------------------------------------------ atom plane
    def __contains__(self, atom: Atom) -> bool:
        return atom in self._local or atom in self._base

    def __len__(self) -> int:
        return len(self._base) + len(self._local)

    def __iter__(self) -> Iterator[Atom]:
        yield from self._base
        yield from self._local

    def atoms_of(self, predicate: Predicate) -> Sequence[Atom]:
        if self._local.count(predicate):
            # Merge on the row plane, decode through the canonical-atom
            # cache (each distinct row constructs its atom at most once,
            # process-wide).
            symbols = self.symbols
            decode = symbols.atom
            return [decode(predicate, row) for row in self.rows_of(predicate)]
        return self._base.atoms_of(predicate)

    def count(self, predicate: Predicate) -> int:
        return self._base.count(predicate) + self._local.count(predicate)

    def predicates(self) -> Iterable[Predicate]:
        seen: Dict[Predicate, None] = {}
        for predicate in self._base.predicates():
            seen.setdefault(predicate, None)
        for predicate in self._local.predicates():
            seen.setdefault(predicate, None)
        return seen.keys()
