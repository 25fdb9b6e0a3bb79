"""Multi-key relation indexing and versioned storage.

:class:`RelationIndex` is the storage-facing half of the evaluation engine.
It generalises the predicate-only ``AtomIndex`` the codebase started with in
two directions:

* **multi-key hash indexes** — for every *access pattern* (a predicate plus a
  set of argument positions that are bound at lookup time) the index lazily
  builds, on first use, a hash table from the bound-position values to the
  matching rows, and maintains it incrementally on insertion and removal.  A
  lookup like ``edge(a, X)`` therefore touches only the atoms whose first
  argument is ``a`` instead of every ``edge`` atom;
* **versioning** — :meth:`RelationIndex.snapshot` produces an immutable
  :class:`RelationSnapshot` view that shares the already-built pattern hash
  tables *copy-on-write* (a later head mutation copies only the mutated
  relation's tables, leaving the snapshot's intact), and
  :meth:`RelationSnapshot.fork` produces a throwaway, add-only
  :class:`OverlayRelationIndex` leaf whose additions go to an overlay while
  reads fall through to the shared base tables.  A fork costs O(1) to create
  no matter how large the base is, which is what makes per-query and
  per-chase evaluation branches affordable (cf. ``QuerySession``,
  ``repro.chase``).

:meth:`RelationIndex.add_row` (and :meth:`RelationIndex.add`) report
whether a row was new; the semi-naive drivers
(:func:`~repro.engine.seminaive.fixpoint`, the chase) build each round's
delta from exactly those rows.

**Interned row plane.**  Internally everything above runs on interned integer
tuples (see :mod:`repro.engine.intern`): an accepted :class:`Atom` is encoded
into a :data:`~repro.engine.intern.Row` exactly once, in :meth:`RelationIndex.add`;
the pattern hash tables (buckets keyed by int tuples, holding rows) and the
backend trade in rows from then on, and atoms are decoded back only at the
API edge (``candidates_for``, iteration) through the symbol table's
canonical-atom cache.  The join executor bypasses the atom edge entirely
via the row-plane surface (:meth:`RelationIndex.rows_of`,
:meth:`RelationIndex.rows_for`, :meth:`RelationIndex.contains_row`,
:meth:`RelationIndex.add_row`); a fork answers ``rows_for``, ``add_row``
and ``contains_row`` itself, reading the base snapshot's relations and
buckets directly.

The tuple store is a :class:`~repro.engine.backend.MemoryBackend` (a fork's
atom plane reads through an :class:`~repro.engine.backend.OverlayBackend`);
hash indexes are access-path metadata kept beside it.

This module also hosts the term/atom matching primitives (``match_terms`` /
``match_atom``); they are re-exported by :mod:`repro.core.homomorphism` for
backward compatibility but live here so every engine layer can use them
without import cycles.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom, Predicate
from ..core.terms import Constant, FunctionTerm, Null, Term, Variable
from .backend import MemoryBackend, OverlayBackend
from .intern import Row, SymbolTable
from .stats import EngineStatistics

__all__ = [
    "RelationIndex",
    "RelationSnapshot",
    "OverlayRelationIndex",
    "VersionedRelationIndex",
    "match_terms",
    "match_atom",
    "is_flexible",
    "resolve_term",
]

#: A (partial) homomorphism: maps variables and nulls to ground terms.
Assignment = Dict[Term, Term]

def is_flexible(term: Term) -> bool:
    """Source terms that may be (re)mapped: variables and labelled nulls."""
    return isinstance(term, (Variable, Null))


def match_terms(
    pattern: Term, target: Term, assignment: Assignment
) -> Optional[Assignment]:
    """Try to extend *assignment* so that *pattern* maps onto *target*.

    Returns the extended assignment, or ``None`` if matching is impossible.
    The input assignment is never mutated.
    """
    if is_flexible(pattern):
        bound = assignment.get(pattern)
        if bound is None:
            extended = dict(assignment)
            extended[pattern] = target
            return extended
        return assignment if bound == target else None
    if isinstance(pattern, Constant):
        return assignment if pattern == target else None
    if isinstance(pattern, FunctionTerm):
        if not isinstance(target, FunctionTerm) or pattern.function != target.function:
            return None
        if len(pattern.arguments) != len(target.arguments):
            return None
        current: Optional[Assignment] = assignment
        for sub_pattern, sub_target in zip(pattern.arguments, target.arguments):
            current = match_terms(sub_pattern, sub_target, current)
            if current is None:
                return None
        return current
    raise TypeError(f"unexpected pattern term {pattern!r}")  # pragma: no cover


def match_atom(
    pattern: Atom, target: Atom, assignment: Assignment
) -> Optional[Assignment]:
    """Try to extend *assignment* so that *pattern* maps onto *target*."""
    if pattern.predicate != target.predicate:
        return None
    current: Optional[Assignment] = assignment
    for pattern_term, target_term in zip(pattern.terms, target.terms):
        current = match_terms(pattern_term, target_term, current)
        if current is None:
            return None
    return current


def resolve_term(term: Term, assignment: Mapping[Term, Term]) -> Optional[Term]:
    """The ground value of *term* under *assignment*, or ``None`` if unbound.

    Used to decide which argument positions of a pattern are *bound* (and can
    therefore drive an indexed lookup): constants resolve to themselves,
    flexible terms resolve through the assignment, and function terms resolve
    recursively iff all their arguments do.
    """
    if isinstance(term, Constant):
        return term
    if is_flexible(term):
        return assignment.get(term)
    if isinstance(term, FunctionTerm):
        arguments = []
        for argument in term.arguments:
            value = resolve_term(argument, assignment)
            if value is None:
                return None
            arguments.append(value)
        return FunctionTerm(term.function, tuple(arguments))
    return None  # pragma: no cover - exhaustive over term kinds


#: One pattern table's buckets: interned key ids -> the rows carrying them.
_Buckets = Dict[Row, List[Row]]


class _PatternTable:
    """One access pattern's hash table, with a copy-on-write share marker.

    Buckets map the interned ids at the bound positions to the stored rows
    carrying them — flat int structures end-to-end, so copying a table is
    copying dicts of small tuples, never term objects.
    """

    __slots__ = ("buckets", "shared")

    def __init__(self, buckets: Optional[_Buckets] = None) -> None:
        self.buckets: _Buckets = buckets if buckets is not None else {}
        self.shared = False

    def copy(self) -> "_PatternTable":
        return _PatternTable(
            {key: list(bucket) for key, bucket in self.buckets.items()}
        )


def _candidates_for(
    store: "RelationIndex | RelationSnapshot",
    pattern: Atom,
    assignment: Optional[Mapping[Term, Term]],
) -> Sequence[Atom]:
    """``candidates_for`` of an index or snapshot: the bound positions of
    *pattern* under *assignment* select a ``rows_for`` bucket; none bound
    scans the predicate; a bound value never interned matches nothing."""
    symbols = store.symbols
    positions: List[int] = []
    key: List[int] = []
    for position, term in enumerate(pattern.terms):
        value = resolve_term(term, assignment or {})
        if value is not None:
            value_id = symbols.try_encode_term(value)
            if value_id is None:
                return ()
            positions.append(position)
            key.append(value_id)
    predicate = pattern.predicate
    if not positions:
        return store.candidates(predicate)
    rows = store.rows_for(predicate, tuple(positions), tuple(key))
    decode = symbols.atom
    return [decode(predicate, row) for row in rows]


def _build_table(
    backend: MemoryBackend, predicate: Predicate, positions: Tuple[int, ...]
) -> _PatternTable:
    table = _PatternTable()
    buckets = table.buckets
    for row in backend.rows_of(predicate):
        key = tuple(row[i] for i in positions)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return table


class RelationIndex:
    """An indexed, versionable set of ground atoms.

    This is the **mutable head** of a storage branch; :meth:`snapshot` splits
    off an immutable :class:`RelationSnapshot` view and :meth:`fork` a
    writable :class:`OverlayRelationIndex` branch.  ``VersionedRelationIndex``
    is an alias for this class, used where the versioning surface is the
    point.

    Parameters
    ----------
    atoms:
        Initial contents.
    statistics:
        Optional shared counters; the index reports lazily built hash indexes,
        derived/removed/encoded tuples, snapshots, forks, and pattern-table
        sharing.
    """

    __slots__ = (
        "_backend",
        "_patterns",
        "_pattern_positions",
        "_stats",
        "_version",
    )

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        *,
        statistics: Optional[EngineStatistics] = None,
    ):
        self._init_state(MemoryBackend(), statistics)
        for atom in atoms:
            self.add(atom)

    def _init_state(
        self,
        backend: MemoryBackend | OverlayBackend,
        statistics: Optional[EngineStatistics],
    ) -> None:
        self._backend: MemoryBackend | OverlayBackend = backend
        #: (predicate, bound positions) -> pattern hash table
        self._patterns: Dict[Tuple[Predicate, Tuple[int, ...]], _PatternTable] = {}
        #: predicate -> the bound-position tuples indexed for it
        self._pattern_positions: Dict[Predicate, List[Tuple[int, ...]]] = {}
        self._stats = statistics
        #: bumped on every successful mutation; snapshots pin a version
        self._version: int = 0

    @property
    def symbols(self) -> SymbolTable:
        """The interning table this index's rows are encoded against."""
        return self._backend.symbols

    # -------------------------------------------------------------- mutation
    def add(self, atom: Atom) -> bool:
        """Insert *atom*; return ``True`` iff it was new.

        This is the encode boundary: the atom's terms are interned here,
        once, and everything downstream of it — storage, pattern tables,
        joins — handles only the resulting integer row.
        """
        row = self._backend.symbols.encode_atom(atom)
        if self._stats is not None:
            self._stats.tuples_encoded += 1
        return self.add_row(atom.predicate, row)

    def add_row(self, predicate: Predicate, row: Row) -> bool:
        """Insert an already-encoded row; return ``True`` iff it was new."""
        if not self._backend.insert_row(predicate, row):
            return False
        self._version += 1
        if self._stats is not None:
            self._stats.tuples_derived += 1
        self._note_added(predicate, row)
        return True

    def _note_added(self, predicate: Predicate, row: Row) -> None:
        position_lists = self._pattern_positions.get(predicate)
        if not position_lists:
            return
        for positions in position_lists:
            table = self._writable_table(predicate, positions)
            key = tuple(row[i] for i in positions)
            bucket = table.buckets.get(key)
            if bucket is None:
                table.buckets[key] = [row]
            else:
                bucket.append(row)

    def remove(self, atom: Atom) -> bool:
        """Delete *atom*; return ``True`` iff it was present.

        Pattern hash tables are maintained incrementally (with copy-on-write
        if shared with a snapshot).  Forks are add-only and raise
        ``TypeError``.
        """
        row = self._backend.symbols.try_encode_atom(atom)
        if row is None:
            return False
        return self.remove_row(atom.predicate, row)

    def remove_row(self, predicate: Predicate, row: Row) -> bool:
        """Delete an already-encoded row; return ``True`` iff it was present."""
        if not self._backend.remove_row(predicate, row):
            return False
        self._version += 1
        if self._stats is not None:
            self._stats.tuples_removed += 1
        self._note_removed(predicate, row)
        return True

    def _note_removed(self, predicate: Predicate, row: Row) -> None:
        for positions in self._pattern_positions.get(predicate, ()):
            table = self._writable_table(predicate, positions)
            key = tuple(row[i] for i in positions)
            bucket = table.buckets.get(key)
            if bucket is not None and row in bucket:
                bucket.remove(row)
                if not bucket:
                    del table.buckets[key]

    def update(self, atoms: Iterable[Atom]) -> None:
        for atom in atoms:
            self.add(atom)

    def _writable_table(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> _PatternTable:
        """The pattern table, copied first if a snapshot still shares it."""
        table = self._patterns[(predicate, positions)]
        if table.shared:
            table = table.copy()
            self._patterns[(predicate, positions)] = table
            if self._stats is not None:
                self._stats.pattern_tables_copied += 1
        return table

    # ------------------------------------------------------------ versioning
    @property
    def version(self) -> int:
        """Bumped on every successful mutation (snapshots pin a version)."""
        return self._version

    def snapshot(self) -> "RelationSnapshot":
        """An immutable view of the current contents.

        The snapshot shares this head's already-built pattern hash tables
        copy-on-write: a later mutation of relation ``p`` copies only ``p``'s
        tables (the snapshot keeps the originals), so taking a snapshot is
        O(#tables) and never rescans the stored atoms.
        """
        for table in self._patterns.values():
            table.shared = True
        if self._stats is not None:
            self._stats.snapshots_taken += 1
            self._stats.pattern_tables_shared += len(self._patterns)
        return RelationSnapshot(
            self, self._backend.snapshot(), dict(self._patterns), self._version
        )

    def fork(
        self, *, statistics: Optional[EngineStatistics] = None
    ) -> "OverlayRelationIndex":
        """A throwaway writable branch over the current contents.

        Equivalent to ``self.snapshot().fork(...)``; see
        :class:`OverlayRelationIndex` for the overlay semantics.
        """
        return self.snapshot().fork(
            statistics=statistics if statistics is not None else self._stats
        )

    # ------------------------------------------------------------- set views
    def __contains__(self, atom: Atom) -> bool:
        return atom in self._backend

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._backend)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(self._backend)

    def predicates(self) -> Iterable[Predicate]:
        return self._backend.predicates()

    # ----------------------------------------------------------- access paths
    def candidates(self, predicate: Predicate) -> Sequence[Atom]:
        """All indexed atoms over *predicate* (the coarsest access path)."""
        return self._backend.atoms_of(predicate)

    def count(self, predicate: Predicate) -> int:
        """Cardinality of the relation (the planner's size estimate)."""
        return self._backend.count(predicate)

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        """All stored rows over *predicate* (row-plane scan)."""
        return self._backend.rows_of(predicate)

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        """Row-plane membership (used by negation checks in the executor)."""
        return self._backend.contains_row(predicate, row)

    def candidates_for(
        self, pattern: Atom, assignment: Optional[Mapping[Term, Term]] = None
    ) -> Sequence[Atom]:
        """Atoms that can possibly match *pattern* under *assignment*.

        The bound argument positions of the pattern (constants, assigned
        variables/nulls, fully resolvable function terms) select a hash index,
        built lazily on first use for that access pattern; with no bound
        position this degrades to the per-predicate scan.  The returned atoms
        are a superset filter — callers still run :func:`match_atom` — but for
        hash-indexed positions the filtering is exact.

        A bound value the symbol table has never interned short-circuits to
        the empty result: nothing stored can match a term no stored atom has
        ever contained.
        """
        return _candidates_for(self, pattern, assignment)

    def rows_for(
        self, predicate: Predicate, positions: Tuple[int, ...], key: Row
    ) -> Sequence[Row]:
        """The stored rows whose *positions* carry the ids in *key*.

        The executor-facing lookup: no atoms, no decode — the bucket of the
        (lazily built, incrementally maintained) pattern hash table.
        """
        table = self._patterns.get((predicate, positions))
        if table is None:
            table = self._ensure_pattern(predicate, positions)
        return table.buckets.get(key, ())

    def _ensure_pattern(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> _PatternTable:
        table = self._patterns.get((predicate, positions))
        if table is None:
            table = _build_table(self._backend, predicate, positions)
            self._patterns[(predicate, positions)] = table
            self._pattern_positions.setdefault(predicate, []).append(positions)
            if self._stats is not None:
                self._stats.index_builds += 1
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self)} atoms, "
            f"{len(self._patterns)} access patterns)"
        )


class RelationSnapshot:
    """An immutable view of a :class:`RelationIndex` at one version.

    The snapshot pins the backend contents (copy-on-write) and shares the
    head's pattern hash tables; tables the head has not built yet are built
    on demand — on the *head* while the head is still at the snapshot's
    version (so the work is reused by future snapshots and maintained
    incrementally by head mutations), and privately from the pinned backend
    view once the head has moved on.

    Snapshots answer the full read surface of an index (membership, scans,
    ``candidates_for``, counts) and spawn add-only branches via :meth:`fork`.

    **Concurrency.**  A snapshot is safe to read from any number of threads:
    its contents are pinned, the pattern tables it was created with are
    immutable (head mutations copy before writing), and the only lazy state —
    cold pattern tables built on first use — is published under a per-snapshot
    lock with a double-checked fast path, so concurrent readers of a cold
    access pattern serialise once on the build and then proceed lock-free.
    Before *sharing* a snapshot across threads, call :meth:`detach`: the cold
    builds otherwise take a fast path through the still-current head index,
    which is single-writer state (see :meth:`detach`).  Forks spawned from a
    shared snapshot are thread-local to their creator; only the snapshot
    itself is meant to be shared.
    """

    __slots__ = (
        "_source",
        "_backend",
        "_patterns",
        "_version",
        "_stats",
        "_lock",
        "_obs_build_hook",
    )

    def __init__(
        self,
        source: RelationIndex,
        backend: MemoryBackend,
        patterns: Dict[Tuple[Predicate, Tuple[int, ...]], _PatternTable],
        version: int,
    ) -> None:
        self._source: Optional[RelationIndex] = source
        self._backend = backend
        self._patterns = patterns
        self._version = version
        self._stats = source._stats
        #: serialises cold pattern-table builds; reads of built tables are
        #: lock-free (dict get, atomic under the GIL).
        self._lock = threading.Lock()
        #: optional zero-arg callable invoked once per cold pattern-table
        #: build on this snapshot.  Snapshots that outlive their head's
        #: statistics object (detached snapshots published to reader threads,
        #: whose ``_stats`` is cleared) would otherwise do index-build work
        #: that no counter ever sees; the serving layer points this at a
        #: thread-safe registry counter.  Must itself be thread-safe: it runs
        #: under this snapshot's lock, but different snapshots' locks are
        #: unrelated.
        self._obs_build_hook: Optional[Callable[[], None]] = None

    @property
    def version(self) -> int:
        return self._version

    @property
    def symbols(self) -> SymbolTable:
        return self._backend.symbols

    def detach(self) -> "RelationSnapshot":
        """Cut the link to the source head; returns ``self``.

        While the head index is still at the snapshot's version, cold pattern
        tables are built *on the head* so the work persists across revisions
        — an optimisation that reads **and mutates** the head, which is
        single-writer state.  A snapshot that will be read by other threads
        while its head may concurrently mutate (the serving layer's epoch
        publication) must be detached first: after ``detach`` every cold
        table is built privately from the snapshot's pinned backend, under
        the snapshot's own lock.  Tables already shared at snapshot time stay
        shared (they are copy-on-write protected).  Idempotent.
        """
        self._source = None
        return self

    def fork(
        self, *, statistics: Optional[EngineStatistics] = None
    ) -> "OverlayRelationIndex":
        """A writable overlay branch over this snapshot (O(1) to create)."""
        stats = statistics if statistics is not None else self._stats
        if stats is not None:
            stats.forks_created += 1
        return OverlayRelationIndex(self, statistics=stats)

    # ------------------------------------------------------------- set views
    def __contains__(self, atom: Atom) -> bool:
        return atom in self._backend

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._backend)

    def atoms(self) -> frozenset[Atom]:
        return frozenset(self._backend)

    def predicates(self) -> Iterable[Predicate]:
        return self._backend.predicates()

    # ----------------------------------------------------------- access paths
    def candidates(self, predicate: Predicate) -> Sequence[Atom]:
        return self._backend.atoms_of(predicate)

    def count(self, predicate: Predicate) -> int:
        return self._backend.count(predicate)

    def rows_of(self, predicate: Predicate) -> Sequence[Row]:
        return self._backend.rows_of(predicate)

    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        return self._backend.contains_row(predicate, row)

    def candidates_for(
        self, pattern: Atom, assignment: Optional[Mapping[Term, Term]] = None
    ) -> Sequence[Atom]:
        return _candidates_for(self, pattern, assignment)

    def rows_for(
        self, predicate: Predicate, positions: Tuple[int, ...], key: Row
    ) -> Sequence[Row]:
        return self._ensure_pattern(predicate, positions).buckets.get(key, ())

    def _ensure_pattern(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> _PatternTable:
        table = self._patterns.get((predicate, positions))
        if table is not None:
            return table
        with self._lock:
            table = self._patterns.get((predicate, positions))
            if table is not None:
                return table
            source = self._source
            if source is not None and source._version == self._version:
                # The head is still at our version: build (or fetch) the
                # table there so it persists across revisions, and share it.
                # (Single-writer path — a detach()ed snapshot never takes it.)
                table = source._ensure_pattern(predicate, positions)
                table.shared = True
                if self._stats is not None:
                    self._stats.pattern_tables_shared += 1
            else:
                table = _build_table(self._backend, predicate, positions)
                if self._stats is not None:
                    self._stats.index_builds += 1
                if self._obs_build_hook is not None:
                    self._obs_build_hook()
            self._patterns[(predicate, positions)] = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RelationSnapshot({len(self)} atoms @ v{self._version}, "
            f"{len(self._patterns)} access patterns)"
        )


class OverlayRelationIndex(RelationIndex):
    """An add-only leaf branch: overlay additions over a shared base.

    The branch's own additions go to a private local store; the base
    snapshot is never written, and it cannot change while the fork lives
    (its relations and pattern tables are copy-on-write), so the fork reads
    it directly.  The row plane — :meth:`add_row`, :meth:`contains_row` and
    :meth:`rows_for` — answers each call itself from the base snapshot's
    relations and the local ones; the atom plane reads through an
    :class:`~repro.engine.backend.OverlayBackend`.

    Each access pattern is opened once per fork: the fork keeps the base
    snapshot's buckets for it (its shared table, built on first use; none
    when the base holds no row of the predicate, so a generated relation
    never gets a pattern table on the shared head) beside a local table
    over the fork's own rows, which :meth:`add_row` maintains.  Base and
    local tables are never copied, and building a local one is never
    O(|base|).

    A fork only grows: :meth:`remove` and :meth:`remove_row` raise
    ``TypeError``, and so do :meth:`snapshot` and :meth:`fork`, because a
    fork is a leaf.  Remove from, snapshot and fork the head index
    instead.
    """

    __slots__ = (
        "_base",
        "_base_rows",
        "_local",
        "_local_rows",
        "_tables",
        "_local_patterns",
    )

    def __init__(
        self,
        base: RelationSnapshot,
        *,
        statistics: Optional[EngineStatistics] = None,
    ) -> None:
        self._base = base
        backend = OverlayBackend(base._backend)
        self._init_state(backend, statistics)
        self._base_rows = base._backend.relations
        self._local = backend.local
        self._local_rows = backend.local.relations
        #: (predicate, bound positions) -> (base buckets, local buckets)
        self._tables: Dict[
            Tuple[Predicate, Tuple[int, ...]], Tuple[_Buckets, _Buckets]
        ] = {}
        #: predicate -> (bound positions, local buckets) of each open pattern
        self._local_patterns: Dict[
            Predicate, List[Tuple[Tuple[int, ...], _Buckets]]
        ] = {}

    @property
    def base(self) -> RelationSnapshot:
        return self._base

    # -------------------------------------------------------------- mutation
    def add_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._base_rows.get(predicate)
        if relation is not None and row in relation.rows:
            return False
        if not self._local.insert_row(predicate, row):
            return False
        self._version += 1
        if self._stats is not None:
            self._stats.tuples_derived += 1
        patterns = self._local_patterns.get(predicate)
        if patterns is not None:
            for positions, buckets in patterns:
                if len(positions) == 1:
                    key = (row[positions[0]],)
                else:
                    key = tuple([row[i] for i in positions])
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [row]
                else:
                    bucket.append(row)
        return True

    def remove(self, atom: Atom) -> bool:
        # Raise before encoding: an atom the symbol table never interned
        # would otherwise return False instead of reporting the misuse.
        raise TypeError("forks are add-only: remove from the head index")

    # ----------------------------------------------------------- access paths
    def contains_row(self, predicate: Predicate, row: Row) -> bool:
        relation = self._local_rows.get(predicate)
        if relation is not None and row in relation.rows:
            return True
        relation = self._base_rows.get(predicate)
        return relation is not None and row in relation.rows

    def rows_for(
        self, predicate: Predicate, positions: Tuple[int, ...], key: Row
    ) -> Sequence[Row]:
        tables = self._tables.get((predicate, positions))
        if tables is None:
            tables = self._open_pattern(predicate, positions)
        base_bucket = tables[0].get(key)
        local_bucket = tables[1].get(key)
        if local_bucket is None:
            return base_bucket or ()
        if base_bucket is None:
            return local_bucket
        return base_bucket + local_bucket

    def _open_pattern(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> Tuple[_Buckets, _Buckets]:
        """Open an access pattern on this fork, once: the base snapshot's
        buckets (none unless the base holds a row of the predicate) and a
        local table over the fork's own rows."""
        relation = self._base_rows.get(predicate)
        if relation is not None and relation.rows:
            base_buckets = self._base._ensure_pattern(predicate, positions).buckets
        else:
            base_buckets = {}
        local_buckets = _build_table(self._local, predicate, positions).buckets
        tables = (base_buckets, local_buckets)
        self._tables[(predicate, positions)] = tables
        self._local_patterns.setdefault(predicate, []).append(
            (positions, local_buckets)
        )
        if self._stats is not None:
            self._stats.overlay_index_builds += 1
        return tables

    def snapshot(self) -> RelationSnapshot:
        """Forks are leaves: snapshot (or fork) the head index instead."""
        raise TypeError("forks are leaves: snapshot or fork the head index")


#: The canonical name for the versioned storage surface: a
#: :class:`RelationIndex` head with ``snapshot()``/``fork()`` branching.
VersionedRelationIndex = RelationIndex
