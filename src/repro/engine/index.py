"""Multi-key relation indexing with delta tracking and versioned storage.

:class:`RelationIndex` is the storage-facing half of the evaluation engine.
It generalises the predicate-only ``AtomIndex`` the codebase started with in
three directions:

* **multi-key hash indexes** — for every *access pattern* (a predicate plus a
  set of argument positions that are bound at lookup time) the index lazily
  builds, on first use, a hash table from the bound-position values to the
  matching rows, and maintains it incrementally on insertion and removal.  A
  lookup like ``edge(a, X)`` therefore touches only the atoms whose first
  argument is ``a`` instead of every ``edge`` atom;
* **delta tracking** — insertions are recorded in an append-only log, and
  ``added_since(tick)`` returns exactly the atoms added after a given
  :meth:`tick`.  This is what lets the semi-naive fixpoint driver and the
  chase find *new* triggers without rescanning old ones.  Ticks are tagged
  with the **branch** that issued them (see :class:`Tick`): every index —
  head or fork — has its own delta log, and feeding a tick from one branch
  into another raises instead of silently returning the wrong delta;
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

**Interned row plane.**  Internally everything above runs on interned integer
tuples (see :mod:`repro.engine.intern`): an accepted :class:`Atom` is encoded
into a :data:`~repro.engine.intern.Row` exactly once, in :meth:`RelationIndex.add`;
the delta log, the pattern hash tables (buckets keyed by int tuples, holding
rows) and the backend all trade in rows from then on, and atoms are decoded
back only at the API edge (``added_since``, ``candidates_for``, iteration)
through the symbol table's canonical-atom cache.  The join executor bypasses
the atom edge entirely via the row-plane surface (:meth:`RelationIndex.rows_of`,
:meth:`RelationIndex.rows_for`, :meth:`RelationIndex.contains_row`,
:meth:`RelationIndex.rows_added_since`, :meth:`RelationIndex.add_row`).

The tuple store is a :class:`~repro.engine.backend.MemoryBackend` (an
:class:`~repro.engine.backend.OverlayBackend` on forks); hash indexes and
the delta log are access-path metadata kept beside it.

This module also hosts the term/atom matching primitives (``match_terms`` /
``match_atom``); they are re-exported by :mod:`repro.core.homomorphism` for
backward compatibility but live here so every engine layer can use them
without import cycles.
"""

from __future__ import annotations

import threading
from itertools import count as _count
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
from .backend import MemoryBackend, OverlayBackend, StorageBackend
from .intern import Row, SymbolTable
from .stats import EngineStatistics

__all__ = [
    "RelationIndex",
    "RelationSnapshot",
    "OverlayRelationIndex",
    "VersionedRelationIndex",
    "Tick",
    "match_terms",
    "match_atom",
    "is_flexible",
    "resolve_term",
]

#: A (partial) homomorphism: maps variables and nulls to ground terms.
Assignment = Dict[Term, Term]

#: One blanked-or-live delta-log entry: ``(predicate, row)`` or ``None``.
_LogEntry = Optional[Tuple[Predicate, Row]]


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


#: Global branch-id source; every index (head or fork) draws a fresh id.
_branch_ids = _count()


class Tick(int):
    """A delta-log high-water mark, tagged with the branch that issued it.

    Behaves as a plain ``int`` (ordering, arithmetic — though arithmetic
    results degrade to untagged ints).  ``added_since``/``compact`` reject a
    tagged tick minted by a *different* branch with ``ValueError``: delta
    logs are per-branch, and a tick from the parent means nothing in a fork
    (the fork's log starts empty at the fork point — base atoms are *not*
    replayed, so a parent tick silently interpreted against the fork's log
    would claim "nothing new" for atoms the consumer never saw).  A caller
    that crosses a snapshot/fork boundary must mint a fresh ``tick()`` on
    the branch it will read from.  Untagged plain ints (e.g. the literal
    ``0``) are accepted for backward compatibility and interpreted against
    the receiving branch's log.

    Two further invariants keep outstanding ticks valid under mutation:
    removals *blank* log entries in place rather than splicing (positions
    never shift), and ``compact`` only drops the prefix strictly before an
    explicitly supplied tick of the same branch.
    """

    # (no __slots__: CPython forbids nonempty slots on int subclasses)

    def __new__(cls, value: int, branch: int) -> "Tick":
        tick = super().__new__(cls, value)
        tick.branch = branch
        return tick


class _PatternTable:
    """One access pattern's hash table, with a copy-on-write share marker.

    Buckets map the interned ids at the bound positions to the stored rows
    carrying them — flat int structures end-to-end, so copying a table is
    copying dicts of small tuples, never term objects.
    """

    __slots__ = ("buckets", "shared")

    def __init__(
        self, buckets: Optional[Dict[Row, List[Row]]] = None
    ) -> None:
        self.buckets: Dict[Row, List[Row]] = (
            buckets if buckets is not None else {}
        )
        self.shared = False

    def copy(self) -> "_PatternTable":
        return _PatternTable(
            {key: list(bucket) for key, bucket in self.buckets.items()}
        )


def _encoded_key(
    pattern: Atom, assignment: Mapping[Term, Term], symbols: SymbolTable
) -> Tuple[Optional[Tuple[int, ...]], Optional[Row]]:
    """The (bound positions, interned key ids) of *pattern* under *assignment*.

    ``((), ())`` means no position is bound (scan); ``(None, None)`` means a
    bound value was never interned — nothing stored can match, no table need
    be built.
    """
    positions: List[int] = []
    key: List[int] = []
    for position, term in enumerate(pattern.terms):
        value = resolve_term(term, assignment)
        if value is not None:
            value_id = symbols.try_encode_term(value)
            if value_id is None:
                return None, None
            positions.append(position)
            key.append(value_id)
    return tuple(positions), tuple(key)


def _build_table(
    backend: StorageBackend, predicate: Predicate, positions: Tuple[int, ...]
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
    """An indexed, delta-tracked, versionable set of ground atoms.

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
        "_log",
        "_log_offset",
        "_log_removals",
        "_patterns",
        "_pattern_positions",
        "_stats",
        "_branch",
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
        self, backend: StorageBackend, statistics: Optional[EngineStatistics]
    ) -> None:
        self._backend: StorageBackend = backend
        #: append-only delta log of (predicate, row) entries; removals blank
        #: entries to ``None`` in place so outstanding ticks (positions)
        #: stay valid.
        self._log: List[_LogEntry] = []
        self._log_offset: int = 0
        self._log_removals: int = 0
        #: (predicate, bound positions) -> pattern hash table
        self._patterns: Dict[Tuple[Predicate, Tuple[int, ...]], _PatternTable] = {}
        #: predicate -> the bound-position tuples indexed for it
        self._pattern_positions: Dict[Predicate, List[Tuple[int, ...]]] = {}
        self._stats = statistics
        self._branch: int = next(_branch_ids)
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
        once, and everything downstream of it — storage, delta log, pattern
        tables, joins — handles only the resulting integer row.
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
        self._log.append((predicate, row))
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
        if shared with a snapshot), and the atom is withdrawn from the
        retained delta log so it is never replayed by ``added_since``.

        The log withdrawal scans the retained window (O(retained log));
        callers doing bulk removals should ``compact(tick())`` first if
        nothing still needs the pending delta (``QuerySession`` does).
        Forks are add-only and raise ``TypeError``.
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
        try:
            position = self._log.index((predicate, row))
        except ValueError:
            pass  # already compacted away (or never logged on this branch)
        else:
            # Blank in place — splicing would shift every outstanding tick.
            self._log[position] = None
            self._log_removals += 1
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

    def retract(self, atom: Atom, *, support=None) -> Tuple[Atom, ...]:
        """Delete *atom* and cascade through a derivation-support table.

        With ``support=None`` this is :meth:`remove` returning the removed
        atoms (``(atom,)`` or ``()``).  With a
        :class:`~repro.engine.maintenance.SupportTable` — populated by running
        the fixpoint driver with ``on_fire=table.record`` — the cascade
        removes every atom whose derivation count drops to zero, transitively
        (**counting** maintenance).  Each removal goes through :meth:`remove`,
        so pattern hash tables are maintained incrementally and the retained
        delta-log entries of removed atoms are *blanked in place*: outstanding
        :class:`Tick` positions stay valid and ``added_since`` never replays a
        retracted atom.

        Counting is exact only for non-recursive, negation-free support
        (cyclic derivations keep each other's counts positive after their
        external support is gone); recursive strata and stratified negation
        need the Delete-and-Rederive repair of
        :class:`~repro.engine.maintenance.MaterializedView`, which layers it
        over the same table.
        """
        if support is None:
            return (atom,) if self.remove(atom) else ()
        return support.cascade_retract(self, atom)

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

    @property
    def branch(self) -> int:
        """The branch id stamped onto this index's ticks."""
        return self._branch

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

    # -------------------------------------------------------- delta tracking
    def tick(self) -> Tick:
        """An opaque high-water mark for :meth:`added_since`.

        The returned tick is branch-tagged: it is only meaningful on the
        index that issued it.  Forks start a fresh branch with an empty log,
        so parent ticks do not transfer (and raise if used).
        """
        return Tick(self._log_offset + len(self._log), self._branch)

    def _check_branch(self, tick: int, operation: str) -> None:
        branch = getattr(tick, "branch", None)
        if branch is not None and branch != self._branch:
            raise ValueError(
                f"{operation} called with a tick from branch {branch} on "
                f"branch {self._branch}: delta ticks are per-branch and do "
                "not transfer across snapshot/fork boundaries"
            )

    def _entries_since(self, tick: int) -> Sequence[Tuple[Predicate, Row]]:
        self._check_branch(tick, "added_since")
        if tick < self._log_offset:
            raise ValueError(
                f"delta log compacted past tick {tick} (oldest retained: "
                f"{self._log_offset})"
            )
        segment = self._log[tick - self._log_offset:]
        if self._log_removals:
            return [entry for entry in segment if entry is not None]
        return segment  # type: ignore[return-value]

    def added_since(self, tick: int) -> Sequence[Atom]:
        """The atoms added after *tick*, in insertion order.

        *tick* must come from this branch (see :meth:`tick`) and must not
        predate a :meth:`compact` call — compacted history is gone and
        requesting it raises ``ValueError``.
        """
        decode = self._backend.symbols.atom
        return [
            decode(predicate, row)
            for predicate, row in self._entries_since(tick)
        ]

    def rows_added_since(self, tick: int) -> Sequence[Tuple[Predicate, Row]]:
        """The ``(predicate, row)`` entries added after *tick* (row plane)."""
        return self._entries_since(tick)

    def compact(self, tick: int) -> None:
        """Forget the delta log before *tick* (a tick of this branch).

        Fixpoint drivers call this once a round's delta has been fully
        consumed, so the log never holds more than one round of entries.
        """
        self._check_branch(tick, "compact")
        if tick <= self._log_offset:
            return
        drop = min(tick, self._log_offset + len(self._log)) - self._log_offset
        if self._log_removals:
            self._log_removals -= sum(
                1 for entry in self._log[:drop] if entry is None
            )
        del self._log[:drop]
        self._log_offset += drop

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
        symbols = self._backend.symbols
        positions, key = _encoded_key(pattern, assignment or {}, symbols)
        if positions is None:
            return ()
        if not positions:
            return self._backend.atoms_of(pattern.predicate)
        rows = self._lookup(pattern.predicate, positions, key)
        if not rows:
            return ()
        decode = symbols.atom
        predicate = pattern.predicate
        return [decode(predicate, row) for row in rows]

    def rows_for(
        self, predicate: Predicate, positions: Tuple[int, ...], key: Row
    ) -> Sequence[Row]:
        """The stored rows whose *positions* carry the ids in *key*.

        The executor-facing lookup: no atoms, no decode — the bucket of the
        (lazily built, incrementally maintained) pattern hash table.
        """
        return self._lookup(predicate, positions, key)

    def _lookup(
        self,
        predicate: Predicate,
        positions: Tuple[int, ...],
        key: Row,
    ) -> Sequence[Row]:
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
    shared snapshot are thread-local to their creator, as is the delta log of
    every head; only the snapshot itself is meant to be shared.
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
        symbols = self._backend.symbols
        positions, key = _encoded_key(pattern, assignment or {}, symbols)
        if positions is None:
            return ()
        if not positions:
            return self.candidates(pattern.predicate)
        rows = self._lookup(pattern.predicate, positions, key)
        if not rows:
            return ()
        decode = symbols.atom
        predicate = pattern.predicate
        return [decode(predicate, row) for row in rows]

    def rows_for(
        self, predicate: Predicate, positions: Tuple[int, ...], key: Row
    ) -> Sequence[Row]:
        return self._lookup(predicate, positions, key)

    def _lookup(
        self,
        predicate: Predicate,
        positions: Tuple[int, ...],
        key: Row,
    ) -> Sequence[Row]:
        table = self._ensure_pattern(predicate, positions)
        return table.buckets.get(key, ())

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

    Reads layer two sources: the base snapshot's shared pattern tables
    (never copied, never rebuilt) and a private overlay index over the
    branch's own additions (proportional to the branch's writes).  Writes
    touch only the overlay, so any number of branches can run against one
    base concurrently; the base snapshot stays immutable while the fork is
    alive (copy-on-write).

    A fork only grows: :meth:`remove`, :meth:`remove_row` and
    :meth:`retract` raise ``TypeError``, and so do :meth:`snapshot` and
    :meth:`fork`, because a fork is a leaf.  Remove from, snapshot and fork
    the head index instead.

    The branch has its own delta log starting empty at the fork point (the
    base atoms are *not* replayed — semi-naive drivers scan the full index on
    their first round anyway), and its own branch id: parent ticks raise in
    :meth:`added_since`/:meth:`compact` (see :class:`Tick`).
    """

    __slots__ = ("_base",)

    def __init__(
        self,
        base: RelationSnapshot,
        *,
        statistics: Optional[EngineStatistics] = None,
    ) -> None:
        self._base = base
        self._init_state(OverlayBackend(base._backend), statistics)

    @property
    def base(self) -> RelationSnapshot:
        return self._base

    # -------------------------------------------------------------- mutation
    def remove(self, atom: Atom) -> bool:
        # Raise before encoding: an atom the symbol table never interned
        # would otherwise return False instead of reporting the misuse.
        raise TypeError("forks are add-only: remove from the head index")

    def retract(self, atom: Atom, *, support=None) -> Tuple[Atom, ...]:
        # Raise before a support table's cascade changes the table.
        raise TypeError("forks are add-only: retract from the head index")

    # ----------------------------------------------------------- access paths
    def _lookup(
        self,
        predicate: Predicate,
        positions: Tuple[int, ...],
        key: Row,
    ) -> Sequence[Row]:
        backend: OverlayBackend = self._backend  # type: ignore[assignment]
        # Predicates absent from the base (e.g. generated magic relations)
        # are served purely by the overlay tables; consulting the base would
        # build empty pattern tables on the shared head for them.
        if self._base.count(predicate):
            base_bucket = self._base._lookup(predicate, positions, key)
        else:
            base_bucket = ()
        if backend.local.count(predicate):
            local_bucket = self._ensure_pattern(predicate, positions).buckets.get(
                key, ()
            )
        else:
            local_bucket = ()
        if not local_bucket:
            return base_bucket
        if not base_bucket:
            return local_bucket
        return list(base_bucket) + list(local_bucket)

    def _ensure_pattern(
        self, predicate: Predicate, positions: Tuple[int, ...]
    ) -> _PatternTable:
        """A pattern table over the overlay-*local* rows only.

        Base rows are served by the base snapshot's shared tables; the local
        table is proportional to this branch's own writes, so building it is
        never O(|base|).
        """
        table = self._patterns.get((predicate, positions))
        if table is None:
            backend: OverlayBackend = self._backend  # type: ignore[assignment]
            table = _build_table(backend.local, predicate, positions)
            self._patterns[(predicate, positions)] = table
            self._pattern_positions.setdefault(predicate, []).append(positions)
            if self._stats is not None:
                self._stats.overlay_index_builds += 1
        return table

    def snapshot(self) -> RelationSnapshot:
        """Forks are leaves: snapshot (or fork) the head index instead."""
        raise TypeError("forks are leaves: snapshot or fork the head index")


#: The canonical name for the versioned storage surface: a
#: :class:`RelationIndex` head with ``snapshot()``/``fork()`` branching.
VersionedRelationIndex = RelationIndex
