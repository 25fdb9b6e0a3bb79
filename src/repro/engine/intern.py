"""Interned columnar tuple core: dense integer ids for ground data.

The engine stores and joins **ground atoms**.  Every probe of an object-level
atom pays structured hashing (a tuple of frozen dataclasses, each hashing its
fields), and every join step allocates term-keyed dictionaries.  This module
moves all of that to the integer domain:

* :class:`SymbolTable` interns every distinct ground term — constants,
  labelled nulls, and (ground) function terms — into a **dense integer id**,
  assigned once, process-wide (see :func:`global_symbols`).  Encoding happens
  once at the storage boundary (``RelationIndex.add``); from then on the
  engine compares, hashes and copies plain ``int`` tuples.  Decoding is a
  list index (``_terms[tid]``) returning the *canonical* term object, so
  structural equality degenerates to identity on everything that ever
  round-tripped through the table.
* :class:`TupleRelation` stores one predicate's rows as int tuples with
  ``array('q')``-backed columns: an insertion-ordered row set for O(1)
  membership/insert/remove, per-column flat 64-bit arrays for cache-friendly
  bulk scans (rebuilt lazily after removals, appended in place otherwise),
  and cached decoded-atom scan lists for the object-level API edge.  The
  ``shared`` flag carries the predicate-level copy-on-write protocol of the
  storage layer (see :class:`~repro.engine.backend.MemoryBackend`).

The id space::

      Atom(p, (Constant("a"), Null("n1")))          object edge (API)
            |  encode once, on add                  ^ decode once, cached
            v                                       |
      row = (17, 42)            ----------------    canonical Atom cache
      TupleRelation[p].rows     {(17,42): None, ...}
      columns                   array('q', [17, ...]), array('q', [42, ...])

Variables are interned like any other term (an id is an opaque name for a
distinct term object); matching semantics are unchanged because a pattern
variable binding to a stored variable-term compares ids exactly where the
object engine compared terms structurally.

Thread safety: interning takes a lock with a double-checked fast path (reads
of the id map are lock-free dict probes under the GIL), so concurrent readers
never observe a half-published id and two racing encoders of the same term
always agree on one id.
"""

from __future__ import annotations

import sys
import threading
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, Predicate
from ..core.terms import Constant, FunctionTerm, Null, Term

__all__ = ["Row", "SymbolTable", "TupleRelation", "global_symbols"]

#: One stored tuple: the interned ids of an atom's terms, in argument order.
Row = Tuple[int, ...]


def _canonical(term: Term) -> Term:
    """The canonical object stored for an interned term.

    Constant and null *names* go through ``sys.intern`` so every decoded term
    shares one name string with the parser's output (identity-compare fast
    paths in string hashing and equality hit everywhere names round-trip).
    """
    if type(term) is Constant:
        return Constant(sys.intern(term.name))
    if type(term) is Null:
        return Null(sys.intern(term.label))
    return term


class SymbolTable:
    """A thread-safe bidirectional map: ground term <-> dense integer.

    Ids are assigned densely in first-intern order and never change or get
    recycled, so any id minted by this table stays valid for the lifetime of
    the process — which is what lets rows live in flat ``array('q')`` columns
    and lets snapshots/forks/checkpoints share encoded rows freely.
    """

    __slots__ = ("_lock", "_ids", "_terms", "_atoms", "_functions", "_structures")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: term -> id (structural equality; the stored key is canonical)
        self._ids: Dict[Term, int] = {}
        #: id -> canonical term (decode is one list index)
        self._terms: List[Term] = []
        #: predicate -> row -> canonical Atom (the decode cache of the edge)
        self._atoms: Dict[Predicate, Dict[Row, Atom]] = {}
        #: (function name, argument ids) -> id of the ground function term —
        #: lets Skolem-term heads be built without constructing the term
        #: object except on first occurrence.
        self._functions: Dict[Tuple[str, Row], int] = {}
        #: id -> (function name, argument ids), or None for a non-function
        #: term — the inverse of ``_functions``, filled on demand.
        self._structures: Dict[int, Optional[Tuple[str, Row]]] = {}

    # ---------------------------------------------------------------- terms
    def encode_term(self, term: Term) -> int:
        """The id of *term*, interning it on first sight."""
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(term)
            if tid is None:
                canonical = _canonical(term)
                tid = len(self._terms)
                self._terms.append(canonical)
                self._ids[canonical] = tid
            return tid

    def try_encode_term(self, term: Term) -> Optional[int]:
        """The id of *term* if already interned, else ``None`` (no intern).

        Membership probes and removals use this: an atom containing a term
        the table has never seen cannot be stored anywhere, and probing must
        not grow the table.
        """
        return self._ids.get(term)

    def decode_term(self, tid: int) -> Term:
        """The canonical term object behind *tid* (one list index)."""
        return self._terms[tid]

    def encode_function(self, function: str, argument_ids: Row) -> int:
        """The id of the ground term ``function(arguments)``, by argument ids.

        Memoised: the :class:`FunctionTerm` object is only constructed the
        first time a particular (function, argument ids) combination occurs —
        the fast path for Skolem-term heads in the encoded executor.
        """
        key = (function, argument_ids)
        tid = self._functions.get(key)
        if tid is not None:
            return tid
        terms = self._terms
        term = FunctionTerm(
            function, tuple(terms[arg] for arg in argument_ids)
        )
        tid = self.encode_term(term)
        with self._lock:
            self._functions.setdefault(key, tid)
        return tid

    def structure(self, tid: int) -> Optional[Tuple[str, Row]]:
        """``(function name, argument ids)`` of the function term behind
        *tid*, or ``None`` for a constant, null or variable.

        Memoised; an argument term not yet interned is interned here, once.
        The join executor decomposes stored function terms with this to
        match patterns that hold variables or nulls inside a function term.
        """
        try:
            return self._structures[tid]
        except KeyError:
            pass
        term = self._terms[tid]
        shape: Optional[Tuple[str, Row]] = None
        if isinstance(term, FunctionTerm):
            encode = self.encode_term
            shape = (
                term.function,
                tuple(encode(argument) for argument in term.arguments),
            )
        with self._lock:
            return self._structures.setdefault(tid, shape)

    # ---------------------------------------------------------------- atoms
    def encode_atom(self, atom: Atom) -> Row:
        """The row of *atom* (interning any unseen term)."""
        ids = self._ids
        row: List[int] = []
        for term in atom.terms:
            tid = ids.get(term)
            if tid is None:
                tid = self.encode_term(term)
            row.append(tid)
        return tuple(row)

    def try_encode_atom(self, atom: Atom) -> Optional[Row]:
        """The row of *atom* if every term is interned, else ``None``."""
        ids = self._ids
        row: List[int] = []
        for term in atom.terms:
            tid = ids.get(term)
            if tid is None:
                return None
            row.append(tid)
        return tuple(row)

    def atom(self, predicate: Predicate, row: Row) -> Atom:
        """The canonical :class:`Atom` for *row* (cached per predicate).

        The cache is what bounds API-edge decode overhead: each distinct
        stored row constructs its atom once; every later decode is two dict
        probes returning an object with a precomputed hash.
        """
        cache = self._atoms.get(predicate)
        if cache is None:
            cache = self._atoms.setdefault(predicate, {})
        found = cache.get(row)
        if found is None:
            terms = self._terms
            found = Atom(predicate, tuple(terms[tid] for tid in row))
            cache[row] = found
        return found

    def atom_cache(self, predicate: Predicate) -> Dict[Row, Atom]:
        """The per-predicate decode cache (for tight decode loops)."""
        cache = self._atoms.get(predicate)
        if cache is None:
            cache = self._atoms.setdefault(predicate, {})
        return cache

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolTable({len(self._terms)} terms)"


#: The process-wide table.  Sharing one table across every backend, index,
#: snapshot and fork makes rows from different branches directly comparable
#: (overlay reads, cross-index negation checks, durable checkpoints).
_GLOBAL = SymbolTable()


def global_symbols() -> SymbolTable:
    """The process-wide :class:`SymbolTable` every backend defaults to."""
    return _GLOBAL


class TupleRelation:
    """One predicate's rows: an int-tuple set with columnar scan storage.

    The insertion-ordered ``rows`` dict is the source of truth (O(1)
    membership, insert and remove, preserving insertion order); ``columns``
    exposes the same data as per-argument ``array('q')`` flat arrays for
    cache-friendly bulk consumers (pattern-table builds, checkpoint writers).
    Columns are maintained in place by appends and invalidated by removals —
    a batch of removals pays one O(|relation|) rebuild on the next columnar
    read instead of one splice per removal.

    ``shared`` marks the relation as referenced by more than one backend
    (after a storage snapshot); writers copy first — predicate-level
    copy-on-write, identical to the object engine's protocol, except that
    what is shared and copied here are flat int structures, never object
    graphs.
    """

    __slots__ = ("arity", "rows", "shared", "_columns", "_scan", "_atom_scan")

    def __init__(self, arity: int, rows: Optional[Dict[Row, None]] = None) -> None:
        self.arity = arity
        self.rows: Dict[Row, None] = rows if rows is not None else {}
        self.shared = False
        self._columns: Optional[Tuple[array, ...]] = None
        self._scan: Optional[List[Row]] = None
        self._atom_scan: Optional[List[Atom]] = None

    # ------------------------------------------------------------- mutation
    def append(self, row: Row) -> None:
        """Store *row* (caller guarantees it is new)."""
        self.rows[row] = None
        if self._scan is not None:
            self._scan.append(row)
        if self._columns is not None:
            for position, value in enumerate(row):
                self._columns[position].append(value)
        self._atom_scan = None

    def discard(self, row: Row) -> None:
        """Delete *row* (caller guarantees it is present)."""
        del self.rows[row]
        self._scan = None
        self._columns = None
        self._atom_scan = None

    def copy(self) -> "TupleRelation":
        return TupleRelation(self.arity, dict(self.rows))

    # -------------------------------------------------------------- reading
    def scan(self) -> List[Row]:
        """All rows in insertion order (cached)."""
        if self._scan is None:
            self._scan = list(self.rows)
        return self._scan

    def columns(self) -> Tuple[array, ...]:
        """The relation column-major: one ``array('q')`` per argument."""
        if self._columns is None:
            cols = tuple(array("q") for _ in range(self.arity))
            for row in self.rows:
                for position, value in enumerate(row):
                    cols[position].append(value)
            self._columns = cols
        return self._columns

    def column(self, position: int) -> array:
        """One argument position as a flat ``array('q')``."""
        return self.columns()[position]

    def atoms(self, symbols: SymbolTable, predicate: Predicate) -> List[Atom]:
        """The rows decoded to canonical atoms, in insertion order (cached)."""
        if self._atom_scan is None:
            cache = symbols.atom_cache(predicate)
            terms = symbols._terms
            decoded: List[Atom] = []
            for row in self.rows:
                found = cache.get(row)
                if found is None:
                    found = Atom(predicate, tuple(terms[tid] for tid in row))
                    cache[row] = found
                decoded.append(found)
            self._atom_scan = decoded
        return self._atom_scan

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleRelation(arity={self.arity}, {len(self.rows)} rows)"
