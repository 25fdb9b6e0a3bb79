"""repro.engine — the shared semi-naive evaluation subsystem.

This package is the single evaluation substrate for the whole reproduction:
the chase, the relevant grounding, the well-founded and stable-model engines
all bottom out here instead of re-implementing their own scan-and-backtrack
loops.  It has five parts:

* :mod:`~repro.engine.intern` — the interned columnar tuple core:
  :class:`SymbolTable` (ground terms ↔ dense integer ids, interned once at
  the storage boundary; :func:`global_symbols` is the process-wide default)
  and :class:`TupleRelation` (per-predicate int-tuple rows with
  ``array('q')``-backed columns).  Everything between ``RelationIndex.add``
  and the API edge — storage, delta logs, pattern tables, joins — handles
  plain integer rows;
* :mod:`~repro.engine.index` — :class:`RelationIndex`, a multi-key hash index
  over ground atoms with delta tracking (``added_since``), replacing the old
  predicate-only ``AtomIndex``; versioned via :meth:`RelationIndex.snapshot`
  (immutable :class:`RelationSnapshot` views sharing pattern tables
  copy-on-write) and :meth:`RelationSnapshot.fork` (throwaway, add-only
  :class:`OverlayRelationIndex` leaves layering additions over a shared
  base);
* :mod:`~repro.engine.planner` — join planning: :class:`CompiledRule` and the
  greedy bound-connectivity / smallest-relation-first literal ordering, plus
  the one join executor, :class:`EncodedRule` / :func:`enumerate_bindings`
  (slot bindings over interned ids; function terms with variables inside
  are matched by decomposing stored ids), and its object-level edge
  :func:`enumerate_matches` (assignments are decoded only at yield);
* :mod:`~repro.engine.seminaive` — the generic semi-naive :func:`fixpoint`
  driver (delta rules, no rederivation) and the counter-propagation
  :class:`GroundProgramEvaluator` for ground programs;
* :mod:`~repro.engine.backend` — the storage protocol, its copy-on-write
  in-memory backend and the add-only overlay that forks write to;
* :mod:`~repro.engine.maintenance` — incremental maintenance of derived
  relations: :class:`SupportTable` derivation records (populated through the
  fixpoint driver's ``on_fire`` hook), the counting cascade behind
  :meth:`RelationIndex.retract`, and :class:`MaterializedView`, which repairs
  a stratified materialisation under deletions (counting per non-recursive
  stratum, Delete-and-Rederive per recursive stratum) instead of recomputing;
* :mod:`~repro.engine.stats` — :class:`EngineStatistics`, the shared counter
  object surfaced in chase and solver results.

See the "Engine internals" section of the top-level README for how the pieces
fit together.
"""

from .backend import MemoryBackend, OverlayBackend, StorageBackend
from .index import (
    OverlayRelationIndex,
    RelationIndex,
    RelationSnapshot,
    Tick,
    VersionedRelationIndex,
    is_flexible,
    match_atom,
    match_terms,
    resolve_term,
)
from .intern import Row, SymbolTable, TupleRelation, global_symbols
from .maintenance import MaterializedView, SupportTable, ViewDelta
from .planner import (
    CompiledRule,
    EncodedRule,
    compile_rule,
    encode_rule,
    enumerate_bindings,
    enumerate_matches,
    order_body,
)
from .seminaive import GroundProgramEvaluator, fixpoint
from .stats import EngineStatistics

__all__ = [
    "CompiledRule",
    "EncodedRule",
    "EngineStatistics",
    "GroundProgramEvaluator",
    "MaterializedView",
    "MemoryBackend",
    "OverlayBackend",
    "OverlayRelationIndex",
    "RelationIndex",
    "RelationSnapshot",
    "Row",
    "StorageBackend",
    "SupportTable",
    "SymbolTable",
    "Tick",
    "TupleRelation",
    "VersionedRelationIndex",
    "ViewDelta",
    "compile_rule",
    "encode_rule",
    "enumerate_bindings",
    "enumerate_matches",
    "fixpoint",
    "global_symbols",
    "is_flexible",
    "match_atom",
    "match_terms",
    "order_body",
    "resolve_term",
]
