"""repro.engine — the shared semi-naive evaluation subsystem.

This package is the single evaluation substrate for the whole reproduction:
the chase, the relevant grounding, the well-founded and stable-model engines
all bottom out here instead of re-implementing their own scan-and-backtrack
loops.  It has seven parts:

* :mod:`~repro.engine.intern` — the interned columnar tuple core:
  :class:`SymbolTable` (ground terms ↔ dense integer ids, interned once at
  the storage boundary; :func:`global_symbols` is the process-wide default)
  and :class:`TupleRelation` (per-predicate int-tuple rows with
  ``array('q')``-backed columns).  Everything between ``RelationIndex.add``
  and the API edge — storage, pattern tables, joins — handles plain
  integer rows;
* :mod:`~repro.engine.index` — :class:`RelationIndex`, a multi-key hash index
  over ground atoms, replacing the old predicate-only ``AtomIndex``; its
  ``add_row``/``add`` report whether a row was new, which is all a
  semi-naive driver needs for its delta.  Versioned via
  :meth:`RelationIndex.snapshot` (immutable :class:`RelationSnapshot` views
  sharing pattern tables copy-on-write) and :meth:`RelationSnapshot.fork`
  (throwaway, add-only :class:`OverlayRelationIndex` leaves layering
  additions over a shared base, whose ``rows_for``, ``add_row`` and
  ``contains_row`` read the base snapshot's relations and buckets
  directly);
* :mod:`~repro.engine.planner` — join planning: :class:`CompiledRule` and the
  greedy bound-connectivity / smallest-relation-first literal ordering, plus
  the one join executor, :class:`EncodedRule` / :func:`enumerate_bindings`
  (each plan generated once into a Python function with one nested loop
  per body literal, yielding slot-binding tuples of interned ids; function
  terms with variables inside are matched by decomposing stored ids), and
  its object-level edge :func:`enumerate_matches` (assignments are decoded
  only at yield);
* :mod:`~repro.engine.seminaive` — the one semi-naive :func:`fixpoint`
  driver (delta rules, no rederivation; round 1 joins every full body, or
  starts from a seeded delta; each later round's delta is the rows the
  previous round's inserts reported new) and the counter-propagation
  :class:`GroundProgramEvaluator` for ground programs;
* :mod:`~repro.engine.backend` — the copy-on-write in-memory backend and
  the overlay read view of a fork's base and additions;
* :mod:`~repro.engine.maintenance` — incremental maintenance of derived
  relations: :class:`SupportTable` derivation records keyed on int rows
  (populated through the fixpoint driver's ``on_fire`` hook) and
  :class:`MaterializedView`, which
  repairs a stratified materialisation under deletions (counting per
  non-recursive stratum, Delete-and-Rederive per recursive stratum) instead
  of recomputing, and runs what a change adds as one seeded :func:`fixpoint`
  call per stratum;
* :mod:`~repro.engine.stats` — :class:`EngineStatistics`, the shared counter
  object surfaced in chase and solver results.

See the "Engine internals" section of the top-level README for how the pieces
fit together.
"""

from .backend import MemoryBackend, OverlayBackend
from .index import (
    OverlayRelationIndex,
    RelationIndex,
    RelationSnapshot,
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
    "SupportTable",
    "SymbolTable",
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
