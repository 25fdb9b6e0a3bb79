"""Engine statistics: a per-operation work account threaded through the engine.

Every component of :mod:`repro.engine` accepts an optional
:class:`EngineStatistics` and increments its counters as it works, so a caller
can see *why* an evaluation was fast or slow: how many triggers fired, how many
tuples were derived versus merely scanned, how many hash indexes had to be
built and how many rules were compiled.  The object is deliberately dumb — a
bag of integers — so it can be shared freely between the index, the planner
and the fixpoint driver without any locking or lifecycle concerns.

The metrics registry never reads these objects.  Their owner — a session, a
service reader miss, a chase run — adds its account to the registry once,
when the operation ends (:meth:`EngineStatistics.report` into the counters
:func:`engine_counters` looks up), so the hot loops stay on plain attribute
increments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple

__all__ = ["EngineStatistics", "engine_counters"]


@dataclass
class EngineStatistics:
    """Counters accumulated by the evaluation engine.

    Attributes
    ----------
    triggers_fired:
        Rule instantiations that actually produced (or attempted to produce)
        new atoms.
    tuples_derived:
        Atoms newly added to an index (duplicates are not counted).
    tuples_scanned:
        Candidate atoms inspected by the join matcher.  A semi-naive delta
        position counts only the delta rows of its own predicate (the
        fixpoint groups each round's delta by predicate and hands every
        position just that group).
    tuples_encoded:
        Atoms encoded into interned integer rows at the storage boundary
        (one per ``RelationIndex.add``, and one per base fact a maintained
        view's ``apply_delta`` stores — the single Atom→row conversion an
        accepted fact pays before the engine goes all-integer on it).
    index_builds:
        Lazy hash-index constructions performed by :class:`RelationIndex`
        over full (base) relations — the O(|relation|) scans the versioned
        storage layer exists to avoid repeating.
    overlay_index_builds:
        Lazy hash-index constructions over overlay-*local* atoms only (the
        derived/hypothetical layer of a fork), one per access pattern a fork
        probes; proportional to a fork's own writes, never to the base
        database.
    rules_compiled:
        Rule bodies run through the join planner.
    iterations:
        Semi-naive fixpoint rounds executed.
    tuples_removed:
        Atoms deleted from a head index (forks are add-only).
    snapshots_taken:
        Immutable snapshot views created from a mutable head index.
    forks_created:
        Overlay branches created from a snapshot.
    pattern_tables_shared:
        Access-pattern hash tables handed to a snapshot/fork by reference
        (no copy) instead of being rebuilt.
    pattern_tables_copied:
        Copy-on-write duplications of a shared pattern table, triggered by a
        post-snapshot write to its relation.
    supports_recorded:
        Derivation records registered in a
        :class:`~repro.engine.maintenance.SupportTable` (one per distinct
        rule firing; re-discoveries of a known firing are not counted).
    deltas_applied:
        :meth:`~repro.engine.maintenance.MaterializedView.apply_delta` calls
        (each call maintains a materialisation under a batch of base-fact
        additions/deletions instead of recomputing it).
    overdeletions:
        Atoms tentatively deleted by the Delete-and-Rederive pass of a
        recursive stratum (before rederivation rescues the survivors).
    rederivations:
        Overdeleted atoms rescued because an alternative derivation
        survived.  Bounded by the affected derivation cone of the deleted
        facts — never by |DB| — which is the point of the maintenance layer.
    """

    triggers_fired: int = 0
    tuples_derived: int = 0
    tuples_scanned: int = 0
    tuples_encoded: int = 0
    index_builds: int = 0
    overlay_index_builds: int = 0
    rules_compiled: int = 0
    iterations: int = 0
    tuples_removed: int = 0
    snapshots_taken: int = 0
    forks_created: int = 0
    pattern_tables_shared: int = 0
    pattern_tables_copied: int = 0
    supports_recorded: int = 0
    deltas_applied: int = 0
    overdeletions: int = 0
    rederivations: int = 0

    def report(self, counters) -> None:
        """Add every count to its registry counter (from
        :func:`engine_counters`)."""
        for name, counter in counters:
            value = getattr(self, name)
            if value:
                counter.inc(value)

    def reset(self) -> None:
        """Zero every counter."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dictionary (for logging and benchmarks)."""
        return {field_.name: getattr(self, field_.name) for field_ in fields(self)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"EngineStatistics({parts})"


_FIELDS = tuple(field_.name for field_ in fields(EngineStatistics))


def engine_counters(registry, prefix: str) -> Tuple[tuple, ...]:
    """``(field, counter)`` for every engine counter, the counter being
    *registry*'s ``<prefix>_<field>``.  Look them up once per owner."""
    return tuple((name, registry.counter(f"{prefix}_{name}")) for name in _FIELDS)
