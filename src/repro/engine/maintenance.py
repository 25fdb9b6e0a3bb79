"""Incremental maintenance of derived relations: counting and DRed.

Snapshots, overlay forks and predicate-cone invalidation make *additions*
cheap, but a deletion would still throw derived work away and recompute.
This module closes that gap: it keeps, per materialised relation, a
**derivation-support table** populated during semi-naive evaluation, and
repairs the materialisation under base-fact deletions by cascading through
that table instead of re-running the fixpoint.  Additions (and the
rederivations a deletion below a negation enables) run through the one
semi-naive driver, :func:`~repro.engine.seminaive.fixpoint`, started from
the call's new rows.

Two classical algorithms are combined, chosen **per stratum**:

* **counting** — for non-recursive strata.  Every distinct rule firing is one
  support record ``(rule, ground body) -> head``; deleting an atom drops the
  records that used it, and a derived atom dies exactly when its last record
  dies.  Sound because a non-recursive stratum cannot contain cyclic support
  (an atom transitively supporting itself), so "some record left" implies
  "still derivable".
* **Delete-and-Rederive (DRed)** — for recursive strata, where counting is
  unsound (two atoms deriving each other keep their counts positive forever
  after their external support vanished).  DRed first *over-deletes* — every
  atom reachable from the deleted facts through support edges of the stratum
  is tentatively removed — then *rederives* the survivors: an over-deleted
  atom comes back if it is a surviving base fact or has a support record
  whose body avoided the over-deletion.  Only the difference is physically
  removed.

Stratified negation is handled across strata: an atom **added** below a
stratum invalidates the support records that negated it (``blockers``), and
an atom **deleted** below re-opens derivations that the negation had
suppressed — those rules are re-evaluated against the repaired state.  The
per-apply cost is therefore proportional to the affected derivation cone of
the delta, never to |DB|; :class:`~repro.engine.stats.EngineStatistics`
exposes ``deltas_applied``/``overdeletions``/``rederivations`` so callers
(and tests) can see exactly that.

The add phase of each stratum is one seeded
:func:`~repro.engine.seminaive.fixpoint` call over the stratum's rules
(the insert step of DRed): the view adds its base rows, then hands the
driver the call's net-added rows as the round-1 delta, plus the rules a
deletion below a negation re-opened, which join their full body.  The
driver's ``on_fire`` hook records each firing's support and notes each
head the index does not hold yet in the call's net change.

Everything here lives on the row plane, as the index and the driver do:
support records, liveness sets and a call's net change are ``(predicate,
row)`` entries, and a firing's rows come from the rule's generated builder
(:meth:`~repro.engine.planner.EncodedRule.firing_rows`).  Atoms are
encoded once, where :meth:`MaterializedView.apply_delta` receives them,
and decoded only where a caller reads atoms (:class:`ViewDelta`,
:attr:`MaterializedView.base_facts`).

The public surface:

* :class:`SupportTable` — the derivation-count table.  Feed it to the
  fixpoint driver via ``fixpoint(..., on_fire=table.record_firing_binding)``
  and it records one entry per distinct firing.
* :class:`MaterializedView` — a stratified Datalog¬ program materialised
  with full support recording, repaired in place by
  :meth:`MaterializedView.apply_delta`, which returns the net
  :class:`ViewDelta` of stored rows.  ``QuerySession`` keeps one view per
  cached plan (deletions repair cached answers) and
  ``encodings.cqa.consistent_answers`` evaluates each repair as a deletion
  delta over one shared view — the two hottest deletion paths of the stack.

See ``docs/incremental-maintenance.md`` for a worked, executable example.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, Predicate
from ..errors import SolverLimitError
from ..obs.trace import get_tracer
from .index import RelationIndex
from .intern import SymbolTable
from .planner import CompiledRule, EncodedRule, Entry, compile_rule
from .seminaive import fixpoint
from .stats import EngineStatistics

__all__ = ["SupportTable", "MaterializedView", "ViewDelta"]

_LIMIT_MESSAGE = "incremental maintenance exceeded max_atoms"

#: One distinct rule firing: ``(rule id, derived head, ground positive
#: body)``, each atom a ``(predicate, row)`` entry.  The rule id
#: disambiguates two rules deriving the same head from the same body; the
#: negative body is determined by the key (stored alongside) since safety
#: forces negative literals to be bound by the positive body.
SupportKey = Tuple[int, Entry, Tuple[Entry, ...]]


class SupportTable:
    """Derivation records: who derives what, from what, blocked by what.

    The table is a set of :data:`SupportKey` records with three access
    paths, each keyed on ``(predicate, row)`` entries:

    * ``supports[head]`` — the records deriving ``head`` (its derivation
      count is the size of this set);
    * ``uses[entry]`` — the records whose *positive* body contains
      ``entry`` (deleting it invalidates exactly these);
    * ``blockers[entry]`` — the records whose *negative* body contains
      ``entry`` (adding it invalidates exactly these).

    ``base`` holds the extensional facts (self-supporting; deletable) and
    ``protected`` the ground heads of the program's fact rules (derived
    unconditionally — never deletable).  Records are registered through
    :meth:`record_firing_binding` (the ``on_fire`` hook of the fixpoint
    driver); re-discovery of a known firing is a no-op, which is what makes
    the table exact under semi-naive evaluation's overlapping delta rules.
    """

    __slots__ = (
        "derivations",
        "supports",
        "uses",
        "blockers",
        "base",
        "protected",
        "_rule_ids",
        "_rule_refs",
        "_stats",
    )

    def __init__(self, *, statistics: Optional[EngineStatistics] = None) -> None:
        #: key -> ground negative body entries of the firing
        self.derivations: Dict[SupportKey, Tuple[Entry, ...]] = {}
        self.supports: Dict[Entry, Set[SupportKey]] = {}
        self.uses: Dict[Entry, Set[SupportKey]] = {}
        self.blockers: Dict[Entry, Set[SupportKey]] = {}
        self.base: Set[Entry] = set()
        self.protected: Set[Entry] = set()
        self._rule_ids: Dict[int, int] = {}
        #: strong refs so ``id()``-keyed rule ids can never be recycled
        self._rule_refs: List[object] = []
        self._stats = statistics

    # ------------------------------------------------------------- recording
    def _rule_id(self, rule: CompiledRule) -> int:
        source = rule.source if rule.source is not None else rule
        rid = self._rule_ids.get(id(source))
        if rid is None:
            rid = len(self._rule_refs)
            self._rule_ids[id(source)] = rid
            self._rule_refs.append(source)
        return rid

    def record_firing_binding(
        self, rule: CompiledRule, encoded: EncodedRule, payload: tuple
    ) -> List[Entry]:
        """Register a firing, ignoring duplicates: the ``on_fire`` hook of
        the fixpoint driver, where *payload* is *encoded*'s slot binding.
        Returns the heads of the records that were new."""
        heads, body, negative = encoded.firing_rows(payload)
        rid = self._rule_id(rule)
        fresh: List[Entry] = []
        for head in heads:
            key: SupportKey = (rid, head, body)
            if key in self.derivations:
                continue
            self.derivations[key] = negative
            self.supports.setdefault(head, set()).add(key)
            for entry in body:
                self.uses.setdefault(entry, set()).add(key)
            for entry in negative:
                self.blockers.setdefault(entry, set()).add(key)
            if self._stats is not None:
                self._stats.supports_recorded += 1
            fresh.append(head)
        return fresh

    def drop(self, key: SupportKey) -> None:
        """Forget one record, maintaining all three access paths."""
        negative = self.derivations.pop(key, None)
        if negative is None:
            return
        _, head, body = key
        for paths, entries in (
            (self.supports, (head,)),
            (self.uses, body),
            (self.blockers, negative),
        ):
            for entry in entries:
                bucket = paths.get(entry)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del paths[entry]

    # -------------------------------------------------------------- liveness
    def is_alive(self, entry: Entry) -> bool:
        """Still supported: a base/protected fact, or some record remains."""
        return (
            entry in self.base
            or entry in self.protected
            or bool(self.supports.get(entry))
        )


class ViewDelta:
    """The net change of one :meth:`MaterializedView.apply_delta` call, as
    ``(predicate, row)`` entries over *symbols*; ``added``/``removed``
    decode them to atoms on first read."""

    def __init__(
        self, added_rows: frozenset, removed_rows: frozenset, symbols: SymbolTable
    ) -> None:
        self.added_rows: frozenset[Entry] = added_rows
        self.removed_rows: frozenset[Entry] = removed_rows
        self.symbols = symbols

    @cached_property
    def added(self) -> frozenset[Atom]:
        atom = self.symbols.atom
        return frozenset(atom(*entry) for entry in self.added_rows)

    @cached_property
    def removed(self) -> frozenset[Atom]:
        atom = self.symbols.atom
        return frozenset(atom(*entry) for entry in self.removed_rows)

    def __bool__(self) -> bool:
        return bool(self.added_rows or self.removed_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViewDelta(+{len(self.added_rows)}, -{len(self.removed_rows)})"


class MaterializedView:
    """A stratified Datalog¬ materialisation repaired in place under deltas.

    Parameters
    ----------
    rules:
        A stratified program (anything :func:`repro.query.normalize_rules`
        accepts); unstratified/existential input raises the usual errors.
    facts:
        The extensional (base) facts.  Only these can be added/removed later.
    stratification:
        Reuse a precomputed :class:`~repro.query.stratify.Stratification`
        (e.g. ``MagicProgram.stratification``) instead of re-stratifying.
    statistics / max_atoms:
        Shared engine counters and the usual evaluation budget.

    The constructor evaluates the program once with full support recording
    (``on_fire``); from then on :meth:`apply_delta` maintains the
    materialisation incrementally: counting for non-recursive strata, DRed
    for recursive ones, seeded semi-naive rounds for what a call adds, and
    cross-stratum negation repair in both directions (an addition below can
    delete above, a deletion below can add above).
    """

    def __init__(
        self,
        rules,
        facts: Iterable[Atom] = (),
        *,
        stratification=None,
        statistics: Optional[EngineStatistics] = None,
        max_atoms: Optional[int] = None,
    ) -> None:
        # Deferred import: repro.query sits above the engine in the layer
        # map, but only for its *analysis* helpers, which depend solely on
        # engine + lp rule shapes — the cycle is broken at module scope.
        from ..query.stratify import normalize_rules, stratify

        self._stats = statistics
        self._max_atoms = max_atoms
        self._strat = (
            stratification
            if stratification is not None
            else stratify(normalize_rules(rules))
        )
        self._support = SupportTable(statistics=statistics)
        self._index = RelationIndex(statistics=statistics)
        encode = self._index.symbols.encode_atom
        # A stratum needs DRed exactly when it contains a genuinely recursive
        # rule — one whose head shares a dependency-graph SCC with a positive
        # body predicate.  Stratum equality is NOT the right test: positive
        # edges never raise strata, so unrelated non-recursive predicates
        # routinely share a stratum and would wrongly lose the exact (and
        # cheaper) counting path.
        component = self._strat.component_of
        #: per stratum: its compiled rules, and their positive body predicates
        self._stratum_rules: List[Tuple[CompiledRule, ...]] = []
        self._body_predicates: List[frozenset] = []
        self._recursive: List[bool] = []
        #: predicate -> [(stratum, compiled rule)] for negative occurrences
        self._negative_sites: Dict[Predicate, List[Tuple[int, CompiledRule]]] = {}
        for stratum, stratum_rules in enumerate(self._strat.strata):
            compiled_rules: List[CompiledRule] = []
            body_predicates: Set[Predicate] = set()
            recursive = False
            for rule in stratum_rules:
                if rule.is_fact and rule.head.is_ground:
                    self._support.protected.add(
                        (rule.head.predicate, encode(rule.head))
                    )
                    continue
                compiled = compile_rule(rule, statistics=statistics)
                compiled_rules.append(compiled)
                head_component = component.get(rule.head.predicate)
                for atom in compiled.positive:
                    body_predicates.add(atom.predicate)
                    if (
                        head_component is not None
                        and component.get(atom.predicate) == head_component
                    ):
                        recursive = True
                for atom in compiled.negative:
                    self._negative_sites.setdefault(atom.predicate, []).append(
                        (stratum, compiled)
                    )
            self._stratum_rules.append(tuple(compiled_rules))
            self._body_predicates.append(frozenset(body_predicates))
            self._recursive.append(recursive)
        for atom in facts:
            self._support.base.add((atom.predicate, encode(atom)))
        # Program facts are stored up front: no lower stratum reads them.
        for entries in (self._support.protected, self._support.base):
            for entry in entries:
                self._index.add_row(*entry)
        if statistics is not None:
            statistics.tuples_encoded += len(self._support.protected)
            statistics.tuples_encoded += len(self._support.base)
        # The program, stratum by stratum, with full support recording.
        for compiled_rules in self._stratum_rules:
            fixpoint(
                compiled_rules,
                index=self._index,
                on_fire=self._support.record_firing_binding,
                max_atoms=max_atoms,
                limit_message=_LIMIT_MESSAGE,
                statistics=statistics,
            )
        # Net-change bookkeeping of the apply_delta call in flight.
        self._call_added: Set[Entry] = set()
        self._call_removed: Set[Entry] = set()

    # --------------------------------------------------------------- reading
    @property
    def index(self) -> RelationIndex:
        """The materialisation (treat as read-only; mutate via apply_delta)."""
        return self._index

    @property
    def support(self) -> SupportTable:
        """The derivation-support table backing the repairs."""
        return self._support

    @property
    def base_facts(self) -> frozenset[Atom]:
        atom = self._index.symbols.atom
        return frozenset(atom(*entry) for entry in self._support.base)

    def atoms(self) -> frozenset[Atom]:
        return self._index.atoms()

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._index

    def __len__(self) -> int:
        return len(self._index)

    def _stratum_of(self, predicate: Predicate) -> int:
        return self._strat.stratum_of.get(predicate, 0)

    # ------------------------------------------------------------- mutation
    def apply_delta(
        self,
        additions: Iterable[Atom] = (),
        deletions: Iterable[Atom] = (),
    ) -> ViewDelta:
        """Repair the materialisation under base-fact changes.

        *additions*/*deletions* are **extensional** changes: deleting an atom
        that is not a base fact (only derived, or absent) is a no-op, and so
        is deleting a program fact; adding an atom that rules already derive
        records its base status without changing the materialisation.  An
        atom appearing in **both** sets is deleted first and re-added — the
        addition wins, regardless of whether the atom was a base fact before
        the call.  Returns the net change to the *stored* atoms (base and
        derived alike); the cost is proportional to the affected derivation
        cone.
        """
        if self._stats is not None:
            self._stats.deltas_applied += 1
        tracer = get_tracer()
        span = tracer.start("engine.view_repair") if tracer.enabled else None
        try:
            self._call_added = set()
            self._call_removed = set()
            support = self._support
            symbols = self._index.symbols
            base_add: Dict[int, List[Entry]] = {}
            base_del: Dict[int, List[Entry]] = {}
            scheduled_deletions: Set[Entry] = set()
            for atom in deletions:
                # A term never interned gives no row, and no base fact.
                entry = (atom.predicate, symbols.try_encode_atom(atom))
                if entry in support.base and entry not in support.protected:
                    base_del.setdefault(self._stratum_of(atom.predicate), []).append(entry)
                    scheduled_deletions.add(entry)
            for atom in additions:
                entry = (atom.predicate, symbols.encode_atom(atom))
                # Re-adding a scheduled deletion is meaningful (the per-stratum
                # delete phase runs before the add phase, so the add wins).
                if entry not in support.base or entry in scheduled_deletions:
                    if self._stats is not None:
                        self._stats.tuples_encoded += 1
                    base_add.setdefault(self._stratum_of(atom.predicate), []).append(entry)
            for stratum in range(len(self._stratum_rules)):
                self._delete_phase(stratum, base_del.get(stratum, ()))
                self._add_phase(stratum, base_add.get(stratum, ()))
            delta = ViewDelta(
                frozenset(self._call_added), frozenset(self._call_removed), symbols
            )
            if span is not None:
                span.set(added=len(delta.added_rows), removed=len(delta.removed_rows))
            return delta
        finally:
            if span is not None:
                span.finish()

    # ------------------------------------------------------- index plumbing
    def _note_added(self, entry: Entry) -> None:
        if entry in self._call_removed:
            self._call_removed.discard(entry)
        else:
            self._call_added.add(entry)

    def _add_row(self, entry: Entry) -> bool:
        if not self._index.add_row(*entry):
            return False
        self._note_added(entry)
        if self._max_atoms is not None and len(self._index) > self._max_atoms:
            raise SolverLimitError(_LIMIT_MESSAGE)
        return True

    def _remove_row(self, entry: Entry) -> bool:
        if not self._index.remove_row(*entry):
            return False
        if entry in self._call_added:
            self._call_added.discard(entry)
        else:
            self._call_removed.add(entry)
        return True

    # --------------------------------------------------------- delete phase
    def _delete_phase(self, stratum: int, base_removed: Sequence[Entry]) -> None:
        support = self._support
        seeds: List[Entry] = []
        for entry in base_removed:
            support.base.discard(entry)
            seeds.append(entry)
        # Records invalidated by the net changes of lower strata: a removed
        # row kills the records that used it positively, an added row the
        # records that negated it.  (Same-stratum negation cannot exist.)
        invalid: Set[SupportKey] = set()
        for entry in self._call_removed:
            for key in support.uses.get(entry, ()):
                if self._stratum_of(key[1][0]) == stratum:
                    invalid.add(key)
        for entry in self._call_added:
            for key in support.blockers.get(entry, ()):
                if self._stratum_of(key[1][0]) == stratum:
                    invalid.add(key)
        for key in invalid:
            support.drop(key)
            seeds.append(key[1])
        if not seeds:
            return
        if self._recursive[stratum]:
            self._delete_rederive(stratum, seeds)
        else:
            self._delete_counting(stratum, seeds)

    def _delete_counting(self, stratum: int, seeds: List[Entry]) -> None:
        """Exact derivation-count cascade (non-recursive stratum)."""
        support = self._support
        work = list(seeds)
        while work:
            entry = work.pop()
            if support.is_alive(entry) or not self._remove_row(entry):
                continue
            for key in list(support.uses.get(entry, ())):
                if self._stratum_of(key[1][0]) == stratum:
                    support.drop(key)
                    work.append(key[1])
                # Higher-stratum records survive until their stratum's own
                # delete phase reads this row out of the net-removed set.

    def _delete_rederive(self, stratum: int, seeds: List[Entry]) -> None:
        """Delete-and-Rederive (recursive stratum: counting is unsound)."""
        support = self._support
        contains_row = self._index.contains_row
        # 1. Over-delete: everything reachable from the seeds through
        #    same-stratum support edges, ignoring alternative derivations.
        overdeleted: Set[Entry] = set()
        stack = [entry for entry in seeds if contains_row(*entry)]
        while stack:
            entry = stack.pop()
            if entry in overdeleted:
                continue
            overdeleted.add(entry)
            if self._stats is not None:
                self._stats.overdeletions += 1
            for key in support.uses.get(entry, ()):
                head = key[1]
                if (
                    head not in overdeleted
                    and self._stratum_of(head[0]) == stratum
                    and contains_row(*head)
                ):
                    stack.append(head)

        # 2. Rederive: an over-deleted row survives if it is still a base /
        #    protected fact or one of its remaining records has a body that
        #    escaped the over-deletion (records hit by *genuine* lower-strata
        #    deletions were already dropped above).
        rederived: Set[Entry] = set()

        def supported(entry: Entry) -> bool:
            if entry in support.base or entry in support.protected:
                return True
            for key in support.supports.get(entry, ()):
                body = key[2]
                if all(b not in overdeleted or b in rederived for b in body):
                    return True
            return False

        queue = [entry for entry in overdeleted if supported(entry)]
        while queue:
            entry = queue.pop()
            if entry in rederived or not supported(entry):
                continue
            rederived.add(entry)
            if self._stats is not None:
                self._stats.rederivations += 1
            for key in support.uses.get(entry, ()):
                head = key[1]
                if (
                    head in overdeleted
                    and head not in rederived
                    and self._stratum_of(head[0]) == stratum
                ):
                    queue.append(head)

        # 3. Commit the difference; drop every record a dead row touches.
        dead = overdeleted - rederived
        for entry in dead:
            self._remove_row(entry)
        for entry in dead:
            for key in list(support.supports.get(entry, ())):
                support.drop(key)
            for key in list(support.uses.get(entry, ())):
                if self._stratum_of(key[1][0]) == stratum:
                    support.drop(key)

    # ------------------------------------------------------------ add phase
    def _add_phase(self, stratum: int, base_added: Sequence[Entry]) -> None:
        readded: List[Entry] = []
        for entry in base_added:
            self._support.base.add(entry)
            if self._add_row(entry) and entry not in self._call_added:
                # Deleted earlier in this very apply (net-unchanged, so it
                # is absent from _call_added) yet physically re-inserted:
                # it must still seed the delta round below, or the
                # derivations dropped by the delete phase stay lost.
                readded.append(entry)
        # Deletions below a negation re-open derivations the negation had
        # suppressed; those rules join their full body against the repaired
        # state (their join is part of the affected cone).
        reopened = [
            compiled
            for predicate in {entry[0] for entry in self._call_removed}
            for site_stratum, compiled in self._negative_sites.get(predicate, ())
            if site_stratum == stratum
        ]
        # The seed: every net-added row (lower strata and this stratum's
        # base additions) plus the re-added overlap rows, where a body
        # literal of this stratum can use it.
        body_predicates = self._body_predicates[stratum]
        seed = [
            entry
            for added in (self._call_added, readded)
            for entry in added
            if entry[0] in body_predicates
        ]
        if not seed and not reopened:
            return
        fixpoint(
            self._stratum_rules[stratum],
            index=self._index,
            delta=seed,
            rescan=reopened,
            on_fire=self._on_fire,
            max_atoms=self._max_atoms,
            limit_message=_LIMIT_MESSAGE,
            statistics=self._stats,
        )

    def _on_fire(
        self, compiled: CompiledRule, encoded: EncodedRule, payload: tuple
    ) -> None:
        """The add phase's ``on_fire`` hook, run before the driver inserts
        the firing's heads: record the firing's support, and note each head
        of a new record that the index does not hold yet as net-added (a
        known record's head is stored already)."""
        contains_row = self._index.contains_row
        for head in self._support.record_firing_binding(compiled, encoded, payload):
            if not contains_row(*head):
                self._note_added(head)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaterializedView({len(self._index)} atoms, "
            f"{len(self._support.derivations)} support records, "
            f"{len(self._strat.strata)} strata)"
        )
