"""Incremental maintenance of derived relations: counting and DRed.

Everything below PR 3 made *additions* cheap — snapshots, overlay forks,
predicate-cone invalidation — but a deletion still threw derived work away
and recomputed.  This module closes that gap: it keeps, per materialised
relation, a **derivation-support table** populated during semi-naive
evaluation, and repairs the materialisation under base-fact deletions (and
additions) by cascading through that table instead of re-running the
fixpoint.

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

The public surface:

* :class:`SupportTable` — the derivation-count table.  Feed it to the
  fixpoint driver via ``fixpoint(..., on_fire=table.record)`` and it records
  one entry per distinct firing; :meth:`SupportTable.cascade_retract` is the
  counting-only cascade primitive behind
  :meth:`repro.engine.index.RelationIndex.retract`.
* :class:`MaterializedView` — a stratified Datalog¬ program materialised
  with full support recording, repaired in place by
  :meth:`MaterializedView.apply_delta`, which returns the net
  :class:`ViewDelta` of derived atoms.  ``QuerySession`` keeps one view per
  cached plan (deletions repair cached answers) and
  ``encodings.cqa.consistent_answers`` evaluates each repair as a deletion
  delta over one shared view — the two hottest deletion paths of the stack.

See ``docs/incremental-maintenance.md`` for a worked, executable example.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom, Predicate, apply_substitution
from ..errors import SolverLimitError
from ..obs.trace import get_tracer
from .index import RelationIndex
from .planner import (
    CompiledRule,
    EncodedRule,
    compile_rule,
    encode_rule,
    enumerate_bindings,
)
from .stats import EngineStatistics

__all__ = ["SupportTable", "MaterializedView", "ViewDelta"]

#: One distinct rule firing: ``(rule id, derived head, ground positive body)``.
#: The rule id disambiguates two rules deriving the same head from the same
#: body; the negative body is determined by the key (stored alongside) since
#: safety forces negative literals to be bound by the positive body.
SupportKey = Tuple[int, Atom, Tuple[Atom, ...]]


class SupportTable:
    """Derivation records: who derives what, from what, blocked by what.

    The table is a set of :data:`SupportKey` records with three access paths:

    * ``supports[head]`` — the records deriving ``head`` (its derivation
      count is the size of this set);
    * ``uses[atom]`` — the records whose *positive* body contains ``atom``
      (deleting ``atom`` invalidates exactly these);
    * ``blockers[atom]`` — the records whose *negative* body contains
      ``atom`` (adding ``atom`` invalidates exactly these).

    ``base`` holds the extensional facts (self-supporting; deletable) and
    ``protected`` the ground heads of the program's fact rules (derived
    unconditionally — never deletable).  Records are registered through
    :meth:`record` (the ``on_fire`` hook of the fixpoint driver),
    :meth:`record_firing_binding` (its ``on_fire_bindings`` hook) or
    :meth:`record_firing`; re-discovery of a known firing is a no-op, which
    is what makes the table exact under semi-naive evaluation's overlapping
    delta rules.
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
        #: key -> ground negative body atoms of the firing
        self.derivations: Dict[SupportKey, Tuple[Atom, ...]] = {}
        self.supports: Dict[Atom, Set[SupportKey]] = {}
        self.uses: Dict[Atom, Set[SupportKey]] = {}
        self.blockers: Dict[Atom, Set[SupportKey]] = {}
        self.base: Set[Atom] = set()
        self.protected: Set[Atom] = set()
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

    def record(self, rule: CompiledRule, assignment: dict) -> None:
        """The ``on_fire`` hook: register a firing, ignoring duplicates."""
        self.record_firing(rule, assignment)

    def _insert(
        self,
        key: SupportKey,
        head: Atom,
        body: Tuple[Atom, ...],
        negative: Tuple[Atom, ...],
    ) -> None:
        self.derivations[key] = negative
        self.supports.setdefault(head, set()).add(key)
        for atom in set(body):
            self.uses.setdefault(atom, set()).add(key)
        for atom in set(negative):
            self.blockers.setdefault(atom, set()).add(key)
        if self._stats is not None:
            self._stats.supports_recorded += 1

    def record_firing(
        self, rule: CompiledRule, assignment: dict
    ) -> List[Tuple[SupportKey, Atom]]:
        """Register a firing; return the ``(key, head)`` pairs that were new."""
        body = tuple(
            apply_substitution(atom, assignment) for atom in rule.positive
        )
        rid = self._rule_id(rule)
        fresh: List[Tuple[SupportKey, Atom]] = []
        negative: Optional[Tuple[Atom, ...]] = None
        for template in rule.heads:
            head = apply_substitution(template, assignment)
            if not head.is_ground:
                continue
            key: SupportKey = (rid, head, body)
            if key in self.derivations:
                continue
            if negative is None:
                negative = tuple(
                    apply_substitution(atom, assignment) for atom in rule.negative
                )
            self._insert(key, head, body, negative)
            fresh.append((key, head))
        return fresh

    def record_firing_binding(
        self, rule: CompiledRule, encoded: EncodedRule, payload: tuple
    ) -> List[Tuple[SupportKey, Atom]]:
        """Row-plane :meth:`record_firing`, and the ``on_fire_bindings``
        hook of the fixpoint driver: *payload* is *encoded*'s slot binding.

        The ground body/head/negative atoms are reconstructed through the
        symbol table's canonical decode cache (two dict probes per atom after
        warm-up), so support bookkeeping never runs ``apply_substitution``
        over term objects.  Returns the ``(key, head)`` pairs that were new.
        """
        body = encoded.build_positive_atoms(payload)
        rid = self._rule_id(rule)
        fresh: List[Tuple[SupportKey, Atom]] = []
        negative: Optional[Tuple[Atom, ...]] = None
        for head in encoded.build_head_atoms(payload):
            key: SupportKey = (rid, head, body)
            if key in self.derivations:
                continue
            if negative is None:
                negative = encoded.build_negative_atoms(payload)
            self._insert(key, head, body, negative)
            fresh.append((key, head))
        return fresh

    def restore_record(
        self,
        source: object,
        head: Atom,
        body: Tuple[Atom, ...],
        negative: Tuple[Atom, ...],
    ) -> None:
        """Re-register a previously exported derivation record.

        *source* is the (normal) rule object the record belongs to — the
        same object later firings will carry as ``CompiledRule.source``, so
        the rule-id assignment stays consistent between restored records and
        records discovered by future delta applications.  Duplicates are
        ignored; no statistics are bumped (nothing was derived — the record
        is checkpointed state coming back, see
        :meth:`MaterializedView.restore`).
        """
        rid = self._rule_ids.get(id(source))
        if rid is None:
            rid = len(self._rule_refs)
            self._rule_ids[id(source)] = rid
            self._rule_refs.append(source)
        key: SupportKey = (rid, head, tuple(body))
        if key in self.derivations:
            return
        self.derivations[key] = tuple(negative)
        self.supports.setdefault(head, set()).add(key)
        for atom in set(key[2]):
            self.uses.setdefault(atom, set()).add(key)
        for atom in set(self.derivations[key]):
            self.blockers.setdefault(atom, set()).add(key)

    def drop(self, key: SupportKey) -> None:
        """Forget one record, maintaining all three access paths."""
        negative = self.derivations.pop(key, None)
        if negative is None:
            return
        _, head, body = key
        bucket = self.supports.get(head)
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self.supports[head]
        for atom in set(body):
            bucket = self.uses.get(atom)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self.uses[atom]
        for atom in set(negative):
            bucket = self.blockers.get(atom)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self.blockers[atom]

    # -------------------------------------------------------------- liveness
    def add_base(self, atom: Atom) -> None:
        self.base.add(atom)

    def is_alive(self, atom: Atom) -> bool:
        """Still supported: a base/protected fact, or some record remains."""
        return (
            atom in self.base
            or atom in self.protected
            or bool(self.supports.get(atom))
        )

    def cascade_retract(self, index: RelationIndex, atom: Atom) -> Tuple[Atom, ...]:
        """Counting-only deletion cascade (the engine of ``RelationIndex.retract``).

        Withdraws *atom*'s base status, then repeatedly removes every atom
        whose support emptied, dropping the records that used it.  Exact for
        **non-recursive** support (no cycle of records) and **negation-free**
        programs; recursive strata need over-deletion/rederivation and
        negation needs cross-stratum re-evaluation — both are provided by
        :class:`MaterializedView`, which layers them over this table.
        Returns the removed atoms in cascade order.
        """
        self.base.discard(atom)
        removed: List[Atom] = []
        work: List[Atom] = [atom]
        while work:
            current = work.pop()
            if self.is_alive(current):
                continue
            if not index.remove(current):
                continue
            removed.append(current)
            for key in list(self.uses.get(current, ())):
                head = key[1]
                self.drop(key)
                work.append(head)
        return tuple(removed)


class ViewDelta:
    """The net change of one :meth:`MaterializedView.apply_delta` call."""

    __slots__ = ("added", "removed")

    def __init__(self, added: frozenset, removed: frozenset) -> None:
        self.added: frozenset[Atom] = added
        self.removed: frozenset[Atom] = removed

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViewDelta(+{len(self.added)}, -{len(self.removed)})"


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
    for recursive ones, and cross-stratum negation repair in both directions
    (an addition below can delete above, a deletion below can add above).
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
        self._setup(
            rules,
            stratification=stratification,
            statistics=statistics,
            max_atoms=max_atoms,
        )
        for atom in facts:
            self._support.add_base(atom)
        from ..query.stratify import evaluate_stratified

        self._index = evaluate_stratified(
            self._normal,
            self._support.base,
            stratification=self._strat,
            statistics=statistics,
            max_atoms=max_atoms,
            on_fire_bindings=self._support.record_firing_binding,
        )
        # Net-change bookkeeping of the apply_delta call in flight.
        self._call_added: Set[Atom] = set()
        self._call_removed: Set[Atom] = set()

    def _setup(
        self,
        rules,
        *,
        stratification,
        statistics: Optional[EngineStatistics],
        max_atoms: Optional[int],
    ) -> None:
        """Compile the program structure (shared by ``__init__`` and
        :meth:`restore`): normalisation, stratification, per-stratum
        recursiveness, delta-join sites, and an empty support table."""
        # Deferred import: repro.query sits above the engine in the layer
        # map, but only for its *analysis* helpers, which depend solely on
        # engine + lp rule shapes — the cycle is broken at module scope.
        from ..query.stratify import normalize_rules, stratify

        self._stats = statistics
        self._max_atoms = max_atoms
        self._normal = normalize_rules(rules)
        self._strat = (
            stratification if stratification is not None else stratify(self._normal)
        )
        self._support = SupportTable(statistics=statistics)
        # A stratum needs DRed exactly when it contains a genuinely recursive
        # rule — one whose head shares a dependency-graph SCC with a positive
        # body predicate.  Stratum equality is NOT the right test: positive
        # edges never raise strata, so unrelated non-recursive predicates
        # routinely share a stratum and would wrongly lose the exact (and
        # cheaper) counting path.  ``component_of`` is populated by
        # ``stratify`` (the only Stratification producer).
        component = self._strat.component_of
        if not component:
            # A Stratification built with the pre-existing 3-arg form carries
            # no SCC ids; recompute them rather than silently classifying
            # every stratum as non-recursive (counting deletion is unsound
            # on recursive strata — mutually supporting derivations keep
            # their counts positive and survive as stale atoms).
            from ..query.stratify import _strongly_connected_components

            component = _strongly_connected_components(self._strat.graph)
        # Per-stratum compiled rules and delta-join sites.
        self._recursive: List[bool] = []
        #: predicate -> [(stratum, compiled rule, body position)]
        self._positive_sites: Dict[
            Predicate, List[Tuple[int, CompiledRule, int]]
        ] = {}
        #: predicate -> [(stratum, compiled rule)] for negative occurrences
        self._negative_sites: Dict[Predicate, List[Tuple[int, CompiledRule]]] = {}
        for stratum, stratum_rules in enumerate(self._strat.strata):
            recursive = False
            for rule in stratum_rules:
                if rule.is_fact and rule.head.is_ground:
                    self._support.protected.add(rule.head)
                    continue
                compiled = compile_rule(rule, statistics=statistics)
                head_component = component.get(rule.head.predicate)
                for position, atom in enumerate(compiled.positive):
                    self._positive_sites.setdefault(atom.predicate, []).append(
                        (stratum, compiled, position)
                    )
                    if (
                        head_component is not None
                        and component.get(atom.predicate) == head_component
                    ):
                        recursive = True
                for atom in compiled.negative:
                    self._negative_sites.setdefault(atom.predicate, []).append(
                        (stratum, compiled)
                    )
            self._recursive.append(recursive)

    # --------------------------------------------------- checkpoint state
    def export_state(
        self,
    ) -> Optional[
        Tuple[
            Tuple[Atom, ...],
            Tuple[Atom, ...],
            Tuple[Tuple[int, Atom, Tuple[Atom, ...], Tuple[Atom, ...]], ...],
        ]
    ]:
        """Export ``(base facts, stored atoms, support records)`` for
        checkpointing.

        Each record is ``(rule position, head, positive body, negative
        body)`` where the rule position indexes the view's normalised rule
        tuple — a process-independent identifier, unlike the ``id()``-keyed
        rule ids of the live :class:`SupportTable`.  Returns ``None`` when a
        record's rule cannot be mapped to a position (it was registered
        through an external cascade, e.g. ``RelationIndex.retract`` sharing
        the table) — callers then skip checkpointing this view rather than
        persist an unrestorable table.  Round-trips through
        :meth:`restore`.
        """
        position_of = {
            id(rule): position for position, rule in enumerate(self._normal)
        }
        records: List[Tuple[int, Atom, Tuple[Atom, ...], Tuple[Atom, ...]]] = []
        for key, negative in self._support.derivations.items():
            rid, head, body = key
            position = position_of.get(id(self._support._rule_refs[rid]))
            if position is None:
                return None
            records.append((position, head, body, negative))
        return (
            tuple(self._support.base),
            tuple(self._index.atoms()),
            tuple(records),
        )

    @classmethod
    def restore(
        cls,
        rules,
        *,
        base: Iterable[Atom],
        atoms: Iterable[Atom],
        records: Iterable[
            Tuple[int, Atom, Tuple[Atom, ...], Tuple[Atom, ...]]
        ],
        stratification=None,
        statistics: Optional[EngineStatistics] = None,
        max_atoms: Optional[int] = None,
    ) -> "MaterializedView":
        """Rebuild a view from :meth:`export_state` output **without**
        re-running the fixpoint.

        The program structure is recompiled (cheap, O(|rules|)); the
        materialisation and the support table are loaded verbatim, so the
        cost is O(checkpointed state), not O(evaluation).  *rules* must be
        the same program (same normalised rule order) the state was exported
        from — the warm-restart path guarantees this by recompiling the plan
        from the same query shape.  The restored view is indistinguishable
        from the original to :meth:`apply_delta`.
        """
        view = cls.__new__(cls)
        view._setup(
            rules,
            stratification=stratification,
            statistics=statistics,
            max_atoms=max_atoms,
        )
        for atom in base:
            view._support.add_base(atom)
        view._index = RelationIndex(atoms, statistics=statistics)
        # The base never replays deltas (mirrors __init__'s evaluated index).
        view._index.compact(view._index.tick())
        normal = view._normal
        for position, head, body, negative in records:
            view._support.restore_record(normal[position], head, body, negative)
        view._call_added = set()
        view._call_removed = set()
        return view

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
        return frozenset(self._support.base)

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
            # Nothing consumes this index's delta log (the view repairs through
            # the support table, not through added_since); keep it empty so the
            # blank-on-remove upkeep of long-lived views stays O(1).
            self._index.compact(self._index.tick())
            self._call_added = set()
            self._call_removed = set()
            base_add: Dict[int, List[Atom]] = {}
            base_del: Dict[int, List[Atom]] = {}
            scheduled_deletions: Set[Atom] = set()
            for atom in deletions:
                if atom in self._support.protected:
                    continue
                if atom in self._support.base:
                    base_del.setdefault(self._stratum_of(atom.predicate), []).append(atom)
                    scheduled_deletions.add(atom)
            for atom in additions:
                # Re-adding a scheduled deletion is meaningful (the per-stratum
                # delete phase runs before the add phase, so the add wins).
                if atom not in self._support.base or atom in scheduled_deletions:
                    base_add.setdefault(self._stratum_of(atom.predicate), []).append(atom)
            for stratum in range(len(self._strat.strata) or 1):
                self._delete_phase(stratum, base_del.get(stratum, ()))
                self._add_phase(stratum, base_add.get(stratum, ()))
            delta = ViewDelta(
                frozenset(self._call_added), frozenset(self._call_removed)
            )
            if span is not None:
                span.set(added=len(delta.added), removed=len(delta.removed))
            return delta
        finally:
            if span is not None:
                span.finish()

    # ------------------------------------------------------- index plumbing
    def _add_atom(self, atom: Atom) -> bool:
        if not self._index.add(atom):
            return False
        if atom in self._call_removed:
            self._call_removed.discard(atom)
        else:
            self._call_added.add(atom)
        if self._max_atoms is not None and len(self._index) > self._max_atoms:
            raise SolverLimitError("incremental maintenance exceeded max_atoms")
        return True

    def _remove_atom(self, atom: Atom) -> None:
        if not self._index.remove(atom):
            return
        if atom in self._call_added:
            self._call_added.discard(atom)
        else:
            self._call_removed.add(atom)

    # --------------------------------------------------------- delete phase
    def _delete_phase(self, stratum: int, base_removed: Sequence[Atom]) -> None:
        support = self._support
        seeds: List[Atom] = []
        for atom in base_removed:
            support.base.discard(atom)
            seeds.append(atom)
        # Records invalidated by the net changes of lower strata: a removed
        # atom kills the records that used it positively, an added atom the
        # records that negated it.  (Same-stratum negation cannot exist.)
        invalid: Set[SupportKey] = set()
        for atom in self._call_removed:
            for key in support.uses.get(atom, ()):
                if self._stratum_of(key[1].predicate) == stratum:
                    invalid.add(key)
        for atom in self._call_added:
            for key in support.blockers.get(atom, ()):
                if self._stratum_of(key[1].predicate) == stratum:
                    invalid.add(key)
        for key in invalid:
            support.drop(key)
            seeds.append(key[1])
        if not seeds:
            return
        recursive = stratum < len(self._recursive) and self._recursive[stratum]
        if recursive:
            self._delete_rederive(stratum, seeds)
        else:
            self._delete_counting(stratum, seeds)

    def _delete_counting(self, stratum: int, seeds: List[Atom]) -> None:
        """Exact derivation-count cascade (non-recursive stratum)."""
        support = self._support
        work = list(seeds)
        while work:
            atom = work.pop()
            if support.is_alive(atom):
                continue
            if atom not in self._index:
                continue
            self._remove_atom(atom)
            for key in list(support.uses.get(atom, ())):
                if self._stratum_of(key[1].predicate) == stratum:
                    support.drop(key)
                    work.append(key[1])
                # Higher-stratum records survive until their stratum's own
                # delete phase reads this atom out of the net-removed set.

    def _delete_rederive(self, stratum: int, seeds: List[Atom]) -> None:
        """Delete-and-Rederive (recursive stratum: counting is unsound)."""
        support = self._support
        # 1. Over-delete: everything reachable from the seeds through
        #    same-stratum support edges, ignoring alternative derivations.
        overdeleted: Set[Atom] = set()
        stack = [atom for atom in seeds if atom in self._index]
        while stack:
            atom = stack.pop()
            if atom in overdeleted:
                continue
            overdeleted.add(atom)
            if self._stats is not None:
                self._stats.overdeletions += 1
            for key in support.uses.get(atom, ()):
                head = key[1]
                if (
                    head not in overdeleted
                    and self._stratum_of(head.predicate) == stratum
                    and head in self._index
                ):
                    stack.append(head)

        # 2. Rederive: an over-deleted atom survives if it is still a base /
        #    protected fact or one of its remaining records has a body that
        #    escaped the over-deletion (records hit by *genuine* lower-strata
        #    deletions were already dropped above).
        rederived: Set[Atom] = set()

        def supported(atom: Atom) -> bool:
            if atom in support.base or atom in support.protected:
                return True
            for key in support.supports.get(atom, ()):
                body = key[2]
                if all(b not in overdeleted or b in rederived for b in body):
                    return True
            return False

        queue = [atom for atom in overdeleted if supported(atom)]
        while queue:
            atom = queue.pop()
            if atom in rederived or not supported(atom):
                continue
            rederived.add(atom)
            if self._stats is not None:
                self._stats.rederivations += 1
            for key in support.uses.get(atom, ()):
                head = key[1]
                if (
                    head in overdeleted
                    and head not in rederived
                    and self._stratum_of(head.predicate) == stratum
                ):
                    queue.append(head)

        # 3. Commit the difference; drop every record a dead atom touches.
        dead = overdeleted - rederived
        for atom in dead:
            self._remove_atom(atom)
        for atom in dead:
            for key in list(support.supports.get(atom, ())):
                support.drop(key)
            for key in list(support.uses.get(atom, ())):
                if self._stratum_of(key[1].predicate) == stratum:
                    support.drop(key)

    # ------------------------------------------------------------ add phase
    def _add_phase(self, stratum: int, base_added: Sequence[Atom]) -> None:
        support = self._support
        readded: List[Atom] = []
        for atom in base_added:
            support.add_base(atom)
            if self._add_atom(atom) and atom not in self._call_added:
                # Deleted earlier in this very apply (net-unchanged, so it
                # is absent from _call_added) yet physically re-inserted:
                # it must still drive the delta joins below, or the
                # derivations dropped by the delete phase stay lost.
                readded.append(atom)
        pending: List[Tuple[CompiledRule, EncodedRule, tuple]] = []
        # Deletions below a negation re-open derivations the negation had
        # suppressed; those rules are re-evaluated in full against the
        # repaired state (their join is part of the affected cone).
        removed_predicates = {atom.predicate for atom in self._call_removed}
        rescanned: Set[int] = set()
        for predicate in removed_predicates:
            for site_stratum, compiled in self._negative_sites.get(predicate, ()):
                if site_stratum == stratum and id(compiled) not in rescanned:
                    rescanned.add(id(compiled))
                    pending.extend(self._matches(compiled))
        # Delta joins: every net-added atom (lower strata and this stratum's
        # base additions) plus the re-added overlap atoms drive the body
        # positions that mention them.
        delta_pool: Dict[Predicate, List[Atom]] = {}
        for atom in self._call_added:
            delta_pool.setdefault(atom.predicate, []).append(atom)
        for atom in readded:
            delta_pool.setdefault(atom.predicate, []).append(atom)
        pending.extend(self._delta_join(stratum, delta_pool))
        # Semi-naive within the stratum until no firing yields a new atom.
        while pending:
            fresh = self._process_firings(pending)
            if not fresh:
                break
            grouped: Dict[Predicate, List[Atom]] = {}
            for atom in fresh:
                grouped.setdefault(atom.predicate, []).append(atom)
            pending = self._delta_join(stratum, grouped)

    def _matches(
        self,
        compiled: CompiledRule,
        *,
        delta: Optional[List[Atom]] = None,
        delta_position: Optional[int] = None,
    ):
        """Enumerate one rule's firings as ``(compiled, encoded, slot-binding
        tuple)`` triples, which the support table records through
        :meth:`SupportTable.record_firing_binding` without ever decoding an
        assignment."""
        symbols = self._index.symbols
        encoded = encode_rule(compiled, symbols)
        delta_rows = None
        if delta_position is not None:
            encode = symbols.encode_atom
            delta_rows = [(atom.predicate, encode(atom)) for atom in delta]
        for binding in enumerate_bindings(
            encoded,
            self._index,
            delta_rows=delta_rows,
            delta_position=delta_position,
            statistics=self._stats,
        ):
            yield (compiled, encoded, binding)

    def _delta_join(
        self, stratum: int, grouped: Dict[Predicate, List[Atom]]
    ) -> List[Tuple[CompiledRule, EncodedRule, tuple]]:
        pending: List[Tuple[CompiledRule, EncodedRule, tuple]] = []
        for predicate, atoms in grouped.items():
            for site_stratum, compiled, position in self._positive_sites.get(
                predicate, ()
            ):
                if site_stratum != stratum:
                    continue
                pending.extend(
                    self._matches(compiled, delta=atoms, delta_position=position)
                )
        return pending

    def _process_firings(
        self, pending: List[Tuple[CompiledRule, EncodedRule, tuple]]
    ) -> List[Atom]:
        fresh: List[Atom] = []
        for compiled, encoded, payload in pending:
            for _, head in self._support.record_firing_binding(
                compiled, encoded, payload
            ):
                if self._add_atom(head):
                    fresh.append(head)
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaterializedView({len(self._index)} atoms, "
            f"{len(self._support.derivations)} support records, "
            f"{len(self._strat.strata)} strata)"
        )
