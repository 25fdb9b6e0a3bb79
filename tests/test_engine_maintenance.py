"""Incremental maintenance: SupportTable and MaterializedView.

Covers support recording, the counting cascade (non-recursive strata),
Delete-and-Rederive (recursive strata, survivors rescued), cross-stratum
negation repair in both directions, net-change reporting, and the
observability counters.  The randomized parity sweep lives in
``tests/test_engine_parity.py`` (``TestMaintenanceParity``) next to the
other reference-evaluator harnesses.
"""

from __future__ import annotations

import pytest

from repro import parse_database, parse_program
from repro.core.atoms import Predicate
from repro.core.terms import Constant
from repro.engine import (
    EngineStatistics,
    MaterializedView,
    SupportTable,
    fixpoint,
)
from repro.engine.intern import global_symbols
from repro.query import evaluate_stratified

A, B, C, D = (Constant(n) for n in "abcd")
LINK = Predicate("link", 2)
REACH = Predicate("reach", 2)

REACH_RULES = parse_program(
    """
    link(X, Y) -> reach(X, Y)
    link(X, Z), reach(Z, Y) -> reach(X, Y)
    """
)

DIAMOND = parse_database("link(a, b). link(b, c). link(a, c). link(c, d).")


STAFFING_RULES = parse_program(
    """
    employee(X, D) -> staffed(D)
    staffed(D) -> active(D)
    """
)
STAFFING = parse_database(
    "employee(ann, law). employee(bob, law). employee(eve, it)."
)
EMPLOYEE = Predicate("employee", 2)
STAFFED, ACTIVE = Predicate("staffed", 1), Predicate("active", 1)
LAW, IT = Constant("law"), Constant("it")


class TestSupportTable:
    """The derivation records the fixpoint driver's ``on_fire`` hook feeds."""

    def test_recording_is_deduplicated(self):
        stats = EngineStatistics()
        rules = parse_program("p(X, Y) -> q(X)\np(X, Y) -> q(X)")
        facts = parse_database("p(a, b). p(a, c).").atoms
        table = SupportTable(statistics=stats)
        fixpoint(rules, facts, on_fire=table.record_firing_binding)
        # Two identical rules, two facts: 2 distinct records for q(a) (one
        # per body atom — the rules collapse structurally in normalize, but
        # parse keeps them distinct objects, so up to 4; dedup is per
        # (rule, head, body) key and must match the table size exactly.
        assert stats.supports_recorded == len(table.derivations)
        # Records are keyed on (predicate, row) entries, not atoms.
        q_a = Predicate("q", 1)(A)
        entry = (q_a.predicate, global_symbols().encode_atom(q_a))
        assert len(table.supports[entry]) == stats.supports_recorded


class TestMaterializedViewCounting:
    def test_second_support_keeps_derived_atoms(self):
        view = MaterializedView(STAFFING_RULES, STAFFING.atoms)
        delta = view.apply_delta(deletions=[EMPLOYEE(Constant("ann"), LAW)])
        assert delta.removed == {EMPLOYEE(Constant("ann"), LAW)}
        assert not delta.added
        assert STAFFED(LAW) in view and ACTIVE(LAW) in view

    def test_losing_last_support_cascades(self):
        view = MaterializedView(STAFFING_RULES, STAFFING.atoms)
        view.apply_delta(deletions=[EMPLOYEE(Constant("ann"), LAW)])
        delta = view.apply_delta(deletions=[EMPLOYEE(Constant("bob"), LAW)])
        assert delta.removed == {
            EMPLOYEE(Constant("bob"), LAW), STAFFED(LAW), ACTIVE(LAW)
        }
        assert STAFFED(LAW) not in view and ACTIVE(LAW) not in view
        # The unrelated department is untouched.
        assert STAFFED(IT) in view and ACTIVE(IT) in view

    def test_addition_delta_matches_scratch(self):
        view = MaterializedView(REACH_RULES, parse_database("link(a, b).").atoms)
        delta = view.apply_delta(additions=[LINK(B, C)])
        assert LINK(B, C) in delta.added and REACH(A, C) in delta.added
        expected = evaluate_stratified(
            REACH_RULES, parse_database("link(a, b). link(b, c).").atoms
        ).atoms()
        assert view.atoms() == expected

    def test_deleting_underived_fact_is_noop(self):
        view = MaterializedView(REACH_RULES, DIAMOND.atoms)
        delta = view.apply_delta(deletions=[LINK(D, A)])
        assert not delta.added and not delta.removed

    def test_deleting_derived_only_atom_is_noop(self):
        view = MaterializedView(REACH_RULES, DIAMOND.atoms)
        before = view.atoms()
        delta = view.apply_delta(deletions=[REACH(A, D)])
        assert not delta
        assert view.atoms() == before

    def test_base_fact_survives_while_still_derived(self):
        rules = parse_program("p(X) -> q(X)\nq(X) -> r(X)")
        q = Predicate("q", 1)
        facts = parse_database("p(a). q(a).").atoms  # q(a) is base AND derived
        view = MaterializedView(rules, facts)
        delta = view.apply_delta(deletions=[q(A)])
        # Base status gone, derivation remains: nothing leaves the view.
        assert not delta.removed
        assert q(A) in view
        # Now delete the deriving fact: q(a) has no support left.
        delta = view.apply_delta(deletions=[Predicate("p", 1)(A)])
        assert q(A) in delta.removed and Predicate("r", 1)(A) in delta.removed

    def test_non_recursive_strata_use_counting_not_dred(self):
        # edge, hop and two share stratum 0 (positive deps never raise
        # strata) but nothing is recursive: deletions must go through the
        # exact counting cascade, with zero tentative over-deletions.
        stats = EngineStatistics()
        rules = parse_program(
            """
            edge(X, Y) -> hop(X, Y)
            hop(X, Y), edge(Y, Z) -> two(X, Z)
            """
        )
        edge = Predicate("edge", 2)
        facts = parse_database("edge(a, b). edge(b, c).").atoms
        view = MaterializedView(rules, facts, statistics=stats)
        delta = view.apply_delta(deletions=[edge(A, B)])
        assert Predicate("two", 2)(A, C) in delta.removed
        assert stats.overdeletions == 0 and stats.rederivations == 0
        assert view.atoms() == evaluate_stratified(
            rules, set(facts) - {edge(A, B)}
        ).atoms()

    def test_overlapping_addition_and_deletion_addition_wins(self):
        view = MaterializedView(REACH_RULES, DIAMOND.atoms)
        before = view.atoms()
        # Same atom in both sets, existing base fact: delete then re-add.
        delta = view.apply_delta(additions=[LINK(B, C)], deletions=[LINK(B, C)])
        assert not delta
        assert view.atoms() == before
        assert LINK(B, C) in view.base_facts
        # Same atom in both sets, previously absent: the add wins too.
        delta = view.apply_delta(additions=[LINK(D, A)], deletions=[LINK(D, A)])
        assert LINK(D, A) in delta.added
        assert REACH(D, B) in view

    def test_program_facts_are_protected(self):
        rules = parse_program("-> p(a)\np(X) -> q(X)")
        view = MaterializedView(rules, ())
        p = Predicate("p", 1)
        assert p(A) in view
        delta = view.apply_delta(deletions=[p(A)])
        assert not delta
        assert p(A) in view and Predicate("q", 1)(A) in view


class TestMaterializedViewDRed:
    def test_survivor_is_rederived_through_alternative_route(self):
        stats = EngineStatistics()
        view = MaterializedView(REACH_RULES, DIAMOND.atoms, statistics=stats)
        delta = view.apply_delta(deletions=[LINK(B, C)])
        assert set(delta.removed) == {LINK(B, C), REACH(B, C), REACH(B, D)}
        assert not delta.added
        # a's reachability survived through the direct a->c link...
        assert REACH(A, C) in view and REACH(A, D) in view
        # ...which required over-deletion followed by rederivation.
        assert stats.overdeletions > len(delta.removed)
        assert stats.rederivations >= 2
        expected = evaluate_stratified(
            REACH_RULES, set(DIAMOND.atoms) - {LINK(B, C)}
        ).atoms()
        assert view.atoms() == expected

    def test_bridge_deletion_removes_downstream_closure(self):
        chain = parse_database("link(a, b). link(b, c). link(c, d).")
        view = MaterializedView(REACH_RULES, chain.atoms)
        delta = view.apply_delta(deletions=[LINK(B, C)])
        assert REACH(A, D) in delta.removed and REACH(B, C) in delta.removed
        assert view.atoms() == evaluate_stratified(
            REACH_RULES, set(chain.atoms) - {LINK(B, C)}
        ).atoms()

    def test_mixed_batch_addition_and_deletion(self):
        view = MaterializedView(REACH_RULES, DIAMOND.atoms)
        delta = view.apply_delta(additions=[LINK(D, A)], deletions=[LINK(A, C)])
        facts = (set(DIAMOND.atoms) - {LINK(A, C)}) | {LINK(D, A)}
        assert view.atoms() == evaluate_stratified(REACH_RULES, facts).atoms()
        # The cycle d->a->b->c->d makes every node reach every other.
        assert REACH(D, B) in delta.added

    def test_cyclic_support_does_not_survive_counting_style(self):
        # a <-> b cycle plus an external anchor: deleting the anchor must
        # kill the whole cycle even though the cycle members support each
        # other (the case plain counting gets wrong).
        rules = parse_program(
            """
            anchor(X) -> on(X)
            on(X), pair(X, Y) -> on(Y)
            """
        )
        anchor, on = Predicate("anchor", 1), Predicate("on", 1)
        facts = parse_database("anchor(a). pair(a, b). pair(b, a).").atoms
        view = MaterializedView(rules, facts)
        assert on(A) in view and on(B) in view
        delta = view.apply_delta(deletions=[anchor(A)])
        assert on(A) in delta.removed and on(B) in delta.removed
        assert view.atoms() == evaluate_stratified(
            rules, set(facts) - {anchor(A)}
        ).atoms()


class TestMaterializedViewNegation:
    RULES = parse_program(
        """
        node(X), not muted(X) -> loud(X)
        loud(X) -> noisy(X)
        """
    )
    NODE, MUTED = Predicate("node", 1), Predicate("muted", 1)
    LOUD, NOISY = Predicate("loud", 1), Predicate("noisy", 1)

    def test_deletion_below_negation_adds_above(self):
        facts = parse_database("node(a). node(b). muted(a).").atoms
        view = MaterializedView(self.RULES, facts)
        assert self.LOUD(A) not in view
        delta = view.apply_delta(deletions=[self.MUTED(A)])
        assert self.LOUD(A) in delta.added and self.NOISY(A) in delta.added
        assert view.atoms() == evaluate_stratified(
            self.RULES, set(facts) - {self.MUTED(A)}
        ).atoms()

    def test_addition_below_negation_deletes_above(self):
        facts = parse_database("node(a). node(b).").atoms
        view = MaterializedView(self.RULES, facts)
        assert self.LOUD(B) in view
        delta = view.apply_delta(additions=[self.MUTED(B)])
        assert self.LOUD(B) in delta.removed and self.NOISY(B) in delta.removed
        assert view.atoms() == evaluate_stratified(
            self.RULES, set(facts) | {self.MUTED(B)}
        ).atoms()


class TestCountersAndBudget:
    def test_deltas_applied_counts_calls(self):
        stats = EngineStatistics()
        view = MaterializedView(REACH_RULES, DIAMOND.atoms, statistics=stats)
        view.apply_delta(deletions=[LINK(C, D)])
        view.apply_delta(additions=[LINK(C, D)])
        assert stats.deltas_applied == 2

    def test_rederivations_bounded_by_cone_not_db(self):
        # Many disjoint chains; deleting one edge of one chain must not do
        # work proportional to the other chains.
        atoms = [
            LINK(Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}"))
            for c in range(40)
            for i in range(8)
        ]
        stats = EngineStatistics()
        view = MaterializedView(REACH_RULES, atoms, statistics=stats)
        total = len(view)
        stats.reset()
        view.apply_delta(deletions=[LINK(Constant("n0_3"), Constant("n0_4"))])
        touched = stats.overdeletions + stats.rederivations
        # The affected cone is one chain (at most ~8*8 reach atoms), two
        # orders below the full materialisation.
        assert touched < total / 10

    def test_max_atoms_budget_applies_to_deltas(self):
        from repro.errors import SolverLimitError

        view = MaterializedView(
            REACH_RULES, parse_database("link(a, b).").atoms, max_atoms=4
        )
        with pytest.raises(SolverLimitError):
            view.apply_delta(
                additions=[LINK(B, C), LINK(C, D), LINK(D, A)]
            )
