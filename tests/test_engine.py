"""Unit tests for the repro.engine subsystem.

Covers the multi-key :class:`RelationIndex` (access patterns, lazy hash-index
construction, delta tracking), the storage backends (memory and the add-only
overlay), the join planner (bound-connectivity / smallest-relation-first
ordering) and the semi-naive fixpoint driver (equivalence with a naive
reference evaluation).
"""

from __future__ import annotations

import pytest

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant, Variable
from repro.engine import (
    EngineStatistics,
    GroundProgramEvaluator,
    MemoryBackend,
    OverlayBackend,
    OverlayRelationIndex,
    RelationIndex,
    RelationSnapshot,
    SupportTable,
    VersionedRelationIndex,
    compile_rule,
    enumerate_matches,
    fixpoint,
    order_body,
)
from repro.errors import SolverLimitError
from repro.lp.programs import NormalProgram, NormalRule
from repro.lp.skolem import skolemize


edge = Predicate("edge", 2)
path = Predicate("path", 2)
node = Predicate("node", 1)
a, b, c, d = (Constant(n) for n in "abcd")
X, Y, Z = (Variable(n) for n in "XYZ")


def chain_atoms(n: int) -> list[Atom]:
    constants = [Constant(f"v{i}") for i in range(n + 1)]
    return [edge(constants[i], constants[i + 1]) for i in range(n)]


# ---------------------------------------------------------------------------
# RelationIndex
# ---------------------------------------------------------------------------


class TestRelationIndex:
    def test_basic_set_semantics(self):
        index = RelationIndex([edge(a, b), edge(b, c)])
        assert len(index) == 2
        assert edge(a, b) in index
        assert edge(a, c) not in index
        assert not index.add(edge(a, b))  # duplicate
        assert index.add(edge(a, c))
        assert index.atoms() == frozenset({edge(a, b), edge(b, c), edge(a, c)})

    def test_candidates_by_predicate(self):
        index = RelationIndex([edge(a, b), node(a)])
        assert set(index.candidates(edge)) == {edge(a, b)}
        assert set(index.candidates(node)) == {node(a)}
        assert list(index.candidates(path)) == []
        assert index.count(edge) == 1

    def test_candidates_for_bound_first_position(self):
        index = RelationIndex([edge(a, b), edge(a, c), edge(b, c)])
        # Pattern edge(a, X): position 0 bound by a constant.
        found = index.candidates_for(edge(a, X))
        assert set(found) == {edge(a, b), edge(a, c)}

    def test_candidates_for_bound_by_assignment(self):
        index = RelationIndex([edge(a, b), edge(b, c), edge(c, d)])
        found = index.candidates_for(edge(X, Y), {X: b})
        assert set(found) == {edge(b, c)}
        # Both positions bound -> exact lookup.
        found = index.candidates_for(edge(X, Y), {X: c, Y: d})
        assert set(found) == {edge(c, d)}

    def test_candidates_for_unbound_falls_back_to_scan(self):
        atoms = [edge(a, b), edge(b, c)]
        index = RelationIndex(atoms)
        assert set(index.candidates_for(edge(X, Y))) == set(atoms)

    def test_hash_indexes_are_lazy_and_maintained(self):
        stats = EngineStatistics()
        index = RelationIndex([edge(a, b), edge(b, c)], statistics=stats)
        assert stats.index_builds == 0
        index.candidates_for(edge(a, X))
        assert stats.index_builds == 1
        # Same access pattern again: no rebuild.
        index.candidates_for(edge(b, X))
        assert stats.index_builds == 1
        # Incremental maintenance on insertion.
        index.add(edge(a, d))
        assert set(index.candidates_for(edge(a, X))) == {edge(a, b), edge(a, d)}
        assert stats.index_builds == 1

    def test_compact_frees_history_but_keeps_future_deltas(self):
        index = RelationIndex([edge(a, b)])
        tick = index.tick()
        index.add(edge(b, c))
        index.compact(tick)  # forget everything before tick
        assert list(index.added_since(tick)) == [edge(b, c)]
        with pytest.raises(ValueError, match="compacted"):
            index.added_since(0)
        # Compacting beyond the log end clamps; subsequent adds still tracked.
        index.compact(index.tick())
        index.add(edge(c, d))
        assert list(index.added_since(index.tick() - 1)) == [edge(c, d)]

    def test_delta_tracking(self):
        index = RelationIndex([edge(a, b)])
        tick = index.tick()
        assert list(index.added_since(tick)) == []
        index.add(edge(b, c))
        index.add(edge(b, c))  # duplicate: not logged twice
        index.add(edge(c, d))
        assert list(index.added_since(tick)) == [edge(b, c), edge(c, d)]
        assert list(index.added_since(index.tick())) == []
        # added_since(0) replays everything, including construction atoms.
        assert list(index.added_since(0)) == [edge(a, b), edge(b, c), edge(c, d)]


# ---------------------------------------------------------------------------
# Storage backends
# ---------------------------------------------------------------------------


#: every class implementing the StorageBackend protocol, including the
#: overlay (constructed over an empty memory base).
BACKEND_FACTORIES = [
    MemoryBackend,
    lambda: OverlayBackend(MemoryBackend()),
]
BACKEND_IDS = ["memory", "overlay"]


def _insert(backend, atom) -> bool:
    return backend.insert_row(atom.predicate, backend.symbols.encode_atom(atom))


def _remove(backend, atom) -> bool:
    return backend.remove_row(atom.predicate, backend.symbols.encode_atom(atom))


class TestBackends:
    @pytest.mark.parametrize(
        "backend_factory", BACKEND_FACTORIES, ids=BACKEND_IDS
    )
    def test_backend_contract(self, backend_factory):
        backend = backend_factory()
        assert _insert(backend, edge(a, b))
        assert not _insert(backend, edge(a, b))
        assert _insert(backend, node(a))
        assert edge(a, b) in backend
        assert edge(b, a) not in backend
        assert len(backend) == 2
        assert set(backend) == {edge(a, b), node(a)}
        assert set(backend.atoms_of(edge)) == {edge(a, b)}
        assert backend.count(edge) == 1
        assert set(backend.predicates()) == {edge, node}

    def test_backend_remove_contract(self):
        backend = MemoryBackend()
        _insert(backend, edge(a, b))
        _insert(backend, edge(b, c))
        _insert(backend, node(a))
        assert _remove(backend, edge(a, b))
        assert not _remove(backend, edge(a, b))  # already gone
        assert not _remove(backend, edge(c, d))  # never present
        assert edge(a, b) not in backend
        assert len(backend) == 2
        assert set(backend) == {edge(b, c), node(a)}
        assert set(backend.atoms_of(edge)) == {edge(b, c)}
        assert backend.count(edge) == 1
        # Removal does not break re-insertion.
        assert _insert(backend, edge(a, b))
        assert edge(a, b) in backend
        assert backend.count(edge) == 2

    def test_memory_snapshot_is_stable_under_mutation(self):
        backend = MemoryBackend()
        _insert(backend, edge(a, b))
        _insert(backend, node(a))
        view = backend.snapshot()
        _insert(backend, edge(b, c))
        _remove(backend, node(a))
        # The head sees its own mutations ...
        assert set(backend) == {edge(a, b), edge(b, c)}
        # ... while the snapshot still serves the pinned contents.
        assert set(view) == {edge(a, b), node(a)}
        assert view.count(edge) == 1
        assert node(a) in view

    def test_overlay_is_add_only_over_an_untouched_base(self):
        base = MemoryBackend()
        _insert(base, edge(a, b))
        _insert(base, edge(b, c))
        overlay = OverlayBackend(base.snapshot())
        # A row the base holds is already visible: not re-stored.
        assert not _insert(overlay, edge(a, b))
        assert len(overlay.local) == 0
        # A new row lands in the private local layer.
        assert _insert(overlay, edge(c, d))
        assert set(overlay.local) == {edge(c, d)}
        assert overlay.count(edge) == 3
        # Removal raises for base, local and absent rows alike.
        for atom in (edge(a, b), edge(c, d), edge(d, a)):
            with pytest.raises(TypeError, match="add-only"):
                _remove(overlay, atom)
        assert set(overlay) == {edge(a, b), edge(b, c), edge(c, d)}
        # The base never saw any of it.
        assert set(base) == {edge(a, b), edge(b, c)}
        assert len(base) == 2


# ---------------------------------------------------------------------------
# Versioned storage: snapshots, forks, branch-tagged ticks
# ---------------------------------------------------------------------------


class TestVersionedIndex:
    def test_versioned_alias_is_relation_index(self):
        assert VersionedRelationIndex is RelationIndex

    def test_remove_maintains_hash_indexes_and_deltas(self):
        index = RelationIndex([edge(a, b), edge(a, c), edge(b, c)])
        assert set(index.candidates_for(edge(a, X))) == {edge(a, b), edge(a, c)}
        assert index.remove(edge(a, b))
        assert not index.remove(edge(a, b))
        assert set(index.candidates_for(edge(a, X))) == {edge(a, c)}
        assert edge(a, b) not in index
        assert len(index) == 2
        # The removed atom was withdrawn from the retained delta log.
        assert edge(a, b) not in index.added_since(0)

    def test_remove_preserves_outstanding_ticks(self):
        # Removal must not shift tick positions: a tick taken before a
        # removal still sees exactly the atoms added after it.
        index = RelationIndex()
        index.add(edge(a, b))
        index.add(edge(b, c))
        tick = index.tick()
        index.remove(edge(a, b))
        index.add(edge(c, d))
        assert list(index.added_since(tick)) == [edge(c, d)]
        assert list(index.added_since(0)) == [edge(b, c), edge(c, d)]
        # Compacting over blanked entries keeps later deltas intact.
        index.compact(tick)
        mark = index.tick()
        index.add(edge(a, d))
        assert list(index.added_since(mark)) == [edge(a, d)]

    def test_snapshot_shares_tables_and_survives_head_mutation(self):
        stats = EngineStatistics()
        head = RelationIndex([edge(a, b), edge(b, c)], statistics=stats)
        head.candidates_for(edge(a, X))  # build the (edge, {0}) table
        assert stats.index_builds == 1
        view = head.snapshot()
        assert stats.snapshots_taken == 1
        assert stats.pattern_tables_shared == 1
        # Shared lookup, no rebuild.
        assert set(view.candidates_for(edge(a, X))) == {edge(a, b)}
        assert stats.index_builds == 1
        # Head mutation copies the shared table; the snapshot keeps the old.
        head.add(edge(a, d))
        assert stats.pattern_tables_copied == 1
        assert set(head.candidates_for(edge(a, X))) == {edge(a, b), edge(a, d)}
        assert set(view.candidates_for(edge(a, X))) == {edge(a, b)}
        assert edge(a, d) not in view
        assert len(view) == 2

    def test_snapshot_cold_pattern_builds_on_head_while_current(self):
        stats = EngineStatistics()
        head = RelationIndex([edge(a, b), edge(b, c)], statistics=stats)
        view = head.snapshot()
        # Cold pattern: built once on the head (so it persists), then shared.
        assert set(view.candidates_for(edge(X, c))) == {edge(b, c)}
        assert stats.index_builds == 1
        assert set(head.candidates_for(edge(X, c))) == {edge(b, c)}
        assert stats.index_builds == 1  # the head reuses the same table
        # A second snapshot shares it again without rebuilding.
        second = head.snapshot()
        assert set(second.candidates_for(edge(X, c))) == {edge(b, c)}
        assert stats.index_builds == 1

    def test_fork_layers_additions(self):
        stats = EngineStatistics()
        head = RelationIndex([edge(a, b), edge(b, c)], statistics=stats)
        head.candidates_for(edge(a, X))
        fork = head.fork()
        assert isinstance(fork, OverlayRelationIndex)
        assert stats.forks_created == 1
        # Reads fall through to the base.
        assert set(fork.candidates_for(edge(a, X))) == {edge(a, b)}
        assert edge(b, c) in fork
        # Writes stay in the overlay.
        fork.add(edge(a, d))
        assert set(fork.candidates_for(edge(a, X))) == {edge(a, b), edge(a, d)}
        assert edge(a, d) in fork
        assert len(fork) == 3
        assert fork.count(edge) == 3
        # The head never sees any of it.
        assert head.atoms() == frozenset({edge(a, b), edge(b, c)})
        assert set(head.candidates_for(edge(a, X))) == {edge(a, b)}
        # No O(|base|) work happened: only overlay-local tables were built.
        assert stats.index_builds <= 2
        assert stats.pattern_tables_copied == 0

    def test_fork_is_add_only_and_a_leaf(self):
        head = RelationIndex([edge(a, b), edge(a, c)])
        fork = head.fork()
        fork.add(edge(a, d))
        never_interned = edge(Constant("never-interned"), a)
        # A protected atom stays alive, so a cascade would never reach
        # ``remove``: the fork must refuse before the table changes.
        support = SupportTable()
        support.base.update({edge(a, b), edge(a, d)})
        support.protected.add(edge(a, c))
        for atom in (edge(a, b), edge(a, c), edge(a, d), never_interned):
            with pytest.raises(TypeError):
                fork.remove(atom)
            with pytest.raises(TypeError):
                fork.retract(atom)
            with pytest.raises(TypeError):
                fork.retract(atom, support=support)
        with pytest.raises(TypeError):
            fork.remove_row(edge, fork.symbols.encode_atom(edge(a, b)))
        # The failed removals left the branch and the table as they were.
        assert support.base == {edge(a, b), edge(a, d)}
        assert support.protected == {edge(a, c)}
        assert len(fork) == 3
        assert fork.count(edge) == 3
        assert set(fork.candidates_for(edge(a, X))) == {
            edge(a, b), edge(a, c), edge(a, d)
        }
        # A fork is a leaf: branch off the head instead.
        with pytest.raises(TypeError):
            fork.snapshot()
        with pytest.raises(TypeError):
            fork.fork()
        assert head.atoms() == frozenset({edge(a, b), edge(a, c)})

    def test_ticks_are_branch_tagged(self):
        head = RelationIndex([edge(a, b)])
        fork = head.fork()
        head_tick = head.tick()
        fork_tick = fork.tick()
        with pytest.raises(ValueError, match="per-branch"):
            fork.added_since(head_tick)
        with pytest.raises(ValueError, match="per-branch"):
            head.added_since(fork_tick)
        with pytest.raises(ValueError, match="per-branch"):
            fork.compact(head_tick)
        # Plain ints (legacy) are accepted against the receiving branch.
        assert list(head.added_since(0)) == [edge(a, b)]

    def test_fork_delta_log_starts_at_fork_point(self):
        head = RelationIndex([edge(a, b), edge(b, c)])
        fork = head.fork()
        # The base is not replayed into the fork's log ...
        assert list(fork.added_since(0)) == []
        tick = fork.tick()
        fork.add(edge(c, d))
        # ... but post-fork additions are tracked normally.
        assert list(fork.added_since(tick)) == [edge(c, d)]
        assert list(fork.added_since(0)) == [edge(c, d)]

    def test_fixpoint_over_fork_matches_flat_evaluation(self):
        program = NormalProgram(
            (
                NormalRule(path(X, Y), (edge(X, Y),)),
                NormalRule(path(X, Z), (edge(X, Y), path(Y, Z))),
            )
        )
        facts = chain_atoms(8)
        head = RelationIndex(facts)
        flat = fixpoint(program, facts).atoms()
        forked = fixpoint(program, index=head.fork()).atoms()
        assert forked == flat
        # The base head was left exactly as it was.
        assert head.atoms() == frozenset(facts)


# ---------------------------------------------------------------------------
# Join planner
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_compile_rule_splits_and_caches(self):
        rule = parse_program("e(X, Y), not q(X) -> p(X)")[0]
        compiled = compile_rule(rule)
        assert [atom.predicate.name for atom in compiled.positive] == ["e"]
        assert [atom.predicate.name for atom in compiled.negative] == ["q"]
        assert compile_rule(rule) is compiled  # memoised per rule object

    def test_order_prefers_bound_literal(self):
        # body: big(X), link(X, Y) with Y already bound -> link first.
        big = Predicate("big", 1)
        link = Predicate("link", 2)
        rule = NormalRule(node(X), (big(X), link(X, Y)))
        compiled = compile_rule(rule)
        index = RelationIndex([big(Constant(f"c{i}")) for i in range(10)])
        index.update([link(a, b)])
        plan = order_body(compiled, index=index, bound=frozenset({Y}))
        # literal 1 (link) has a bound position, literal 0 (big) has none.
        assert plan[0] == 1

    def test_order_prefers_smaller_relation(self):
        small = Predicate("small", 1)
        large = Predicate("large", 1)
        rule = NormalRule(node(X), (large(X), small(X)))
        compiled = compile_rule(rule)
        index = RelationIndex([large(Constant(f"l{i}")) for i in range(20)])
        index.update([small(a)])
        plan = order_body(compiled, index=index)
        assert plan[0] == 1  # small/1 joins first

    def test_enumerate_matches_transitive_join(self):
        rule = NormalRule(path(X, Z), (edge(X, Y), edge(Y, Z)))
        index = RelationIndex([edge(a, b), edge(b, c), edge(c, d)])
        found = {
            (assignment[X], assignment[Z])
            for assignment in enumerate_matches(compile_rule(rule), index)
        }
        assert found == {(a, c), (b, d)}

    def test_enumerate_matches_checks_negatives(self):
        blocked = Predicate("blocked", 1)
        rule = NormalRule(node(X), (edge(X, Y),), (blocked(X),))
        index = RelationIndex([edge(a, b), edge(b, c), blocked(a)])
        found = {assignment[X] for assignment in enumerate_matches(compile_rule(rule), index)}
        assert found == {b}

    def test_delta_restriction(self):
        rule = NormalRule(path(X, Z), (edge(X, Y), edge(Y, Z)))
        index = RelationIndex([edge(a, b), edge(b, c), edge(c, d)])
        # Restrict literal 0 to a delta of just edge(b, c): only (b, d) joins.
        found = {
            (assignment[X], assignment[Z])
            for assignment in enumerate_matches(
                compile_rule(rule), index, delta=[edge(b, c)], delta_position=0
            )
        }
        assert found == {(b, d)}


# ---------------------------------------------------------------------------
# Semi-naive fixpoint vs naive reference
# ---------------------------------------------------------------------------


def naive_fixpoint(program, facts):
    """Reference least-fixpoint: full re-evaluation every round (the seed way)."""
    from repro.core.homomorphism import AtomIndex, extend_homomorphisms

    derived = set(facts)
    for rule in program:
        if rule.is_fact and rule.head.is_ground:
            derived.add(rule.head)
    index = AtomIndex(derived)
    changed = True
    while changed:
        changed = False
        for rule in program:
            if rule.is_fact:
                continue
            for assignment in extend_homomorphisms(list(rule.positive_body), index):
                head = rule.substitute(assignment).head
                if head.is_ground and head not in derived:
                    derived.add(head)
                    index.add(head)
                    changed = True
    return frozenset(derived)


TRANSITIVE_CLOSURE = NormalProgram(
    (
        NormalRule(path(X, Y), (edge(X, Y),)),
        NormalRule(path(X, Z), (edge(X, Y), path(Y, Z))),
    )
)

FAMILY_PROGRAM = skolemize(
    parse_program(
        """
        person(X) -> exists Y. hasParent(X, Y)
        hasParent(X, Y) -> ancestor(X, Y)
        hasParent(X, Y), ancestor(Y, Z) -> ancestor(X, Z)
        """
    )
)


class TestSemiNaive:
    def test_matches_naive_on_transitive_closure(self):
        facts = chain_atoms(12)
        semi = fixpoint(TRANSITIVE_CLOSURE, facts).atoms()
        assert semi == naive_fixpoint(TRANSITIVE_CLOSURE, facts)
        # n edges -> n*(n+1)/2 paths.
        assert sum(1 for atom in semi if atom.predicate == path) == 12 * 13 // 2

    def test_matches_naive_on_family_ontology_with_skolems(self):
        person = Predicate("person", 1)
        facts = [person(Constant(name)) for name in ("alice", "bob", "carol")]
        semi = fixpoint(FAMILY_PROGRAM, facts, ignore_negation=True).atoms()
        assert semi == naive_fixpoint(FAMILY_PROGRAM, facts)

    def test_no_rederivation(self):
        stats = EngineStatistics()
        facts = chain_atoms(8)
        fixpoint(TRANSITIVE_CLOSURE, facts, statistics=stats)
        paths = 8 * 9 // 2
        # Every derivation is counted once: path tuples plus nothing else.
        assert stats.triggers_fired == paths

    def test_on_derive_callback(self):
        seen = []
        fixpoint(
            TRANSITIVE_CLOSURE,
            chain_atoms(3),
            on_derive=lambda atom, rule, assignment: seen.append((atom, rule)),
        )
        assert len(seen) == 3 * 4 // 2
        assert all(isinstance(rule, NormalRule) for _, rule in seen)

    def test_max_atoms_budget(self):
        with pytest.raises(SolverLimitError, match="too many"):
            fixpoint(
                TRANSITIVE_CLOSURE,
                chain_atoms(20),
                max_atoms=30,
                limit_message="too many atoms",
            )

    def test_bodyless_rules_fire_once(self):
        program = NormalProgram((NormalRule(node(a)), NormalRule(path(X, Y), (edge(X, Y),))))
        result = fixpoint(program, [edge(a, b)]).atoms()
        assert result == {node(a), edge(a, b), path(a, b)}


class TestRoundStructure:
    """Each round groups its delta by predicate once, enters no delta
    position whose predicate gained no rows, and the join programme of each
    (rule, delta position) is planned at the first fixpoint that needs it
    and reused by every later round and fixpoint over the same rules."""

    CHAIN_PROGRAM = parse_program(
        """
        edge(X, Y) -> path(X, Y)
        edge(X, Z), path(Z, Y) -> path(X, Y)
        path(X, Y), not node(Y) -> open(X, Y)
        """
    )

    def test_planning_does_not_grow_with_chain_length(self, monkeypatch):
        from repro import parse_query
        from repro.engine import planner
        from repro.query import magic_rewrite

        calls = []
        original = planner.order_body

        def counting(*args, **kwargs):
            calls.append(kwargs.get("skip", -1))
            return original(*args, **kwargs)

        monkeypatch.setattr(planner, "order_body", counting)
        query = parse_query("?(Y) :- open(v0, Y)")

        def evaluate(program, links):
            calls.clear()
            stats = EngineStatistics()
            answers = program.evaluate(chain_atoms(links), statistics=stats)
            assert len(answers) == links
            return len(calls), stats.iterations

        program = magic_rewrite(self.CHAIN_PROGRAM, query)
        short_plans, short_rounds = evaluate(program, 10)
        long_plans, long_rounds = evaluate(program, 40)
        assert long_rounds > short_rounds + 20
        assert short_plans > 0
        # The longer evaluation of the same rule objects plans nothing.
        assert long_plans == 0
        # A fresh rewrite has new rule objects, so it plans again.
        fresh_plans, _ = evaluate(magic_rewrite(self.CHAIN_PROGRAM, query), 40)
        assert fresh_plans > 0

    def test_empty_delta_positions_are_never_entered(self, monkeypatch):
        from repro.engine import seminaive

        entered = []
        original = seminaive.enumerate_bindings

        def recording(encoded, index, **kwargs):
            position = kwargs.get("delta_position")
            if position is not None:
                predicate = encoded.positive[position][0]
                rows = kwargs["delta_rows"]
                assert rows and all(p == predicate for p, _ in rows)
                entered.append(predicate)
            return original(encoded, index, **kwargs)

        monkeypatch.setattr(seminaive, "enumerate_bindings", recording)
        result = fixpoint(TRANSITIVE_CLOSURE, chain_atoms(6))
        assert sum(1 for atom in result.atoms() if atom.predicate == path) == 21
        # edge never grows after the seed facts, so its delta position in
        # the recursive rule is skipped every round; path's is entered.
        assert path in entered
        assert edge not in entered


# ---------------------------------------------------------------------------
# GroundProgramEvaluator
# ---------------------------------------------------------------------------


class TestGroundProgramEvaluator:
    def test_least_model_matches_reference(self):
        program = NormalProgram(
            (
                NormalRule(node(a)),
                NormalRule(node(b), (node(a),)),
                NormalRule(node(c), (node(d),)),  # never fires
            )
        )
        assert GroundProgramEvaluator(program).least_model() == {node(a), node(b)}

    def test_reduct_least_model_blocks_rules(self):
        p, q, r = (Predicate(n, 0)() for n in "pqr")
        program = NormalProgram(
            (
                NormalRule(p),
                NormalRule(q, (p,), (r,)),  # q <- p, not r
                NormalRule(r, (p,), (q,)),  # r <- p, not q
            )
        )
        evaluator = GroundProgramEvaluator(program)
        # Reduct w.r.t. {q}: rule for r is blocked, rule for q survives.
        assert evaluator.reduct_least_model({q}) == {p, q}
        # Reduct w.r.t. {} keeps both negative rules.
        assert evaluator.reduct_least_model(frozenset()) == {p, q, r}

    def test_duplicate_body_atoms_handled(self):
        p = Predicate("p", 0)()
        q = Predicate("q", 0)()
        program = NormalProgram((NormalRule(p), NormalRule(q, (p, p))))
        assert GroundProgramEvaluator(program).least_model() == {p, q}
