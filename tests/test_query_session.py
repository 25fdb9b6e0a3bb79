"""QuerySession caching/invalidation and the rewired consumer layers."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import parse_database, parse_program, parse_query
from repro.chase import query_driven_chase, restricted_chase
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant
from repro.engine import RelationIndex
from repro.errors import StratificationError
from repro.obs import MetricsRegistry
from repro.encodings import DenialConstraint, consistent_answers, subset_repairs
from repro.lp import ground_program, ground_program_for_query, skolemize
from repro.query import (
    QuerySession,
    compile_query_plan,
    full_fixpoint_answers,
)
from repro.stable import cautious_answers, certain_answer

RULES = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    edge(X, Z), path(Z, Y) -> path(X, Y)
    """
)

DATABASE = parse_database("edge(a, b). edge(b, c). edge(x, y).")


def counted(*args, **kwargs):
    """A session over a private registry, and a reader of its
    ``session_*`` counters."""
    registry = MetricsRegistry()
    session = QuerySession(*args, metrics=registry, **kwargs)
    return session, lambda name: registry.snapshot().counters[f"session_{name}"]


class TestPlanCache:
    def test_plans_shared_across_constant_values(self):
        session, count = counted(DATABASE, RULES)
        session.answers(parse_query("?(Y) :- path(a, Y)"))
        session.answers(parse_query("?(Y) :- path(x, Y)"))
        assert count("plan_misses") == 1
        assert count("plan_hits") == 1

    def test_distinct_shapes_get_distinct_plans(self):
        session, count = counted(DATABASE, RULES)
        session.answers(parse_query("?(Y) :- path(a, Y)"))
        session.answers(parse_query("?(X) :- path(X, c)"))
        assert count("plan_misses") == 2

    @pytest.fixture
    def canonicalised(self, monkeypatch):
        """The queries ``canonicalize_query`` is called on, in order."""
        from repro.query import session as session_module

        calls = []
        canonicalize = session_module.canonicalize_query

        def counting(query):
            calls.append(query)
            return canonicalize(query)

        monkeypatch.setattr(session_module, "canonicalize_query", counting)
        return calls

    def test_an_evaluator_read_canonicalises_its_query_once(self, canonicalised):
        calls = canonicalised
        evaluator = QuerySession(DATABASE, RULES).evaluator
        base = RelationIndex(DATABASE.atoms)
        evaluator.answers(base, parse_query("?(Y) :- path(a, Y)"))  # compiles
        calls.clear()
        query = parse_query("?(Y) :- path(x, Y)")
        assert evaluator.answers(base, query) == (frozenset({(Constant("y"),)}), False)
        # The shape key and the seed's constants come from one call.
        assert len(calls) == 1

    def test_a_session_canonicalises_a_live_view_miss_once_and_a_write_never(
        self, canonicalised
    ):
        calls = canonicalised
        session, count = counted(DATABASE, RULES)
        session.answers(parse_query("?(Y) :- path(a, Y)"))  # builds the view
        session.answers(parse_query("?(Y) :- path(b, Y)"))
        calls.clear()
        assert session.answers(parse_query("?(Y) :- path(x, Y)")) == frozenset(
            {(Constant("y"),)}
        )
        # The view key and the seed's constants come from one call.
        assert len(calls) == 1
        calls.clear()
        session.add_facts([Atom(Predicate("edge", 2), (Constant("y"), Constant("a")))])
        # Each of the three cached answers is repaired with the constants
        # kept beside it.
        assert count("answers_repaired") == 3
        assert calls == []
        assert session.answers(parse_query("?(Y) :- path(x, Y)")) == frozenset(
            {(Constant(name),) for name in "yabc"}
        )

    def test_a_write_repairs_cached_answers_without_building_their_seeds(
        self, monkeypatch
    ):
        from repro.query.magic import MagicProgram

        built = []
        seed = MagicProgram.seed

        def counting(program, constants=None):
            built.append(constants)
            return seed(program, constants)

        monkeypatch.setattr(MagicProgram, "seed", counting)
        session, count = counted(DATABASE, RULES)
        for name in "abx":
            session.answers(parse_query(f"?(Y) :- path({name}, Y)"))
        assert len(built) == 3  # one per miss, kept in its cache entry
        built.clear()
        session.add_facts([Atom(Predicate("edge", 2), (Constant("y"), Constant("a")))])
        # Each of the three cached answers is repaired with the seed kept
        # beside it.
        assert count("answers_repaired") == 3
        assert built == []
        assert session.answers(parse_query("?(Y) :- path(x, Y)")) == frozenset(
            {(Constant(name),) for name in "yabc"}
        )

    def test_plan_cache_is_bounded(self):
        session, count = counted(DATABASE, RULES, plan_cache_size=1)
        session.answers(parse_query("?(Y) :- path(a, Y)"))
        session.answers(parse_query("?(X) :- path(X, c)"))
        # Same shape as the first query, but its plan was evicted by the
        # second shape (capacity 1) — it must be recompiled.
        session.answers(parse_query("?(Y) :- path(b, Y)"))
        assert count("plan_misses") == 3


class TestAnswerCache:
    def test_repeated_query_hits_cache(self):
        session, count = counted(DATABASE, RULES)
        query = parse_query("?(Y) :- path(a, Y)")
        first = session.answers(query)
        second = session.answers(query)
        assert first == second
        assert count("answer_hits") == 1

    def test_mutation_invalidates_answers(self):
        session, count = counted(DATABASE, RULES)
        query = parse_query("?(Y) :- path(a, Y)")
        before = session.answers(query)
        assert Constant("z") not in {t[0] for t in before}
        added = session.add_facts([Atom(Predicate("edge", 2), (Constant("c"), Constant("z")))])
        assert added == 1
        after = session.answers(query)
        assert (Constant("z"),) in after
        assert count("invalidations") == 1

    def test_removal_invalidates_answers(self):
        session = QuerySession(DATABASE, RULES)
        query = parse_query("?(Y) :- path(a, Y)")
        assert session.answers(query)
        removed = session.remove_facts(
            [Atom(Predicate("edge", 2), (Constant("a"), Constant("b")))]
        )
        assert removed == 1
        assert session.answers(query) == frozenset()

    def test_noop_mutation_keeps_cache(self):
        session, count = counted(DATABASE, RULES)
        query = parse_query("?(Y) :- path(a, Y)")
        session.answers(query)
        session.add_facts([Atom(Predicate("edge", 2), (Constant("a"), Constant("b")))])
        session.answers(query)
        assert count("invalidations") == 0
        assert count("answer_hits") == 1


class TestPredicateLevelInvalidation:
    RULES = parse_program(
        """
        edge(X, Y) -> path(X, Y)
        edge(X, Z), path(Z, Y) -> path(X, Y)
        colour(X) -> hue(X)
        """
    )
    DATABASE = parse_database(
        "edge(a, b). edge(b, c). colour(red). colour(blue)."
    )

    def test_unrelated_mutation_keeps_answer_cached(self):
        session, count = counted(self.DATABASE, self.RULES)
        query = parse_query("?(Y) :- path(a, Y)")
        before = session.answers(query)
        # colour/1 is outside path's dependency cone.
        session.add_facts([Atom(Predicate("colour", 1), (Constant("green"),))])
        assert session.revision == 1
        assert session.answers(query) == before
        assert count("answer_hits") == 1
        assert count("predicate_invalidations") == 1
        assert count("wholesale_invalidations") == 0
        assert count("answers_retained") == 1

    def test_related_mutation_repairs_in_place(self):
        session, count = counted(self.DATABASE, self.RULES)
        path_query = parse_query("?(Y) :- path(a, Y)")
        hue_query = parse_query("?(X) :- hue(X)")
        session.answers(path_query)
        session.answers(hue_query)
        session.add_facts(
            [Atom(Predicate("edge", 2), (Constant("c"), Constant("d")))]
        )
        # The hue answer survived untouched; the path answer was repaired in
        # place from the maintained view, so the re-query is a cache *hit*
        # that already reflects the new edge.
        assert count("answers_retained") == 1
        assert count("answers_repaired") == 1
        assert (Constant("d"),) in session.answers(path_query)
        assert session.answers(hue_query)
        assert count("answer_misses") == 2
        assert count("answer_hits") == 2

    def test_removal_is_predicate_level_too(self):
        session, count = counted(self.DATABASE, self.RULES)
        path_query = parse_query("?(Y) :- path(a, Y)")
        hue_query = parse_query("?(X) :- hue(X)")
        session.answers(path_query)
        hues = session.answers(hue_query)
        session.remove_facts(
            [Atom(Predicate("edge", 2), (Constant("a"), Constant("b")))]
        )
        # Both re-queries are hits: hue survived (disjoint cone), path was
        # repaired in place by the deletion cascade.
        assert session.answers(path_query) == frozenset()
        assert session.answers(hue_query) == hues
        assert count("answer_hits") == 2
        assert count("answers_repaired") == 1
        assert session.facts == frozenset(
            atom for atom in self.DATABASE.atoms
            if atom != Atom(Predicate("edge", 2), (Constant("a"), Constant("b")))
        )

    def test_negation_is_part_of_the_dependency_cone(self):
        rules = parse_program(
            """
            node(X), not blocked(X) -> open(X)
            """
        )
        database = parse_database("node(a). node(b).")
        session = QuerySession(database, rules)
        query = parse_query("?(X) :- open(X)")
        assert session.answers(query) == frozenset(
            {(Constant("a"),), (Constant("b"),)}
        )
        # blocked/1 only occurs *negatively* — it must still invalidate.
        session.add_facts([Atom(Predicate("blocked", 1), (Constant("a"),))])
        assert session.answers(query) == frozenset({(Constant("b"),)})

    def test_fallback_sessions_invalidate_wholesale(self):
        rules = parse_program("person(X) -> exists Y. hasFather(X, Y)")
        session, count = counted(parse_database("person(alice)."), rules)
        query = parse_query("?(X) :- person(X)")
        session.answers(query)
        session.add_facts([Atom(Predicate("person", 1), (Constant("bob"),))])
        session.answers(query)
        assert count("wholesale_invalidations") == 1
        assert count("predicate_invalidations") == 0
        assert count("answer_misses") == 2


class TestZeroRebuildSteadyState:
    """Acceptance criterion: after warm-up, an answer-cache miss performs no
    full-index rebuild.  A session miss is a magic-seed delta into the
    plan's view; a service reader miss is an overlay fork of the epoch's
    published snapshot."""

    RULES = parse_program(
        """
        link(X, Y) -> reachable(X, Y)
        link(X, Z), reachable(Z, Y) -> reachable(X, Y)
        """
    )
    LINK = Predicate("link", 2)

    def _atoms(self):
        return [
            Atom(self.LINK, (Constant(f"n{i}"), Constant(f"n{i + 1}")))
            for i in range(200)
        ]

    def test_cache_misses_are_seed_deltas_on_the_plan_view(self):
        session, count = counted(self._atoms(), self.RULES)
        session.answers(parse_query("?(Y) :- reachable(n190, Y)"))  # warm-up
        assert count("views_built") == 1
        warm_builds = count("engine_index_builds")
        assert warm_builds > 0  # the warm-up did build the view's tables
        for i in range(180, 190):  # distinct constants: all cache misses
            session.answers(parse_query(f"?(Y) :- reachable(n{i}, Y)"))
        assert count("answer_misses") == 11
        # Every miss was one apply_delta (the seed) on the same view — the
        # fact base was never re-indexed and no new plan view was built.
        assert count("views_built") == 1
        assert count("engine_index_builds") == warm_builds
        assert count("engine_deltas_applied") >= 11
        # Mutations repair the view instead of forcing rebuilds.
        session.add_facts(
            [Atom(self.LINK, (Constant("n300"), Constant("n301")))]
        )
        session.answers(parse_query("?(Y) :- reachable(n300, Y)"))
        assert count("engine_index_builds") == warm_builds
        assert count("views_built") == 1

    def test_cache_misses_reuse_base_tables_without_maintenance(self):
        """Service reader misses use no view: each forks the epoch's
        snapshot and reuses the pattern tables the warm-up built."""
        from repro.service import DatalogService

        registry = MetricsRegistry()
        with DatalogService(
            self._atoms(), self.RULES, metrics=registry
        ) as service:
            epoch = service.epoch()
            epoch.answers(parse_query("?(Y) :- reachable(n190, Y)"))  # warm-up
            before = registry.snapshot().counters
            assert before["service_snapshot_index_builds"] > 0
            for i in range(180, 190):  # distinct constants: all misses
                epoch.answers(parse_query(f"?(Y) :- reachable(n{i}, Y)"))
            after = registry.snapshot().counters
        assert after["service_read_cache_hits"] == 0
        assert (
            after["service_engine_forks_created"]
            - before["service_engine_forks_created"]
        ) == 10
        assert (
            after["service_snapshot_index_builds"]
            == before["service_snapshot_index_builds"]
        )


class TestNoStaleAnswersUnderMutation:
    """Property test: predicate-level invalidation never serves a stale
    answer — every session answer equals a from-scratch evaluation over the
    session's current facts."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_mutation_query_interleavings(self, seed):
        import random

        rules = parse_program(
            """
            edge(X, Y) -> path(X, Y)
            edge(X, Z), path(Z, Y) -> path(X, Y)
            colour(X) -> hue(X)
            node(X), not muted(X) -> loud(X)
            """
        )
        rng = random.Random(seed)
        edge = Predicate("edge", 2)
        colour = Predicate("colour", 1)
        node = Predicate("node", 1)
        muted = Predicate("muted", 1)
        constants = [Constant(f"c{i}") for i in range(5)]
        universe = (
            [Atom(edge, (x, y)) for x in constants for y in constants]
            + [Atom(colour, (x,)) for x in constants]
            + [Atom(node, (x,)) for x in constants]
            + [Atom(muted, (x,)) for x in constants]
        )
        queries = [
            parse_query("?(Y) :- path(c0, Y)"),
            parse_query("?(Y) :- path(c1, Y)"),
            parse_query("?(X) :- hue(X)"),
            parse_query("?(X) :- loud(X)"),
            parse_query("? :- path(c0, c3)"),
        ]
        session = QuerySession(rng.sample(universe, 10), rules)
        for _ in range(60):
            action = rng.random()
            if action < 0.3:
                session.add_facts([rng.choice(universe)])
            elif action < 0.5:
                pool = sorted(session.facts, key=lambda a: a.sort_key())
                if pool:
                    session.remove_facts([rng.choice(pool)])
            else:
                query = rng.choice(queries)
                expected = full_fixpoint_answers(
                    session.facts, rules, query
                )
                assert session.answers(query) == expected


class TestMaintainedViewRobustness:
    def test_budget_overflow_on_seed_never_serves_corrupt_answers(self):
        from repro.errors import SolverLimitError

        link = Predicate("link", 2)
        atoms = [
            Atom(link, (Constant(f"x{i}"), Constant(f"x{i + 1}")))
            for i in range(30)
        ]
        rules = parse_program(
            """
            link(X, Y) -> reachable(X, Y)
            link(X, Z), reachable(Z, Y) -> reachable(X, Y)
            """
        )
        session = QuerySession(atoms, rules, max_atoms=40)
        query = parse_query("?(Y) :- reachable(x0, Y)")
        with pytest.raises(SolverLimitError):
            session.answers(query)
        # The half-injected view was dropped: the same query must fail the
        # same way again, never silently return a partial answer set.
        with pytest.raises(SolverLimitError):
            session.answers(query)

    def test_budget_is_per_evaluation_not_cumulative_across_seeds(self):
        # Six disjoint link-chains with transitive closure: any single
        # query's cone fits comfortably inside the budget, but the shared
        # maintained view accumulates every seed's cone and would trip it
        # around the fourth query.  The budget semantics are documented as
        # per evaluation, so every query must succeed (falling back to a
        # throwaway fork when the cumulative view overflows) and agree with
        # a full fixpoint, in any query order.
        link = Predicate("link", 2)
        atoms = [
            Atom(link, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
            for c in range(6)
            for i in range(6)
        ]
        rules = parse_program(
            """
            link(X, Y) -> reachable(X, Y)
            link(X, Z), reachable(Z, Y) -> reachable(X, Y)
            """
        )
        maintained = QuerySession(atoms, rules, max_atoms=150)
        for c in range(6):
            query = parse_query(f"?(Y) :- reachable(n{c}_0, Y)")
            assert maintained.answers(query) == full_fixpoint_answers(
                atoms, rules, query
            )
            assert maintained.answers(query) == frozenset(
                {(Constant(f"n{c}_{i}"),) for i in range(1, 7)}
            )

    def test_seed_pruning_past_cap_stays_correct_and_bounded(self):
        link = Predicate("link", 2)
        atoms = [
            Atom(link, (Constant(f"c{i}_a"), Constant(f"c{i}_b")))
            for i in range(30)
        ]
        rules = parse_program("link(X, Y) -> reachable(X, Y)")
        session = QuerySession(atoms, rules, answer_cache_size=4)
        session._view_seed_cap = 8  # force pruning with a small working set
        # Far more distinct seeds than the cap: cold seeds are pruned from
        # the view as deletion deltas, yet every answer stays correct —
        # including re-asking a pruned constant (re-seeded incrementally)
        # and across a mutation after pruning.
        for i in range(30):
            answers = session.answers(parse_query(f"?(Y) :- reachable(c{i}_a, Y)"))
            assert answers == frozenset({(Constant(f"c{i}_b"),)})
        view_entry = next(iter(session._views.values()))
        assert len(view_entry.seeds) <= 8
        assert session.answers(parse_query("?(Y) :- reachable(c0_a, Y)")) == frozenset(
            {(Constant("c0_b"),)}
        )
        session.remove_facts([Atom(link, (Constant("c29_a"), Constant("c29_b")))])
        assert session.answers(parse_query("?(Y) :- reachable(c29_a, Y)")) == frozenset()
        assert session.answers(parse_query("?(Y) :- reachable(c28_a, Y)")) == frozenset(
            {(Constant("c28_b"),)}
        )

    def test_distinct_seeds_cache_no_generated_atoms(self):
        """The view records support on int rows: answering many distinct
        seeds through it, and repairing it under a deletion, puts no atom
        of the plan's magic or adorned predicates into the process-wide
        atom cache, which nothing evicts.  (Recording decoded atoms left
        40 644 of them cached after 1 500 reads over 64x24 chains.)"""
        from repro.engine.intern import global_symbols

        # Names no other test uses, so these predicates' caches start empty.
        link = Predicate("uncached_link", 2)
        atoms = [
            Atom(link, (Constant(f"u{c}_{i}"), Constant(f"u{c}_{i + 1}")))
            for c in range(8)
            for i in range(8)
        ]
        rules = parse_program(
            """
            uncached_link(X, Y) -> uncached_reachable(X, Y)
            uncached_link(X, Z), uncached_reachable(Z, Y) -> uncached_reachable(X, Y)
            """
        )
        session = QuerySession(atoms, rules)

        def query(c, i):
            return parse_query(f"?(Y) :- uncached_reachable(u{c}_{i}, Y)")

        for c in range(8):
            for i in range(8):
                assert session.answers(query(c, i)) == frozenset(
                    (Constant(f"u{c}_{j}"),) for j in range(i + 1, 9)
                )
        session.remove_facts([Atom(link, (Constant("u3_4"), Constant("u3_5")))])
        assert session.answers(query(3, 0)) == frozenset(
            (Constant(f"u3_{j}"),) for j in range(1, 5)
        )
        program = session.plan_for(query(0, 0)).program
        generated = {
            atom.predicate
            for rule in program.rules
            for atom in (rule.head, *rule.positive_body)
            if atom.predicate.generated
        }
        view = next(iter(session._views.values())).view
        assert sum(view.index.count(predicate) for predicate in generated) > 64
        # The goal predicate is named alike for every query of this shape,
        # so only this view's rows (over constants no other test uses) are
        # looked up.
        symbols = global_symbols()
        cached = [
            (predicate, row)
            for predicate in generated
            for row in view.index.rows_of(predicate)
            if row in symbols.atom_cache(predicate)
        ]
        assert cached == []


class TestStableFastPath:
    def test_certain_answer_fast_path_matches_enumeration(self):
        query = parse_query("? :- path(a, c)")
        assert certain_answer(DATABASE, RULES, query) is True
        assert certain_answer(DATABASE, RULES, query, goal_directed=False) is True

    def test_cautious_answers_fast_path_matches_enumeration(self):
        query = parse_query("?(Y) :- path(a, Y)")
        fast = cautious_answers(DATABASE, RULES, query)
        slow = cautious_answers(DATABASE, RULES, query, goal_directed=False)
        assert fast == slow


class TestCqaPlanReuse:
    def test_consistent_answers_matches_naive_reference(self):
        manager = Predicate("manager", 1)
        intern = Predicate("intern", 1)
        from repro.core.terms import Variable

        x = Variable("X")
        constraint = DenialConstraint((manager(x), intern(x)))
        database = parse_database(
            "manager(ann). manager(eve). intern(ann). intern(bob)."
        )
        query = parse_query("?(X) :- manager(X)")
        answers = consistent_answers(database, [constraint], query)
        # Naive reference: evaluate the query per repair with the classic
        # homomorphism matcher.
        repairs = subset_repairs(database, [constraint])
        expected = None
        for repair in repairs:
            current = set(query.answers(repair))
            expected = current if expected is None else expected & current
        assert answers == frozenset(expected)
        assert answers == frozenset({(Constant("eve"),)})

    def test_repairs_run_as_deletion_deltas(self):
        from repro.engine import EngineStatistics

        manager = Predicate("manager", 1)
        intern = Predicate("intern", 1)
        from repro.core.terms import Variable

        x = Variable("X")
        constraint = DenialConstraint((manager(x), intern(x)))
        database = parse_database(
            "manager(ann). manager(eve). manager(joe). manager(sue)."
            " intern(ann). intern(joe). intern(sue). intern(zed)."
        )
        repairs = subset_repairs(database, [constraint])
        assert len(repairs) > 2
        # A constant-bound query exercises the hash-indexed lookup path.
        query = parse_query("? :- manager(eve), intern(zed)")
        statistics = EngineStatistics()
        answers = consistent_answers(
            database, [constraint], query, statistics=statistics
        )
        assert answers == frozenset({()})
        # The plan was materialised once; each repair cost exactly two
        # deltas (apply the removals, restore them) on the shared view —
        # no per-repair plan evaluation, no per-repair re-indexing.
        assert statistics.deltas_applied == 2 * len(repairs)
        assert statistics.forks_created == 0
        # Hash tables are built once per access pattern of the plan — a
        # constant of the query shape — never once per repair.
        assert 0 < statistics.index_builds < len(repairs)


class TestQueryRelevantGrounding:
    def test_sliced_grounding_preserves_query_atoms(self):
        rules = parse_program(
            """
            edge(X, Y) -> path(X, Y)
            edge(X, Z), path(Z, Y) -> path(X, Y)
            colour(X) -> hue(X)
            hue(X), not muted(X) -> vivid(X)
            """
        )
        database = parse_database("edge(a, b). edge(b, c). colour(a). colour(b).")
        program = skolemize(rules).with_facts(database.atoms)
        query = parse_query("?(Y) :- path(a, Y)")

        full = ground_program(program)
        sliced = ground_program_for_query(program, query)
        assert len(sliced) < len(full)

        path = Predicate("path", 2)
        # Compare the groundings directly: unique stable model each (the
        # program is stratified), restricted to the query predicate.
        from repro.lp import stable_models_ground

        full_atoms = {
            frozenset(a for a in model if a.predicate == path)
            for model in stable_models_ground(full)
        }
        sliced_atoms = {
            frozenset(a for a in model if a.predicate == path)
            for model in stable_models_ground(sliced)
        }
        assert full_atoms == sliced_atoms


class TestQueryDrivenChase:
    def test_sliced_chase_agrees_on_query_answers(self):
        rules = parse_program(
            """
            employee(X) -> exists D. worksIn(X, D)
            worksIn(X, D) -> department(D)
            customer(X) -> exists A. hasAccount(X, A)
            hasAccount(X, A) -> account(A)
            """
        )
        database = parse_database("employee(e1). employee(e2). customer(c1).")
        query = parse_query("?(X) :- department(X)")

        full = restricted_chase(database, rules)
        sliced = query_driven_chase(database, rules, query)
        assert sliced.terminated
        # The sliced run must not invent account nulls at all.
        assert all(
            atom.predicate.name not in ("hasAccount", "account")
            for step in sliced.steps
            for atom in step.added
        )
        department = Predicate("department", 1)
        full_departments = {a for a in full.atoms if a.predicate == department}
        sliced_departments = {a for a in sliced.atoms if a.predicate == department}
        assert len(full_departments) == len(sliced_departments)
        assert len(sliced.steps) < len(full.steps)


class TestFallbackBehaviour:
    def test_strict_session_raises_outside_fragment(self):
        rules = parse_program("person(X) -> exists Y. hasFather(X, Y)")
        database = parse_database("person(alice).")
        session = QuerySession(database, rules, fallback=False)
        with pytest.raises(Exception):
            session.answers(parse_query("?(X) :- person(X)"))

    @pytest.mark.parametrize("fallback", [True, False])
    def test_out_of_fragment_reads_keep_no_base_alive(self, fallback):
        """The rules' scope error is never raised as the stored instance:
        each raise would chain the reading frames, and the bases they hold,
        onto its traceback for the session's lifetime."""
        rules = parse_program(
            """
            p(X), not q(X) -> r(X)
            p(X), not r(X) -> q(X)
            """
        )
        database = parse_database("p(a). p(b).")
        query = parse_query("?(X) :- r(X)")
        session = QuerySession(database, rules, fallback=fallback)
        evaluator = session.evaluator

        class Base(RelationIndex):  # weak-referenceable, unlike the index
            pass

        refs = []
        for _ in range(3):
            base = Base(database.atoms)
            refs.append(weakref.ref(base))
            if fallback:
                answers, fell_back = evaluator.answers(base, query)
                assert fell_back
                assert answers == cautious_answers(database, rules, query)
            else:
                with pytest.raises(StratificationError):
                    evaluator.answers(base, query)
            with pytest.raises(StratificationError):
                session.explain(query)
            del base
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_compile_query_plan_is_reusable(self):
        plan = compile_query_plan(RULES, parse_query("?(Y) :- path(a, Y)"))
        base = RelationIndex(DATABASE.atoms)
        from_a = plan.execute_on(base, parse_query("?(Y) :- path(a, Y)"))
        from_x = plan.execute_on(base, parse_query("?(Y) :- path(x, Y)"))
        assert from_a == frozenset({(Constant("b"),), (Constant("c"),)})
        assert from_x == frozenset({(Constant("y"),)})
