"""Magic-set parity suite and stratification edge cases.

The rewritten, goal-directed evaluation must agree with the naive
full-fixpoint evaluation on every query — across hand-written programs,
randomly generated stratified Datalog¬ programs, and the programs of the
fast ``examples/`` scripts (where the rules leave the rewritable fragment
and the :class:`~repro.query.QuerySession` fallback must agree with the
stable-model reference instead).
"""

from __future__ import annotations

import pytest

from repro import parse_database, parse_program, parse_query
from repro.core.queries import ConjunctiveQuery, certain_answers
from repro.core.terms import Constant, Variable
from repro.errors import StratificationError, UnsupportedClassError
from repro.generators import random_database, random_stratified_datalog
from repro.engine import RelationIndex
from repro.obs import MetricsRegistry
from repro.query import (
    QuerySession,
    evaluate_stratified,
    full_fixpoint_answers,
    magic_rewrite,
    normalize_rules,
    perfect_model,
    stratify,
)
from repro.stable import cautious_answers

TRANSITIVE_CLOSURE = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    edge(X, Z), path(Z, Y) -> path(X, Y)
    """
)

CHAIN = parse_database(
    """
    edge(a, b). edge(b, c). edge(c, d).
    edge(u, v). edge(v, w). edge(w, u).
    """
)


class TestMagicParityHandwritten:
    def test_bound_free_parity(self):
        session = QuerySession(CHAIN, TRANSITIVE_CLOSURE)
        query = parse_query("?(Y) :- path(a, Y)")
        assert session.answers(query) == full_fixpoint_answers(
            CHAIN, TRANSITIVE_CLOSURE, query
        )

    def test_answers_through_nulls_keep_only_constant_tuples(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Null
        from repro.query import compile_query_plan

        edge, null = Predicate("edge", 2), Null("n1")
        facts = list(CHAIN.atoms) + [
            edge(Constant("a"), null),
            edge(null, Constant("z")),
        ]
        query = parse_query("?(Y) :- path(a, Y)")
        expected = full_fixpoint_answers(facts, TRANSITIVE_CLOSURE, query)
        # z is reached through the null; the null itself is no answer.
        assert (Constant("z"),) in expected
        assert (null,) not in expected
        plan = compile_query_plan(TRANSITIVE_CLOSURE, query)
        assert plan.execute_on(RelationIndex(facts), query) == expected
        assert QuerySession(facts, TRANSITIVE_CLOSURE).answers(query) == expected

    def test_free_free_parity(self):
        session = QuerySession(CHAIN, TRANSITIVE_CLOSURE)
        query = parse_query("?(X, Y) :- path(X, Y)")
        assert session.answers(query) == full_fixpoint_answers(
            CHAIN, TRANSITIVE_CLOSURE, query
        )

    def test_boolean_parity(self):
        session = QuerySession(CHAIN, TRANSITIVE_CLOSURE)
        positive = parse_query("? :- path(a, d)")
        negative = parse_query("? :- path(a, u)")
        assert session.holds(positive)
        assert not session.holds(negative)
        assert full_fixpoint_answers(CHAIN, TRANSITIVE_CLOSURE, positive)
        assert not full_fixpoint_answers(CHAIN, TRANSITIVE_CLOSURE, negative)

    def test_negation_in_rules_parity(self):
        rules = parse_program(
            """
            edge(X, Y) -> reach(X, Y)
            reach(X, Z), edge(Z, Y) -> reach(X, Y)
            node(X), node(Y), not reach(X, Y) -> separated(X, Y)
            """
        )
        database = parse_database(
            "edge(a,b). edge(b,c). node(a). node(b). node(c). node(d)."
        )
        session = QuerySession(database, rules)
        for text in ("?(Y) :- separated(a, Y)", "?(X, Y) :- separated(X, Y)"):
            query = parse_query(text)
            assert session.answers(query) == full_fixpoint_answers(
                database, rules, query
            )

    def test_negation_in_query_parity(self):
        session = QuerySession(CHAIN, TRANSITIVE_CLOSURE)
        query = parse_query("?(Y) :- edge(a, Y), not path(Y, a)")
        assert session.answers(query) == full_fixpoint_answers(
            CHAIN, TRANSITIVE_CLOSURE, query
        )

    def test_magic_prunes_irrelevant_component(self):
        """The goal-directed run must not derive path atoms of the far component."""
        session = QuerySession(CHAIN, TRANSITIVE_CLOSURE)
        program = session.plan_for(parse_query("?(Y) :- path(a, Y)")).program
        index = evaluate_stratified(
            program.rules,
            (program.seed(),),
            base=RelationIndex(CHAIN.atoms),
            stratification=program.stratification,
        )
        derived = {
            atom
            for atom in index.atoms()
            if atom.predicate.name.startswith("path__")
        }
        sources = {atom.terms[0] for atom in derived}
        assert sources <= {Constant("a"), Constant("b"), Constant("c")}

    def test_idb_predicate_with_base_facts(self):
        """Database facts over an intensional predicate must flow into answers."""
        rules = parse_program("edge(X, Z), path(Z, Y) -> path(X, Y)")
        database = parse_database("edge(a, b). path(b, c).")
        query = parse_query("?(Y) :- path(a, Y)")
        session = QuerySession(database, rules)
        assert session.answers(query) == full_fixpoint_answers(
            database, rules, query
        )
        assert session.answers(query) == frozenset({(Constant("c"),)})


class TestMagicParityRandom:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_program_parity(self, seed):
        rules = random_stratified_datalog(
            layers=3, predicates_per_layer=2, seed=seed
        )
        stratify(rules)  # generated programs are stratified by construction
        edb = sorted(rules.extensional_predicates(), key=lambda p: p.name)
        if not edb:
            pytest.skip("degenerate draw without extensional predicates")
        database = random_database(edb, constants=5, facts=14, seed=seed)
        session = QuerySession(database, rules)
        constants = sorted(database.constants, key=lambda c: c.name)
        x, y = Variable("X"), Variable("Y")
        for predicate in sorted(
            rules.intensional_predicates(), key=lambda p: p.name
        ):
            free = ConjunctiveQuery((predicate(x, y).positive(),), (x, y))
            bound = ConjunctiveQuery(
                (predicate(constants[0], y).positive(),), (y,)
            )
            boolean = ConjunctiveQuery(
                (predicate(constants[0], constants[-1]).positive(),), ()
            )
            for query in (free, bound, boolean):
                assert session.answers(query) == full_fixpoint_answers(
                    database, rules, query
                ), f"seed={seed} query={query}"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_instance_agrees_with_stable_enumeration(self, seed):
        """Tie the rewriting to the paper's reference semantics directly."""
        rules = random_stratified_datalog(
            layers=2, predicates_per_layer=1, seed=seed
        )
        edb = sorted(rules.extensional_predicates(), key=lambda p: p.name)
        if not edb:
            pytest.skip("degenerate draw without extensional predicates")
        database = random_database(edb, constants=3, facts=3, seed=seed)
        y = Variable("Y")
        constants = sorted(database.constants, key=lambda c: c.name)
        for predicate in sorted(
            rules.intensional_predicates(), key=lambda p: p.name
        ):
            query = ConjunctiveQuery(
                (predicate(constants[0], y).positive(),), (y,)
            )
            goal_directed = QuerySession(database, rules).answers(query)
            enumerated = cautious_answers(
                database, rules, query, goal_directed=False, max_nulls=0
            )
            assert goal_directed == enumerated, f"seed={seed} query={query}"


#: The programs driven by the fast examples/ scripts (and the README): all
#: use existentials, so QuerySession must fall back — and still agree with
#: the stable-model reference.
EXAMPLE_PROGRAMS = {
    "quickstart_father": (
        """
        person(X) -> exists Y. hasFather(X, Y)
        hasFather(X, Y) -> sameAs(Y, Y)
        hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)
        """,
        "person(alice).",
        ["?(X) :- abnormal(X)", "?(X) :- person(X)"],
    ),
    "family_ontology": (
        """
        person(X) -> exists Y. hasParent(X, Y)
        hasParent(X, Y), not knownParent(X, Y) -> unknownParentage(X)
        hasParent(X, Y), knownParent(X, Y) -> documented(X)
        """,
        """
        person(carol).
        person(dave).
        knownParent(carol, dave).
        """,
        ["?(X) :- documented(X)", "? :- unknownParentage(carol)"],
    ),
}


class TestExampleProgramParity:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
    def test_session_fallback_matches_stable_reference(self, name):
        program_text, database_text, queries = EXAMPLE_PROGRAMS[name]
        rules = parse_program(program_text)
        database = parse_database(database_text)
        session = QuerySession(database, rules, stable_options={"max_nulls": 1})
        assert not session.is_goal_directed
        for text in queries:
            query = parse_query(text)
            reference = cautious_answers(
                database, rules, query, goal_directed=False, max_nulls=1
            )
            assert session.answers(query) == reference, f"{name}: {text}"


class TestStratificationEdgeCases:
    def test_two_cycle_through_negation_raises(self):
        rules = parse_program(
            """
            vertex(X), not lose(X) -> win(X)
            vertex(X), not win(X) -> lose(X)
            """
        )
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_long_negative_cycle_raises(self):
        rules = parse_program(
            """
            p(X) -> q(X)
            q(X) -> r(X)
            s(X), not r(X) -> p(X)
            """
        )
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_positive_cycle_is_fine(self):
        layered = stratify(TRANSITIVE_CLOSURE)
        assert layered.is_definite

    def test_strata_indices_respect_negation(self):
        rules = parse_program(
            """
            edge(X, Y) -> reach(X, Y)
            node(X), node(Y), not reach(X, Y) -> separated(X, Y)
            node(X), node(Y), not separated(X, Y) -> clustered(X, Y)
            """
        )
        layered = stratify(rules)
        by_name = {p.name: s for p, s in layered.stratum_of.items()}
        assert by_name["edge"] == 0 and by_name["reach"] == 0
        assert by_name["separated"] == 1
        assert by_name["clustered"] == 2

    def test_existential_rule_rejected(self):
        rules = parse_program("person(X) -> exists Y. hasFather(X, Y)")
        with pytest.raises(UnsupportedClassError):
            normalize_rules(rules)

    def test_unstratified_session_falls_back(self):
        rules = parse_program(
            """
            vertex(X), not lose(X) -> win(X)
            vertex(X), not win(X) -> lose(X)
            """
        )
        database = parse_database("vertex(a).")
        registry = MetricsRegistry()
        session = QuerySession(
            database, rules, stable_options={"max_nulls": 0}, metrics=registry
        )
        assert not session.is_goal_directed
        # Two stable models ({win(a)} and {lose(a)}): nothing is certain.
        assert session.answers(parse_query("?(X) :- win(X)")) == frozenset()
        assert registry.counter("session_fallback_queries").value == 1

    def test_unstratified_rewrite_raises(self):
        rules = parse_program("q(X), not p(X) -> p(X)")
        with pytest.raises(StratificationError):
            magic_rewrite(rules, parse_query("?(X) :- p(X)"))

    def test_perfect_model_matches_full_fixpoint(self):
        rules = parse_program(
            """
            edge(X, Y) -> reach(X, Y)
            reach(X, Z), edge(Z, Y) -> reach(X, Y)
            node(X), not reach(a, X) -> isolated(X)
            """
        )
        database = parse_database("edge(a,b). node(a). node(b). node(c).")
        model = perfect_model(rules, database.atoms)
        query = parse_query("?(X) :- isolated(X)")
        assert query.answers(model) == certain_answers(
            database, rules, query, goal_directed=False
        )


class TestNameCollisionHardening:
    def test_constant_variable_name_collision_not_deduped(self):
        """Constant("Y") and Variable("Y") render alike; dedup must be structural."""
        from repro.core.atoms import Atom, Predicate
        from repro.lp.programs import NormalRule

        e, p = Predicate("e", 2), Predicate("p", 1)
        x, y = Variable("X"), Variable("Y")
        rules = [
            NormalRule(p(x), (Atom(e, (x, Constant("Y"))),), ()),
            NormalRule(p(x), (Atom(e, (x, y)),), ()),
        ]
        database = [Atom(e, (Constant("a"), Constant("b")))]
        query = ConjunctiveQuery((p(x).positive(),), (x,))
        session = QuerySession(database, rules)
        assert session.answers(query) == frozenset({(Constant("a"),)})

    def test_answer_cache_distinguishes_constant_from_variable(self):
        from repro.core.atoms import Atom, Predicate

        edge = Predicate("edge", 2)
        x, y = Variable("X"), Variable("Y")
        facts = [
            Atom(edge, (Constant("a"), Constant("b"))),
            Atom(edge, (Constant("d"), Constant("Y"))),
        ]
        session = QuerySession(facts, ())
        free = ConjunctiveQuery((Atom(edge, (x, y)).positive(),), (x,))
        bound = ConjunctiveQuery((Atom(edge, (x, Constant("Y"))).positive(),), (x,))
        assert session.answers(free) == frozenset(
            {(Constant("a"),), (Constant("d"),)}
        )
        assert session.answers(bound) == frozenset({(Constant("d"),)})

    def test_user_predicate_in_generated_namespace(self):
        """A user predicate named like an adorned copy must not be conflated."""
        from repro.core.atoms import Atom, Predicate

        path = Predicate("path", 2)
        decoy = Predicate("path__bf", 2)  # looks like the adorned copy
        edge = Predicate("edge", 2)
        x, y = Variable("X"), Variable("Y")
        rules = parse_program(
            "edge(X, Y) -> path(X, Y)\nedge(X, Z), path(Z, Y) -> path(X, Y)"
        )
        facts = [
            Atom(edge, (Constant("a"), Constant("b"))),
            Atom(decoy, (Constant("a"), Constant("poison"))),
        ]
        query = ConjunctiveQuery((Atom(path, (Constant("a"), y)).positive(),), (y,))
        session = QuerySession(facts, rules)
        assert session.answers(query) == frozenset({(Constant("b"),)})

    # A decoy: a user fact named exactly like the plan's generated goal
    # relation.  Were the two conflated, ``poison`` would become an answer.
    DECOY_QUERY = parse_query("?(Y) :- path(a, Y)")

    def _decoy_facts(self):
        from repro.core.atoms import Atom, Predicate
        from repro.query import compile_query_plan

        goal = compile_query_plan(
            TRANSITIVE_CLOSURE, self.DECOY_QUERY
        ).program.goal.renamed
        decoy = Predicate(goal.name, goal.arity)
        assert decoy is not goal
        poison = Atom(decoy, (Constant("poison"), Constant("a")))
        return list(CHAIN.atoms) + [poison]

    def test_decoy_in_generated_namespace_answers_from_the_view(self):
        from repro.core.atoms import Atom, Predicate

        facts = self._decoy_facts()
        registry = MetricsRegistry()
        session = QuerySession(facts, TRANSITIVE_CLOSURE, metrics=registry)
        query = self.DECOY_QUERY
        assert session.answers(query) == full_fixpoint_answers(
            facts, TRANSITIVE_CLOSURE, query
        )
        assert registry.counter("session_views_built").value == 1
        session.add_facts(
            [Atom(Predicate("edge", 2), (Constant("d"), Constant("e")))]
        )
        assert registry.counter("session_answers_repaired").value >= 1
        assert session.answers(query) == full_fixpoint_answers(
            session.facts, TRANSITIVE_CLOSURE, query
        )
        assert (Constant("e"),) in session.answers(query)

    def test_decoy_in_generated_namespace_keeps_standing_queries_exact(self):
        from repro.core.atoms import Atom, Predicate

        session = QuerySession(self._decoy_facts(), TRANSITIVE_CLOSURE)
        standing = session.register_standing(self.DECOY_QUERY, token=1)
        before = standing.answers
        assert before == session.answers(self.DECOY_QUERY)
        session.drain_standing_deltas()
        session.add_facts(
            [Atom(Predicate("edge", 2), (Constant("d"), Constant("e")))]
        )
        after = session.answers(self.DECOY_QUERY)
        assert after != before
        delta = session.drain_standing_deltas().views[standing.plan_key]
        arity = standing.answer_arity

        def project(atoms):
            return {
                atom.terms[:arity]
                for atom in atoms
                if atom.predicate is standing.goal
                and atom.terms[arity:] == standing.constants
            }

        assert project(delta.added) == after - before
        assert project(delta.removed) == before - after

    def test_decoy_in_generated_namespace_service_reads_the_snapshot(
        self, monkeypatch
    ):
        from repro.query import QueryPlan
        from repro.service import DatalogService

        bases = []
        execute_on = QueryPlan.execute_on

        def recording(plan, base, query, **kwargs):
            bases.append(base)
            return execute_on(plan, base, query, **kwargs)

        monkeypatch.setattr(QueryPlan, "execute_on", recording)
        facts = self._decoy_facts()
        registry = MetricsRegistry()
        with DatalogService(
            facts, TRANSITIVE_CLOSURE, metrics=registry
        ) as service:
            assert service.answers(self.DECOY_QUERY) == full_fixpoint_answers(
                facts, TRANSITIVE_CLOSURE, self.DECOY_QUERY
            )
            assert registry.counter("service_read_cache_hits").value == 0
            # The reader ran the plan over the published snapshot itself.
            assert bases == [service.epoch().snapshot]

    def test_decoy_in_generated_namespace_cqa_repairs_as_deltas(self):
        from repro.core.atoms import Atom, Predicate
        from repro.core.rules import RuleSet
        from repro.engine import EngineStatistics
        from repro.encodings import (
            DenialConstraint,
            consistent_answers,
            subset_repairs,
        )
        from repro.query import compile_query_plan

        query = parse_query("?(X) :- manager(X)")
        goal = compile_query_plan(RuleSet(()), query).program.goal.renamed
        x = Variable("X")
        constraint = DenialConstraint(
            (Predicate("manager", 1)(x), Predicate("intern", 1)(x))
        )
        database = parse_database(
            "manager(ann). manager(eve). intern(ann). intern(bob)."
        ).with_atoms(
            [Atom(Predicate(goal.name, goal.arity), (Constant("poison"),))]
        )
        repairs = subset_repairs(database, [constraint])
        expected = frozenset.intersection(
            *(frozenset(query.answers(repair)) for repair in repairs)
        )
        statistics = EngineStatistics()
        assert consistent_answers(
            database, [constraint], query, statistics=statistics
        ) == expected == frozenset({(Constant("eve"),)})
        assert statistics.deltas_applied == 2 * len(repairs)

    def test_query_with_null_falls_back_even_over_rewritable_rules(self):
        """Nulls in queries leave the fragment; fallback must still answer."""
        from repro.core.atoms import Atom, Literal, Predicate
        from repro.core.terms import Null

        p = Predicate("p", 1)
        facts = [Atom(p, (Constant("a"),))]
        query = ConjunctiveQuery((Literal(Atom(p, (Null("n0"),)), True),), ())
        registry = MetricsRegistry()
        session = QuerySession(
            facts, (), stable_options={"max_nulls": 0}, metrics=registry
        )
        assert session.is_goal_directed  # the *rules* are rewritable
        # The null can map homomorphically onto the constant: query holds.
        assert session.answers(query) == frozenset({()})
        assert registry.counter("session_fallback_queries").value == 1

    def test_cqa_query_with_function_term_falls_back(self):
        from repro.core.atoms import Atom, Literal, Predicate
        from repro.core.terms import FunctionTerm
        from repro.encodings import DenialConstraint, consistent_answers

        p = Predicate("p", 1)
        database = parse_database("p(a).")
        term = FunctionTerm("f", (Constant("a"),))
        query = ConjunctiveQuery((Literal(Atom(p, (term,)), True),), ())
        constraint = DenialConstraint((Atom(p, (Variable("X"),)),))
        # No f(a) fact anywhere: empty answers, not a crash.
        assert consistent_answers(database, [constraint], query) == frozenset()

    def test_fallback_accepts_normal_rule_iterables(self):
        from repro.core.atoms import Atom, Predicate
        from repro.lp.programs import NormalRule

        b, p, q = Predicate("b", 1), Predicate("p", 1), Predicate("q", 1)
        x = Variable("X")
        rules = [  # unstratified: p and q negate each other
            NormalRule(p(x), (b(x),), (q(x),)),
            NormalRule(q(x), (b(x),), (p(x),)),
        ]
        facts = [Atom(b, (Constant("a"),))]
        session = QuerySession(facts, rules, stable_options={"max_nulls": 0})
        assert not session.is_goal_directed
        # Two stable models; neither p(a) nor q(a) is certain.
        assert session.answers(
            ConjunctiveQuery((p(x).positive(),), (x,))
        ) == frozenset()


class TestGeneratedNameFreshness:
    """Two generated names must not coincide either.  With a fixed ``__``
    infix, the adorned copy of ``m__x`` and the magic predicate of ``x``
    would both be ``m__x__b/1``, and ``x(a), "m__x"(a)`` would hold."""

    RULES = parse_program('e(X) -> x(X)\nf(X) -> "m__x"(X)')
    FACTS = parse_database("e(a). f(b).")

    @pytest.mark.parametrize(
        "text",
        [
            '? :- x(a), "m__x"(a)',
            '? :- x(b), "m__x"(b)',
            '?(Y) :- x(Y), "m__x"(Y)',
            '?(Y) :- "m__x"(Y)',
            "? :- x(a)",
        ],
    )
    def test_session_matches_full_fixpoint(self, text):
        query = parse_query(text)
        session = QuerySession(self.FACTS, self.RULES)
        assert session.answers(query) == full_fixpoint_answers(
            self.FACTS, self.RULES, query
        )


class TestCertainAnswersEntryPoint:
    def test_goal_directed_matches_baseline(self):
        query = parse_query("?(Y) :- path(a, Y)")
        fast = certain_answers(CHAIN, TRANSITIVE_CLOSURE, query)
        slow = certain_answers(
            CHAIN, TRANSITIVE_CLOSURE, query, goal_directed=False
        )
        assert fast == slow

    def test_existential_rules_raise(self):
        rules = parse_program("person(X) -> exists Y. hasFather(X, Y)")
        database = parse_database("person(alice).")
        with pytest.raises(UnsupportedClassError):
            certain_answers(database, rules, parse_query("?(X) :- person(X)"))
