"""Tests for the second-order stable model semantics (Section 3) on the paper's examples."""

from __future__ import annotations

import pytest

from repro import (
    Constant,
    Database,
    Interpretation,
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
)
from repro.generators import random_database, random_stratified_datalog
from repro.query import perfect_model
from repro.stable import (
    StableModelEngine,
    Universe,
    certain_answer,
    enumerate_stable_models,
    find_smaller_reduct_model,
    is_minimal_model,
    is_stable_model,
    possible_answer,
    solve,
)


def interp(text: str) -> Interpretation:
    """Build an interpretation from a whitespace-separated list of ground atoms."""
    return Interpretation(frozenset(parse_atom(token) for token in text.split()))


class TestUniverse:
    def test_for_database_contains_constants_and_nulls(self, father_database):
        universe = Universe.for_database(father_database, max_nulls=2)
        assert Constant("alice") in universe
        assert len(universe.nulls) == 2

    def test_of_names(self):
        universe = Universe.of(["a", "b"], max_nulls=1)
        assert len(universe) == 3

    def test_deduplication_and_ordering(self):
        universe = Universe.of(["b", "a", "a"])
        assert [c.name for c in universe.constants] == ["a", "b"]


class TestExample4:
    """Examples 1, 2 and 4: the hasFather programme under the new semantics."""

    def test_bob_model_is_stable(self, father_rules, father_database):
        candidate = interp("person(alice) hasFather(alice,bob) sameAs(bob,bob)")
        assert is_stable_model(candidate, father_database, father_rules)

    def test_two_fathers_model_is_not_stable(self, father_rules, father_database):
        candidate = interp(
            "person(alice) hasFather(alice,bob) sameAs(bob,bob) "
            "hasFather(alice,alice) sameAs(alice,alice) abnormal(alice)"
        )
        assert not is_stable_model(candidate, father_database, father_rules)

    def test_enumeration_over_alice_bob_and_a_null(
        self, father_rules, father_database, father_universe
    ):
        models = solve(father_database, father_rules, universe=father_universe)
        assert len(models) == 3
        rendered = {str(model) for model in models}
        assert "{hasFather(alice,bob), person(alice), sameAs(bob,bob)}" in rendered
        assert "{hasFather(alice,alice), person(alice), sameAs(alice,alice)}" in rendered

    def test_not_hasfather_bob_is_not_entailed(
        self, father_rules, father_database, father_universe
    ):
        """The headline of Example 2/4: ¬hasFather(alice, bob) must NOT be certain."""
        query = parse_query("? :- not hasFather(alice, bob)")
        assert not certain_answer(
            father_database, father_rules, query, universe=father_universe
        )

    def test_nobody_is_abnormal(self, father_rules, father_database, father_universe):
        query = parse_query("? :- person(X), not abnormal(X)")
        assert certain_answer(
            father_database, father_rules, query, universe=father_universe
        )
        query = parse_query("? :- person(X), abnormal(X)")
        assert not possible_answer(
            father_database, father_rules, query, universe=father_universe
        )

    def test_every_stable_model_contains_the_database(
        self, father_rules, father_database, father_universe
    ):
        for model in enumerate_stable_models(
            father_database, father_rules, universe=father_universe
        ):
            assert set(father_database.atoms) <= model.positive


class TestSection32MinimalVsStable:
    """Section 3.2/3.3: MM[D, Σ] admits a model that SM[D, Σ] correctly rejects."""

    def test_j_is_minimal_but_not_stable(self, section32_rules, section32_database):
        j = interp("p(0) t(0)")
        assert is_minimal_model(j, section32_database, section32_rules)
        assert not is_stable_model(j, section32_database, section32_rules)

    def test_no_stable_model_exists(self, section32_rules, section32_database):
        models = solve(section32_database, section32_rules, max_nulls=0)
        assert models == []

    def test_stability_counterexample_is_reported(
        self, section32_rules, section32_database
    ):
        j = interp("p(0) t(0)")
        smaller = find_smaller_reduct_model(j, section32_database, section32_rules)
        assert smaller == {parse_atom("p(0)")}


class TestStabilityChecker:
    def test_database_alone_when_rules_are_vacuous(self):
        rules = parse_program("p(X), not p(X) -> q(X)")
        database = parse_database("p(a).")
        assert is_stable_model(interp("p(a)"), database, rules)

    def test_unsupported_atom_breaks_stability(self):
        rules = parse_program("p(X) -> q(X)")
        database = parse_database("p(a).")
        assert is_stable_model(interp("p(a) q(a)"), database, rules)
        assert not is_stable_model(interp("p(a) q(a) q(b)"), database, rules)

    def test_model_check_is_part_of_the_definition(self):
        rules = parse_program("p(X) -> q(X)")
        database = parse_database("p(a).")
        assert not is_stable_model(interp("p(a)"), database, rules)

    def test_missing_database_atom_rejected(self):
        rules = parse_program("p(X) -> q(X)")
        database = parse_database("p(a).")
        assert not is_stable_model(interp("q(a)"), database, rules)

    def test_even_negation_cycle_two_stable_models(self):
        rules = parse_program(
            """
            s(X), not q(X) -> p(X)
            s(X), not p(X) -> q(X)
            """
        )
        database = parse_database("s(a).")
        models = solve(database, rules, max_nulls=0)
        assert len(models) == 2

    def test_odd_negation_cycle_no_stable_model(self):
        rules = parse_program("s(X), not p(X) -> p(X)")
        database = parse_database("s(a).")
        assert solve(database, rules, max_nulls=0) == []

    def test_constraint_rule_prunes_models(self):
        rules = parse_program(
            """
            s(X), not q(X) -> p(X)
            s(X), not p(X) -> q(X)
            p(X), not aux -> aux
            """
        )
        database = parse_database("s(a).")
        models = solve(database, rules, max_nulls=0)
        # p(a) would force aux through an odd loop, so only the q(a) model survives.
        assert len(models) == 1
        assert parse_atom("q(a)") in models[0].positive


class TestExistentialWitnessChoice:
    def test_constants_and_nulls_both_allowed(self):
        rules = parse_program("s(X) -> exists Y. p(X, Y)")
        database = parse_database("s(a).")
        models = solve(database, rules, extra_constants=[Constant("b")], max_nulls=1)
        witnesses = {str(model.sorted_atoms()[0].terms[1]) for model in models}
        assert witnesses == {"a", "b", "_:u0"}

    def test_multiple_existentials_share_or_split_witnesses(self):
        rules = parse_program("s(X) -> exists Y, Z. p(Y, Z)")
        database = parse_database("s(a).")
        models = solve(database, rules, max_nulls=2)
        shapes = set()
        for model in models:
            atom = next(a for a in model if a.predicate.name == "p")
            shapes.add(len(set(atom.terms)))
        # Both the "same witness twice" and "two distinct witnesses" shapes exist.
        assert shapes == {1, 2}

    def test_non_model_candidates_rejected(self):
        rules = parse_program("s(X) -> exists Y. p(X, Y)")
        database = parse_database("s(a).")
        candidate = interp("s(a) p(a,b) p(a,c)")
        assert not is_stable_model(candidate, database, rules)


class TestPerfectModelOracle:
    """Stratified Datalog¬ has exactly one stable model under Definition 1,
    the perfect model that every differential test uses as its oracle."""

    @pytest.mark.parametrize(
        "layers, predicates_per_layer, constants, facts",
        [(2, 3, 3, 5), (3, 2, 2, 3)],
    )
    @pytest.mark.parametrize("seed", range(20))
    def test_unique_stable_model_is_the_perfect_model(
        self, seed, layers, predicates_per_layer, constants, facts
    ):
        rules = random_stratified_datalog(
            layers=layers, predicates_per_layer=predicates_per_layer, seed=seed
        )
        edb = sorted(rules.extensional_predicates(), key=lambda p: p.name)
        database = random_database(edb, constants=constants, facts=facts, seed=seed)
        models = solve(database, rules, max_nulls=0)
        assert len(models) == 1
        assert models[0].positive == perfect_model(rules, database.atoms)
