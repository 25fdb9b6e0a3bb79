"""Unit tests for atoms, literals, rules (NTGD / NDTGD) and rule sets."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.core.atoms import Atom, Literal, Predicate, apply_substitution
from repro.core.rules import NDTGD, NTGD, DisjunctiveRuleSet, RuleSet
from repro.core.terms import Constant, Variable
from repro.errors import SafetyError

P = Predicate("p", 2)
Q = Predicate("q", 1)
R = Predicate("r", 2)
#: named like the adorned copy of ``p`` for pattern ``bf``, but generated
GENERATED = Predicate("p__bf", 2, generated=True)
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b = Constant("a"), Constant("b")


class TestAtoms:
    def test_predicate_call_builds_atom(self):
        assert P(X, a) == Atom(P, (X, a))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Atom(P, (X,))

    def test_variables_and_constants(self):
        atom = P(X, a)
        assert atom.variables == {X}
        assert atom.constants == {a}
        assert not atom.is_ground

    def test_ground_atom(self):
        assert P(a, b).is_ground

    def test_substitution(self):
        atom = P(X, Y)
        assert apply_substitution(atom, {X: a, Y: b}) == P(a, b)

    def test_partial_substitution_keeps_unbound_variables(self):
        assert apply_substitution(P(X, Y), {X: a}) == P(a, Y)

    def test_zero_ary_atom_rendering(self):
        flag = Predicate("saturate", 0)
        assert str(flag()) == "saturate"


class TestPredicateInterning:
    def test_equal_predicates_are_one_object(self):
        assert Predicate("p", 2) is P
        assert Predicate("p", 1) is not P
        assert Predicate("p__bf", 2, generated=True) is GENERATED
        assert Predicate("p__bf", 2) is not GENERATED

    def test_equality_and_hash_are_identity_slots(self):
        assert Predicate.__hash__ is object.__hash__
        assert Predicate.__eq__ is object.__eq__

    @pytest.mark.parametrize(
        "predicate", [P, GENERATED], ids=["user", "generated"]
    )
    @pytest.mark.parametrize(
        "clone",
        [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_return_the_interned_instance(
        self, clone, predicate
    ):
        cloned = clone(predicate)
        assert cloned is predicate
        assert cloned.generated is predicate.generated

    def test_immutable(self):
        with pytest.raises(AttributeError):
            P.name = "q"
        with pytest.raises(AttributeError):
            del P.arity
        assert (P.name, P.arity) == ("p", 2)

    @pytest.mark.parametrize("name, arity", [("", 1), ("p", -1)])
    def test_invalid_predicates_rejected(self, name, arity):
        with pytest.raises(ValueError):
            Predicate(name, arity)

    def test_repr(self):
        assert repr(P) == "Predicate(name='p', arity=2)"
        assert repr(GENERATED) == (
            "Predicate(name='p__bf', arity=2, generated=True)"
        )

    def test_only_the_rewrite_makes_generated_predicates(self):
        from repro import parse_program, parse_query
        from repro.query import magic_rewrite, normalize_rules

        rules = parse_program(
            "edge(X, Y) -> path(X, Y)\nedge(X, Z), path(Z, Y) -> path(X, Y)"
        )
        program = magic_rewrite(rules, parse_query("?(Y) :- path(a, Y)"))
        own = {p for rule in normalize_rules(rules) for p in rule.predicates}
        used = {p for rule in program.rules for p in rule.predicates}
        assert own <= used  # base-import rules read path, edge stays a base
        assert not any(predicate.generated for predicate in own)
        made_up = used - own
        assert made_up and all(predicate.generated for predicate in made_up)
        assert program.goal.renamed.generated and program.goal.magic.generated

    def test_unreferenced_predicate_is_collected_and_recreated(self):
        ref = weakref.ref(Predicate("interning_probe", 3))
        gc.collect()
        assert ref() is None
        again = Predicate("interning_probe", 3)
        assert (again.name, again.arity) == ("interning_probe", 3)
        assert Predicate("interning_probe", 3) is again


class TestLiterals:
    def test_negation_flips_sign(self):
        literal = P(X, Y).positive()
        assert literal.negate() == P(X, Y).negated()
        assert literal.negate().negate() == literal

    def test_str(self):
        assert str(Q(a).negated()) == "not q(a)"


class TestNTGD:
    def test_existential_and_frontier_variables(self):
        rule = NTGD((Q(X).positive(),), (P(X, Y),))
        assert rule.existential_variables == {Y}
        assert rule.frontier_variables == {X}

    def test_positive_and_negative_body(self):
        rule = NTGD((Q(X).positive(), Q(Y).positive(), P(X, Y).negated()), (R(X, Y),))
        assert len(rule.positive_body) == 2
        assert len(rule.negative_body) == 1
        assert not rule.is_positive

    def test_strip_negation(self):
        rule = NTGD((Q(X).positive(), P(X, X).negated()), (R(X, X),))
        stripped = rule.strip_negation()
        assert stripped.is_positive
        assert stripped.head == rule.head

    def test_unsafe_rule_rejected(self):
        with pytest.raises(SafetyError):
            NTGD((Q(X).positive(), P(X, Y).negated()), (R(X, X),))

    def test_bodyless_rule_allowed(self):
        rule = NTGD((), (Q(X),))
        assert rule.existential_variables == {X}

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            NTGD((Q(X).positive(),), ())

    def test_guardedness(self):
        guarded = NTGD((P(X, Y).positive(),), (R(X, Y),))
        unguarded = NTGD((Q(X).positive(), Q(Y).positive()), (R(X, Y),))
        assert guarded.is_guarded()
        assert not unguarded.is_guarded()
        assert guarded.guard() == P(X, Y).positive()

    def test_predicates(self):
        rule = NTGD((Q(X).positive(),), (P(X, Y),))
        assert rule.predicates == {P, Q}
        assert rule.body_predicates == {Q}
        assert rule.head_predicates == {P}


class TestNDTGD:
    def test_disjunct_bookkeeping(self):
        rule = NDTGD((Q(X).positive(),), ((P(X, Y),), (R(X, X),)))
        assert rule.is_disjunctive
        assert rule.existential_variables_of(0) == {Y}
        assert rule.existential_variables_of(1) == set()

    def test_as_ntgd_requires_single_disjunct(self):
        single = NDTGD((Q(X).positive(),), ((R(X, X),),))
        assert single.as_ntgd().head == (R(X, X),)
        with pytest.raises(ValueError):
            NDTGD((Q(X).positive(),), ((P(X, Y),), (R(X, X),))).as_ntgd()

    def test_conjunctive_collapse(self):
        rule = NDTGD((Q(X).positive(), R(X, X).negated()), ((P(X, Y),), (R(X, X),)))
        collapsed = rule.conjunctive_collapse()
        assert collapsed.is_positive
        assert set(collapsed.head) == {P(X, Y), R(X, X)}

    def test_empty_disjunct_rejected(self):
        with pytest.raises(ValueError):
            NDTGD((Q(X).positive(),), ((),))


class TestRuleSets:
    def test_schema_and_idb_edb(self):
        rules = RuleSet(
            (
                NTGD((Q(X).positive(),), (P(X, Y),)),
                NTGD((P(X, Y).positive(),), (R(X, Y),)),
            )
        )
        assert rules.schema == {P, Q, R}
        assert rules.intensional_predicates() == {P, R}
        assert rules.extensional_predicates() == {Q}

    def test_strip_negation_is_positive(self):
        rules = RuleSet((NTGD((Q(X).positive(), P(X, X).negated()), (R(X, X),)),))
        assert rules.strip_negation().is_positive

    def test_disjunctive_rule_set_max_disjuncts(self):
        rules = DisjunctiveRuleSet(
            (
                NDTGD((Q(X).positive(),), ((P(X, Y),), (R(X, X),))),
                NDTGD((Q(X).positive(),), ((R(X, X),),)),
            )
        )
        assert rules.max_disjuncts == 2
        assert len(rules.non_disjunctive_part()) == 1
