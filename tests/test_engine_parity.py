"""Parity tests: the semi-naive rewire derives exactly the seed's atom sets.

Each test pits the engine-backed implementation (chase, positive closure,
relevant grounding, least model, well-founded model) against a naive reference
evaluator written the way the seed code worked — full rescans, written-order
bodies, no indexes — and asserts the results agree.  For chases of programs
with existential variables the comparison is up to homomorphic equivalence
(null names depend on firing order, which semi-naive evaluation legitimately
changes); for Datalog programs and for grounding/least-model computation the
atom sets must be identical.
"""

from __future__ import annotations

import pytest

from repro import parse_database, parse_program
from repro.chase import oblivious_chase, restricted_chase
from repro.core.homomorphism import AtomIndex, embeds, extend_homomorphisms, ground_matches
from repro.generators import random_database
from repro.lp.grounding import ground_program, positive_closure
from repro.lp.programs import NormalProgram, NormalRule
from repro.lp.reduct import gelfond_lifschitz_reduct, least_model
from repro.lp.skolem import skolemize
from repro.lp.wfs import well_founded_model


# ---------------------------------------------------------------------------
# Naive reference implementations (the seed's evaluation strategy)
# ---------------------------------------------------------------------------


def naive_restricted_chase_atoms(database, rules):
    """The seed's restricted chase: full rescan of all matches every pass."""
    from repro.core.atoms import apply_substitution
    from repro.core.terms import NullFactory

    atoms = set(database.atoms)
    index = AtomIndex(atoms)
    nulls = NullFactory(prefix="n")
    progress = True
    while progress:
        progress = False
        for rule in rules:
            for match in list(ground_matches(rule.body, index)):
                assignment = match.as_dict()
                if next(
                    extend_homomorphisms(list(rule.head), index, partial=assignment),
                    None,
                ) is not None:
                    continue
                extended = dict(assignment)
                for variable in sorted(rule.existential_variables, key=lambda v: v.name):
                    extended[variable] = nulls.fresh()
                added = tuple(apply_substitution(atom, extended) for atom in rule.head)
                if any(atom not in atoms for atom in added):
                    progress = True
                atoms.update(added)
                index.update(added)
    return frozenset(atoms)


def naive_positive_closure(program, facts):
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


def naive_ground_program(program, facts):
    closure = naive_positive_closure(program, facts)
    index = AtomIndex(closure)
    rules = [NormalRule(atom) for atom in sorted(facts, key=lambda a: a.sort_key())]
    for rule in program:
        if rule.is_fact:
            if rule.head.is_ground:
                rules.append(rule)
            continue
        for assignment in extend_homomorphisms(list(rule.positive_body), index):
            instance = rule.substitute(assignment)
            if instance.is_ground:
                rules.append(instance)
    return {str(rule) for rule in rules}


def naive_least_model(program):
    derived = set()
    changed = True
    while changed:
        changed = False
        for rule in program:
            if rule.head in derived:
                continue
            if all(atom in derived for atom in rule.positive_body):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def brute_force_matches(
    compiled,
    index,
    *,
    partial=None,
    negative_against=None,
    delta=None,
    delta_position=None,
):
    """Every homomorphism of *compiled*'s body into *index*, without the
    join executor: the product of one candidate pool per positive literal
    (the delta atoms at *delta_position*), folded with ``match_atom``, with
    the negative literals checked by membership of their images."""
    from itertools import product

    from repro.core.atoms import apply_substitution
    from repro.engine.index import match_atom

    check = negative_against if negative_against is not None else index
    pools = [
        list(delta) if position == delta_position else index.candidates(atom.predicate)
        for position, atom in enumerate(compiled.positive)
    ]
    found = set()
    for combination in product(*pools):
        assignment = dict(partial or {})
        for pattern, candidate in zip(compiled.positive, combination):
            assignment = match_atom(pattern, candidate, assignment)
            if assignment is None:
                break
        else:
            if all(
                apply_substitution(atom, assignment) not in check
                for atom in compiled.negative
            ):
                found.add(frozenset(assignment.items()))
    return found


# ---------------------------------------------------------------------------
# Fixtures: the programs named by the issue
# ---------------------------------------------------------------------------

TC_RULES = parse_program("e(X, Y), e(Y, Z) -> e(X, Z)")

FAMILY_RULES = parse_program(
    """
    person(X) -> exists Y. hasParent(X, Y)
    hasParent(X, Y) -> ancestor(X, Y)
    hasParent(X, Y), ancestor(Y, Z) -> ancestor(X, Z)
    """
)

FAMILY_DB = parse_database(
    """
    person(carol).
    person(dave).
    hasParent(carol, dave).
    """
)


class TestChaseParity:
    def test_datalog_chase_identical_atoms(self):
        database = parse_database("e(a, b). e(b, c). e(c, d). e(d, e).")
        expected = naive_restricted_chase_atoms(database, TC_RULES)
        assert restricted_chase(database, TC_RULES).atoms == expected

    def test_datalog_chase_identical_on_random_instances(self):
        from repro.core.atoms import Predicate

        for seed in (1, 2, 3):
            database = random_database(
                [Predicate("e", 2)], constants=8, facts=12, seed=seed
            )
            expected = naive_restricted_chase_atoms(database, TC_RULES)
            assert restricted_chase(database, TC_RULES).atoms == expected

    def test_existential_chase_homomorphically_equivalent(self):
        expected = naive_restricted_chase_atoms(FAMILY_DB, FAMILY_RULES)
        actual = restricted_chase(FAMILY_DB, FAMILY_RULES).atoms
        assert embeds(actual, expected) and embeds(expected, actual)

    def test_oblivious_chase_same_trigger_count(self):
        # The oblivious chase fires every trigger exactly once, so the number
        # of steps (and the constant part of the result) is order-independent.
        database = parse_database("e(a, b). e(b, c). e(c, d).")
        result = oblivious_chase(database, TC_RULES)
        assert result.atoms == naive_restricted_chase_atoms(database, TC_RULES)


class TestGroundingParity:
    def test_positive_closure_identical_transitive_closure(self):
        program = skolemize(TC_RULES)
        facts = parse_database("e(a, b). e(b, c). e(c, d).").atoms
        assert positive_closure(program, facts) == naive_positive_closure(program, facts)

    def test_positive_closure_identical_family_ontology(self):
        program = skolemize(FAMILY_RULES)
        assert positive_closure(program, FAMILY_DB.atoms) == naive_positive_closure(
            program, FAMILY_DB.atoms
        )

    def test_ground_program_identical_rule_sets(self):
        program = skolemize(FAMILY_RULES)
        grounded = ground_program(program, FAMILY_DB)
        assert {str(rule) for rule in grounded} == naive_ground_program(
            program, FAMILY_DB.atoms
        )

    def test_ground_program_identical_with_negation(self):
        rules = parse_program(
            """
            person(X) -> exists Y. hasFather(X, Y)
            hasFather(X, Y) -> sameAs(Y, Y)
            hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)
            """
        )
        database = parse_database("person(alice). person(bea).")
        program = skolemize(rules)
        grounded = ground_program(program, database)
        assert {str(rule) for rule in grounded} == naive_ground_program(
            program, database.atoms
        )


class TestGroundSolverParity:
    def _tc_ground(self):
        program = skolemize(TC_RULES)
        facts = parse_database("e(a, b). e(b, c). e(c, d).").atoms
        return ground_program(program, facts)

    def test_least_model_identical(self):
        grounded = self._tc_ground()
        reduct = gelfond_lifschitz_reduct(grounded, frozenset())
        assert least_model(reduct) == naive_least_model(reduct)

    def test_well_founded_model_on_negation_program(self):
        # p <- not q ; q <- not p ; r <- p ; r <- q : p, q undefined, r undefined.
        program = NormalProgram(
            tuple(
                NormalRule(head, positive, negative)
                for head, positive, negative in [
                    (_atom("p"), (), (_atom("q"),)),
                    (_atom("q"), (), (_atom("p"),)),
                    (_atom("r"), (_atom("p"),), ()),
                    (_atom("r"), (_atom("q"),), ()),
                ]
            )
        )
        model = well_founded_model(program)
        assert model.true == frozenset()
        assert model.undefined == {_atom("p"), _atom("q"), _atom("r")}


def _atom(name: str):
    from repro.core.atoms import Predicate

    return Predicate(name, 0)()


# ---------------------------------------------------------------------------
# Versioned storage parity: fork/add/remove/query interleavings
# ---------------------------------------------------------------------------


class TestVersionedStorageParity:
    """Property tests: a branch of a ``VersionedRelationIndex`` always agrees
    with a fresh naive ``RelationIndex`` built from the equivalent flat fact
    set, under any interleaving of fork/add/remove/query operations (forks
    are add-only leaves, so only the root head removes and forks)."""

    PREDICATES = None  # initialised lazily (Predicate import is local)

    @staticmethod
    def _universe():
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant

        p = Predicate("p", 1)
        q = Predicate("q", 2)
        constants = [Constant(f"c{i}") for i in range(5)]
        atoms = [p(c) for c in constants]
        atoms += [q(x, y) for x in constants for y in constants]
        return [p, q], constants, atoms

    @staticmethod
    def _check_branch(index, model):
        """The branch's full read surface against a naive reference index."""
        from repro.core.terms import Variable
        from repro.engine import RelationIndex

        reference = RelationIndex(sorted(model, key=lambda a: a.sort_key()))
        assert index.atoms() == reference.atoms()
        assert len(index) == len(reference)
        predicates = {atom.predicate for atom in model}
        X, Y = Variable("X"), Variable("Y")
        for predicate in predicates:
            assert set(index.candidates(predicate)) == set(
                reference.candidates(predicate)
            )
            assert index.count(predicate) == reference.count(predicate)
        for atom in model:
            assert atom in index
            # Fully bound lookup must find exactly the atom.
            assert set(index.candidates_for(atom)) == {atom}
            # Partially bound lookups agree with the reference tables.
            if atom.predicate.arity == 2:
                pattern = atom.predicate(atom.terms[0], Y)
                assert set(index.candidates_for(pattern)) == set(
                    reference.candidates_for(pattern)
                )
                pattern = atom.predicate(X, atom.terms[1])
                assert set(index.candidates_for(pattern)) == set(
                    reference.candidates_for(pattern)
                )

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_random_interleavings_match_flat_reference(self, seed):
        import random

        from repro.engine import VersionedRelationIndex

        rng = random.Random(seed)
        _, _, atoms = self._universe()
        root = VersionedRelationIndex(rng.sample(atoms, 8))
        branches = [(root, set(root.atoms()))]
        for _ in range(120):
            operation = rng.choice(["add", "add", "remove", "query", "fork"])
            position = rng.randrange(len(branches))
            if operation in ("remove", "fork"):
                position = 0
            index, model = branches[position]
            if operation == "add":
                atom = rng.choice(atoms)
                assert index.add(atom) == (atom not in model)
                model.add(atom)
            elif operation == "remove":
                # Bias towards present atoms so removal is exercised.
                pool = sorted(model, key=lambda a: a.sort_key()) or atoms
                atom = rng.choice(pool if rng.random() < 0.8 else atoms)
                assert index.remove(atom) == (atom in model)
                model.discard(atom)
            elif operation == "query":
                atom = rng.choice(atoms)
                assert (atom in index) == (atom in model)
                expected = {
                    other
                    for other in model
                    if other.predicate == atom.predicate
                    and other.terms[0] == atom.terms[0]
                }
                from repro.core.terms import Variable

                free = tuple(
                    Variable(f"V{i}")
                    for i in range(1, atom.predicate.arity)
                )
                pattern = atom.predicate(atom.terms[0], *free)
                assert set(index.candidates_for(pattern)) == expected
            elif operation == "fork" and len(branches) < 8:
                branches.append((index.fork(), set(model)))
        for index, model in branches:
            self._check_branch(index, model)

    def test_fork_is_isolated_from_later_parent_mutations(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import VersionedRelationIndex

        q = Predicate("q", 2)
        c = [Constant(f"c{i}") for i in range(4)]
        X = Variable("X")
        head = VersionedRelationIndex([q(c[0], c[1]), q(c[0], c[2])])
        head.candidates_for(q(c[0], X))  # warm the (q, {0}) table
        fork = head.fork()
        fork.add(q(c[0], c[3]))
        # Mutate the parent *after* forking: the fork must not see it.
        head.add(q(c[0], c[0]))
        head.remove(q(c[0], c[1]))
        assert set(fork.candidates_for(q(c[0], X))) == {
            q(c[0], c[1]), q(c[0], c[2]), q(c[0], c[3])
        }
        assert set(head.candidates_for(q(c[0], X))) == {
            q(c[0], c[2]), q(c[0], c[0])
        }


# ---------------------------------------------------------------------------
# Interned executor parity: row-plane joins vs the object-path backtracker
# ---------------------------------------------------------------------------


class TestInternedExecutorParity:
    """The row-plane executor enumerates exactly the assignments of
    :func:`brute_force_matches`, with the negation oracle sharing the
    index's symbol table and with an oracle that is a plain set of atoms
    (checked by decoded atoms, not by rows)."""

    @staticmethod
    def _both_ways(rule, index, oracle_atoms, **kwargs):
        from repro.engine import RelationIndex
        from repro.engine.planner import enumerate_matches

        shared_oracle = RelationIndex(oracle_atoms)
        foreign_oracle = frozenset(oracle_atoms)
        assert shared_oracle.symbols is index.symbols
        assert not hasattr(foreign_oracle, "symbols")
        runs = []
        for oracle in (shared_oracle, foreign_oracle):
            run = [
                dict(m)
                for m in enumerate_matches(
                    rule, index, negative_against=oracle, **kwargs
                )
            ]
            assert {frozenset(m.items()) for m in run} == brute_force_matches(
                rule, index, negative_against=oracle, **kwargs
            )
            runs.append(run)
        return runs[0]

    def test_positive_join_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        e = Predicate("e", 2)
        c = [Constant(f"c{i}") for i in range(5)]
        atoms = [e(c[i], c[(i * 3 + 1) % 5]) for i in range(5)]
        atoms += [e(c[0], c[2]), e(c[2], c[4])]
        index = RelationIndex(atoms)
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        rule = CompiledRule(heads=(), positive=(e(X, Y), e(Y, Z)), negative=())
        matches = self._both_ways(rule, index, list(index.atoms()))
        assert matches  # the workload is non-trivial

    def test_negation_and_null_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Null, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        p, q = Predicate("p", 2), Predicate("q", 1)
        c = [Constant(f"c{i}") for i in range(4)]
        n = Null("n1")
        atoms = [p(c[0], c[1]), p(c[1], c[2]), p(c[2], n), q(c[1])]
        index = RelationIndex(atoms)
        X, Y = Variable("X"), Variable("Y")
        # Pattern nulls bind like variables in the positive body, and the
        # negative image must agree between executors too.
        rule = CompiledRule(heads=(), positive=(p(X, Y),), negative=(q(X),))
        matches = self._both_ways(rule, index, list(index.atoms()))
        assert all(m[X] != c[1] for m in matches)
        assert any(m[Y] == n for m in matches)

    def test_delta_mode_parity(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, Variable
        from repro.engine import RelationIndex
        from repro.engine.planner import CompiledRule

        e = Predicate("e", 2)
        c = [Constant(f"c{i}") for i in range(6)]
        atoms = [e(c[i], c[i + 1]) for i in range(5)]
        index = RelationIndex(atoms)
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        rule = CompiledRule(heads=(), positive=(e(X, Y), e(Y, Z)), negative=())
        delta = [e(c[2], c[3]), e(c[4], c[5])]
        for position in (0, 1):
            self._both_ways(
                rule,
                index,
                list(index.atoms()),
                delta=delta,
                delta_position=position,
            )

    def test_join_order_fixed_at_first_use(self, monkeypatch):
        """``reach`` starts smaller than the base relation ``tag`` and ends
        larger, so the order fixpoint fixes for a delta position at its
        first use differs from the one planning on the final index picks.
        Runs with the default oracle and with a plain-set negation oracle
        must still agree with the full fixpoint."""
        from repro import parse_program, parse_query
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant
        from repro.engine import fixpoint, planner
        from repro.query import full_fixpoint_answers

        rules = parse_program(
            """
            link(X, Y) -> reach(X, Y)
            reach(X, Y), link(Y, Z) -> reach(X, Z)
            reach(X, Y), tag(Y, T), reach(Y, Z) -> via(X, T, Z)
            """
        )
        link, tag = Predicate("link", 2), Predicate("tag", 2)
        n = 12
        nodes = [Constant(f"n{i}") for i in range(n + 1)]
        tags = [Constant(f"t{j}") for j in range(3)]
        facts = [link(nodes[i], nodes[i + 1]) for i in range(n)]
        facts += [tag(node, t) for node in nodes for t in tags]

        first_use = {}
        original = planner.order_body

        def recording(compiled, **kwargs):
            plan = original(compiled, **kwargs)
            first_use.setdefault((compiled, kwargs.get("skip", -1)), plan)
            return plan

        with monkeypatch.context() as patch:
            patch.setattr(planner, "order_body", recording)
            row_plane = fixpoint(rules, facts)
        foreign_oracle_run = fixpoint(
            rules, facts, negative_against=frozenset(facts)
        )
        assert row_plane.count(Predicate("reach", 2)) > row_plane.count(tag)
        changed = [
            skip
            for (compiled, skip), plan in first_use.items()
            if len(compiled.positive) == 3
            and skip >= 0
            and plan
            != original(
                compiled,
                index=row_plane,
                bound=compiled.positive_terms[skip],
                skip=skip,
            )
        ]
        assert changed  # the workload pins the fixed-order case

        query = parse_query("?(X, T, Z) :- via(X, T, Z)")
        expected = {
            (nodes[x], t, nodes[z])
            for x in range(n + 1)
            for z in range(x + 2, n + 1)
            for t in tags
        }
        assert query.answers(row_plane.atoms()) == expected
        assert query.answers(foreign_oracle_run.atoms()) == expected
        assert full_fixpoint_answers(facts, rules, query) == expected

    def test_programmes_reused_across_fixpoints_with_flipped_sizes(
        self, monkeypatch
    ):
        """The join programmes are planned at the first fixpoint over a set
        of rule objects, where ``a`` is smaller than ``b``, and reused by a
        later fixpoint over data where ``b`` is smaller than ``a``, for which
        planning afresh picks other orders.  Answers must not change."""
        from repro import parse_program, parse_query
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant
        from repro.engine import fixpoint, planner
        from repro.query import full_fixpoint_answers

        rules = parse_program(
            """
            a(X, Y), b(Y, Z) -> ab(X, Z)
            ab(X, Y), a(Y, Z) -> ab(X, Z)
            ab(X, Y), a(Y, Z), b(Y, W) -> fan(X, Z, W)
            """
        )
        a, b = Predicate("a", 2), Predicate("b", 2)
        nodes = [Constant(f"n{i}") for i in range(8)]

        def facts(small, large):
            chain = [small(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
            dense = [large(x, y) for x in nodes for y in nodes[::2]]
            return chain + dense

        first, second = facts(a, b), facts(b, a)
        planned = []
        original = planner.order_body

        def recording(compiled, **kwargs):
            plan = original(compiled, **kwargs)
            planned.append((compiled, kwargs, plan))
            return plan

        monkeypatch.setattr(planner, "order_body", recording)
        fixpoint(rules, first)
        first_plans = list(planned)
        planned.clear()
        reused = fixpoint(rules, second)
        assert first_plans and not planned
        # On the second data set, fresh planning would order some bodies
        # differently from the programmes the first fixpoint memoised.
        assert any(
            plan != original(compiled, **dict(kwargs, index=reused))
            for compiled, kwargs, plan in first_plans
        )
        for text in ("?(X, Z) :- ab(X, Z)", "?(X, Z, W) :- fan(X, Z, W)"):
            query = parse_query(text)
            expected = full_fixpoint_answers(second, rules, query)
            assert expected
            assert query.answers(reused.atoms()) == expected

    def test_skolem_function_heads_round_trip(self):
        """Encoded head building constructs ground function terms through
        ``SymbolTable.encode_function`` — the atoms must equal the object
        path's ``apply_substitution`` output."""
        from repro.core.atoms import Predicate, apply_substitution
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine import RelationIndex, fixpoint
        from repro.lp.programs import NormalRule

        e, s = Predicate("e", 2), Predicate("s", 2)
        c = [Constant(f"c{i}") for i in range(4)]
        X, Y = Variable("X"), Variable("Y")
        rule = NormalRule(s(X, FunctionTerm("sk", (X, Y))), (e(X, Y),), ())
        facts = [e(c[i], c[i + 1]) for i in range(3)]
        result = fixpoint([rule], facts)
        expected = {
            s(a.terms[0], FunctionTerm("sk", (a.terms[0], a.terms[1])))
            for a in facts
        }
        assert {atom for atom in result.atoms() if atom.predicate == s} == expected



def _shape_case(name):
    """One pattern shape for :class:`TestOneJoinExecutor`: ``(index, pattern,
    keyword arguments of enumerate_matches)``."""
    from repro.core.atoms import Predicate
    from repro.core.terms import Constant, FunctionTerm, Null, Variable
    from repro.engine import RelationIndex
    from repro.engine.planner import CompiledRule

    s, g, p, q = (
        Predicate("shape_s", 2),
        Predicate("shape_g", 1),
        Predicate("shape_p", 2),
        Predicate("shape_q", 1),
    )
    c = [Constant(f"c{i}") for i in range(4)]
    f = lambda *args: FunctionTerm("f", args)
    sk = lambda *args: FunctionTerm("sk", args)
    X, Y = Variable("X"), Variable("Y")
    atoms = [
        s(c[0], f(c[0], c[1])),
        s(c[0], f(c[1], c[1])),
        s(c[1], f(c[1], c[2])),
        s(c[1], f(c[1], Null("d1"))),
        s(c[2], c[2]),
        s(c[3], f(c[3])),
        s(c[2], FunctionTerm("h", (c[2], c[0]))),
        g(FunctionTerm("g", (f(c[0], c[0]),))),
        g(FunctionTerm("g", (f(c[0], c[1]),))),
        g(FunctionTerm("g", (f(c[2], c[2], c[2]),))),
        g(FunctionTerm("h", (f(c[1], c[1]),))),
        g(f(c[2], c[2])),
        g(c[0]),
        p(c[1], sk(c[0], c[1])),
        p(c[1], sk(c[2], c[1])),
        p(c[2], sk(c[0], c[2])),
        q(c[1]),
    ]
    index = RelationIndex(atoms)
    pattern = lambda positive, negative=(): CompiledRule(
        heads=(), positive=positive, negative=negative
    )
    if name == "inner-variable-bound-by-decomposition":
        return index, pattern((s(X, f(X, Y)),)), {}
    if name == "nested-repeated-variable":
        return index, pattern((g(FunctionTerm("g", (f(X, X),))),)), {}
    if name == "pattern-null-inside-function-term":
        return index, pattern((s(X, f(c[1], Null("m"))),)), {}
    if name == "skolem-head-under-partial-binding":
        return index, pattern((p(Y, sk(X, Y)),)), {"partial": {X: c[0], Y: c[1]}}
    if name == "body-less-with-negative-literal":
        return index, pattern((), (q(X),)), {"partial": {X: c[2]}}
    if name == "negation-oracle-on-own-symbol-table":
        # An oracle without the index's symbol table: a plain set of atoms.
        oracle = frozenset([q(c[1])])
        return index, pattern((s(X, Y),), (q(X),)), {"negative_against": oracle}
    raise AssertionError(name)


class TestOneJoinExecutor:
    """Every pattern shape runs on the row plane (``enumerate_bindings``),
    including the shapes that once had their own executor: function terms
    with variables or nulls inside a positive body literal, patterns with no
    positive literal, and negation oracles without the index's symbol
    table."""

    @pytest.mark.parametrize(
        "shape",
        [
            "inner-variable-bound-by-decomposition",
            "nested-repeated-variable",
            "pattern-null-inside-function-term",
            "skolem-head-under-partial-binding",
            "body-less-with-negative-literal",
            "negation-oracle-on-own-symbol-table",
        ],
    )
    def test_every_shape_enters_enumerate_bindings(self, shape, monkeypatch):
        from repro.engine import planner

        index, pattern, kwargs = _shape_case(shape)
        calls = []
        original = planner.enumerate_bindings

        def spy(encoded, *args, **spy_kwargs):
            calls.append(encoded)
            return original(encoded, *args, **spy_kwargs)

        monkeypatch.setattr(planner, "enumerate_bindings", spy)
        found = {
            frozenset(m.items())
            for m in planner.enumerate_matches(pattern, index, **kwargs)
        }
        assert calls, "enumerate_matches bypassed the row-plane executor"
        assert found == brute_force_matches(pattern, index, **kwargs)
        assert found  # every shape has at least one homomorphism here

    def test_fixpoint_fires_every_rule_with_an_encoded_rule(self):
        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine import fixpoint
        from repro.engine.planner import EncodedRule
        from repro.lp.programs import NormalRule

        s, t, blocked = (
            Predicate("fire_s", 2),
            Predicate("fire_t", 1),
            Predicate("fire_blocked", 1),
        )
        c = [Constant(f"c{i}") for i in range(3)]
        X, Y = Variable("X"), Variable("Y")
        f = lambda *args: FunctionTerm("f", args)
        bodyless = NormalRule(s(c[0], f(c[0], c[1])), (), (blocked(c[2]),))
        function_pattern = NormalRule(t(Y), (s(X, f(X, Y)),), ())
        fired = []
        result = fixpoint(
            [bodyless, function_pattern],
            [s(c[1], f(c[1], c[2]))],
            on_fire_bindings=lambda rule, encoded, payload: fired.append(
                (rule.source, encoded, payload)
            ),
        )
        assert {source for source, _, _ in fired} == {bodyless, function_pattern}
        for _, encoded, payload in fired:
            assert isinstance(encoded, EncodedRule)
            assert isinstance(payload, tuple)
        assert {a for a in result.atoms() if a.predicate == t} == {t(c[1]), t(c[2])}

    def test_view_with_function_terms_matches_scratch(self, monkeypatch):
        """Skolem heads, function patterns in rule bodies (recursive, with a
        repeated inner variable, and under negation) through 48 random
        add/remove repairs, each checked against from-scratch evaluation.
        Every firing the view records arrives as a row-plane binding."""
        import random

        from repro.core.atoms import Predicate
        from repro.core.terms import Constant, FunctionTerm, Variable
        from repro.engine import MaterializedView, SupportTable
        from repro.engine.planner import EncodedRule
        from repro.lp.programs import NormalRule
        from repro.query import evaluate_stratified

        recorded = []
        original = SupportTable.record_firing_binding

        def recording(self, rule, encoded, payload):
            recorded.append((rule.source, encoded))
            return original(self, rule, encoded, payload)

        monkeypatch.setattr(SupportTable, "record_firing_binding", recording)

        e, node, tagged = (
            Predicate("view_e", 2),
            Predicate("view_node", 1),
            Predicate("view_tagged", 1),
        )
        pair, reach, lonely, wrap, twin, bare = (
            Predicate("view_pair", 2),
            Predicate("view_reach", 2),
            Predicate("view_lonely", 1),
            Predicate("view_wrap", 1),
            Predicate("view_twin", 1),
            Predicate("view_bare", 1),
        )
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        sk = lambda *args: FunctionTerm("sk", args)
        f = lambda *args: FunctionTerm("f", args)
        rules = [
            NormalRule(pair(X, sk(X, Y)), (e(X, Y),), ()),
            NormalRule(reach(X, Y), (pair(X, sk(X, Y)),), ()),
            NormalRule(reach(X, Z), (reach(X, Y), pair(Y, sk(Y, Z))), ()),
            NormalRule(lonely(X), (node(X),), (reach(X, X),)),
            NormalRule(wrap(f(X, X)), (lonely(X),), ()),
            NormalRule(twin(X), (tagged(f(X, X)),), ()),
            NormalRule(twin(X), (wrap(f(X, X)), node(X)), ()),
            NormalRule(bare(X), (node(X),), (wrap(f(X, X)),)),
        ]
        c = [Constant(f"c{i}") for i in range(4)]
        universe = [e(x, y) for x in c for y in c]
        universe += [node(x) for x in c]
        universe += [tagged(f(x, y)) for x in c[:2] for y in c[:2]]
        rng = random.Random(5)
        facts = set(rng.sample(universe, 8))
        view = MaterializedView(rules, facts)
        assert view.atoms() == evaluate_stratified(rules, facts).atoms()
        for _ in range(48):
            atom = rng.choice(universe)
            if atom in facts and rng.random() < 0.6:
                facts.discard(atom)
                view.apply_delta(deletions=[atom])
            else:
                facts.add(atom)
                view.apply_delta(additions=[atom])
            assert view.atoms() == evaluate_stratified(rules, facts).atoms()
        assert any(a.predicate == reach for a in view.atoms())
        assert any(a.predicate == twin for a in view.atoms())
        assert all(isinstance(encoded, EncodedRule) for _, encoded in recorded)
        assert {source for source, _ in recorded} == set(rules)


# ---------------------------------------------------------------------------
# Incremental maintenance parity: repaired views vs from-scratch evaluation
# ---------------------------------------------------------------------------


class TestMaintenanceParity:
    """Property tests: a :class:`~repro.engine.MaterializedView` repaired
    through any interleaving of base-fact additions and deletions always
    equals a from-scratch stratified evaluation over the equivalent flat
    fact set — counting strata, DRed strata and cross-stratum negation
    alike.  Programs come from the same generator as the magic-set parity
    suite."""

    @staticmethod
    def _workload(seed: int):
        from repro.core.atoms import Atom, Predicate
        from repro.core.terms import Constant
        from repro.generators import random_database, random_stratified_datalog

        rules = random_stratified_datalog(
            layers=3,
            predicates_per_layer=2,
            negation_probability=0.4,
            recursion_probability=0.6,
            seed=seed,
        )
        predicates = [Predicate(f"s0_{i}", 2) for i in range(2)]
        database = random_database(predicates, constants=5, facts=14, seed=seed)
        universe = [
            Atom(p, (Constant(f"c{i}"), Constant(f"c{j}")))
            for p in predicates
            for i in range(5)
            for j in range(5)
        ]
        return rules, database, universe

    @pytest.mark.parametrize("seed", [0, 7, 13, 29])
    def test_random_add_remove_interleavings_match_scratch(self, seed):
        import random

        from repro.engine import MaterializedView
        from repro.query import evaluate_stratified

        rules, database, universe = self._workload(seed)
        rng = random.Random(seed)
        facts = set(database.atoms)
        view = MaterializedView(rules, facts)
        for _ in range(30):
            roll = rng.random()
            if roll < 0.4 and facts:
                atom = rng.choice(sorted(facts, key=lambda a: a.sort_key()))
                facts.discard(atom)
                view.apply_delta(deletions=[atom])
            elif roll < 0.8:
                atom = rng.choice(universe)
                facts.add(atom)
                view.apply_delta(additions=[atom])
            else:
                # Mixed batch: one addition and one deletion in one apply.
                added = rng.choice(universe)
                pool = sorted(facts - {added}, key=lambda a: a.sort_key())
                removed = rng.choice(pool) if pool else None
                facts.add(added)
                deletions = []
                if removed is not None:
                    facts.discard(removed)
                    deletions.append(removed)
                view.apply_delta(additions=[added], deletions=deletions)
            assert view.atoms() == evaluate_stratified(rules, facts).atoms()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_view_delta_reports_exact_net_change(self, seed):
        import random

        from repro.engine import MaterializedView

        rules, database, universe = self._workload(seed)
        rng = random.Random(seed * 31)
        facts = set(database.atoms)
        view = MaterializedView(rules, facts)
        for _ in range(20):
            before = view.atoms()
            atom = rng.choice(universe)
            if atom in facts:
                facts.discard(atom)
                delta = view.apply_delta(deletions=[atom])
            else:
                facts.add(atom)
                delta = view.apply_delta(additions=[atom])
            after = view.atoms()
            assert delta.added == after - before
            assert delta.removed == before - after
