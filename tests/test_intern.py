"""Property tests for the interned columnar tuple core.

The symbol table is the trust anchor of the whole row plane: every stored
fact, delta-log entry, pattern-table bucket and join binding is only as
correct as ``encode -> decode`` being the identity and two racing encoders
agreeing on one id.  These tests hammer exactly that, with hypothesis-driven
term shapes and an 8-thread concurrent-intern battery, plus the
``TupleRelation`` invariants (rows vs columns vs cached scans) and the
engine-level guarantee that the encoded executor yields the assignments a
direct count over the stored edges finds.
"""

from __future__ import annotations

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant, FunctionTerm, Null, Variable
from repro.engine import RelationIndex, SymbolTable, TupleRelation, global_symbols
from repro.engine.planner import CompiledRule, enumerate_matches


# ---------------------------------------------------------------------------
# hypothesis strategies: ground and non-ground term shapes
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghij_0123456789", min_size=1, max_size=8
).map(lambda s: "t" + s)


def _terms(max_depth: int = 2):
    base = st.one_of(
        _names.map(Constant),
        _names.map(Null),
        _names.map(Variable),
    )
    return st.recursive(
        base,
        lambda children: st.tuples(
            _names, st.lists(children, min_size=1, max_size=3)
        ).map(lambda pair: FunctionTerm(pair[0], tuple(pair[1]))),
        max_leaves=6,
    )


class TestSymbolTableRoundTrip:
    @given(st.lists(_terms(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_is_identity(self, terms):
        table = SymbolTable()
        for term in terms:
            tid = table.encode_term(term)
            assert table.decode_term(tid) == term
            # Re-encoding (the decoded canonical object or the original)
            # always lands on the same id — the density invariant.
            assert table.encode_term(term) == tid
            assert table.encode_term(table.decode_term(tid)) == tid

    @given(st.lists(_terms(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_ids_are_dense_and_distinct(self, terms):
        table = SymbolTable()
        ids = [table.encode_term(term) for term in terms]
        assert set(ids) == set(range(len(table)))
        distinct = {}
        for term, tid in zip(terms, ids):
            if term in distinct:
                assert distinct[term] == tid
            else:
                distinct[term] = tid
        assert len(set(distinct.values())) == len(distinct)

    @given(st.lists(_terms(), min_size=1, max_size=12), _names)
    @settings(max_examples=40, deadline=None)
    def test_atom_round_trip_through_rows(self, terms, name):
        table = SymbolTable()
        predicate = Predicate(name, len(terms))
        atom = Atom(predicate, tuple(terms))
        row = table.encode_atom(atom)
        assert table.try_encode_atom(atom) == row
        decoded = table.atom(predicate, row)
        assert decoded == atom
        # The decode cache hands back one canonical object per row.
        assert table.atom(predicate, row) is decoded

    def test_try_encode_never_interns(self):
        table = SymbolTable()
        assert table.try_encode_term(Constant("unseen")) is None
        assert len(table) == 0
        atom = Predicate("p", 1)(Constant("unseen"))
        assert table.try_encode_atom(atom) is None
        assert len(table) == 0

    def test_function_terms_intern_by_structure(self):
        table = SymbolTable()
        a = table.encode_term(Constant("a"))
        fa1 = table.encode_function("f", (a,))
        fa2 = table.encode_term(FunctionTerm("f", (Constant("a"),)))
        assert fa1 == fa2
        assert table.decode_term(fa1) == FunctionTerm("f", (Constant("a"),))

    def test_structure_round_trips_nested_function_terms(self):
        table = SymbolTable()
        inner = FunctionTerm("g", (Null("n"), Variable("X")))
        term = FunctionTerm("f", (Constant("a"), inner, Constant("a")))
        shape = table.structure(table.encode_term(term))
        assert shape is not None
        name, argument_ids = shape
        assert name == "f"
        assert [table.decode_term(tid) for tid in argument_ids] == list(
            term.arguments
        )
        inner_name, inner_ids = table.structure(argument_ids[1])
        assert inner_name == "g"
        assert [table.decode_term(tid) for tid in inner_ids] == list(
            inner.arguments
        )
        assert table.encode_function(name, argument_ids) == table.encode_term(term)

    def test_structure_is_none_for_constants_and_nulls(self):
        table = SymbolTable()
        assert table.structure(table.encode_term(Constant("a"))) is None
        assert table.structure(table.encode_term(Null("n"))) is None

    def test_structure_interns_an_unseen_argument_once(self):
        table = SymbolTable()
        tid = table.encode_term(FunctionTerm("f", (Constant("fresh"),)))
        assert table.try_encode_term(Constant("fresh")) is None
        size = len(table)
        first = table.structure(tid)
        assert len(table) == size + 1
        assert table.structure(tid) == first
        assert len(table) == size + 1
        assert first[1] == (table.try_encode_term(Constant("fresh")),)


class TestConcurrentInterning:
    def test_eight_thread_hammer_agrees_on_unique_ids(self):
        """Eight threads interning overlapping term sets must agree on one
        id per distinct term, with the table exactly covering the union."""
        table = SymbolTable()
        universe = [Constant(f"c{i}") for i in range(200)]
        universe += [Null(f"n{i}") for i in range(100)]
        universe += [
            FunctionTerm("f", (Constant(f"c{i}"), Null(f"n{i % 100}")))
            for i in range(100)
        ]
        results: list = [None] * 8
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            # Each worker interns the whole universe in a different order.
            own = universe[worker:] + universe[:worker]
            barrier.wait()
            results[worker] = {
                term: table.encode_term(term) for term in own
            }

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = results[0]
        for mapping in results[1:]:
            assert mapping == reference
        assert len(table) == len(universe)
        assert sorted(reference.values()) == list(range(len(universe)))
        for term, tid in reference.items():
            assert table.decode_term(tid) == term


class TestTupleRelation:
    def test_rows_columns_and_scans_stay_consistent(self):
        relation = TupleRelation(2)
        relation.append((1, 2))
        relation.append((3, 4))
        assert relation.scan() == [(1, 2), (3, 4)]
        assert list(relation.column(0)) == [1, 3]
        assert list(relation.column(1)) == [2, 4]
        # Appends maintain live columns in place.
        relation.append((5, 6))
        assert list(relation.column(0)) == [1, 3, 5]
        # Removals invalidate; the next read rebuilds.
        relation.discard((3, 4))
        assert relation.scan() == [(1, 2), (5, 6)]
        assert list(relation.column(1)) == [2, 6]
        assert (1, 2) in relation and (3, 4) not in relation
        assert len(relation) == 2

    def test_copy_is_independent(self):
        relation = TupleRelation(1)
        relation.append((7,))
        clone = relation.copy()
        clone.append((8,))
        assert relation.scan() == [(7,)]
        assert clone.scan() == [(7,), (8,)]

    def test_atoms_decode_through_canonical_cache(self):
        symbols = SymbolTable()
        predicate = Predicate("p", 2)
        a, b = Constant("a"), Constant("b")
        relation = TupleRelation(2)
        relation.append(symbols.encode_atom(predicate(a, b)))
        decoded = relation.atoms(symbols, predicate)
        assert decoded == [predicate(a, b)]
        assert decoded[0] is symbols.atom(predicate, relation.scan()[0])


class TestEncodedExecutorParity:
    """The interned executor enumerates exactly the two-edge paths of the
    stored data."""

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_join_matches_object_fallback(self, edges):
        e = Predicate("e", 2)
        atoms = [
            e(Constant(f"c{x}"), Constant(f"c{y}")) for x, y in edges
        ]
        index = RelationIndex(atoms)
        X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
        rule = CompiledRule(heads=(), positive=(e(X, Y), e(Y, Z)), negative=())
        found = {
            (m[X], m[Y], m[Z]) for m in enumerate_matches(rule, index)
        }
        expected = {
            (Constant(f"c{x}"), Constant(f"c{y}"), Constant(f"c{z}"))
            for x, y in set(edges)
            for x2, z in set(edges)
            if x2 == y
        }
        assert found == expected

    def test_global_symbols_is_shared_default(self):
        index = RelationIndex()
        assert index.symbols is global_symbols()
