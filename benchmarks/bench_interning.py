"""Absolute timings of the interned row-plane join executor.

The engine has one join executor: ``EncodedRule`` / ``enumerate_bindings``
over dense integer ids, which ``fixpoint``, the maintenance layer and
``enumerate_matches`` all run.  Each join plan is generated once into a
Python function with one nested loop per body literal, which yields every
binding as a tuple of ids.  This module times it (planning and generation
included, memoised after the first round) on two join-heavy shapes and
records the numbers in ``BENCH_results.json``:

* the **magic-sets shape** — the recursive reachability join of
  bench_magic_sets, run over the materialised closure of its largest
  instance (16 chains x 48 links);
* the **chase shape** — a cyclic three-literal homomorphism join (the
  pattern-matching core the restricted chase runs per applicability check)
  on a seeded random graph.

Both check their match counts against a direct computation over the edge
set.  Nothing here gates on speed: absolute engine speed is gated by the
repository benchmark's ``cold-read`` workload (``perfbench/``).
"""

from __future__ import annotations

import random

import pytest

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.terms import Constant, Variable
from repro.engine import RelationIndex, fixpoint
from repro.engine.planner import (
    CompiledRule,
    compile_rule,
    encode_rule,
    enumerate_bindings,
)

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)
EDGE = Predicate("e", 2)
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

REACH_RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

#: The largest bench_magic_sets instance (chains, chain length).
CHAINS, LENGTH = 16, 48
#: The chase-shaped homomorphism workload (nodes, edges, seed).
GRAPH_NODES, GRAPH_EDGES, GRAPH_SEED = 300, 2400, 7

#: The recursive magic-sets join, enumerated over the full closure.
REACH_JOIN = CompiledRule(
    heads=(), positive=(Atom(LINK, (X, Z)), Atom(REACHABLE, (Z, Y))), negative=()
)
#: Triangle listing — the multi-literal cyclic join of a chase TGD body.
TRIANGLE = CompiledRule(
    heads=(),
    positive=(Atom(EDGE, (X, Y)), Atom(EDGE, (Y, Z)), Atom(EDGE, (Z, X))),
    negative=(),
)


def graph_edges() -> set:
    rng = random.Random(GRAPH_SEED)
    edges = set()
    while len(edges) < GRAPH_EDGES:
        edges.add((rng.randrange(GRAPH_NODES), rng.randrange(GRAPH_NODES)))
    return edges


def count_triangles(edges: set) -> int:
    """Directed triangles (x, y, z) with x->y, y->z, z->x, counted over the
    edge set itself: one ordered triple per rotation, as the join yields."""
    successors: dict = {}
    for x, y in edges:
        successors.setdefault(x, set()).add(y)
    return sum(
        1
        for x, y in edges
        for z in successors.get(y, ())
        if x in successors.get(z, ())
    )


@pytest.fixture(scope="module")
def reach_closure() -> RelationIndex:
    atoms = [
        Atom(LINK, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
        for c in range(CHAINS)
        for i in range(LENGTH)
    ]
    closure = fixpoint([compile_rule(rule) for rule in REACH_RULES], atoms)
    assert closure.count(REACHABLE) == CHAINS * LENGTH * (LENGTH + 1) // 2
    return closure


@pytest.fixture(scope="module")
def triangle_graph() -> RelationIndex:
    return RelationIndex(
        Atom(EDGE, (Constant(f"v{x}"), Constant(f"v{y}"))) for x, y in graph_edges()
    )


def count_interned(pattern: CompiledRule, index: RelationIndex) -> int:
    """Consume the row plane the way fixpoint/maintenance do: binding tuples."""
    encoded = encode_rule(pattern, index.symbols)
    return sum(1 for _ in enumerate_bindings(encoded, index))


def test_reachability_join(benchmark, reach_closure):
    matches = benchmark(lambda: count_interned(REACH_JOIN, reach_closure))
    assert matches == CHAINS * LENGTH * (LENGTH - 1) // 2


def test_triangle_homomorphism(benchmark, triangle_graph):
    matches = benchmark(lambda: count_interned(TRIANGLE, triangle_graph))
    assert matches == count_triangles(graph_edges())
