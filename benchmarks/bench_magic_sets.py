"""Goal-directed (magic-set) vs full-fixpoint certain answers (repro.query).

The workload is single-source reachability on a union of disjoint chains: a
constant-bound query touches one chain, the full fixpoint pays for all-pairs
reachability on every chain.  The last size is the "largest instance" of the
acceptance criterion: the goal-directed path must be at least 2x faster on
the selective query.
"""

from __future__ import annotations

import time

import pytest

from repro import parse_program
from repro.core.atoms import Atom, Predicate
from repro.core.database import Database
from repro.core.queries import ConjunctiveQuery, certain_answers
from repro.core.terms import Constant, Variable
from repro.obs import MetricsRegistry
from repro.query import QuerySession

RULES = parse_program(
    """
    link(X, Y) -> reachable(X, Y)
    link(X, Z), reachable(Z, Y) -> reachable(X, Y)
    """
)

LINK = Predicate("link", 2)
REACHABLE = Predicate("reachable", 2)

#: (number of disjoint chains, chain length); the last entry is the largest.
SIZES = [(4, 12), (8, 24), (16, 48)]


def chain_database(chains: int, length: int) -> Database:
    atoms = [
        Atom(LINK, (Constant(f"n{c}_{i}"), Constant(f"n{c}_{i + 1}")))
        for c in range(chains)
        for i in range(length)
    ]
    return Database.of(atoms)


def selective_query(chain: int = 0) -> ConjunctiveQuery:
    y = Variable("Y")
    return ConjunctiveQuery(
        (Atom(REACHABLE, (Constant(f"n{chain}_0"), y)).positive(),), (y,)
    )


@pytest.mark.parametrize("chains,length", SIZES)
def test_full_fixpoint_selective(benchmark, chains, length):
    database = chain_database(chains, length)
    query = selective_query()
    answers = benchmark(
        lambda: certain_answers(database, RULES, query, goal_directed=False)
    )
    assert len(answers) == length


@pytest.mark.parametrize("chains,length", SIZES)
def test_magic_session_selective(benchmark, chains, length):
    database = chain_database(chains, length)
    query = selective_query()
    answers = benchmark(lambda: QuerySession(database, RULES).answers(query))
    assert len(answers) == length


def test_plan_reuse_across_constants(benchmark):
    """The steady-state hot path: one session, distinct bound constants."""
    chains, length = SIZES[-1]
    database = chain_database(chains, length)
    registry = MetricsRegistry()
    session = QuerySession(database, RULES, answer_cache_size=1, metrics=registry)
    source = iter(range(10**9))

    def probe():
        return session.answers(selective_query(next(source) % chains))

    answers = benchmark(probe)
    assert len(answers) == length
    assert registry.counter("session_plan_misses").value == 1


def test_selective_speedup_at_least_2x():
    """Acceptance criterion: >=2x on the largest instance, selective query."""
    chains, length = SIZES[-1]
    database = chain_database(chains, length)
    query = selective_query()

    def best_of(runs, call):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - start)
        return min(times), result

    naive_time, naive = best_of(
        2, lambda: certain_answers(database, RULES, query, goal_directed=False)
    )
    magic_time, magic = best_of(
        2, lambda: QuerySession(database, RULES).answers(query)
    )
    assert magic == naive
    assert naive_time >= 2 * magic_time, (
        f"expected >=2x speedup, got {naive_time / magic_time:.2f}x "
        f"(naive {naive_time:.4f}s, magic {magic_time:.4f}s)"
    )
