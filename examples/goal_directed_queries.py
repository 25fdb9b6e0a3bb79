"""Goal-directed query answering with magic sets (repro.query).

A transitive-closure program over a railway network: the full fixpoint
computes reachability between *every* pair of stations, while the magic-set
rewriting answers "which stations can I reach from Zurich?" touching only the
part of the network reachable from Zurich.  The example also shows plan reuse
across query constants and answer-cache invalidation on updates.

Run with:  python examples/goal_directed_queries.py
"""

from __future__ import annotations

from repro import parse_database, parse_program, parse_query
from repro.obs import MetricsRegistry
from repro.query import QuerySession, full_fixpoint_answers, magic_rewrite


def main() -> None:
    rules = parse_program(
        """
        link(X, Y) -> reachable(X, Y)
        link(X, Z), reachable(Z, Y) -> reachable(X, Y)
        """
    )
    # Two disconnected components: a small alpine loop and a long coastal line.
    database = parse_database(
        """
        link(zurich, bern). link(bern, geneva). link(geneva, zurich).
        link(lisbon, porto). link(porto, vigo). link(vigo, bilbao).
        link(bilbao, bordeaux). link(bordeaux, nantes).
        """
    )

    query = parse_query("?(Y) :- reachable(zurich, Y)")
    print("Rewritten program for", query)
    for rule in magic_rewrite(rules, query).rules:
        print("  ", rule)

    registry = MetricsRegistry()  # the session's counters live here
    session = QuerySession(database, rules, metrics=registry)
    answers = session.answers(query)
    print("\nReachable from zurich:", sorted(str(t[0]) for t in answers))

    # Same plan, different constant: the compiled rewriting is reused and
    # only the magic seed changes.
    coastal = parse_query("?(Y) :- reachable(lisbon, Y)")
    print("Reachable from lisbon:", sorted(str(t[0]) for t in session.answers(coastal)))
    counters = registry.snapshot().counters
    print(
        "Plan cache: "
        f"{counters['session_plan_misses']} compiled, "
        f"{counters['session_plan_hits']} reused"
    )

    # The goal-directed run derives only the zurich/lisbon cones; the naive
    # baseline materialises all-pairs reachability first.
    baseline = full_fixpoint_answers(database, rules, query)
    assert baseline == answers

    # Updates invalidate cached answers (plans survive — they depend only on
    # the rules).
    session.add_facts(parse_database("link(nantes, paris).").atoms)
    print(
        "After adding nantes -> paris:",
        sorted(str(t[0]) for t in session.answers(coastal)),
    )


if __name__ == "__main__":
    main()
