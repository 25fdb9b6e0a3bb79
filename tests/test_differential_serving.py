"""Differential serving harness: every serving path equals the paper's oracle.

For stratified Datalog¬ the unique stable model is the perfect model, so the
oracle is :func:`~repro.query.full_fixpoint_answers` (materialise the whole
perfect model, then evaluate the query).  Outside the fragment the certain
answers come from cautious reasoning over the stable models
(:func:`repro.stable.cautious_answers`).

Seeded ``random_stratified_datalog`` programs run through interleaved adds
and removes.  At every revision four paths must each equal the oracle:

* a :class:`~repro.query.QuerySession` mutated in lockstep;
* a durable :class:`~repro.service.DatalogService` reader miss (a query the
  epoch has never seen);
* a service hit after warming (a query read at an earlier revision, which
  the writer replayed through its session and keeps repaired);
* a :class:`~repro.service.net.Replica` fed by a ``LocalReplicaLink``.

After the last write the store is reopened from its WAL and checkpoint, and
the recovered service must equal the oracle too.
"""

from __future__ import annotations

import random

import pytest

from repro import parse_database, parse_program, parse_query
from repro.core.atoms import Atom
from repro.core.database import Database
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Variable
from repro.generators import random_database, random_stratified_datalog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, use_tracer
from repro.query import QuerySession, full_fixpoint_answers
from repro.service import DatalogService
from repro.service.durability import DurabilityConfig
from repro.service.net import LocalReplicaLink, Replica, ReplicationPublisher
from repro.stable import cautious_answers

WRITES = 6


class _Paths:
    """One session, one durable service, and a replica following it."""

    def __init__(self, database, rules, durability) -> None:
        self.session = QuerySession(database, rules)
        registry = MetricsRegistry()
        self.service = DatalogService(
            database, rules, metrics=registry, durability=durability
        )
        self.hits = registry.counter("service_read_cache_hits")
        self.publisher = ReplicationPublisher(
            self.service, metrics=MetricsRegistry()
        )
        self.replica = Replica(rules, metrics=MetricsRegistry())
        self.link = LocalReplicaLink(self.publisher, self.replica)
        self.link.sync()

    def write(self, kind: str, atoms) -> None:
        if kind == "add":
            expected = self.session.add_facts(atoms)
            assert self.service.add_facts(atoms).result(10) == expected
        else:
            expected = self.session.remove_facts(atoms)
            assert self.service.remove_facts(atoms).result(10) == expected
        self.link.sync()
        assert self.replica.applied_revision == self.service.revision
        assert self.service.facts == self.session.facts == self.replica.facts

    def miss(self, query: ConjunctiveQuery) -> frozenset:
        epoch = self.service.epoch()
        assert epoch.cached(query) is None
        hits = self.hits.value
        answers = epoch.answers(query)
        assert self.hits.value == hits
        return answers

    def hit(self, query: ConjunctiveQuery) -> frozenset:
        epoch = self.service.epoch()
        assert epoch.cached(query) is not None
        hits = self.hits.value
        answers = epoch.answers(query)
        assert self.hits.value == hits + 1
        return answers

    def close(self) -> None:
        self.replica.close()
        self.publisher.close()
        self.service.close()


def _queries(rules, constants, rng) -> list:
    """Bound and free queries over every intensional predicate, shuffled."""
    x, y = Variable("X"), Variable("Y")
    queries = []
    for predicate in sorted(rules.intensional_predicates(), key=lambda p: p.name):
        queries.append(ConjunctiveQuery((predicate(x, y).positive(),), (x, y)))
        for constant in constants:
            queries.append(
                ConjunctiveQuery((predicate(constant, y).positive(),), (y,))
            )
            queries.append(
                ConjunctiveQuery((predicate(x, constant).positive(),), (x,))
            )
    rng.shuffle(queries)
    return queries


def _write(rng, facts, edb, constants):
    """An add of one or two fresh atoms, or a remove of present facts."""
    if facts and rng.random() < 0.5:
        present = sorted(facts, key=str)
        return "remove", rng.sample(present, min(len(present), rng.randint(1, 2)))
    atoms = [
        Atom(predicate, (rng.choice(constants), rng.choice(constants)))
        for predicate in rng.sample(edb, min(len(edb), rng.randint(1, 2)))
    ]
    return "add", atoms


@pytest.mark.parametrize("seed", range(6))
def test_every_serving_path_equals_the_perfect_model(seed, tmp_path):
    rules = random_stratified_datalog(layers=3, predicates_per_layer=2, seed=seed)
    edb = sorted(rules.extensional_predicates(), key=lambda p: p.name)
    if not edb:
        pytest.skip("degenerate draw without extensional predicates")
    database = random_database(edb, constants=4, facts=10, seed=seed)
    constants = sorted(database.constants, key=lambda c: c.name)
    rng = random.Random(seed)
    queries = _queries(rules, constants, rng)
    per_revision = max(1, len(queries) // (WRITES + 1))
    # Checkpoint mid-run and not on close, so the reopen below recovers a
    # checkpoint *and* replays a log tail.
    durability = DurabilityConfig(
        path=tmp_path, checkpoint_every=4, checkpoint_on_close=False
    )
    paths = _Paths(database, rules, durability)
    read = []
    try:
        for revision in range(WRITES + 1):
            if revision:
                kind, atoms = _write(rng, paths.session.facts, edb, constants)
                paths.write(kind, atoms)
            facts = paths.session.facts
            fresh = queries[revision * per_revision : (revision + 1) * per_revision]
            for query in read + fresh:
                expected = full_fixpoint_answers(facts, rules, query)
                where = f"seed={seed} revision={revision} query={query}"
                assert paths.session.answers(query) == expected, where
                served = paths.hit(query) if query in read else paths.miss(query)
                assert served == expected, where
                assert paths.replica.answers(query) == expected, where
            read.extend(fresh)
        facts = paths.service.facts
    finally:
        paths.close()
    with DatalogService.open(tmp_path, rules, metrics=MetricsRegistry()) as reopened:
        assert reopened.facts == facts
        for query in queries:
            assert reopened.answers(query) == full_fixpoint_answers(
                facts, rules, query
            ), f"seed={seed} recovered query={query}"


UNSTRATIFIABLE = parse_program(
    """
    p(X), not q(X) -> r(X)
    p(X), not r(X) -> q(X)
    """
)


def test_unstratifiable_paths_equal_cautious_answers(tmp_path):
    """Outside the fragment the session, a service reader and a replica all
    answer by cautious reasoning over the stable models."""
    database = parse_database("p(a). p(b).")
    queries = [parse_query(f"?(X) :- {name}(X)") for name in "pqr"]
    steps = [
        ("add", parse_database("p(c).").atoms),
        ("remove", parse_database("p(a).").atoms),
        ("add", parse_database("q(b).").atoms),
    ]
    paths = _Paths(database, UNSTRATIFIABLE, tmp_path)
    try:
        for step in [None, *steps]:
            if step is not None:
                paths.write(*step)
            facts = Database.of(paths.session.facts)
            for query in queries:
                expected = cautious_answers(facts, UNSTRATIFIABLE, query)
                assert paths.session.answers(query) == expected, query
                # Fallback answers are never warmed: every read is a miss.
                assert paths.miss(query) == expected, query
                assert paths.replica.answers(query) == expected, query
    finally:
        paths.close()


PATH_RULES = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    edge(X, Z), path(Z, Y) -> path(X, Y)
    """
)


def test_reader_then_writer_rewrites_a_shape_once():
    """A shape a service reader compiled is the plan the writer's session
    warms its view from: one ``query.magic_rewrite`` per shape."""
    query = parse_query("?(Y) :- path(a, Y)")
    tracer = Tracer(capacity=4096)
    with use_tracer(tracer), DatalogService(
        parse_database("edge(a, b). edge(b, c)."),
        PATH_RULES,
        metrics=MetricsRegistry(),
    ) as service:
        service.answers(query)
        assert len(tracer.spans("query.magic_rewrite")) == 1
        service.add_facts(parse_database("edge(c, d).").atoms).result(10)
        assert service.epoch().cached(query) is not None  # warmed by the writer
        assert len(tracer.spans("query.magic_rewrite")) == 1
        # Another constant of the same shape, read on the new epoch, reuses it.
        service.answers(parse_query("?(Y) :- path(b, Y)"))
        assert len(tracer.spans("query.magic_rewrite")) == 1


def test_a_live_view_keeps_one_plan_past_the_plan_cache_bound():
    """A shape pushed out of the evaluator's plan cache by newer shapes
    while the writer's view still holds its plan is not rewritten again by
    the next reader miss."""
    query = parse_query("?(Y) :- path(a, Y)")
    tracer = Tracer(capacity=4096)
    with use_tracer(tracer), DatalogService(
        parse_database("edge(a, b). edge(b, c)."),
        PATH_RULES,
        plan_cache_size=2,
        metrics=MetricsRegistry(),
    ) as service:
        service.answers(query)
        service.add_facts(parse_database("edge(c, d).").atoms).result(10)
        assert service.epoch().cached(query) is not None  # the writer's view
        # Two more shapes, read but never warmed, fill the bound of 2.
        service.answers(parse_query("?(X) :- path(X, d)"))
        service.answers(parse_query("?(X, Y) :- path(X, Y)"))
        assert len(tracer.spans("query.magic_rewrite")) == 3
        service.answers(parse_query("?(Y) :- path(b, Y)"))
        assert len(tracer.spans("query.magic_rewrite")) == 3
