"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module corresponds to one experiment id of DESIGN.md /
EXPERIMENTS.md.  The paper is a theory paper without measured tables, so each
benchmark (i) asserts the qualitative claim of the corresponding theorem,
example or figure — who wins, which answer is produced, how a quantity grows —
and (ii) measures the runtime of the reference implementation on a small
workload so that regressions are visible.
"""

from __future__ import annotations

import pytest

from repro import Constant, parse_database, parse_program, parse_query
from repro.obs import global_registry
from repro.stable import Universe


@pytest.fixture(autouse=True)
def _obs_counter_deltas(request):
    """Attach per-benchmark counter deltas from the global metrics registry.

    Sessions, services and the chase keep their counters in
    ``repro.obs.global_registry()`` by default, so diffing a snapshot taken
    before the test against one taken after yields exactly the counter work
    the benchmark caused.  Counters never go down, whatever the benchmark
    closed or dropped; a negative delta is a bug and fails the benchmark.  The deltas land in ``benchmark.extra_info`` (under
    ``"metrics"``), which ``run_all.py`` already surfaces as ``counters``
    in BENCH_results.json — uniformly, for every benchmark, without each
    module hand-picking which statistics to record.
    """
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    before = global_registry().snapshot()
    yield
    if benchmark is None:
        return
    diff = global_registry().snapshot().diff(before)
    negative = {name: value for name, value in diff.counters.items() if value < 0}
    assert not negative, f"counters went down during the benchmark: {negative}"
    deltas = {
        name: value for name, value in sorted(diff.counters.items()) if value
    }
    if deltas:
        benchmark.extra_info.setdefault("metrics", {}).update(deltas)


@pytest.fixture(scope="session")
def father_rules():
    return parse_program(
        """
        person(X) -> exists Y. hasFather(X, Y)
        hasFather(X, Y) -> sameAs(Y, Y)
        hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X)
        """
    )


@pytest.fixture(scope="session")
def father_database():
    return parse_database("person(alice).")


@pytest.fixture(scope="session")
def father_universe(father_database):
    return Universe.for_database(
        father_database, extra_constants=[Constant("bob")], max_nulls=1
    )


@pytest.fixture(scope="session")
def query_no_bob_father():
    return parse_query("? :- not hasFather(alice, bob)")


@pytest.fixture(scope="session")
def query_not_abnormal():
    return parse_query("? :- not abnormal(alice)")
