"""Observability cost model: tracing off, disabled, enabled — and explain().

The contract of ``repro.obs`` is that the *disabled* path is near-free:
instrumented seams hold ``tracer=None`` or pay one ``enabled`` attribute
check, so installing ``Tracer(enabled=False)`` (or no tracer at all) must
not slow evaluation down.  The measured workload is one cold selective
evaluation through the traced fixpoint — compile the plan, index a
48-link chain, run the plan on the index's snapshot, as a service reader
miss does.  ``test_disabled_overhead_budget`` hard-asserts the budget
(≤ 5% over baseline, min-of-N with retries to shrug off scheduler noise) —
the CI ``obs`` job runs it as the overhead smoke.  The parametrised mode
benchmark reports the enabled-tracer cost alongside for reference, and
``test_explain_cost`` prices the per-rule profiler.
"""

from __future__ import annotations

import time

import pytest

from repro import parse_database, parse_program, parse_query
from repro.engine import RelationIndex
from repro.obs import Tracer, get_tracer, use_tracer
from repro.query import QuerySession, compile_query_plan

RULES = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    edge(X, Z), path(Z, Y) -> path(X, Y)
    """
)
CHAIN = 48
DATABASE = parse_database(
    " ".join(f"edge(n{i}, n{i + 1})." for i in range(CHAIN))
)
QUERY = parse_query("?(Y) :- path(n0, Y)")


def _workload():
    """One cold selective evaluation: magic rewrite + stratified fixpoint.

    The plan runs on a fresh index's snapshot, the path of a service reader
    miss, so this exercises every per-round span guard in the hot loop.  The
    tracer is chosen as ``QuerySession._compute`` chooses it: the installed
    one when enabled, else ``None``.
    """
    active = get_tracer()
    tracer = active if active.enabled else None
    plan = compile_query_plan(RULES, QUERY)
    answers = plan.execute_on(
        RelationIndex(DATABASE.atoms).snapshot(), QUERY, tracer=tracer
    )
    assert len(answers) == CHAIN
    return answers


def _min_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("mode", ["baseline", "disabled", "enabled"])
def test_tracer_mode_cost(benchmark, mode):
    """Wall-clock of the workload under each tracer configuration."""
    if mode == "baseline":
        benchmark(_workload)
    elif mode == "disabled":
        with use_tracer(Tracer(enabled=False)):
            benchmark(_workload)
    else:
        tracer = Tracer(capacity=8192)
        with use_tracer(tracer):
            benchmark(_workload)
        assert tracer.spans("engine.fixpoint.round")


def test_disabled_overhead_budget():
    """Hard gate: a disabled tracer costs ≤ 5% over no tracer at all."""
    budget = 1.05
    _workload()  # warm rule-compilation and plan caches
    baseline = disabled = float("inf")
    for _ in range(5):
        baseline = _min_time(_workload)
        with use_tracer(Tracer(enabled=False)):
            disabled = _min_time(_workload)
        if disabled <= baseline * budget:
            return
    pytest.fail(
        f"disabled-tracer overhead {disabled / baseline - 1.0:+.1%} "
        f"exceeds the {budget - 1.0:.0%} budget "
        f"(baseline {baseline * 1e3:.2f}ms, disabled {disabled * 1e3:.2f}ms)"
    )


def test_explain_cost(benchmark):
    """Price of a profiled evaluation, and that it actually attributes."""
    session = QuerySession(DATABASE, RULES)
    report = benchmark(lambda: session.explain(QUERY, top=5))
    assert report.strata
    assert report.hot_rules and report.hot_rules[0].seconds >= 0.0
    assert sum(profile.tuples for profile in report.hot_rules) > 0
