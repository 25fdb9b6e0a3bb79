"""The observability stack: metrics registry, tracer, profiler, exporters.

Covers the tentpole surfaces of ``repro.obs`` — span nesting and timing,
histogram bucket semantics, snapshot/diff round-trips, Prometheus text
validity — plus the integration seams: engine spans under a traced
evaluation, ``QuerySession.explain``, ``DatalogService.stats`` feeding the
exporters, and the regression test for the reader-side cold pattern-table
builds that previously went unrecorded (the counter-drift fix).
"""

from __future__ import annotations

import gc
import io
import json
import re
import sys
import threading

import pytest

from repro import parse_database, parse_program, parse_query
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    MetricsSnapshot,
    NULL_TRACER,
    RuleProfiler,
    Tracer,
    escape_label_value,
    get_tracer,
    json_snapshot,
    prometheus_text,
    sanitize_metric_name,
    set_global_registry,
    set_tracer,
    use_tracer,
)
from repro.query import QuerySession
from repro.service import DatalogService

RULES = parse_program(
    """
    edge(X, Y) -> path(X, Y)
    edge(X, Z), path(Z, Y) -> path(X, Y)
    """
)
DATABASE = parse_database("edge(a, b). edge(b, c). edge(c, d).")
QUERY = parse_query("?(Y) :- path(a, Y)")


# --------------------------------------------------------------------- spans
class TestSpans:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["middle"].depth == 1 and by_name["middle"].parent == "outer"
        assert by_name["inner"].depth == 2 and by_name["inner"].parent == "middle"

    def test_timing_is_positive_and_ordered(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
        outer, inner = (
            tracer.spans("outer")[0],
            tracer.spans("inner")[0],
        )
        assert inner.wall_s is not None and inner.wall_s >= 0
        assert inner.cpu_s is not None and inner.cpu_s >= 0
        # The enclosing span cannot finish before the enclosed one.
        assert outer.wall_s >= inner.wall_s

    def test_attributes_start_set_finish(self):
        tracer = Tracer()
        span = tracer.start("work", phase="init")
        span.set(items=3)
        span.finish(done=True)
        (recorded,) = tracer.spans("work")
        assert recorded.attributes == {"phase": "init", "items": 3, "done": True}

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start("once")
        span.finish()
        wall = span.wall_s
        span.finish()
        assert span.wall_s == wall
        assert len(tracer.spans("once")) == 1

    def test_exception_marks_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.spans("failing")
        assert span.attributes["error"] == "ValueError"

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.start("s", i=index).finish()
        spans = tracer.spans("s")
        assert len(spans) == 4
        assert [span.attributes["i"] for span in spans] == [6, 7, 8, 9]

    def test_per_thread_nesting_is_independent(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        depths: dict[str, int] = {}

        def worker(name: str) -> None:
            barrier.wait()
            with tracer.span(name):
                barrier.wait()  # both threads hold an open span here
                with tracer.span(f"{name}.child") as child:
                    depths[name] = child.depth

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread saw only its own stack: child depth 1, not 2+.
        assert depths == {"t0": 1, "t1": 1}

    def test_disabled_tracer_returns_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.start("ignored")
        assert span is tracer.start("also-ignored")  # the shared no-op span
        span.finish()
        assert tracer.spans() == []
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.start("x") is NULL_TRACER.span("y")

    def test_global_tracer_install_and_restore(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_jsonl_sink_writes_one_object_per_span(self):
        buffer = io.StringIO()
        tracer = Tracer(sinks=(JsonlSink(buffer),))
        with tracer.span("a", size=1):
            pass
        tracer.start("b").finish()
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]
        assert json.loads(lines[0])["attributes"] == {"size": 1}


# ------------------------------------------------------------------- metrics
class TestHistogram:
    def test_bucket_boundaries_are_le_inclusive(self):
        hist = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.1, 1.0, 10.0):  # each lands IN its bound's bucket
            hist.observe(value)
        hist.observe(0.05)  # below the first bound
        hist.observe(11.0)  # overflow -> +Inf bucket
        data = hist.collect()
        assert data["buckets"] == [0.1, 1.0, 10.0]
        # Cumulative le-style counts: <=0.1 holds {0.05, 0.1}.
        assert data["counts"] == [2, 3, 4, 5]
        assert data["count"] == 5
        assert data["sum"] == pytest.approx(0.05 + 0.1 + 1.0 + 10.0 + 11.0)

    def test_unsorted_buckets_are_sorted(self):
        hist = Histogram("h", buckets=(5.0, 1.0, 2.0))
        assert hist.buckets == (1.0, 2.0, 5.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_quantile_estimate(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 4.0
        assert Histogram("h2", buckets=(1.0,)).quantile(0.5) == 0.0

    def test_default_latency_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS)
        )


class TestRegistry:
    def test_get_or_create_shares_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("reads", labels={"kind": "hit"})
        b = registry.counter("reads", labels={"kind": "hit"})
        c = registry.counter("reads", labels={"kind": "miss"})
        assert a is b and a is not c

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_callbacks_sum_and_remove(self):
        gauge = Gauge("g")
        gauge.set(1.0)
        callback = lambda: 2.0  # noqa: E731
        gauge.add_callback(callback)
        gauge.add_callback(lambda: 3.0)
        assert gauge.collect() == pytest.approx(6.0)
        gauge.remove_callback(callback)
        assert gauge.collect() == pytest.approx(4.0)

    def test_snapshot_diff_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        counter.inc(5)
        hist.observe(0.5)
        before = registry.snapshot()
        counter.inc(3)
        hist.observe(1.5)
        hist.observe(3.0)
        after = registry.snapshot()
        delta = after.diff(before)
        assert delta.counters["ops"] == 3
        assert delta.histograms["lat"]["count"] == 2
        assert delta.histograms["lat"]["counts"] == [0, 1, 2]
        assert delta.histograms["lat"]["sum"] == pytest.approx(4.5)
        # Round-trip through as_dict/json stays loadable and equal.
        assert json.loads(json_snapshot(after)) == json.loads(
            json.dumps(after.as_dict())
        )

    def test_engine_accounts_are_added_to_owner_counters(self):
        from repro.engine.stats import EngineStatistics, engine_counters

        registry = MetricsRegistry()
        counters = engine_counters(registry, "owner_engine")
        account = EngineStatistics(iterations=3, tuples_derived=5)
        account.report(counters)
        account.report(counters)
        snap = registry.snapshot().counters
        assert snap["owner_engine_iterations"] == 6
        assert snap["owner_engine_tuples_derived"] == 10
        # One counter per field, reported or not.
        assert snap["owner_engine_rederivations"] == 0
        assert sum(key.startswith("owner_engine_") for key in snap) == len(
            account.as_dict()
        )
        # Reporting reads the account; it stays the caller's to read back.
        assert account.iterations == 3

    def test_thread_safety_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer")
        gauge = registry.gauge("level")
        hist = registry.histogram("obs", buckets=(0.5,))
        threads, per_thread = 8, 2_000

        def worker() -> None:
            for _ in range(per_thread):
                counter.inc()
                gauge.inc(1.0)
                hist.observe(0.25)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside every inc
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        total = threads * per_thread
        snap = registry.snapshot()
        assert snap.counters["hammer"] == total
        assert snap.gauges["level"] == pytest.approx(float(total))
        assert snap.histograms["obs"]["count"] == total
        assert snap.histograms["obs"]["counts"] == [total, total]


# ----------------------------------------------------------------- exporters
_METRIC_LINE = re.compile(
    r"[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+\Z"
)


class TestPrometheusText:
    def test_output_is_structurally_valid(self):
        registry = MetricsRegistry()
        registry.counter("reads total", labels={"kind": "hit"}).inc(2)
        registry.gauge("depth").set(3.5)
        registry.histogram("lat", buckets=(0.5, 1.0)).observe(0.7)
        text = prometheus_text(registry.snapshot())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(r"# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert _METRIC_LINE.match(line), line
        # The illegal space in the metric name was sanitised.
        assert 'repro_reads_total{kind="hit"} 2' in text
        assert "repro_depth 3.5" in text

    def test_histogram_exposition_triplet(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.5, 1.0))
        hist.observe(0.2)
        hist.observe(2.0)
        text = prometheus_text(registry.snapshot())
        assert 'repro_lat_bucket{le="0.5"} 1' in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 2.2" in text
        assert "repro_lat_count 2" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "weird", labels={"q": 'a"b\\c\nd'}
        ).inc()
        text = prometheus_text(registry.snapshot())
        assert '{q="a\\"b\\\\c\\nd"}' in text
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_name_sanitisation(self):
        assert sanitize_metric_name("ok_name:x") == "ok_name:x"
        assert sanitize_metric_name("has space-dash") == "has_space_dash"
        assert re.match(
            r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z", sanitize_metric_name("9starts")
        )

    def test_prefix_can_be_disabled(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc()
        assert "\nbare 1" in "\n" + prometheus_text(
            registry.snapshot(), prefix=""
        )


# ------------------------------------------------------------------ profiler
class TestRuleProfiler:
    def test_records_aggregate_per_rule(self):
        profiler = RuleProfiler()
        rule = object()
        profiler.record(rule, seconds=0.5, triggers=2, tuples=1, rounds=1)
        profiler.record(rule, seconds=0.25, triggers=1, rounds=1)
        (profile,) = profiler.profiles()
        assert profile.seconds == pytest.approx(0.75)
        assert (profile.triggers, profile.tuples, profile.rounds) == (3, 1, 2)

    def test_top_is_sorted_by_seconds(self):
        profiler = RuleProfiler()
        profiler.record("slow", seconds=1.0)
        profiler.record("fast", seconds=0.1)
        profiler.record("mid", seconds=0.5)
        assert [p.rule for p in profiler.top(2)] == ["slow", "mid"]
        assert profiler.total_seconds == pytest.approx(1.6)

    def test_clear(self):
        profiler = RuleProfiler()
        profiler.record("r", seconds=1.0)
        profiler.clear()
        assert len(profiler) == 0 and profiler.profiles() == []


# -------------------------------------------------------------- integration
class TestTracedEvaluation:
    def test_engine_spans_nest_under_session_answers(self):
        # A service reader miss evaluates the plan on the epoch's snapshot,
        # which runs the traced stratified fixpoint.
        tracer = Tracer()
        with use_tracer(tracer):
            with DatalogService(
                DATABASE, RULES, metrics=MetricsRegistry()
            ) as service:
                service.answers(QUERY)
        (read,) = tracer.spans("service.read")
        assert read.attributes["cache"] == "miss"
        engine = ("engine.fixpoint", "engine.stratum", "engine.fixpoint.round")
        for name in engine:
            spans = tracer.spans(name)
            assert spans
            assert all(
                span.thread == read.thread and span.depth > read.depth
                for span in spans
            )
        stratum = tracer.spans("engine.stratum")[0]
        assert stratum.attributes["atoms"] > 0
        # A session miss injects its magic seed into the plan's maintained
        # view: an engine.view_repair span under session.answers.
        tracer = Tracer()
        with use_tracer(tracer):
            QuerySession(DATABASE, RULES).answers(QUERY)
        (answers,) = tracer.spans("session.answers")
        repairs = tracer.spans("engine.view_repair")
        assert repairs
        assert all(span.depth > answers.depth for span in repairs)

    def test_cache_hit_and_miss_attributes(self):
        tracer = Tracer()
        session = QuerySession(DATABASE, RULES, tracer=tracer)
        session.answers(QUERY)
        session.answers(QUERY)
        kinds = [
            span.attributes["cache"]
            for span in tracer.spans("session.answers")
        ]
        assert kinds == ["miss", "hit"]

    def test_mutation_span_reports_repair(self):
        tracer = Tracer()
        session = QuerySession(DATABASE, RULES, tracer=tracer)
        session.answers(QUERY)
        session.add_facts(parse_database("edge(d, e).").atoms)
        (mutate,) = tracer.spans("session.mutate")
        assert mutate.attributes["added"] == 1
        assert mutate.attributes["repaired"] == 1

    def test_magic_rewrite_and_compile_spans_via_global_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            session = QuerySession(DATABASE, RULES)
            session.answers(QUERY)
        assert tracer.spans("query.magic_rewrite")
        assert tracer.spans("engine.compile_rule")

    def test_view_repair_span_via_global_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            session = QuerySession(DATABASE, RULES)
            session.answers(QUERY)  # builds the maintained view
            session.add_facts(parse_database("edge(d, e).").atoms)
        assert tracer.spans("engine.view_repair")

    def test_session_registers_into_registry(self):
        registry = MetricsRegistry()
        session = QuerySession(DATABASE, RULES, metrics=registry)
        session.answers(QUERY)
        snap = registry.snapshot()
        assert snap.counters["session_answer_misses"] == 1
        assert snap.counters["session_engine_tuples_derived"] > 0


class TestExplain:
    def test_report_attributes_time_and_tuples(self):
        session = QuerySession(DATABASE, RULES)
        report = session.explain(QUERY)
        assert report.answers == session.answers(QUERY)
        assert report.plan_rules  # the magic-rewritten program
        assert report.strata, "per-stratum timings missing"
        for timing in report.strata:
            assert timing.wall_s >= 0 and timing.rules > 0
        assert report.hot_rules, "per-rule attribution missing"
        assert any(p.tuples > 0 for p in report.hot_rules)
        assert any(p.triggers > 0 for p in report.hot_rules)
        assert report.wall_s > 0

    def test_top_k_bounds_hot_rules(self):
        session = QuerySession(DATABASE, RULES)
        assert len(session.explain(QUERY, top=2).hot_rules) <= 2

    def test_render_mentions_strata_and_rules(self):
        session = QuerySession(DATABASE, RULES)
        text = str(session.explain(QUERY))
        assert "strata:" in text and "hot rules:" in text

    def test_explain_does_not_pollute_answer_cache(self):
        registry = MetricsRegistry()
        session = QuerySession(DATABASE, RULES, metrics=registry)
        session.explain(QUERY)
        assert registry.counter("session_answer_hits").value == 0
        session.answers(QUERY)
        assert registry.counter("session_answer_misses").value == 1

    def test_explain_outside_fragment_raises(self):
        rules = parse_program("person(X) -> exists Y. parent(X, Y)")
        session = QuerySession(parse_database("person(a)."), rules)
        with pytest.raises(Exception):
            session.explain(parse_query("?(Y) :- parent(a, Y)"))

    def test_as_dict_is_json_serialisable(self):
        session = QuerySession(DATABASE, RULES)
        json.dumps(session.explain(QUERY).as_dict())


class TestServiceObservability:
    def test_stats_exposes_latency_queue_and_lag(self):
        registry = MetricsRegistry()
        with DatalogService(DATABASE, RULES, metrics=registry) as service:
            service.answers(QUERY)
            service.answers(QUERY)
            service.add_facts(parse_database("edge(d, e).").atoms).result()
            snap = service.stats()
        # One histogram per path: the first read missed, the second hit.
        assert snap.histograms['service_read_latency_seconds{cache="hit"}'][
            "count"
        ] == 1
        assert snap.histograms['service_read_latency_seconds{cache="miss"}'][
            "count"
        ] == 1
        assert snap.histograms['service_read_latency_seconds{cache="fallback"}'][
            "count"
        ] == 0
        assert snap.gauges["service_queue_depth"] == 0
        assert snap.gauges["service_epoch_lag_seconds"] >= 0
        assert snap.gauges["service_pending_futures"] == 0
        assert snap.counters["service_reads_served"] == 2
        assert snap.counters["service_read_cache_hits"] == 1

    def test_read_latency_is_observed_under_the_path_taken(self):
        from repro.errors import SolverLimitError, StratificationError

        def counts(service):
            histograms = service.stats().histograms
            return {
                path: histograms[f'service_read_latency_seconds{{cache="{path}"}}'][
                    "count"
                ]
                for path in ("hit", "miss", "fallback")
            }

        # Out of the fragment: the cautious fallback answers, and a read of
        # the same query again is an epoch cache hit.
        unstratifiable = parse_program(
            """
            p(X), not q(X) -> r(X)
            p(X), not r(X) -> q(X)
            """
        )
        database = parse_database("p(a).")
        query = parse_query("?(X) :- p(X)")
        with DatalogService(
            database, unstratifiable, metrics=MetricsRegistry()
        ) as service:
            assert service.answers(query) == service.answers(query)
            assert counts(service) == {"hit": 1, "miss": 0, "fallback": 1}
        # A read that raises is observed under the path it took: the
        # fallback refused ...
        with DatalogService(
            database, unstratifiable, fallback=False, metrics=MetricsRegistry()
        ) as service:
            with pytest.raises(StratificationError):
                service.answers(query)
            assert counts(service) == {"hit": 0, "miss": 0, "fallback": 1}
        # ... or an engine miss over its budget.
        with DatalogService(
            DATABASE, RULES, max_atoms=4, metrics=MetricsRegistry()
        ) as service:
            with pytest.raises(SolverLimitError):
                service.answers(QUERY)
            assert counts(service) == {"hit": 0, "miss": 1, "fallback": 0}

    def test_stats_feed_the_exporters(self):
        registry = MetricsRegistry()
        with DatalogService(DATABASE, RULES, metrics=registry) as service:
            service.answers(QUERY)
            text = prometheus_text(service.stats())
            payload = json.loads(json_snapshot(service.stats()))
        assert "repro_service_read_latency_seconds_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_service_reads_served 1" in text
        assert payload["counters"]["service_reads_served"] == 1

    def test_service_spans_cover_read_drain_publish(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with DatalogService(DATABASE, RULES) as service:
                service.answers(QUERY)
                service.add_facts(parse_database("edge(d, e).").atoms).result()
                service.answers(QUERY)
        names = {span.name for span in tracer.spans()}
        assert {"service.read", "service.drain", "service.publish"} <= names
        kinds = [
            span.attributes["cache"] for span in tracer.spans("service.read")
        ]
        assert "miss" in kinds

    def test_read_miss_traces_the_engine(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with DatalogService(DATABASE, RULES) as service:
                service.answers(QUERY)
        (read,) = tracer.spans("service.read")
        assert read.attributes["cache"] == "miss"
        assert any(
            span.parent == "service.read" and span.thread == read.thread
            for span in tracer.spans("engine.stratum")
        )
        assert any(
            span.thread == read.thread and span.depth > read.depth
            for span in tracer.spans("engine.fixpoint")
        )
        assert tracer.spans("engine.fixpoint.round")

    def test_closed_service_stops_reporting_gauges(self):
        registry = MetricsRegistry()
        service = DatalogService(DATABASE, RULES, metrics=registry)
        service.close()
        service.close()  # idempotent
        assert registry.snapshot().gauges["service_queue_depth"] == 0


class TestCountersOutliveTheirOwners:
    """Counters are monotonic for the life of the process: closing and
    collecting the components that counted takes no count away."""

    def test_counters_stay_monotone_across_gc_and_close(self, tmp_path):
        from repro.chase import restricted_chase
        from repro.service.durability import DurabilityConfig
        from repro.service.net import (
            LocalReplicaLink,
            Replica,
            ReplicationPublisher,
        )

        edge = lambda text: parse_database(text).atoms
        registry = MetricsRegistry()
        previous = set_global_registry(registry)  # the chase reports here
        try:
            session = QuerySession(DATABASE, RULES, metrics=registry)
            session.answers(QUERY)  # miss
            session.answers(QUERY)  # hit
            session.add_facts(edge("edge(d, e)."))
            session.remove_facts(edge("edge(b, c)."))

            service = DatalogService(
                DATABASE,
                RULES,
                metrics=registry,
                durability=DurabilityConfig(path=tmp_path),
            )
            service.answers(QUERY)  # reader miss
            service.add_facts(edge("edge(d, e).")).result(10)
            service.answers(QUERY)  # hit, warmed by the writer
            subscription = service.subscribe(parse_query("?(Y) :- path(b, Y)"))
            publisher = ReplicationPublisher(service, metrics=registry)
            replica = Replica(RULES, metrics=registry)
            link = LocalReplicaLink(publisher, replica)
            link.sync()  # a snapshot
            service.add_facts(edge("edge(e, f).")).result(10)
            link.sync()  # a delta
            replica.answers(QUERY)
            service.checkpoint(10)
            link.close()
            replica.close()
            publisher.close()
            service.close()

            chased = restricted_chase(DATABASE, RULES)
            assert chased.statistics.iterations > 0

            before = registry.snapshot().counters
            del session, service, subscription, publisher, replica, link
            del chased
            gc.collect()
            after = registry.snapshot().counters
        finally:
            set_global_registry(previous)
        for name in (
            "session_answer_misses",
            "session_engine_tuples_derived",
            "service_reads_served",
            "service_engine_iterations",
            "service_subscriptions_registered",
            "replica_records_applied",
            "chase_iterations",
        ):
            assert before[name] > 0, name
        missing = sorted(set(before) - set(after))
        assert not missing, f"counters gone after gc: {missing}"
        dropped = {
            name: (value, after[name])
            for name, value in before.items()
            if after[name] < value
        }
        assert not dropped, f"counters that went down: {dropped}"


class TestColdBuildRegression:
    """Reader-side cold pattern-table builds must reach a counter.

    Published (detached) snapshots clear ``_stats`` — the writer session's
    engine account cannot be shared across threads — so before the fix,
    every cold build a reader performed was invisible to all statistics.
    They now land on the service's ``service_snapshot_index_builds``
    counter.
    """

    def test_cold_builds_on_published_snapshot_are_counted(self):
        registry = MetricsRegistry()
        with DatalogService(DATABASE, RULES, metrics=registry) as service:
            before = service.stats().counters["service_snapshot_index_builds"]
            service.answers(QUERY)  # forces pattern builds on the snapshot
            after = service.stats().counters["service_snapshot_index_builds"]
        assert after > before

    def test_hook_fires_once_under_concurrent_readers(self):
        from repro.core.atoms import Atom, Predicate
        from repro.core.terms import Constant

        calls = Counter("builds")
        atoms = [
            Atom(Predicate("edge", 2), (Constant(f"v{i}"), Constant(f"v{i+1}")))
            for i in range(50)
        ]
        from repro.engine import RelationIndex

        snapshot = RelationIndex(atoms).snapshot().detach()
        snapshot._obs_build_hook = calls.inc
        pattern = Atom(Predicate("edge", 2), (Constant("v0"), Constant("v1")))
        barrier = threading.Barrier(8)

        def reader() -> None:
            barrier.wait()
            snapshot.candidates_for(pattern, {})

        pool = [threading.Thread(target=reader) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Double-checked build under the snapshot lock: exactly one build.
        assert calls.value == 1

    def test_no_stray_print_in_library_code(self):
        """Structured telemetry, not stdout: src/repro must not print."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in root.rglob("*.py"):
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                stripped = line.lstrip()
                if stripped.startswith("#"):
                    continue
                if re.search(r"(?<![\w.])print\(", stripped):
                    offenders.append(f"{path}:{number}")
        assert not offenders, f"stray print() in library code: {offenders}"

    def test_no_builtin_id_in_intern_module(self):
        """Mirror of the CI grep lint: term identity on the row plane comes
        from SymbolTable ids, so ``intern.py`` must never call builtin
        ``id()`` — aliasing CPython object addresses with interned term ids
        is exactly the bug class the dense-id invariant exists to prevent."""
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "src"
            / "repro"
            / "engine"
            / "intern.py"
        )
        offenders = []
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            stripped = line.lstrip()
            if stripped.startswith("#"):
                continue
            if re.search(r"(?<![\w.])id\(", stripped):
                offenders.append(f"{path}:{number}")
        assert not offenders, f"builtin id() call in intern.py: {offenders}"
