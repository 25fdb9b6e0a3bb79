"""``cold-read``: first-touch certain-answer reads on an in-process service.

One client issues ``open(n<c>_<i>, Y)`` for chain nodes it has never asked
about before, so every read misses every cache (the service's 128-query
warm set and its per-epoch memo) and runs the magic-set rewritten program
through the semi-naive engine.  There are no writes.  A host probe
(:func:`common.probe`) runs just before each read, and read times are
reported at reference speed.

Every read is pure computation in this process, so set-ups and reads are
timed in processor time (:data:`CLOCK`, all threads of the process): time
the process spends waiting for a processor while other programs run on the
host's cores is not the program's cost, and a wall clock takes it in on
some runs and not on others.

The pure-Python floor (:class:`Floor`) answers the same queries with a
hand-written semi-naive loop over int tuples; the traced run reports the
engine's fixpoint time against it.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List, Set, Tuple

from repro import DatalogService, MetricsRegistry, QueryPlan, Tracer, use_tracer

import common
from common import Chains, Result, SpanStats, Tally

#: Short chains, asked about at every position but on chain 0 (the
#: warm-up's): 9216 distinct queries, more than a run completes, so no query
#: is ever repeated.
CHAINS, LENGTH = 193, 48
#: Long chains, asked about at their first few positions only.  Every
#: HEAVY_EVERY-th read is one of these deep queries (about 3%), so the read
#: p99 falls inside this class, well above the short queries' maximum,
#: instead of on the noisy edge of the short queries' costs.
LONG_CHAINS, LONG_LENGTH, LONG_POSITIONS = 48, 144, 8
HEAVY_EVERY = 33
SMOKE = dict(chains=5, length=12, long_chains=2, long_length=36, long_positions=2)
SIZE = dict(
    chains=CHAINS,
    length=LENGTH,
    long_chains=LONG_CHAINS,
    long_length=LONG_LENGTH,
    long_positions=LONG_POSITIONS,
)

#: peak_rss_mb is read after this many timed reads: the service keeps
#: something per distinct query answered (memoised answers, decoded rows), so
#: memory at a fixed amount of work does not depend on how fast the host is
RSS_AT_READS = 2000

#: traced runs alternate untraced and traced chunks of this many seconds
CHUNK_S = 1.0
SETUPS = 5
#: the clock of set-ups and reads: processor seconds of the whole process
CLOCK = time.process_time

LAYERS = [
    "magic.rewrite_ms",
    "magic.plans_compiled",
    "engine.fixpoint_ms",
    "engine.round_self_us",
    "engine.compile_rule_per_read",
    "engine.rounds_per_read",
    "engine.scanned_per_answer",
    "engine.floor_ms",
    "engine.floor_ratio",
    "service.read_miss_ms",
    "service.read_hit_ratio",
    "obs.trace_overhead_pct",
    "fail_ratio",
]


class Floor:
    """Hand-written semi-naive evaluation of ``open(source, Y)`` over ints.

    The relation ``reachable`` is grown from the query's source only (the
    same restriction the magic-set rewrite gives the engine), one delta
    round at a time, then filtered by ``not blocked``.
    """

    def __init__(self, chains: Chains) -> None:
        self.ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.successors: Dict[int, List[int]] = defaultdict(list)
        for chain, position in chains.links():
            source = self._id(common.node(chain, position))
            target = self._id(common.node(chain, position + 1))
            self.successors[source].append(target)
        self.blocked: Set[int] = {
            self._id(common.node(c, i)) for c, i in chains.blocked
        }

    def _id(self, name: str) -> int:
        value = self.ids.get(name)
        if value is None:
            value = self.ids[name] = len(self.names)
            self.names.append(name)
        return value

    def open(self, source: int) -> Set[int]:
        successors = self.successors
        reach: Set[Tuple[int, int]] = {(source, y) for y in successors.get(source, ())}
        delta = reach
        while delta:
            new = set()
            for x, y in delta:
                for z in successors.get(y, ()):
                    pair = (x, z)
                    if pair not in reach:
                        new.add(pair)
            reach |= new
            delta = new
        blocked = self.blocked
        return {y for _, y in reach if y not in blocked}


def _setup(chains: Chains, registry: MetricsRegistry):
    service = DatalogService(chains.atoms(), common.rules(), metrics=registry)
    # Warm-up on chain 0, which the timed loop never asks about: compiles
    # the query shape's plan and builds the snapshot's pattern tables.
    for position in range(chains.length):
        service.answers(common.query("open", (0, position)))
    return service


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    size = SMOKE if smoke else SIZE
    tally = Tally()
    setup_times = []
    service = None
    # A traced run traces its last set-up, where the query shape's plan is
    # compiled (the magic rewrite happens once per shape, not per read).
    setup_stats = SpanStats()
    for attempt in range(SETUPS):
        if service is not None:
            service.close()
            service = None
            gc.collect()
        registry = MetricsRegistry()
        tracing = trace and attempt == SETUPS - 1
        probes = common.probe_times()
        started = CLOCK()
        with use_tracer(Tracer(capacity=1, sinks=[setup_stats])) if tracing else nullcontext():
            chains = Chains(
                size["chains"],
                size["length"],
                seed,
                long_count=size["long_chains"],
                long_length=size["long_length"],
            )
            service = _setup(chains, registry)
        took = CLOCK() - started
        if not tracing:
            probes += common.probe_times()
            setup_times.append(common.at_reference_speed(took, probes))

    rng = random.Random(f"cold-read-{seed}")
    short = [(c, i) for c in range(1, chains.count) for i in range(chains.length)]
    deep = [
        (c, i)
        for c in range(chains.count, chains.count + chains.long_count)
        for i in range(size["long_positions"])
    ]
    rng.shuffle(short)
    rng.shuffle(deep)
    order = []
    while short:
        if len(order) % HEAVY_EVERY == HEAVY_EVERY - 1 and deep:
            order.append(deep.pop())
        else:
            order.append(short.pop())
    queries = [(edge, common.query("open", edge)) for edge in order]

    stats = SpanStats()
    tracer = Tracer(capacity=1, sinks=[stats])
    # (read latency, mark of the host probe taken just before it)
    speed = common.HostSpeed()
    untraced: List[Tuple[float, int]] = []
    traced: List[Tuple[float, int]] = []
    traced_edges: List[Tuple[int, int]] = []
    served: Dict[Tuple[int, int], frozenset] = {}
    peak = None
    before = registry.snapshot()
    with common.patched(
        *((QueryPlan, "execute_on", common.forward_tracer),) if trace else ()
    ):
        cursor = 0
        answer_count = 0
        elapsed = 0.0
        chunk = 0
        while cursor < len(queries) and (elapsed < seconds or (trace and chunk < 2)):
            tracing = trace and chunk % 2 == 1
            chunk_end = elapsed + (CHUNK_S if trace else seconds)
            with use_tracer(tracer) if tracing else nullcontext():
                while cursor < len(queries) and elapsed < chunk_end:
                    edge, query = queries[cursor]
                    cursor += 1
                    mark = speed.probe()
                    t0 = CLOCK()
                    try:
                        answers = service.answers(query)
                    except Exception as error:  # counted, the run goes on
                        tally.error(f"read {edge}", error)
                        continue
                    took = CLOCK() - t0
                    elapsed += took
                    got = common.names(answers)
                    answer_count += len(got)
                    tally.check(
                        got == chains.expected("open", edge),
                        f"cold read open{edge}",
                    )
                    if tracing:
                        traced.append((took, mark))
                        traced_edges.append(edge)
                        served[edge] = got
                    else:
                        untraced.append((took, mark))
                    if len(untraced) + len(traced) == RSS_AT_READS:
                        peak = common.peak_rss_mb()
            chunk += 1
    delta = registry.snapshot().diff(before)
    if peak is None:  # a run shorter than RSS_AT_READS reads
        peak = common.peak_rss_mb()

    reads = speed.scaled(untraced)
    metrics = {
        "setup_s": common.p50(setup_times),
        "read_p50_ms": common.p50(reads) * 1e3,
        "read_p99_ms": common.windowed_p99(reads) * 1e3,
        "ops_per_s": common.windowed_rate(reads),
        "peak_rss_mb": peak,
    }
    info = {
        "untraced_reads": len(untraced),
        "sizes": size,
        "measured_read_p50_ms": common.p50([took for took, _ in untraced]) * 1e3,
        "probe_p50_ms": common.p50(speed.times) * 1e3,
    }
    if trace:
        metrics.update(
            _layers(chains, stats, setup_stats, delta, traced_edges, served, answer_count, tally)
        )
        metrics["obs.trace_overhead_pct"] = (
            common.ratio(metrics["ops_per_s"], common.windowed_rate(speed.scaled(traced)))
            - 1.0
        ) * 100.0
        info["traced_reads"] = len(traced)
    metrics["fail_ratio"] = tally.fail_ratio
    service.close()
    return Result(tally, metrics, info)


def _layers(chains, stats, setup_stats, delta, edges, served, answers, tally) -> dict:
    reads = len(edges)
    floor = Floor(chains)
    floor_times = []
    for edge in edges:
        source = floor.ids[common.node(*edge)]
        t0 = time.perf_counter()
        got = floor.open(source)
        floor_times.append(time.perf_counter() - t0)
        tally.check(
            {floor.names[value] for value in got} == served[edge],
            f"floor agrees with the service on open{edge}",
        )
    rewrites = sum(s.count.get("query.magic_rewrite", 0) for s in (setup_stats, stats))
    rewrite_s = sum(s.wall.get("query.magic_rewrite", 0.0) for s in (setup_stats, stats))
    fixpoint_ms = stats.wall_per("engine.fixpoint", reads) * 1e3
    floor_ms = common.mean(floor_times) * 1e3
    counters = delta.counters
    served_reads = counters.get("service_reads_served", 0)
    return {
        "magic.rewrite_ms": common.ratio(rewrite_s, rewrites) * 1e3,
        "magic.plans_compiled": float(rewrites),
        "engine.fixpoint_ms": fixpoint_ms,
        "engine.round_self_us": stats.self_per(
            "engine.fixpoint.round", stats.count.get("engine.fixpoint.round", 0)
        )
        * 1e6,
        "engine.compile_rule_per_read": common.ratio(
            stats.count.get("engine.compile_rule", 0), reads
        ),
        "engine.rounds_per_read": common.ratio(
            counters.get("service_engine_iterations", 0), served_reads
        ),
        "engine.scanned_per_answer": common.ratio(
            counters.get("service_engine_tuples_scanned", 0), answers
        ),
        "engine.floor_ms": floor_ms,
        "engine.floor_ratio": common.ratio(fixpoint_ms, floor_ms),
        "service.read_miss_ms": stats.median_wall("service.read[miss]") * 1e3,
        "service.read_hit_ratio": common.ratio(
            counters.get("service_read_cache_hits", 0), served_reads
        ),
    }
