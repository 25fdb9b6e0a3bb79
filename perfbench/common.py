"""Shared pieces of the benchmark: inputs, oracle, span collection, stats.

Every workload runs over the same family of inputs: ``count`` disjoint
``link`` chains ``n<c>_0 -> n<c>_1 -> ... -> n<c>_<length>`` with a seeded
subset of ``blocked`` nodes, and the stratified program

    link(X,Y) -> reachable(X,Y)
    reachable(X,Y), link(Y,Z) -> reachable(X,Z)
    reachable(X,Y), not blocked(Y) -> open(X,Y)

whose perfect model (the unique stable model of this stratified program) has
a closed form, so every answer the system returns can be checked without
running the system a second time.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro import Constant, parse_program, parse_query
from repro.core.atoms import Predicate
from repro.obs.trace import get_tracer
from repro.service.durability import DurabilityConfig

RULES_TEXT = """
link(X,Y) -> reachable(X,Y)
reachable(X,Y), link(Y,Z) -> reachable(X,Z)
reachable(X,Y), not blocked(Y) -> open(X,Y)
"""

LINK = Predicate("link", 2)
BLOCKED = Predicate("blocked", 1)

#: One in this many chain nodes is blocked (seeded positions).
BLOCKED_EVERY = 6

#: scratch space (durable stores, results) inside the checkout
WORK = Path(__file__).resolve().parent.parent / ".perfbench"

#: name of the thread a DatalogService applies writes on
WRITER_THREAD = "repro-datalog-writer"

Link = Tuple[int, int]  # (chain, position): the edge n<c>_<i> -> n<c>_<i+1>


def rules():
    return parse_program(RULES_TEXT)


def node(chain: int, position: int) -> str:
    return f"n{chain}_{position}"


def link_atom(edge: Link):
    chain, position = edge
    return LINK(Constant(node(chain, position)), Constant(node(chain, position + 1)))


def query_text(predicate: str, edge: Link) -> str:
    """``?(Y) :- <predicate>(n<c>_<i>, Y)`` for the chain node at *edge*."""
    return f"?(Y) :- {predicate}({node(*edge)}, Y)"


def query(predicate: str, edge: Link):
    return parse_query(query_text(predicate, edge))


@dataclass
class Chains:
    """The seeded chain database and its closed-form perfect model.

    ``count`` chains of ``length`` links, then ``long_count`` chains of
    ``long_length`` links (numbered after the short ones).  With
    ``shortcut_every`` set, about one node in that many also links two
    positions ahead, so deleting the link it jumps over leaves the nodes
    beyond reachable: view repair then rederives what it overdeleted.
    """

    count: int
    length: int
    seed: int
    long_count: int = 0
    long_length: int = 0
    shortcut_every: int = 0
    blocked: FrozenSet[Tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        self.lengths = [self.length] * self.count + [self.long_length] * self.long_count
        rng = random.Random(f"blocked-{self.seed}")
        self.blocked = frozenset(
            (chain, position)
            for chain, size in enumerate(self.lengths)
            for position in range(1, size + 1)
            if rng.randrange(BLOCKED_EVERY) == 0
        )
        rng = random.Random(f"shortcuts-{self.seed}")
        self.shortcuts = frozenset(
            (chain, position)
            for chain, size in enumerate(self.lengths)
            for position in range(size - 1)
            if self.shortcut_every and rng.randrange(self.shortcut_every) == 0
        )

    def links(self) -> List[Link]:
        """The one-step links (the ones writes toggle; shortcuts stay)."""
        return [(c, i) for c, size in enumerate(self.lengths) for i in range(size)]

    def atoms(self, removed: Iterable[Link] = ()) -> list:
        """The database: every link but *removed*, plus the blocked facts."""
        gone = set(removed)
        facts = [link_atom(edge) for edge in self.links() if edge not in gone]
        facts.extend(
            LINK(Constant(node(c, i)), Constant(node(c, i + 2)))
            for c, i in sorted(self.shortcuts)
        )
        facts.extend(
            BLOCKED(Constant(node(c, i))) for c, i in sorted(self.blocked)
        )
        return facts

    def reach(
        self, edge: Link, removed: Set[Link] | FrozenSet[Link] = frozenset()
    ) -> List[int]:
        """Positions reachable from node *edge* along present links."""
        chain, start = edge
        reached = {start}
        for position in range(start, self.lengths[chain]):
            if position in reached:
                if (chain, position) not in removed:
                    reached.add(position + 1)
                if (chain, position) in self.shortcuts:
                    reached.add(position + 2)
        reached.discard(start)
        return sorted(reached)

    def expected(
        self,
        predicate: str,
        edge: Link,
        removed: Set[Link] | FrozenSet[Link] = frozenset(),
    ) -> FrozenSet[str]:
        """Closed-form answers of ``predicate(n<c>_<i>, Y)`` as node names."""
        chain = edge[0]
        return frozenset(
            node(chain, j)
            for j in self.reach(edge, removed)
            if predicate == "reachable" or (chain, j) not in self.blocked
        )


def hot_set(chains: int, length: int) -> List[Tuple[str, Link]]:
    """A fixed hot set: four nodes on each of the first *chains* chains,
    alternating ``open`` and ``reachable`` (at most 128 queries, so it fits
    the service's warm set)."""
    step = length // 4
    return [
        ("open" if k % 2 == 0 else "reachable", (chain, k * step))
        for chain in range(chains)
        for k in range(4)
    ]


def names(answers) -> FrozenSet[str]:
    """Answer tuples of a one-variable query -> the set of node names."""
    return frozenset(str(row[0]) for row in answers)


# --------------------------------------------------------------------------
# outcome bookkeeping
# --------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations of one run (feeds ``fail_ratio``).

    An operation fails when it raises, is refused, or returns a wrong
    answer; the first few failures are described on standard error.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.failed <= 5:
                    print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def error(self, what: str, error: BaseException) -> None:
        self.check(False, f"{what}: {type(error).__name__}: {error}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


#: samples per window of :func:`windowed_p99`: the fewest a p99 can rest on
#: with ten samples beyond it
WINDOW = 1000


def windows(values: List[float]) -> List[List[float]]:
    """Consecutive windows of :data:`WINDOW` samples, in the order taken
    (the remainder joins the last window; one window if there are fewer)."""
    count = max(1, len(values) // WINDOW)
    bounds = [k * WINDOW for k in range(count)] + [len(values)]
    return [values[start:end] for start, end in zip(bounds, bounds[1:])]


def windowed_p99(values: List[float]) -> float:
    """The median over :func:`windows` of each window's p99.

    A burst of load from outside the benchmark that covers less than half
    the windows moves this value little, where it moves a whole-run p99 as
    soon as it covers 1% of the samples.
    """
    return statistics.median(p99(window) for window in windows(values))


def windowed_rate(latencies: List[float]) -> float:
    """Closed-loop operations per second: the median over :func:`windows`
    of ``samples / summed latency``."""
    return median_rate([(len(window), sum(window)) for window in windows(latencies)])


def median_rate(windows: List[Tuple[int, float]]) -> float:
    """The median of ``ops / seconds`` over ``(ops, seconds)`` windows."""
    rates = [ratio(ops, seconds) for ops, seconds in windows if seconds > 0]
    return statistics.median(rates) if rates else 0.0


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

#: nodes of the probe's chain (780 closure pairs)
PROBE_NODES = 40
#: the probe's time at reference speed.  On a shared 2-vCPU Xeon VM the
#: probe takes about 0.20 ms or about 0.34 ms, depending on what the other
#: tenants of the host run, and the share of time spent in each state
#: drifts over minutes; CPU-bound timings are reported at this speed.
PROBE_REFERENCE_S = 300e-6
#: probes on each side of a sample that set its scale
PROBE_NEIGHBOURS = 4


def probe() -> float:
    """Time one fixed pure-Python semi-naive closure of a chain (seconds).

    The probe does the kind of work the engine does (tuple sets, dict
    lookups, delta rounds) on inputs that never change, so its time tracks
    only the speed the host gives this process at the moment.  It is timed
    in this thread's processor time, so a probe the scheduler interrupts
    does not read as a slow host.
    """
    started = time.thread_time()
    successor = {i: i + 1 for i in range(PROBE_NODES - 1)}
    reach = set(successor.items())
    delta = reach
    while delta:
        new = set()
        for x, y in delta:
            z = successor.get(y)
            if z is not None and (x, z) not in reach:
                new.add((x, z))
        reach |= new
        delta = new
    return time.thread_time() - started


def run_delay() -> float:
    """Seconds the threads of this process have spent runnable but waiting
    for a processor (``/proc/self/task/*/schedstat``; 0 where the kernel
    does not report it)."""
    total = 0
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return 0.0
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/schedstat", "rb") as stat:
                total += int(stat.read().split()[1])
        except (OSError, IndexError, ValueError):
            pass  # the thread ended meanwhile
    return total / 1e9


def start() -> Tuple[float, float]:
    """A mark for :func:`since`."""
    waited = run_delay()
    return waited, time.perf_counter()


def since(mark: Tuple[float, float]) -> float:
    """Wall seconds since *mark*, less the time the threads of this process
    spent waiting for a processor in between.

    Time spent queued behind other programs on the host's cores is not the
    program's cost, and it comes on some runs and not on others; time spent
    on the processor, in the disk or in a hand-off between threads stays.
    """
    now = time.perf_counter()
    waited, started = mark
    return now - started - max(0.0, run_delay() - waited)


def at_reference_speed(took: float, probes: List[float]) -> float:
    """*took* scaled by ``PROBE_REFERENCE_S`` over the median of *probes*.

    A CPU-bound time scaled this way is what it would read at reference
    speed, so runs made while the host is fast and runs made while it is
    slow agree; a change to the program still moves it in proportion.
    """
    return took * PROBE_REFERENCE_S / statistics.median(probes)


def probe_times() -> List[float]:
    """The probes taken on each side of a set-up."""
    return [probe() for _ in range(2 * PROBE_NEIGHBOURS + 1)]


class HostSpeed:
    """The probes taken through a timed loop.

    :meth:`probe` is called just before an operation (or a group of them),
    while no thread of the program is busy, and returns a mark;
    :meth:`scaled` turns ``(seconds, mark)`` samples into times at reference
    speed, each against the median of the probes taken nearest to it.
    """

    def __init__(self) -> None:
        self.times: List[float] = []

    def probe(self, count: int = 1) -> int:
        """Take *count* probes; the mark is the index of the last."""
        self.times.extend(probe() for _ in range(count))
        return len(self.times) - 1

    def near(self, mark: int) -> List[float]:
        return self.times[max(0, mark - PROBE_NEIGHBOURS): mark + PROBE_NEIGHBOURS + 1]

    def scaled(self, samples: List[Tuple[float, int]]) -> List[float]:
        return [at_reference_speed(took, self.near(mark)) for took, mark in samples]


# --------------------------------------------------------------------------
# span collection
# --------------------------------------------------------------------------


class SpanStats:
    """A tracer sink aggregating finished spans by name.

    Keeps, per span name, the count, the summed inclusive wall time, the
    summed *self* time (wall minus the wall of its direct child spans on the
    same thread) and every inclusive wall time.  Spans carrying a cache label
    are keyed with it (``service.read[miss]``), and spans on the service's
    writer thread get an ``@writer`` suffix (``session.mutate@writer``), so
    writer-side work stays apart from the same layers run by readers and
    replicas.  Spans finish children-first on their own thread, so one
    running child total per nesting depth and thread is enough to compute
    self time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.count: Dict[str, int] = defaultdict(int)
        self.wall: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.walls: Dict[str, List[float]] = defaultdict(list)

    def __call__(self, span) -> None:
        local = self._local
        children = getattr(local, "children", None)
        if children is None:
            children = local.children = []
        depth = span.depth
        while len(children) <= depth + 1:
            children.append(0.0)
        own = span.wall_s - children[depth + 1]
        children[depth + 1] = 0.0
        children[depth] += span.wall_s
        key = span.name
        label = span.attributes.get("cache")
        if label is not None:
            key = f"{key}[{label}]"
            if span.name == "service.read":
                local.last_read = label
        if span.thread == WRITER_THREAD:
            key += "@writer"
        with self._lock:
            self.count[key] += 1
            self.wall[key] += span.wall_s
            self.self_time[key] += own
            self.walls[key].append(span.wall_s)

    def last_read(self) -> Optional[str]:
        """Cache label of the newest ``service.read`` span on this thread."""
        label = getattr(self._local, "last_read", None)
        self._local.last_read = None
        return label

    def self_per(self, name: str, per: float) -> float:
        return ratio(self.self_time.get(name, 0.0), per)

    def wall_per(self, name: str, per: float) -> float:
        return ratio(self.wall.get(name, 0.0), per)

    def mean_wall(self, name: str) -> float:
        return ratio(self.wall.get(name, 0.0), self.count.get(name, 0))

    def median_wall(self, name: str) -> float:
        return p50(self.walls.get(name, []))

    def as_dict(self) -> dict:
        return {
            "count": dict(self.count),
            "wall": dict(self.wall),
            "self_time": dict(self.self_time),
            "walls": {key: list(values) for key, values in self.walls.items()},
        }

    def merge_dict(self, data: dict) -> None:
        """Fold in the :meth:`as_dict` of another process's collector."""
        for key, value in data["count"].items():
            self.count[key] += value
        for key, value in data["wall"].items():
            self.wall[key] += value
        for key, value in data["self_time"].items():
            self.self_time[key] += value
        for key, values in data["walls"].items():
            self.walls[key].extend(values)


@contextmanager
def patched(*replacements: Tuple[object, str, Callable]):
    """Temporarily replace attributes: ``(owner, name, make(original))``."""
    saved = []
    try:
        for owner, name, make in replacements:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def timer(span_name: str) -> Callable[[Callable], Callable]:
    """A :func:`patched` factory: time the call as a ``bench.*`` span.

    The span goes through the installed tracer, so it nests with the
    program's own spans (and they lose its time from their self time); with
    tracing disabled the wrapper costs one extra call.
    """

    def wrap(original: Callable) -> Callable:
        @functools.wraps(original)
        def timed(*args, **kwargs):
            tracer = get_tracer()
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.start(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                span.finish()

        return timed

    return wrap


def forward_tracer(original: Callable) -> Callable:
    """A :func:`patched` factory for ``QueryPlan.execute_on``.

    The service's reader path evaluates plans without passing a tracer, so
    its engine spans (``engine.fixpoint`` and below) stay silent; this
    forwards the installed tracer when tracing is on.
    """

    @functools.wraps(original)
    def execute_on(self, base, query, **kwargs):
        tracer = get_tracer()
        if tracer.enabled and kwargs.get("tracer") is None:
            kwargs["tracer"] = tracer
        return original(self, base, query, **kwargs)

    return execute_on


# --------------------------------------------------------------------------
# result assembly and fingerprint
# --------------------------------------------------------------------------


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding *path* (``/proc/mounts``)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                point = parts[1].replace("\\040", " ")
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, parts[2]
    except OSError:
        pass
    return kind


def fingerprint(workload: str, seed: int, work_dir: Path, extra: dict) -> dict:
    policy = DurabilityConfig(path=".")
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "wal_filesystem": filesystem_of(work_dir),
        "flush_policy": {
            "fsync": policy.fsync,
            "sync_per": "drain",
            "checkpoint_every": policy.checkpoint_every,
            "checkpoint_on_close": policy.checkpoint_on_close,
            "compact_log": policy.compact_log,
        },
        **extra,
    }


@dataclass
class Result:
    """What one workload run reports."""

    tally: Tally
    metrics: Dict[str, float]
    info: dict = field(default_factory=dict)


def emit(result: Result, units: Dict[str, str], names: List[str]) -> dict:
    """The final JSON line: exactly the metrics in *names*."""
    missing = [name for name in names if name not in result.metrics]
    if missing:
        raise KeyError(f"workload did not measure {missing}")
    return {
        "correct": result.tally.failed == 0,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": units[name]}
            for name in names
        },
    }

