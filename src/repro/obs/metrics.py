"""The metrics registry: counters, gauges, fixed-bucket histograms.

Every count the stack keeps lives here, in one registry per process (or
per component, for isolation): sessions, services, subscriptions, replicas,
the durability layer and the chase each look their :class:`Counter`\\ s and
:class:`Gauge`\\ s up once, by name, in the registry they are given, and bump
them as they work.  The registry owns those objects, so a count outlives the
component that made it: counters are monotonic for the life of the process,
whatever is garbage-collected or closed in between.

The engine's hot loops do not touch the registry.  They count into a plain,
per-operation :class:`~repro.engine.stats.EngineStatistics` account that the
caller can read back, and the account's owner adds it to the registry's
``<owner>_engine_<field>`` (or ``chase_<field>``) counters once, when the
operation ends.

On top of the metric objects the registry offers

* a **uniform read surface** — :meth:`MetricsRegistry.snapshot` enumerates
  every metric as ``name -> value``;
* **point-in-time snapshots** with :meth:`MetricsSnapshot.diff`, so a
  benchmark (or an exporter scrape) can attribute work to an interval;
* metric *types* beyond sums: **gauges** (queue depth, epoch lag — sampled,
  not accumulated) and **histograms** (read latency — a distribution);
* **thread-safe** primitives: a reader thread and the writer may bump the
  same counter.

The process-global registry (:func:`global_registry`) is what
``benchmarks/conftest.py`` snapshots around every benchmark and what the
exporters (:mod:`repro.obs.export`) render.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_LATENCY_BUCKETS",
    "global_registry",
    "set_global_registry",
]

#: Default fixed buckets for latency histograms, in seconds.  Chosen to
#: resolve the range this codebase actually serves: cache hits (tens of
#: microseconds) through cold stable-model fallbacks (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_LabelItems = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> _LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing, thread-safe counter.

    ``inc`` takes the counter's lock for one addition, so any number of
    threads may bump one counter.  Look a counter up once (by name, in the
    registry) and keep the object: ``inc`` is the whole per-event cost.
    """

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(self, name: str, help: str = "", labels: _LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        # acquire/release rather than ``with``: it is the cheaper spelling,
        # and cache-hit reads bump counters on every call.
        self._lock.acquire()
        try:
            self._value += amount
        finally:
            self._lock.release()

    @property
    def value(self) -> int:
        return self._value

    def collect(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value: settable, adjustable, or callback-sampled.

    A gauge may carry any number of *callbacks* — zero-argument callables
    sampled (and summed, plus the set value) at collection time.  Callbacks
    are how the service layer exposes live state (queue depth, epoch lag)
    without a write on every transition; they are removed on
    ``DatalogService.close()`` so a dead service stops reporting.
    """

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_value", "_lock", "_callbacks")

    def __init__(self, name: str, help: str = "", labels: _LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()
        self._callbacks: List[Callable[[], float]] = []

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def add_callback(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[[], float]) -> None:
        with self._lock:
            if fn in self._callbacks:
                self._callbacks.remove(fn)

    def collect(self) -> float:
        with self._lock:
            callbacks = list(self._callbacks)
            value = self._value
        for fn in callbacks:
            try:
                value += fn()
            except Exception:
                # A dying owner must not break a scrape; the stale callback
                # is removed by the owner's close(), not by the registry.
                continue
        return value

    @property
    def value(self) -> float:
        return self.collect()


class Histogram:
    """A fixed-bucket histogram: cumulative counts, sum, count.

    ``buckets`` are the upper bounds (inclusive, Prometheus ``le``
    semantics) of the finite buckets; an implicit ``+Inf`` bucket catches
    the rest.  ``observe`` is thread-safe (one lock acquisition).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        labels: _LabelItems = (),
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket")
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        position = len(self.buckets)
        # Linear scan: bucket lists are short (<= ~20) and the scan happens
        # outside the lock; bisect would obscure the le-inclusive semantics.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                position = index
                break
        with self._lock:
            self._counts[position] += 1
            self._sum += value
            self._count += 1

    def collect(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        cumulative: List[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return {
            "buckets": list(self.buckets),
            "counts": cumulative,  # cumulative, le-style; last entry == count
            "sum": total,
            "count": n,
        }

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """A bucket-resolution estimate of the q-quantile (0 <= q <= 1).

        Returns the upper bound of the first bucket whose cumulative count
        covers ``q`` of the observations (the last finite bound for the
        +Inf bucket), or ``0.0`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        data = self.collect()
        count = data["count"]
        if not count:
            return 0.0
        threshold = q * count
        for bound, cumulative in zip(self.buckets, data["counts"]):
            if cumulative >= threshold:
                return bound
        return self.buckets[-1]


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time, immutable view of a registry's metrics.

    ``counters``/``gauges`` map metric key (name, or ``name{labels}``) to
    value; ``histograms`` to the dict of :meth:`Histogram.collect`.
    ``diff`` subtracts an earlier snapshot: counters and histogram counts
    become interval deltas, gauges keep their current (sampled) value.
    """

    at: float
    counters: Mapping[str, float]
    gauges: Mapping[str, float]
    histograms: Mapping[str, Mapping[str, object]]

    def as_dict(self) -> Dict[str, object]:
        return {
            "at": self.at,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def get(self, name: str, default: float = 0.0) -> float:
        if name in self.counters:
            return self.counters[name]
        if name in self.gauges:
            return self.gauges[name]
        return default

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = {
            key: value - earlier.counters.get(key, 0)
            for key, value in self.counters.items()
        }
        histograms: Dict[str, Dict[str, object]] = {}
        for key, data in self.histograms.items():
            before = earlier.histograms.get(key)
            if before is None or list(before["buckets"]) != list(data["buckets"]):
                histograms[key] = dict(data)
                continue
            histograms[key] = {
                "buckets": list(data["buckets"]),
                "counts": [
                    now - then
                    for now, then in zip(data["counts"], before["counts"])
                ],
                "sum": data["sum"] - before["sum"],
                "count": data["count"] - before["count"],
            }
        return MetricsSnapshot(
            at=self.at,
            counters=counters,
            gauges=dict(self.gauges),
            histograms=histograms,
        )


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _metric_key(name: str, labels: _LabelItems) -> str:
    if not labels:
        return name
    # Label values are escaped here so the key parses back unambiguously
    # (the exporters split keys with a regex over ``k="v"`` pairs).
    rendered = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Get-or-create metric factory plus snapshot/diff over everything.

    Metrics are keyed by ``(name, labels)``: asking twice for the same key
    returns the same object, so independent components can share a metric
    by name (two services in one process aggregate into the same counters,
    Prometheus-style; pass each its own registry for isolation).  Asking
    for an existing name with a different *kind* raises — a name means one
    thing per process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[Tuple[str, _LabelItems], object]" = {}

    # ------------------------------------------------------------- factories
    def _get_or_create(self, cls, name: str, labels: _LabelItems, factory):
        key = (name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        frozen = _freeze_labels(labels)
        return self._get_or_create(
            Counter, name, frozen, lambda: Counter(name, help, frozen)
        )

    def gauge(
        self, name: str, help: str = "", labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        frozen = _freeze_labels(labels)
        return self._get_or_create(
            Gauge, name, frozen, lambda: Gauge(name, help, frozen)
        )

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        frozen = _freeze_labels(labels)
        return self._get_or_create(
            Histogram, name, frozen, lambda: Histogram(name, buckets, help, frozen)
        )

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> MetricsSnapshot:
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            key = _metric_key(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.collect()
            elif isinstance(metric, Gauge):
                gauges[key] = metric.collect()
            elif isinstance(metric, Histogram):
                histograms[key] = metric.collect()
        return MetricsSnapshot(
            at=time.time(),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
        )


_GLOBAL_LOCK = threading.Lock()
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry (sessions/services report into it)."""
    return _GLOBAL_REGISTRY


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Mostly for tests and benchmarks that want a clean slate; components
    resolve :func:`global_registry` at construction time, so already-built
    sessions keep feeding the registry they looked their counters up in.
    """
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        previous = _GLOBAL_REGISTRY
        _GLOBAL_REGISTRY = registry
        return previous
