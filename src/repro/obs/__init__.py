"""repro.obs — telemetry for the whole stack: metrics, traces, profiles.

The serving north star needs answers to questions like *which rule is
hot*, *what is the p99 read latency*, *how stale are the readers*.  This
package is the instrumentation substrate, in four parts:

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry`: thread-safe
  counters, gauges (callback-sampled), fixed-bucket histograms, and a
  ``snapshot()/diff()`` protocol; every layer's counters live there, in one
  namespace, for the life of the process;
* :mod:`~repro.obs.trace` — nestable :class:`Span`\\ s (wall + CPU time +
  attributes) emitted by a :class:`Tracer` into a ring buffer and optional
  sinks (:class:`JsonlSink` structured logs).  Disabled tracing is one
  attribute check (:data:`NULL_TRACER`);
* :mod:`~repro.obs.profile` — :class:`RuleProfiler`, opt-in per-rule
  time/trigger/tuple attribution, surfaced through
  :meth:`repro.query.QuerySession.explain`;
* :mod:`~repro.obs.export` — :func:`prometheus_text` and
  :func:`json_snapshot` renderers over a snapshot.

See ``docs/observability.md`` for the span map of the system, the metric
catalogue, and an ``explain()`` walkthrough.
"""

from .export import (
    escape_label_value,
    json_snapshot,
    prometheus_text,
    sanitize_metric_name,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    global_registry,
    set_global_registry,
)
from .profile import RuleProfile, RuleProfiler
from .trace import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "RuleProfile",
    "RuleProfiler",
    "Span",
    "Tracer",
    "escape_label_value",
    "get_tracer",
    "global_registry",
    "json_snapshot",
    "prometheus_text",
    "sanitize_metric_name",
    "set_global_registry",
    "set_tracer",
    "use_tracer",
]
