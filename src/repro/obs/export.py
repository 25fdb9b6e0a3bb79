"""Exporters: Prometheus text exposition and JSON snapshot rendering.

Both exporters consume a :class:`~repro.obs.metrics.MetricsSnapshot` — the
immutable point-in-time view produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — so a scrape never
holds any metric lock while rendering.

:func:`prometheus_text` emits the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
``# HELP``/``# TYPE`` headers, sanitised metric names, escaped label
values, and the ``_bucket``/``_sum``/``_count`` triplet (with a ``+Inf``
bucket) for histograms.  Metric names are sanitised to the legal charset
``[a-zA-Z_:][a-zA-Z0-9_:]*`` — the registry's own counter names are
already legal, but user-supplied label values may contain anything, so
label *values* are escaped (``\\``, ``"`` and newline) rather than
rewritten.

:func:`json_snapshot` renders the same snapshot as one JSON document, for
dashboards and for ``benchmarks/run_all.py``'s per-bench counter records.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Mapping, Optional, Tuple

from .metrics import MetricsSnapshot

__all__ = ["prometheus_text", "json_snapshot"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
#: ``name`` or ``name{k="v",...}`` as produced by the registry's keying.
_KEYED = re.compile(r"(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?\Z")
_LABEL_PAIR = re.compile(r'(?P<key>[^=,]+)="(?P<value>(?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """Rewrite *name* into the legal Prometheus metric-name charset."""
    cleaned = _NAME_FIX.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    match = _KEYED.match(key)
    if match is None:  # pragma: no cover - registry keys always match
        return key, {}
    labels: Dict[str, str] = {}
    raw = match.group("labels")
    if raw:
        for pair in _LABEL_PAIR.finditer(raw):
            labels[pair.group("key")] = re.sub(
                r"\\(.)",
                lambda m: "\n" if m.group(1) == "n" else m.group(1),
                pair.group("value"),
            )
    return match.group("name"), labels


def _render_labels(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    items = [(k, v) for k, v in sorted(labels.items())]
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(
        f'{sanitize_metric_name(k)}="{escape_label_value(str(v))}"'
        for k, v in items
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(
    snapshot: MetricsSnapshot, *, prefix: str = "repro"
) -> str:
    """Render *snapshot* in the Prometheus text exposition format.

    Every metric name is prefixed with ``<prefix>_`` (pass ``prefix=""``
    to disable) and sanitised; the output ends with a trailing newline, as
    scrapers expect.
    """
    lines: list[str] = []
    seen_headers: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in seen_headers:
            seen_headers.add(name)
            lines.append(f"# HELP {name} repro {kind}")
            lines.append(f"# TYPE {name} {kind}")

    def full_name(raw: str) -> str:
        base = sanitize_metric_name(raw)
        return sanitize_metric_name(f"{prefix}_{base}") if prefix else base

    for key in sorted(snapshot.counters):
        raw_name, labels = _split_key(key)
        name = full_name(raw_name)
        header(name, "counter")
        lines.append(
            f"{name}{_render_labels(labels)} "
            f"{_format_value(snapshot.counters[key])}"
        )
    for key in sorted(snapshot.gauges):
        raw_name, labels = _split_key(key)
        name = full_name(raw_name)
        header(name, "gauge")
        lines.append(
            f"{name}{_render_labels(labels)} "
            f"{_format_value(snapshot.gauges[key])}"
        )
    for key in sorted(snapshot.histograms):
        raw_name, labels = _split_key(key)
        name = full_name(raw_name)
        header(name, "histogram")
        data = snapshot.histograms[key]
        buckets = list(data["buckets"])
        counts = list(data["counts"])
        for bound, cumulative in zip(buckets, counts):
            le = _render_labels(labels, ("le", _format_value(float(bound))))
            lines.append(f"{name}_bucket{le} {cumulative}")
        inf = _render_labels(labels, ("le", "+Inf"))
        lines.append(f"{name}_bucket{inf} {data['count']}")
        lines.append(
            f"{name}_sum{_render_labels(labels)} {_format_value(float(data['sum']))}"
        )
        lines.append(
            f"{name}_count{_render_labels(labels)} {data['count']}"
        )
    return "\n".join(lines) + "\n"


def json_snapshot(snapshot: MetricsSnapshot, *, indent: Optional[int] = None) -> str:
    """Render *snapshot* as one JSON document (stable key order)."""
    return json.dumps(snapshot.as_dict(), indent=indent, sort_keys=True)
