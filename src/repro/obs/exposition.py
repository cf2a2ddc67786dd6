"""Prometheus text exposition for metric snapshots.

Turns a :meth:`~repro.obs.registry.MetricsRegistry.snapshot` dict into
the Prometheus text format (version 0.0.4) that ``repro metrics
--prometheus`` prints and the protocol ``metrics`` op can serve::

    # TYPE repro_service_query_latency histogram
    repro_service_query_latency_bucket{graph="cal",algorithm="nearfar",le="0.01"} 41
    ...
    repro_service_query_latency_sum{graph="cal",algorithm="nearfar"} 0.8143
    repro_service_query_latency_count{graph="cal",algorithm="nearfar"} 42

Conventions:

* names are prefixed ``repro_`` and dots become underscores
  (``service.query.latency`` -> ``repro_service_query_latency``);
* counters gain the ``_total`` suffix Prometheus expects;
* timers are exposed as histograms (they are one);
* label values escape ``\\``, ``"`` and newline as the format requires,
  so hostile graph names stay distinct series;
* histogram buckets are cumulative with the standard ``le`` label,
  reconstructed from the registry's shared log-spaced bounds
  (:data:`repro.obs.registry.BUCKET_BOUNDS`), sparse buckets included
  only where counts exist (plus the mandatory ``le="+Inf"``).

Everything works from the plain snapshot dict — no live registry
needed — so a ``serve --metrics`` file or ``benchmarks/results/
metrics.json`` can be exposed after the fact.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping

from repro.obs.registry import BUCKET_BOUNDS, escape_label_value, parse_name

__all__ = ["format_prometheus", "prometheus_name"]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """A snapshot metric name as a valid Prometheus metric name."""
    sanitized = _INVALID.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _label_str(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_prometheus(snapshot: Mapping[str, dict]) -> str:
    """Render a metrics snapshot as Prometheus text exposition."""
    # group label variants of one base name under a single TYPE header
    groups: Dict[str, List[tuple]] = {}
    order: List[str] = []
    for key in sorted(snapshot):
        base, labels = parse_name(key)
        if base not in groups:
            groups[base] = []
            order.append(base)
        groups[base].append((labels, snapshot[key]))

    lines: List[str] = []
    for base in order:
        variants = groups[base]
        kind = variants[0][1].get("type", "gauge")
        pname = prometheus_name(base)
        if kind == "counter":
            pname += "_total"
            lines.append(f"# TYPE {pname} counter")
            for labels, data in variants:
                lines.append(
                    f"{pname}{_label_str(labels)} "
                    f"{_format_value(data.get('value', 0))}"
                )
        elif kind == "gauge":
            lines.append(f"# TYPE {pname} gauge")
            for labels, data in variants:
                lines.append(
                    f"{pname}{_label_str(labels)} "
                    f"{_format_value(data.get('value', 0))}"
                )
        else:  # histogram / timer
            lines.append(f"# TYPE {pname} histogram")
            for labels, data in variants:
                cumulative = 0
                for index, count in data.get("buckets", []):
                    cumulative += int(count)
                    if int(index) < len(BUCKET_BOUNDS):
                        le_label = 'le="' + repr(BUCKET_BOUNDS[int(index)]) + '"'
                        lines.append(
                            f"{pname}_bucket{_label_str(labels, le_label)} "
                            f"{cumulative}"
                        )
                inf_label = 'le="+Inf"'
                lines.append(
                    f"{pname}_bucket{_label_str(labels, inf_label)} "
                    f"{int(data.get('count', 0))}"
                )
                lines.append(
                    f"{pname}_sum{_label_str(labels)} "
                    f"{_format_value(float(data.get('sum', 0.0)))}"
                )
                lines.append(
                    f"{pname}_count{_label_str(labels)} "
                    f"{int(data.get('count', 0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
