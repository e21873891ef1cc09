"""Observability: unified tracing and metrics for the evaluators.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of named
  counters/gauges/histograms; the single home for every engine's work
  counters.
* :mod:`repro.obs.trace` — :class:`Tracer` with nestable spans
  (stratum/rule/hypothesis/goal) carrying wall time and source spans;
  :data:`NULL_TRACER` is the zero-overhead disabled default.
* :mod:`repro.obs.export` — tree summary, JSON-lines, and Chrome
  ``trace_event`` exporters plus a structural validator.
* :mod:`repro.obs.provenance` — why-provenance recording for the
  bottom-up evaluators (:class:`ProvenanceRecorder` /
  :data:`NULL_PROVENANCE`): derivation edges captured during
  evaluation, proof replay, why-not witnesses, assumption sets.
* :mod:`repro.obs.profile` — glue for ``hypodatalog profile`` and the
  REPL ``:profile`` command (imported lazily; pulls in the engines).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from .export import (
    render_tree,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .provenance import (
    NULL_PROVENANCE,
    NullProvenance,
    PremiseFailure,
    ProvenanceRecorder,
    WhyNotReport,
    explain_absence,
    format_assumptions,
    format_why_not,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    TraceSpan,
    Tracer,
    walk,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "TraceSpan",
    "TraceEvent",
    "walk",
    "render_tree",
    "to_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "ProvenanceRecorder",
    "NullProvenance",
    "NULL_PROVENANCE",
    "PremiseFailure",
    "WhyNotReport",
    "explain_absence",
    "format_why_not",
    "format_assumptions",
]
