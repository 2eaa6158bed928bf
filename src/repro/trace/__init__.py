"""Cross-layer causal tracing for the PiCloud model.

Every management operation, REST exchange, retry attempt, container
lifecycle step, live-migration round, network flow and congestion episode
can be recorded as a :class:`~repro.trace.span.Span` with exact simulated
timestamps and explicit causal parentage -- so the paper's cross-layer
ripple effects ("consolidation caused THIS congestion") become provable
queries instead of eyeballed telemetry correlations.

Turn it on through config
(``PiCloudConfig(trace=TraceConfig(enabled=True))``), the CLI
(``--trace-out trace.json``), or directly::

    from repro import PiCloud, PiCloudConfig, TraceConfig

    cloud = PiCloud(PiCloudConfig.small(trace=TraceConfig(enabled=True)))
    cloud.boot()
    ...
    spans = cloud.tracer.find_spans(kind="net", name_prefix="flow")
    cloud.tracer.write_chrome("trace.json")    # open in Perfetto

When no tracer is installed, the instrumentation helpers below return
:data:`NULL_SPAN` and the whole subsystem costs one attribute check per
instrumented operation (and nothing per kernel event).

See ``docs/tracing.md`` for the span model and the assertion-API cookbook.
"""

from __future__ import annotations

from repro.trace.span import NULL_SPAN, Span, SpanContext, context_of
from repro.trace.tracer import Tracer, iter_span_dicts, live_tracers

__all__ = [
    "NULL_SPAN", "Span", "SpanContext", "Tracer",
    "context_of", "instant", "iter_span_dicts", "live_tracers", "start_span",
]


def start_span(sim, name, parent=None, kind="internal", attributes=None):
    """Open a span on ``sim``'s tracer, or :data:`NULL_SPAN` if untraced.

    The one-liner instrumented code calls: always returns something with
    ``.end()`` / ``.set_attribute()`` / ``.context``, so call sites carry
    no tracing conditionals.
    """
    tracer = sim.tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.start_span(name, parent=parent, kind=kind,
                             attributes=attributes)


def instant(sim, name, parent=None, kind="internal", attributes=None,
            status="ok"):
    """Record a zero-duration span, or no-op when untraced."""
    tracer = sim.tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.instant(name, parent=parent, kind=kind,
                          attributes=attributes, status=status)
