"""Trace exporters: Chrome trace-event JSON and compact JSONL.

The Chrome format (one ``"X"`` complete event per finished span, grouped
onto one named track per layer) loads directly in ``chrome://tracing``
and https://ui.perfetto.dev.  Timestamps are microseconds of *simulated*
time, so the viewer's timeline is the simulation's timeline.

The JSONL format is one span per line (the dict shape of
:func:`repro.trace.tracer.iter_span_dicts`) -- greppable, diffable, and
cheap to parse in analysis notebooks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.trace.tracer import Tracer, iter_span_dicts

_S_TO_US = 1e6


def _ensure_parent_dir(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable kind -> tid mapping (sorted so exports are deterministic)."""
    kinds = sorted({span.kind for span in tracer.spans})
    if tracer.kernel_event_log:
        kinds.append("sim.kernel")
    return {kind: index for index, kind in enumerate(kinds)}


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Build the Chrome trace-event document for every recorded span."""
    tracks = _track_ids(tracer)
    events: List[Dict[str, Any]] = []
    for kind, tid in tracks.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": kind},
        })
    now = tracer.sim.now
    for span in tracer.spans:
        end = span.end_time if span.end_time is not None else now
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "status": span.status if span.finished else "open",
        }
        if span.status_detail:
            args["detail"] = span.status_detail
        args.update(span.attributes)
        duration_us = max(0.0, end - span.start) * _S_TO_US
        event = {
            "name": span.name,
            "cat": span.kind,
            "pid": 1,
            "tid": tracks[span.kind],
            "ts": span.start * _S_TO_US,
            "args": args,
        }
        if duration_us > 0:
            event["ph"] = "X"
            event["dur"] = duration_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    for time, label in tracer.kernel_event_log:
        events.append({
            "name": label, "cat": "sim.kernel", "ph": "i", "s": "t",
            "pid": 1, "tid": tracks["sim.kernel"], "ts": time * _S_TO_US,
            "args": {},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(tracer: Tracer, path: str) -> str:
    _ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(tracer), handle, indent=None,
                  separators=(",", ":"), sort_keys=True)
    return path


def write_jsonl(tracer: Tracer, path: str) -> str:
    _ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8") as handle:
        for record in iter_span_dicts(tracer.spans):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return path
