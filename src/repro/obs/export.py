"""Chrome trace-event JSON export (``chrome://tracing`` / Perfetto).

Spans become complete ("X") events and instants become "i" events, all
under one process with one thread per track (accelerator, cores, DMA,
request lifelines). Timestamps convert from sim nanoseconds to the
format's microseconds. The output is the JSON *object* flavour of the
trace-event format: ``{"traceEvents": [...], ...}``.

:func:`trace_from_spans` is the one builder: it takes anything with a
span's seven fields, so the tracer's retained :class:`~repro.obs.span.
Span` list and the flight recorder's streamed ``SpanEnd`` events export
the same way.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .span import SpanTracer

__all__ = ["chrome_trace", "trace_from_spans", "write_chrome_trace"]

_PID = 1


def trace_from_spans(spans: Sequence, process_name: str = "repro-sim") -> dict:
    """Trace-event JSON object of closed spans (``Span`` or ``SpanEnd``)."""
    tid_of: Dict[str, int] = {}
    for span in spans:
        tid_of.setdefault(span.track, len(tid_of))
    events: List[dict] = [{"ph": "M", "pid": _PID, "name": "process_name",
                           "args": {"name": process_name}}]
    for track, tid in tid_of.items():
        events.append({"ph": "M", "pid": _PID, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
        events.append({"ph": "M", "pid": _PID, "tid": tid,
                       "name": "thread_sort_index", "args": {"sort_index": tid}})
    for span in spans:
        args = dict(span.args or {})
        if span.req is not None:
            args["req"] = span.req
        event = {
            "name": span.name,
            "cat": span.cat or "sim",
            "pid": _PID,
            "tid": tid_of[span.track],
            "ts": span.start_ns / 1000.0,
        }
        if span.end_ns == span.start_ns:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = (span.end_ns - span.start_ns) / 1000.0
        if args:
            event["args"] = args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def chrome_trace(tracer: SpanTracer) -> dict:
    """Render a tracer's spans as a trace-event JSON object.

    Spans still open at export (request in flight at the horizon, an
    alert still firing) are auto-closed at the current sim time with an
    ``unclosed: true`` attribute instead of being dropped silently; the
    total lands in ``otherData.unclosed``.
    """
    tracer.close_open_spans()
    trace = trace_from_spans(tracer.spans)
    trace["otherData"] = {
        "spans": len(tracer.spans),
        "dropped": tracer.dropped,
        "unclosed": tracer.unclosed,
        "sample_rate": tracer.sample_rate,
    }
    return trace


def write_chrome_trace(tracer: SpanTracer, path: str) -> str:
    """Write the Chrome trace JSON for ``tracer`` to ``path``."""
    payload = chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return path
