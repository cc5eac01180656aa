"""Merge multi-process span payloads into one Perfetto trace JSON.

Each :class:`~repro.tracing.span.Tracer` payload is one process's span
list plus the payloads it absorbed from its children (sweep cells, shard
workers).  This module flattens that tree, assigns one Perfetto pid per
process, rebases every timestamp to the earliest span (so the timeline
starts near zero instead of at the unix epoch), and renders complete
("X") slices through
:class:`~repro.telemetry.perfetto.ChromeTraceExporter` -- the same
writer the simulated-time timeline uses, so one module writes every
``trace_event`` JSON file, simulated and host alike.

Spans left open at export time are drawn to the trace extent with an
``.unclosed`` category suffix; ``repro.tools.explain --check`` treats
them as structural errors.
"""

from __future__ import annotations

import os
import typing

from repro.telemetry.perfetto import TID_SPANS, ChromeTraceExporter
from repro.tracing.span import SpanRecord, Tracer, payload_spans

Source = typing.Union[Tracer, dict, typing.Sequence[dict]]


def _as_payloads(source: Source) -> "list[dict]":
    if isinstance(source, Tracer):
        return [source.to_payload()]
    if isinstance(source, dict):
        return [source]
    return [p.to_payload() if isinstance(p, Tracer) else p for p in source]


def flatten_payloads(source: Source) -> "list[dict]":
    """Depth-first list of every process payload in the tree.

    Deterministic: parents precede children, siblings keep absorb order,
    so pid assignment is stable for a given run.
    """
    out: "list[dict]" = []

    def visit(payload: dict) -> None:
        out.append(payload)
        for child in payload.get("children", ()):
            visit(child)

    for payload in _as_payloads(source):
        visit(payload)
    return out


def _extent(processes: "list[tuple[dict, list[SpanRecord]]]"
            ) -> "tuple[float, float]":
    t0, t1 = float("inf"), float("-inf")
    for payload, spans in processes:
        for rec in spans:
            if rec.start < t0:
                t0 = rec.start
            if rec.end > t1:
                t1 = rec.end
        for item in payload.get("open", ()):
            start = float(item[2])
            t0 = min(t0, start)
            t1 = max(t1, start)
    if t0 == float("inf"):
        t0 = t1 = 0.0
    return t0, max(t0, t1)


def _render(source: Source) -> ChromeTraceExporter:
    flat = flatten_payloads(source)
    processes = [(payload, payload_spans(payload)) for payload in flat]
    t0, t1 = _extent(processes)
    exporter = ChromeTraceExporter({
        "exporter": "repro.tracing.merge",
        "time_unit": "us (host)",
        "trace_id": str(flat[0].get("trace_id", "")) if flat else "",
        "anchor_unix": t0,
        "processes": [str(p.get("process", "")) for p in flat],
    })
    for pid0, (payload, spans) in enumerate(processes):
        pid = pid0 + 1
        exporter.add_process(pid, str(payload.get("process", f"proc {pid}")),
                             sort_index=pid)
        for rec in spans:
            args: "dict[str, object]" = {"span": rec.span_id}
            if rec.parent_id:
                args["parent"] = rec.parent_id
            if rec.args:
                args.update(rec.args)
            exporter.add_complete_slice(pid, TID_SPANS, rec.name,
                                        rec.category, rec.start - t0,
                                        rec.end - t0, args)
        for item in payload.get("open", ()):
            name, category, start, span_id = item[0], item[1], float(item[2]), item[3]
            exporter.add_complete_slice(
                pid, TID_SPANS, str(name), f"{category}.unclosed",
                start - t0, t1 - t0, {"span": span_id, "unclosed": True})
    return exporter


def build_trace(source: Source) -> "dict[str, object]":
    """Render the payload tree as a Chrome ``trace_event`` JSON object."""
    return _render(source).to_dict()


def save_trace(path: "str | os.PathLike", source: Source
               ) -> "dict[str, object]":
    """Build and write the merged trace; returns the trace dict."""
    exporter = _render(source)
    exporter.save(path)
    return exporter.to_dict()
