"""End-to-end span tracing: serialization, differentials, explain.

Three contracts under test:

* **Round-trips** (hypothesis): :class:`SpanContext` survives both
  carriers (wire dict, header string) exactly, and a tracer payload --
  rich spans, retro spans, and hot-path channel pairs alike -- survives
  JSON serialization with every field intact.
* **Differential bit-identity**: ``tracer=None`` is the default
  everywhere, so a traced run must produce *byte-for-byte* identical
  simulation reports to an untraced one, single-process and sharded.
* **The merged timeline and its explainer**: one pid per process,
  structurally valid per ``validate_trace``, and ``explain_trace``
  attributes at least 95% of the wall-clock to named stages (the
  acceptance bar for the critical-path breakdown).
"""

from __future__ import annotations

import hashlib
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.metrics import MetricsRegistry
from repro.mpisim.config import mvapich2_like
from repro.nas.base import CpuModel
from repro.nas.lu import lu_app
from repro.runtime import run_app
from repro.tracing import (SpanContext, Tracer, build_trace, explain_trace,
                           flatten_payloads, payload_spans, save_trace,
                           validate_trace)

# ``/`` is the header separator and the only character SpanContext
# forbids; ids are otherwise opaque strings.
_ids = st.text(st.characters(blacklist_characters="/\n",
                             blacklist_categories=("Cs",)), max_size=24)


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
@given(trace_id=_ids.filter(bool), span_id=_ids)
@settings(max_examples=100, deadline=None)
def test_span_context_round_trips_both_carriers(trace_id, span_id):
    ctx = SpanContext(trace_id, span_id)
    assert SpanContext.from_wire(ctx.to_wire()) == ctx
    assert SpanContext.from_header(ctx.to_header()) == ctx
    assert hash(SpanContext.from_header(ctx.to_header())) == hash(ctx)


def test_malformed_header_rejected():
    for bad in ("", "/", "no-separator", "/only-span"):
        with pytest.raises(ValueError):
            SpanContext.from_header(bad)


_names = st.text(st.characters(blacklist_categories=("Cs",)),
                 min_size=1, max_size=16)


@given(names=st.lists(_names, min_size=1, max_size=6),
       durs=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=6),
       pairs=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_payload_survives_json_round_trip(names, durs, pairs):
    tracer = Tracer(process="rt")
    t0 = tracer.now()
    for i, name in enumerate(names):
        dur = durs[i % len(durs)]
        tracer.add_span(name, f"cat{i}", t0 + i, t0 + i + dur,
                        {"k": i} if i % 2 else None)
    ch = tracer.channel("hot", "shard.advance")
    for i in range(pairs):
        ch.append(t0 + i)
        ch.append(t0 + i + 0.5)

    payload = json.loads(json.dumps(tracer.to_payload()))
    recs = payload_spans(payload)
    assert len(recs) == len(names) + pairs
    # Every rich span survives with name/category/args intact...
    by_name = {r.name: r for r in recs if r.category.startswith("cat")}
    for i, name in enumerate(names):
        if name in by_name:  # duplicate names collapse in the lookup only
            assert by_name[name].category.startswith("cat")
    # ...channel pairs surface as ordinary spans sorted into end order.
    hot = [r for r in recs if r.category == "shard.advance"]
    assert len(hot) == pairs
    ends = [r.end for r in recs]
    if pairs:
        assert ends == sorted(ends)
    for r in hot:
        assert r.end - r.start == pytest.approx(0.5)


def test_channel_metrics_observed_once_across_repeated_dumps():
    registry = MetricsRegistry()
    tracer = Tracer(process="m", metrics=registry)
    ch = tracer.channel("hot", "shard.advance")
    ch.append(1.0)
    ch.append(2.0)
    tracer.to_payload()
    tracer.to_payload()  # idempotent: no double counting
    ch.append(3.0)
    ch.append(4.0)
    tracer.to_payload()
    counter = registry.counter("repro_trace_spans_total",
                               labels={"category": "shard.advance"})
    assert counter.value == 2.0


def test_adopted_tracer_joins_parent_trace():
    parent = Tracer(process="parent")
    with parent.span("root", "runner.root") as root:
        wire = parent.child_wire("child proc")
        child = Tracer.adopt(wire)
        assert child.trace_id == parent.trace_id
        assert child.parent_span_id == root.span_id
        assert child.process == "child proc"
        with child.span("work", "runner.task"):
            pass
        parent.absorb(child.to_payload())
    flat = flatten_payloads(parent)
    assert [p["process"] for p in flat] == ["parent", "child proc"]
    # The child's spans hang off the parent's root span id.
    assert flat[1]["parent_span_id"] == root.span_id


# ---------------------------------------------------------------------------
# Differential bit-identity: tracing must not change the simulation
# ---------------------------------------------------------------------------
def _lu(tracer=None, shards=None):
    return run_app(lu_app, 2, config=mvapich2_like(),
                   app_args=("S", 1, CpuModel(), None),
                   shards=shards, tracer=tracer)


@pytest.mark.parametrize("shards", [None, 2])
def test_reports_bit_identical_with_and_without_tracer(shards):
    plain = _lu(shards=shards)
    tracer = Tracer(process="diff")
    traced = _lu(tracer=tracer, shards=shards)
    for rank in range(2):
        assert (plain.report(rank).to_dict()
                == traced.report(rank).to_dict())
    # And the tracer did watch the run.
    spans = sum(len(p.get("spans", ()))
                for p in flatten_payloads(tracer))
    assert spans > 0


# ---------------------------------------------------------------------------
# Merged timeline + explain
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_trace():
    tracer = Tracer(process="test sweep")
    with tracer.span("sweep", "runner.root"):
        run_app(lu_app, 4, config=mvapich2_like(),
                app_args=("S", 2, CpuModel(), None),
                shards=2, tracer=tracer)
    return build_trace(tracer)


def test_merged_trace_has_one_pid_per_process(sharded_trace):
    meta = [ev for ev in sharded_trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"]
    names = [ev["args"]["name"] for ev in meta]
    assert names[0] == "test sweep"
    assert sum("shard" in n for n in names) == 2
    assert len({ev["pid"] for ev in meta}) == len(meta)
    other = sharded_trace["otherData"]
    assert other["exporter"] == "repro.tracing.merge"
    assert other["processes"] == names


def test_merged_trace_is_structurally_valid(sharded_trace):
    assert validate_trace(sharded_trace) == []


def test_explain_attributes_at_least_95_percent(sharded_trace):
    summary = explain_trace(sharded_trace)
    assert summary["categorized_frac"] >= 0.95
    assert summary["wall_s"] > 0.0
    assert "coordination" in summary["buckets_s"]
    shards = summary["shards"]
    assert shards is not None and shards["count"] == 2
    assert shards["imbalance"] >= 1.0
    # The buckets plus the unattributed remainder cover the wall-clock.
    total = sum(summary["buckets_s"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["wall_s"], rel=0.02)


def test_validate_trace_flags_structural_problems():
    assert validate_trace({}) == ["traceEvents missing or empty"]

    tracer = Tracer(process="leaky")
    tracer.begin("never ended", "work")  # deliberately left open
    problems = validate_trace(build_trace(tracer))
    assert any("unclosed" in p for p in problems)

    def trace_with(*events):
        base = [{"ph": "M", "name": "process_name", "pid": 1,
                 "args": {"name": "p"}}]
        return {"traceEvents": base + list(events)}

    bad_dur = trace_with({"ph": "X", "pid": 1, "name": "s", "cat": "c",
                          "ts": 0.0, "dur": -5.0})
    assert any("negative duration" in p for p in validate_trace(bad_dur))

    backwards = trace_with(
        {"ph": "X", "pid": 1, "name": "a", "cat": "c", "ts": 0.0,
         "dur": 9e6},
        {"ph": "X", "pid": 1, "name": "b", "cat": "c", "ts": 0.0,
         "dur": 1e6})
    assert any("non-monotonic" in p for p in validate_trace(backwards))

    unnamed = {"traceEvents": [{"ph": "X", "pid": 7, "name": "s",
                                "cat": "c", "ts": 0.0, "dur": 1.0}]}
    assert any("no process_name" in p for p in validate_trace(unnamed))


# ---------------------------------------------------------------------------
# Cross-process propagation through the crash-isolated runner
# ---------------------------------------------------------------------------
def _unit_task(tag):
    return {"tag": tag}


def test_run_tasks_isolate_ships_child_payloads_home():
    from repro.experiments.runner import Task, run_tasks

    tracer = Tracer(process="runner")
    results = run_tasks([Task(_unit_task, ("a",)), Task(_unit_task, ("b",))],
                        jobs=2, isolate=True, on_error="continue",
                        tracer=tracer)
    assert [r["tag"] for r in results] == ["a", "b"]
    flat = flatten_payloads(tracer)
    # Root payload + one absorbed payload per crash-isolated cell.
    assert len(flat) == 3
    cats = {rec.category for child in flat[1:]
            for rec in payload_spans(child)}
    assert "runner.task" in cats
    for child in flat[1:]:
        assert child["trace_id"] == tracer.trace_id


# ---------------------------------------------------------------------------
# Service trace endpoint + explain CLI exit codes
# ---------------------------------------------------------------------------
def test_service_trace_endpoint(tmp_path):
    from repro.experiments.runner import Task
    from repro.service import OverlapService
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1,
                             trace=True)
    service.start()
    try:
        sub = Submission(tenant="t", kind="nas", priority=0,
                         label="traced", spec={})
        status, body = service.submit_tasks(
            sub, [Task(_unit_task, ("x",))])
        assert status == 202
        job_id = body["job_id"]
        import time
        deadline = time.monotonic() + 30.0
        while (service.jobs[job_id].state not in ("done", "failed")
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert service.jobs[job_id].state == "done"
        code, trace = service.job_trace(job_id)
        assert code == 200
        assert validate_trace(trace) == []
        cats = {ev.get("cat") for ev in trace["traceEvents"]
                if ev.get("ph") == "X"}
        assert "service.submit" in cats
        assert "service.execute" in cats
        assert service.job_trace("job-99999999")[0] == 404
    finally:
        service.shutdown()


def test_service_trace_endpoint_disabled_by_default(tmp_path):
    from repro.experiments.runner import Task
    from repro.service import OverlapService
    from repro.service.jobs import Submission

    service = OverlapService(cache_root=tmp_path / "c", workers=1)
    sub = Submission(tenant="t", kind="nas", priority=0,
                     label="untraced", spec={})
    _status, body = service.submit_tasks(sub, [Task(_unit_task, ("x",))])
    code, resp = service.job_trace(body["job_id"])
    assert code == 404
    assert "disabled" in resp["error"]


def test_explain_cli_exit_codes(tmp_path, sharded_trace, capsys):
    from repro.tools.explain import main

    good = tmp_path / "good.json"
    good.write_text(json.dumps(sharded_trace))
    assert main([str(good)]) == 0
    assert "critical-path breakdown" in capsys.readouterr().out
    assert main([str(good), "--check"]) == 0
    capsys.readouterr()
    assert main([str(good), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["categorized_frac"] >= 0.95
    # categorized_frac can never exceed 1.0, so this threshold must fail.
    assert main([str(good), "--min-categorized", "1.01"]) == 1

    tracer = Tracer(process="leaky")
    tracer.begin("open", "work")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(build_trace(tracer)))
    assert main([str(bad), "--check"]) == 1

    assert main([str(tmp_path / "missing.json")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main([str(notjson), "--check"]) == 2


# ---------------------------------------------------------------------------
# The merged trace goes through the exporter's writer
# ---------------------------------------------------------------------------
#: A fixed two-process payload tree: args of every JSON type, a non-ASCII
#: process name, an open span and an absorbed child.
_FIXED_PAYLOAD = {
    "version": 1, "trace_id": "t-1", "process": "sweep → root",
    "parent_span_id": None,
    "spans": [
        ["sweep", "runner.root", 100.0, 101.5, "s1", None, {"cells": 2}],
        ["cell é", "runner.task", 100.25, 101.0, "s2", "s1",
         {"bench": "lu", "np": 4, "ok": True, "x": None, "ratio": 0.1}],
    ],
    "open": [["stuck", "runner.wait", 101.25, "s3", "s1", None]],
    "children": [{
        "version": 1, "trace_id": "t-1", "process": "shard 0",
        "parent_span_id": "s2",
        "spans": [["advance", "shard.advance", 100.5, 100.75, "", "s2", None]],
        "open": [], "children": [],
    }],
}

#: SHA-256 of ``_FIXED_PAYLOAD``'s merged trace file, as ``save_trace``
#: wrote it with its own ``json.dump`` before the exporter did.
FIXED_TRACE_SHA256 = (
    "d16007f49aabe7cb0af29f232982645a67f1d146bbad558c3abf146eab6bf509")


def test_merged_trace_bytes_are_pinned(tmp_path):
    path = tmp_path / "merged.trace.json"
    returned = save_trace(path, _FIXED_PAYLOAD)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == FIXED_TRACE_SHA256
    assert returned == build_trace(_FIXED_PAYLOAD) == json.loads(data)
