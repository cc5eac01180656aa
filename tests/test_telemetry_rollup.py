"""Streaming cluster rollup: totals, percentiles, imbalance, persistence."""

import json

import pytest

from repro.core.report import aggregate_reports
from repro.mpisim.config import MpiConfig
from repro.runtime import run_app
from repro.telemetry import (
    ClusterRollup,
    StreamStats,
    TelemetryConfig,
    load_rank_telemetry,
    rollup_files,
    save_rank_telemetry,
    write_run_telemetry,
)
from repro.telemetry.windows import WINDOW_METRICS

NRANKS = 4


def _ring_app(ctx):
    peer = (ctx.rank + 1) % ctx.size
    src = (ctx.rank - 1) % ctx.size
    for _ in range(5):
        sreq = yield from ctx.comm.isend(peer, 9, 48 * 1024)
        rreq = yield from ctx.comm.irecv(src, 9)
        # Deliberate imbalance: rank 0 computes twice as long.
        yield from ctx.compute(2e-4 if ctx.rank == 0 else 1e-4)
        yield from ctx.comm.wait(sreq)
        yield from ctx.comm.wait(rreq)


@pytest.fixture(scope="module")
def run():
    return run_app(
        _ring_app, NRANKS,
        config=MpiConfig(name="rollup-test", eager_limit=1024),
        telemetry=TelemetryConfig(window_width=1e-4),
        label="ring",
    )


def _build(run):
    rollup = ClusterRollup(width=run.telemetry.series(0).width)
    for rt in run.telemetry.per_rank:
        rollup.add_rank(run.report(rt.rank), rt.series)
    return rollup


def test_rollup_totals_match_aggregate_reports(run):
    rollup = _build(run)
    merged = aggregate_reports([run.report(r) for r in range(NRANKS)])
    totals = rollup.result()["totals"]["total"]
    for metric in WINDOW_METRICS:
        assert totals[metric] == pytest.approx(
            getattr(merged, metric), rel=1e-12
        )
    assert rollup.result()["nranks"] == NRANKS


def test_rollup_does_not_mutate_inputs(run):
    before = run.report(0).total.data_transfer_time
    _build(run)
    assert run.report(0).total.data_transfer_time == before


def test_window_percentiles_within_min_max(run):
    for row in _build(run).result()["windows"]:
        for metric in WINDOW_METRICS:
            cell = row["metrics"][metric]
            assert cell["min"] <= cell["p50"] <= cell["max"]
            assert cell["min"] <= cell["p25"] <= cell["p75"] <= cell["max"]
            assert cell["p75"] <= cell["p95"] <= cell["max"]
            assert cell["min"] <= cell["mean"] <= cell["max"] + 1e-18


def test_imbalance_flags_the_slow_rank(run):
    imb = _build(run).result()["imbalance"]
    comp = imb["computation_time"]
    assert comp["max_rank"] == 0  # the rank given 2x compute
    assert comp["max_over_mean"] > 1.0


def test_render_text_mentions_ranks_and_imbalance(run):
    text = _build(run).render_text()
    assert f"{NRANKS} ranks" in text
    assert "rank imbalance" in text
    assert "overlap bounds" in text


def test_rank_file_roundtrip(run, tmp_path):
    path = tmp_path / "telemetry.rank2.json"
    save_rank_telemetry(path, run.report(2), run.telemetry.series(2))
    report, series = load_rank_telemetry(path)
    assert report.rank == 2
    assert series.windows == run.telemetry.series(2).windows
    assert report.total.max_overlap_time == run.report(2).total.max_overlap_time


def test_rollup_files_streams_and_matches_in_memory(run, tmp_path):
    paths = []
    for r in range(NRANKS):
        p = tmp_path / f"telemetry.rank{r}.json"
        save_rank_telemetry(p, run.report(r), run.telemetry.series(r))
        paths.append(p)
    streamed = rollup_files(paths).result()
    in_memory = _build(run).result()
    assert streamed["totals"] == in_memory["totals"]
    assert streamed["nranks"] == in_memory["nranks"]
    assert len(streamed["windows"]) == len(in_memory["windows"])


def test_rollup_mixed_widths_resamples_fine_onto_coarse(run):
    rollup = ClusterRollup(width=run.telemetry.series(0).width * 2)
    for rt in run.telemetry.per_rank:
        rollup.add_rank(run.report(rt.rank), rt.series)
    res = rollup.result()
    merged = aggregate_reports([run.report(r) for r in range(NRANKS)])
    assert res["totals"]["total"]["computation_time"] == pytest.approx(
        merged.computation_time, rel=1e-12
    )


def test_rollup_rejects_series_coarser_than_grid(run):
    rollup = ClusterRollup(width=run.telemetry.series(0).width / 2)
    with pytest.raises(ValueError):
        rollup.add_rank(run.report(0), run.telemetry.series(0))


def test_rollup_files_empty_raises():
    with pytest.raises(ValueError):
        rollup_files([])


def test_load_rank_telemetry_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 999}))
    with pytest.raises(ValueError):
        load_rank_telemetry(path)


def test_write_run_telemetry_layout(run, tmp_path):
    out = tmp_path / "out"
    written = write_run_telemetry(run, out)
    assert len(written["ranks"]) == NRANKS
    assert len(written["trace"]) == 1
    assert len(written["rollup"]) == 1
    for path in written["ranks"] + written["trace"] + written["rollup"]:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)  # all artifacts are valid JSON
    rolled = json.load(open(written["rollup"][0], encoding="utf-8"))
    assert rolled["nranks"] == NRANKS


def test_stream_stats_quantiles_and_padding():
    st = StreamStats()
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        st.add(v, tag=int(v))
    assert st.count == 5
    assert st.min == 1.0 and st.max == 5.0
    assert st.argmax == 5
    assert st.quantile(0.5) == 3.0
    # Padding with zeros for ranks that had no window here.
    assert st.quantile(0.5, pad_zeros_to=10) == 0.0


def test_stream_stats_reservoir_is_bounded_and_deterministic():
    a, b = StreamStats(sample_cap=16), StreamStats(sample_cap=16)
    for i in range(1000):
        a.add(float(i))
        b.add(float(i))
    assert len(a.samples) == 16
    assert a.samples == b.samples  # LCG makes the reservoir reproducible
    assert a.count == 1000


def test_stream_stats_quantiles_match_quantile():
    st = StreamStats(sample_cap=16)
    for i in range(100):
        st.add(float((i * 37) % 101))
    qs = (0.0, 0.25, 0.5, 0.75, 0.95, 1.0)
    for pad in (0, 8, 40):
        assert st.quantiles(qs, pad) == [st.quantile(q, pad) for q in qs]
    assert StreamStats().quantiles(qs) == [0.0] * len(qs)
