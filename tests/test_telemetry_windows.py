"""Windowed collection: exact reconstruction, coalescing, bound checks.

The tentpole invariant: summing per-window deltas reconstructs the
whole-run totals to *exact* float equality, under every rendezvous
protocol and through ring coalescing.
"""

import pytest

from repro.core.processor import DataProcessor
from repro.core.report import OverlapReport
from repro.mpisim.config import (
    RNDV_PIPELINED,
    RNDV_RGET,
    RNDV_RPUT,
    MpiConfig,
)
from repro.runtime import run_app
from repro.telemetry import (
    TelemetryConfig,
    WindowSeries,
    check_windowed_bounds,
    render_windowed_validation,
)
from repro.telemetry.windows import WINDOW_METRICS, WindowedProcessor

ALL_RNDV = [RNDV_PIPELINED, RNDV_RGET, RNDV_RPUT]


def _rndv_cfg(mode):
    # Low eager limit so the 64 KiB messages exercise the rendezvous path.
    return MpiConfig(name=f"tele-{mode}", eager_limit=1024, rndv_mode=mode)


def _pingpong_compute(ctx, nbytes=64 * 1024, rounds=6):
    """Overlap-rich kernel: isend/irecv with computation before the wait."""
    peer = 1 - ctx.rank
    for _ in range(rounds):
        sreq = yield from ctx.comm.isend(peer, 7, nbytes)
        rreq = yield from ctx.comm.irecv(peer, 7)
        yield from ctx.compute(3e-4)
        yield from ctx.comm.wait(sreq)
        yield from ctx.comm.wait(rreq)


def _assert_exact_reconstruction(result):
    for rank, rep in enumerate(result.reports):
        if rep is None:
            continue
        series = result.telemetry.series(rank)
        totals = series.totals()
        for metric in WINDOW_METRICS:
            assert totals[metric] == getattr(rep.total, metric), (
                f"rank {rank} metric {metric}"
            )
        # The telescoping sum of deltas is the same thing, spelled out.
        for metric in WINDOW_METRICS:
            delta_sum = sum(row[metric] for row in series.deltas())
            assert delta_sum == pytest.approx(
                getattr(rep.total, metric), rel=1e-12, abs=1e-18
            )


@pytest.mark.parametrize("mode", ALL_RNDV)
def test_exact_reconstruction_all_rendezvous_protocols(mode):
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(mode),
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    assert result.telemetry is not None
    _assert_exact_reconstruction(result)
    assert all(len(result.telemetry.series(r)) >= 2 for r in range(2))


def test_exact_reconstruction_lu_kernel():
    from repro.experiments.nas_char import MPI_BENCHMARKS

    app, config_factory = MPI_BENCHMARKS["lu"]
    result = run_app(
        app, 4, config=config_factory(), label="lu.S.4",
        app_args=("S", 2, None, None),
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    _assert_exact_reconstruction(result)


@pytest.mark.parametrize("mode", ALL_RNDV)
def test_telemetry_does_not_perturb_measures(mode):
    """Differential: windowed run == plain run, bit for bit."""
    plain = run_app(_pingpong_compute, 2, config=_rndv_cfg(mode))
    windowed = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(mode),
        telemetry=TelemetryConfig(window_width=5e-5),
    )
    for rank in range(2):
        a, b = plain.report(rank).total, windowed.report(rank).total
        for metric in WINDOW_METRICS:
            assert getattr(a, metric) == getattr(b, metric)
        assert a.case_counts == b.case_counts
        assert a.transfer_count == b.transfer_count
    assert plain.elapsed == windowed.elapsed


def test_coalescing_ring_bounds_memory_and_stays_exact():
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(RNDV_PIPELINED),
        app_args=(64 * 1024, 40),
        telemetry=TelemetryConfig(window_width=1e-6, max_windows=64),
    )
    rank0 = result.telemetry.per_rank[0]
    proc_series = rank0.series
    assert len(proc_series) <= 64
    assert proc_series.width > 1e-6  # coalescing actually happened
    # width stays on the base * 2**k grid
    ratio = proc_series.width / proc_series.base_width
    assert ratio == 2 ** round(__import__("math").log2(ratio))
    _assert_exact_reconstruction(result)


def test_per_window_min_le_max():
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(RNDV_RGET),
        telemetry=TelemetryConfig(window_width=5e-5),
    )
    for rank in range(2):
        for row in result.telemetry.series(rank).deltas():
            assert row["min_overlap_time"] <= row["max_overlap_time"] + 1e-15
            assert row["end"] > row["start"]


def test_resample_is_lossless():
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(RNDV_PIPELINED),
        telemetry=TelemetryConfig(window_width=2e-5),
    )
    series = result.telemetry.series(0)
    coarse = series.resample(series.width * 4)
    assert coarse.width == series.width * 4
    assert coarse.totals() == series.totals()  # last snapshot preserved
    # Coarse deltas are sums of the fine deltas they cover.
    for metric in WINDOW_METRICS:
        assert sum(r[metric] for r in coarse.deltas()) == pytest.approx(
            sum(r[metric] for r in series.deltas()), rel=1e-12, abs=1e-18
        )
    with pytest.raises(ValueError):
        series.resample(series.width * 2.5)  # non-integer factor
    with pytest.raises(ValueError):
        series.resample(series.width / 2)  # cannot refine


def test_series_roundtrip_and_persistence(tmp_path):
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(RNDV_RPUT),
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    series = result.telemetry.series(1)
    clone = WindowSeries.from_dict(series.to_dict())
    assert clone.width == series.width
    assert clone.windows == series.windows
    assert clone.rank == series.rank
    path = tmp_path / "series.json"
    series.save(path)
    loaded = WindowSeries.load(path)
    assert loaded.windows == series.windows
    assert loaded.totals() == series.totals()


def test_from_dict_rejects_bad_version():
    with pytest.raises(ValueError):
        WindowSeries.from_dict({"format_version": 999})


@pytest.mark.parametrize("mode", ALL_RNDV)
def test_windowed_bounds_hold_against_ground_truth(mode):
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(mode),
        record_transfers=True,
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    for rank in range(2):
        checks = check_windowed_bounds(
            result, rank, result.telemetry.series(rank)
        )
        assert checks, "expected at least one closed window"
        for chk in checks:
            assert chk.min_holds, f"rank {rank} window {chk.index}: min"
            assert chk.max_holds, f"rank {rank} window {chk.index}: max"
        text = render_windowed_validation(checks)
        assert "ok" in text


def test_windowed_bounds_hold_for_nas_kernel():
    from repro.experiments.nas_char import MPI_BENCHMARKS

    app, config_factory = MPI_BENCHMARKS["sp"]
    result = run_app(
        app, 4, config=config_factory(), label="sp.S.4",
        app_args=("S", 2, None, False),
        record_transfers=True,
        telemetry=TelemetryConfig(window_width=1e-4),
    )
    for rank in range(4):
        for chk in check_windowed_bounds(
            result, rank, result.telemetry.series(rank)
        ):
            assert chk.holds


def test_config_validation():
    with pytest.raises(ValueError):
        TelemetryConfig(window_width=0.0)
    with pytest.raises(ValueError):
        TelemetryConfig(max_windows=3)  # must be even
    with pytest.raises(ValueError):
        TelemetryConfig(max_windows=0)


def test_windowed_processor_standalone_empty():
    from repro.core.xfer_table import XferTable

    table = XferTable.from_model(latency=1e-6, bandwidth=1e9)
    proc = WindowedProcessor(table, window_width=1e-4)
    proc.finalize(None)
    series = proc.series(rank=0)
    assert len(series) == 0
    assert series.totals() == {m: 0.0 for m in WINDOW_METRICS}


def test_run_without_telemetry_has_none():
    result = run_app(_pingpong_compute, 2, config=_rndv_cfg(RNDV_PIPELINED))
    assert result.telemetry is None


def test_report_totals_match_saved_report_dict():
    """The series snapshot and the serialized report agree post-roundtrip."""
    result = run_app(
        _pingpong_compute, 2, config=_rndv_cfg(RNDV_PIPELINED),
        telemetry=TelemetryConfig(),
    )
    rep = OverlapReport.from_dict(result.report(0).to_dict())
    totals = result.telemetry.series(0).totals()
    for metric in WINDOW_METRICS:
        assert totals[metric] == getattr(rep.total, metric)


class _OneWindowPerBoundary(WindowedProcessor):
    """Oracle: a fresh snapshot for every crossed grid boundary."""

    def _advance(self, t):
        while t > self._boundary:
            self._close_windows()  # closes exactly one window
        DataProcessor._advance(self, t)


def _long_gap_app(ctx):
    """Transfers in flight across one compute gap of ~500 base windows."""
    peer = 1 - ctx.rank
    for gap in (2e-5, 5e-3, 3e-5):
        sreq = yield from ctx.comm.isend(peer, 9, 64 * 1024)
        rreq = yield from ctx.comm.irecv(peer, 9)
        yield from ctx.compute(gap)
        yield from ctx.comm.wait(sreq)
        yield from ctx.comm.wait(rreq)


def test_long_gap_series_matches_one_window_per_boundary():
    width, cap = 1e-5, 16
    result = run_app(
        _long_gap_app, 2, config=_rndv_cfg(RNDV_PIPELINED),
        telemetry=TelemetryConfig(window_width=width, max_windows=cap),
    )
    for rt in result.telemetry.per_rank:
        oracle = _OneWindowPerBoundary(result.telemetry.xfer_table,
                                       window_width=width, max_windows=cap)
        oracle.process(rt.events)
        oracle.finalize(result.report(rt.rank).wall_time)
        assert oracle.coalesce_count >= 1
        assert any(w.active for w in oracle.series().windows)
        expected = oracle.series(rank=rt.rank, label=rt.series.label)
        assert rt.series.to_dict() == expected.to_dict()
