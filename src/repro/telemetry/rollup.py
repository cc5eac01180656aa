"""Cluster-wide rollup of per-rank telemetry files.

The paper keeps aggregation strictly post-processing ("the reported
information only characterizes the local process communication activity");
this module scales that step to any rank count: files are streamed one at
a time, and the per-window cross-rank statistics use constant memory per
window (running min/max/sum plus a bounded deterministic reservoir for
percentiles -- exact whenever ``nranks <= sample_cap``).

Rank series may have diverged in window width (the bounded ring coalesces
independently per rank); since every width is ``base_width * 2**k`` on the
shared grid anchored at t=0, finer series are losslessly resampled onto
the rollup grid (see :meth:`WindowSeries.resample`).
"""

from __future__ import annotations

import json
import os
import typing

from repro.core.report import OverlapReport
from repro.telemetry.windows import WINDOW_METRICS, WindowSeries

ROLLUP_FORMAT_VERSION = 1

#: Percentiles reported per (window, metric) across ranks.
QUANTILES = (0.25, 0.5, 0.75, 0.95)
_QUANTILE_KEYS = tuple(f"p{int(q * 100)}" for q in QUANTILES)

#: Report totals summarized in the rank-imbalance table.
IMBALANCE_METRICS = (
    "wall_time",
    "communication_call_time",
    "computation_time",
    "data_transfer_time",
    "min_overlap_time",
    "max_overlap_time",
)


class StreamStats:
    """Constant-memory accumulator: moments, extrema, bounded reservoir."""

    __slots__ = ("count", "total", "min", "max", "argmin", "argmax",
                 "samples", "_cap", "_lcg")

    def __init__(self, sample_cap: int = 128) -> None:
        if sample_cap < 1:
            raise ValueError("sample_cap must be >= 1")
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.argmin = -1
        self.argmax = -1
        self.samples: list[float] = []
        self._cap = sample_cap
        # Deterministic LCG for reservoir replacement (reproducible output
        # without perturbing any global RNG state).
        self._lcg = 0x2545F491

    def add(self, value: float, tag: int = -1) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min, self.argmin = value, tag
        if value > self.max:
            self.max, self.argmax = value, tag
        if len(self.samples) < self._cap:
            self.samples.append(value)
        else:
            # Algorithm R with a deterministic LCG: keep each seen value
            # with probability cap/count.
            self._lcg = (self._lcg * 1103515245 + 12345) & 0x7FFFFFFF
            slot = self._lcg % self.count
            if slot < self._cap:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float, pad_zeros_to: int = 0) -> float:
        """Nearest-rank quantile over the reservoir.

        ``pad_zeros_to``: treat the population as having that many members,
        the missing ones being zero (ranks whose series ended early
        contribute empty windows).
        """
        return self.quantiles((q,), pad_zeros_to)[0]

    def quantiles(self, qs: typing.Sequence[float],
                  pad_zeros_to: int = 0) -> "list[float]":
        """:meth:`quantile` for each of ``qs``, sorting the reservoir once."""
        values = sorted(self.samples)
        missing = max(0, min(pad_zeros_to, self._cap) - len(values))
        if missing:
            values = [0.0] * missing + values
        if not values:
            return [0.0] * len(qs)
        last = len(values) - 1
        return [values[min(last, max(0, round(q * last)))] for q in qs]


class ClusterRollup:
    """Streaming merger of per-rank reports + window series."""

    def __init__(self, width: float, sample_cap: int = 128) -> None:
        if width <= 0:
            raise ValueError(f"rollup grid width must be positive, got {width}")
        self.width = float(width)
        self.sample_cap = sample_cap
        self.nranks = 0
        self.labels: set[str] = set()
        #: Merged whole-run report (totals, sections, call stats).
        self.totals: OverlapReport | None = None
        #: window index -> metric -> cross-rank stats of per-window deltas.
        self._windows: dict[int, dict[str, StreamStats]] = {}
        #: report metric -> cross-rank stats of per-rank totals.
        self._imbalance: dict[str, StreamStats] = {
            m: StreamStats(sample_cap) for m in IMBALANCE_METRICS
        }

    # -- intake -------------------------------------------------------------
    def add_rank(self, report: OverlapReport, series: WindowSeries) -> None:
        """Fold one rank in; forgets the rank's data before returning."""
        if series.width > self.width * (1 + 1e-12):
            raise ValueError(
                f"series width {series.width} is coarser than the rollup "
                f"grid {self.width}; build the rollup on the coarsest width"
            )
        self.nranks += 1
        if report.label:
            self.labels.add(report.label)
        # Whole-run totals: OverlapReport.merge on a private copy.
        copy = OverlapReport.from_dict(report.to_dict())
        if self.totals is None:
            self.totals = copy
        else:
            self.totals.merge(copy)
        # Imbalance streams over per-rank run totals.
        rank = report.rank
        self._imbalance["wall_time"].add(report.wall_time, rank)
        m = report.total
        for name in IMBALANCE_METRICS:
            if name == "wall_time":
                continue
            self._imbalance[name].add(getattr(m, name), rank)
        # Per-window percentile streams.
        aligned = series.resample(self.width)
        for i, row in enumerate(aligned.deltas()):
            stats = self._windows.get(i)
            if stats is None:
                stats = self._windows[i] = {
                    name: StreamStats(self.sample_cap) for name in WINDOW_METRICS
                }
            for name in WINDOW_METRICS:
                stats[name].add(row[name], rank)

    def add_file(self, path: "str | os.PathLike") -> None:
        """Stream one per-rank telemetry file (report + series)."""
        report, series = load_rank_telemetry(path)
        self.add_rank(report, series)

    # -- output -------------------------------------------------------------
    def result(self) -> dict[str, object]:
        """The rollup as a plain-data payload (JSON-ready)."""
        if self.totals is None:
            raise ValueError("no ranks added to the rollup")
        windows = []
        for i in sorted(self._windows):
            stats = self._windows[i]
            windows.append({
                "index": i,
                "start": i * self.width,
                "end": (i + 1) * self.width,
                "metrics": {
                    name: {
                        "min": 0.0 if st.count < self.nranks else st.min,
                        "max": st.max if st.count else 0.0,
                        "mean": st.total / self.nranks,
                        **dict(zip(_QUANTILE_KEYS,
                                   st.quantiles(QUANTILES, self.nranks))),
                    }
                    for name, st in stats.items()
                },
            })
        imbalance = {}
        for name, st in self._imbalance.items():
            mean = st.mean
            imbalance[name] = {
                "min": st.min if st.count else 0.0,
                "max": st.max if st.count else 0.0,
                "mean": mean,
                "max_over_mean": (st.max / mean) if mean > 0 else 0.0,
                "max_rank": st.argmax,
                "min_rank": st.argmin,
            }
        return {
            "format_version": ROLLUP_FORMAT_VERSION,
            "nranks": self.nranks,
            "labels": sorted(self.labels),
            "window_width": self.width,
            "totals": self.totals.to_dict(),
            "windows": windows,
            "imbalance": imbalance,
        }

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.result(), fh, indent=1)

    def render_text(self) -> str:
        """Terminal summary: totals, imbalance table, window count."""
        res = self.result()
        totals = typing.cast("dict", res["totals"])["total"]
        lines = [
            f"cluster rollup: {res['nranks']} ranks, "
            f"{len(typing.cast('list', res['windows']))} windows of "
            f"{typing.cast('float', res['window_width']) * 1e3:.3g} ms",
            f"  data transfer time   {totals['data_transfer_time']:.6f} s",
            f"  overlap bounds       [{totals['min_overlap_time']:.6f}, "
            f"{totals['max_overlap_time']:.6f}] s",
            f"  computation time     {totals['computation_time']:.6f} s",
            f"  comm call time       {totals['communication_call_time']:.6f} s",
            "  rank imbalance (max/mean):",
        ]
        for name, row in typing.cast("dict[str, dict]", res["imbalance"]).items():
            lines.append(
                f"    {name:<26} {row['max_over_mean']:>6.3f}"
                f"  (max {row['max']:.6f} s @ rank {row['max_rank']})"
            )
        return "\n".join(lines)


# -- per-rank file layout -----------------------------------------------------
RANK_FILE_FORMAT_VERSION = 1


def save_rank_telemetry(
    path: "str | os.PathLike", report: OverlapReport, series: WindowSeries
) -> None:
    """Write one rank's telemetry file (report + window series)."""
    payload = {
        "format_version": RANK_FILE_FORMAT_VERSION,
        "rank": report.rank,
        "report": report.to_dict(),
        "series": series.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def load_rank_telemetry(
    path: "str | os.PathLike",
) -> tuple[OverlapReport, WindowSeries]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("format_version") != RANK_FILE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported rank telemetry format {data.get('format_version')!r}"
        )
    return (
        OverlapReport.from_dict(data["report"]),
        WindowSeries.from_dict(data["series"]),
    )


def rollup_files(
    paths: typing.Sequence["str | os.PathLike"], sample_cap: int = 128
) -> ClusterRollup:
    """Two-pass streaming rollup: scan widths, then merge on the coarsest.

    Memory stays bounded by one rank file at a time plus the per-window
    accumulators -- independent of rank count.
    """
    if not paths:
        raise ValueError("no telemetry files to roll up")
    width = 0.0
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        width = max(width, float(data["series"]["width"]))
    rollup = ClusterRollup(width, sample_cap=sample_cap)
    for path in paths:
        rollup.add_file(path)
    return rollup
