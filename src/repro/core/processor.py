"""The data processing module: on-the-fly overlap bound derivation.

This implements Sec. 2.2 of the paper.  Walking the time-ordered event
stream of one process (paper Fig. 1 shows the stream for an RDMA-Read
exchange), the processor

* attributes every interval between consecutive events either to **user
  computation** (outside any library call) or **communication call time**
  (inside a call),
* tracks the set of *active* data-transfer operations (``XFER_BEGIN`` seen,
  ``XFER_END`` not yet), accumulating for each the interleaved
  ``computation_time`` and in-library ``noncomputation_time``,
* on ``XFER_END`` resolves the operation under one of three cases:

  1. begin and end stamped within the **same** library call -- the
     application sat inside the library for the whole transfer, so both
     bounds are zero;
  2. begin and end stamped in **different** calls -- with ``xfer_time``
     taken from the a-priori table:
     ``max = min(computation_time, xfer_time)`` and
     ``min = max(0, xfer_time - noncomputation_time)``;
  3. only **one** of the two events stamped -- nothing conclusive:
     ``min = 0``, ``max = xfer_time``.

State persists across drains of the circular queue, so only *active*
events need memory (the paper: "information is maintained only for the set
of currently active events"; no tracing).

Hot-path note: interval attribution is O(1) per event regardless of how
many transfers are active.  Instead of walking the active set on every
event (O(active) per event, quadratic on deep injection windows), the
processor maintains two *cumulative* clocks -- total user-computation time
and total in-call time since startup -- and each active transfer snapshots
them at ``XFER_BEGIN``.  At ``XFER_END`` the interleaved ``comp`` /
``noncomp`` windows fall out by subtraction.  The clocks are kept as exact
Shewchuk partial sums so the window values are *correctly rounded*: the
subtraction is bit-identical to exactly summing the per-transfer interval
list, which is what the test oracle ``ReferenceDataProcessor``
(``tests/oracles.py``) does and what the differential property test
relies on.
"""

from __future__ import annotations

import math
import typing

from repro.core.events import EventKind, TimedEvent
from repro.core.measures import (
    CASE_ONE_EVENT,
    CASE_SAME_CALL,
    CASE_SPLIT_CALL,
    DEFAULT_BIN_EDGES,
    OverlapMeasures,
)
from repro.core.xfer_table import XferTable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import MetricsRegistry

_TIME_EPS = 1e-12

#: Human-readable label values for the three bounding cases.
CASE_LABELS = {
    CASE_SAME_CALL: "same_call",
    CASE_SPLIT_CALL: "split_call",
    CASE_ONE_EVENT: "one_event",
}


class InstrumentationError(RuntimeError):
    """Raised on malformed event streams (library instrumentation bugs)."""


# Plain-int mirrors of the EventKind members for the dispatch loop: an
# IntEnum attribute lookup plus enum comparison per event is measurable at
# flush time, a raw int compare is not.
_CALL_ENTER = int(EventKind.CALL_ENTER)
_CALL_EXIT = int(EventKind.CALL_EXIT)
_XFER_BEGIN = int(EventKind.XFER_BEGIN)
_XFER_END = int(EventKind.XFER_END)
_SECTION_BEGIN = int(EventKind.SECTION_BEGIN)
_SECTION_END = int(EventKind.SECTION_END)
_RESET = int(EventKind.RESET)


def _grow_partials(partials: list[float], x: float) -> None:
    """Add ``x`` to a Shewchuk partial-sum list, keeping the sum exact.

    The list always represents the exact real value of everything added so
    far; ``math.fsum`` over it yields the correctly rounded total.  The
    list stays short in practice (a handful of non-overlapping floats), so
    this is an O(1)-in-active-transfers accumulation step.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _window(now: list[float], begin: tuple[float, ...]) -> float:
    """Correctly rounded ``sum(now) - sum(begin)`` of two exact partial sums.

    Negation of floats is exact, so fsum over the concatenation computes
    the correctly rounded value of the exact window -- bit-identical to
    exactly summing the intervals that fell inside it.
    """
    return math.fsum(now + [-y for y in begin])


class _ActiveXfer:
    """A data-transfer operation whose ``XFER_END`` has not been seen yet."""

    __slots__ = ("begin_time", "begin_call", "nbytes", "comp0", "noncomp0", "sections")

    def __init__(
        self,
        begin_time: float,
        begin_call: int,
        nbytes: float,
        comp0: tuple[float, ...],
        noncomp0: tuple[float, ...],
        sections: tuple[int, ...],
    ) -> None:
        self.begin_time = begin_time
        self.begin_call = begin_call  # outermost call sequence no., -1 if outside
        self.nbytes = nbytes
        self.comp0 = comp0  # computation-clock snapshot at begin
        self.noncomp0 = noncomp0  # in-call-clock snapshot at begin
        self.sections = sections


class CallStats:
    """Per-call-name invocation count and cumulative in-call time.

    Used to report e.g. "average time spent in MPI_Wait" (Figs. 3-9) and
    "overall MPI time" (Fig. 18).
    """

    __slots__ = ("count", "total_time")

    def __init__(self) -> None:
        self.count = 0
        self.total_time = 0.0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0


class DataProcessor:
    """Consumes event batches; owns the per-process overlap measures."""

    def __init__(
        self,
        xfer_table: XferTable,
        bin_edges: typing.Sequence[float] = DEFAULT_BIN_EDGES,
    ) -> None:
        self.xfer_table = xfer_table
        self._bin_edges = tuple(bin_edges)
        #: Whole-run measures.
        self.total = OverlapMeasures(bin_edges)
        #: Measures restricted to named monitoring sections.
        self.sections: dict[int, OverlapMeasures] = {}
        #: Per-call-name statistics (keyed by interned name id).
        self.call_stats: dict[int, CallStats] = {}

        self._active: dict[int, _ActiveXfer] = {}
        #: Most transfers ever simultaneously awaiting their ``XFER_END``.
        self.active_high_water = 0
        #: Intervals attributed (``_advance`` calls that moved the clocks).
        self.interval_ops = 0
        # Cumulative clocks (exact partial sums): total attributed user
        # computation and total attributed in-call time since startup.
        self._comp_clock: list[float] = []
        self._call_clock: list[float] = []
        self._depth = 0
        self._call_seq = 0
        self._call_enter_time = 0.0
        self._call_name = -1
        self._last_time: float | None = None
        self._section_stack: list[int] = []
        self._finalized = False

    def attach_metrics(
        self,
        metrics: "MetricsRegistry",
        labels: "dict[str, str] | None" = None,
    ) -> None:
        """Register processor health metrics (all sampled: no hot-path cost).

        Case counts read straight from the always-maintained
        :attr:`OverlapMeasures.case_counts`, so the three-case mix is
        scrapeable without a single extra operation per transfer.
        """
        counts = self.total.case_counts
        for case, label in CASE_LABELS.items():
            metrics.sampled_counter(
                "repro_processor_cases",
                (lambda c=case: counts[c]),
                "Transfers resolved under each Sec. 2.2 bounding case",
                {**(labels or {}), "case": label})
        metrics.sampled_gauge(
            "repro_processor_active_transfers", lambda: len(self._active),
            "Transfers currently awaiting their XFER_END", labels)
        metrics.sampled_gauge(
            "repro_processor_active_transfers_hiwater",
            lambda: self.active_high_water,
            "Most transfers ever simultaneously active", labels)
        metrics.sampled_counter(
            "repro_processor_interval_ops", lambda: self.interval_ops,
            "Interval-attribution operations (clock advances)", labels)
        metrics.sampled_counter(
            "repro_processor_transfers", lambda: self.total.transfer_count,
            "Transfers resolved into the overlap measures", labels)

    # -- event intake -----------------------------------------------------
    def process(self, batch: typing.Sequence[TimedEvent]) -> None:
        """Digest a drained batch of events (oldest first)."""
        if self._finalized:
            raise InstrumentationError("processor already finalized")
        # Bound handlers and advance are hoisted out of the loop; branches
        # are ordered by frequency in real streams (calls, then transfers).
        advance = self._advance
        on_call_enter = self._on_call_enter
        on_call_exit = self._on_call_exit
        on_xfer_begin = self._on_xfer_begin
        on_xfer_end = self._on_xfer_end
        for ev in batch:
            kind = ev.kind
            if kind == _CALL_ENTER:
                advance(ev.time)
                on_call_enter(ev)
            elif kind == _CALL_EXIT:
                advance(ev.time)
                on_call_exit(ev)
            elif kind == _XFER_END:
                advance(ev.time)
                on_xfer_end(ev)
            elif kind == _XFER_BEGIN:
                advance(ev.time)
                on_xfer_begin(ev)
            elif kind == _RESET:
                # Monitoring was paused: do not attribute the gap.
                self._last_time = ev.time
            elif kind == _SECTION_BEGIN:
                advance(ev.time)
                self._section_stack.append(ev.a)
                self.sections.setdefault(ev.a, OverlapMeasures(self._bin_edges))
            elif kind == _SECTION_END:
                advance(ev.time)
                if not self._section_stack or self._section_stack[-1] != ev.a:
                    raise InstrumentationError(
                        f"SECTION_END {ev.a} does not match open section stack "
                        f"{self._section_stack}"
                    )
                self._section_stack.pop()
            else:  # pragma: no cover - enum is exhaustive
                raise InstrumentationError(f"unknown event kind {kind}")

    def finalize(self, end_time: float | None = None) -> None:
        """Resolve still-active transfers (case 3) and freeze the measures."""
        if self._finalized:
            return
        if end_time is not None:
            self._advance(end_time)
        for xfer in self._active.values():
            xfer_time = self.xfer_table.time_for(xfer.nbytes)
            self._record(xfer.nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT, xfer.sections)
        self._active.clear()
        self._finalized = True

    # -- interval attribution ----------------------------------------------
    def _advance(self, t: float) -> None:
        last = self._last_time
        if last is None:
            self._last_time = t
            return
        dt = t - last
        if dt < -_TIME_EPS:
            raise InstrumentationError(
                f"event stream goes backwards in time: {last} -> {t}"
            )
        if dt > 0.0:
            self.interval_ops += 1
            in_call = self._depth > 0
            self.total.add_interval(dt, in_call)
            for sec in self._section_stack:
                self.sections[sec].add_interval(dt, in_call)
            # O(1) in active transfers: bump one cumulative clock; the
            # per-transfer windows are recovered by subtraction at XFER_END.
            _grow_partials(self._call_clock if in_call else self._comp_clock, dt)
        self._last_time = t

    # -- event handlers -----------------------------------------------------
    def _on_call_enter(self, ev: TimedEvent) -> None:
        self._depth += 1
        if self._depth == 1:
            self._call_seq += 1
            self._call_enter_time = ev.time
            self._call_name = ev.a

    def _on_call_exit(self, ev: TimedEvent) -> None:
        if self._depth <= 0:
            raise InstrumentationError("CALL_EXIT without a matching CALL_ENTER")
        self._depth -= 1
        if self._depth == 0:
            stats = self.call_stats.setdefault(self._call_name, CallStats())
            stats.count += 1
            stats.total_time += ev.time - self._call_enter_time

    def _on_xfer_begin(self, ev: TimedEvent) -> None:
        if ev.a in self._active:
            raise InstrumentationError(f"duplicate XFER_BEGIN for transfer {ev.a}")
        begin_call = self._call_seq if self._depth > 0 else -1
        self._active[ev.a] = _ActiveXfer(
            ev.time,
            begin_call,
            float(ev.b),
            tuple(self._comp_clock),
            tuple(self._call_clock),
            tuple(self._section_stack),
        )
        if len(self._active) > self.active_high_water:
            self.active_high_water = len(self._active)

    def _on_xfer_end(self, ev: TimedEvent) -> None:
        xfer = self._active.pop(ev.a, None)
        nbytes = float(ev.b)
        if xfer is None:
            # Case 3: END without a BEGIN (e.g. the eager receiver, for whom
            # initiation is transparent).
            xfer_time = self.xfer_table.time_for(nbytes)
            self._record(
                nbytes, xfer_time, 0.0, xfer_time, CASE_ONE_EVENT,
                tuple(self._section_stack),
            )
            return
        if xfer.nbytes != nbytes and nbytes > 0:
            raise InstrumentationError(
                f"transfer {ev.a} size mismatch: begin={xfer.nbytes} end={nbytes}"
            )
        xfer_time = self.xfer_table.time_for(xfer.nbytes)
        same_call = (
            self._depth > 0
            and xfer.begin_call == self._call_seq
            and xfer.begin_call != -1
        )
        if same_call:
            # Case 1: the application never left the library.
            self._record(xfer.nbytes, xfer_time, 0.0, 0.0, CASE_SAME_CALL, xfer.sections)
        else:
            # Case 2: bounded by interleaved computation / in-library time.
            comp = _window(self._comp_clock, xfer.comp0)
            noncomp = _window(self._call_clock, xfer.noncomp0)
            max_ov = min(comp, xfer_time)
            min_ov = max(0.0, xfer_time - noncomp)
            # The bounds must nest: min <= max always holds because
            # comp + noncomp == end - begin >= xfer_time - noncomp whenever
            # min > 0; clamp defensively against float noise.
            min_ov = min(min_ov, max_ov)
            self._record(
                xfer.nbytes, xfer_time, min_ov, max_ov, CASE_SPLIT_CALL, xfer.sections
            )

    def _record(
        self,
        nbytes: float,
        xfer_time: float,
        min_ov: float,
        max_ov: float,
        case: int,
        sections: tuple[int, ...],
    ) -> None:
        self.total.add_transfer(nbytes, xfer_time, min_ov, max_ov, case)
        for sec in sections:
            self.sections[sec].add_transfer(nbytes, xfer_time, min_ov, max_ov, case)

    # -- introspection -------------------------------------------------------
    @property
    def active_transfer_count(self) -> int:
        """Number of transfers currently awaiting their ``XFER_END``."""
        return len(self._active)

    @property
    def in_call(self) -> bool:
        """True while the event stream is inside a library call."""
        return self._depth > 0
