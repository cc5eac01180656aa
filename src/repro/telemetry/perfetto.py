"""Chrome ``trace_event`` / Perfetto export of instrumented runs.

Renders a simulated job as a standard trace JSON file that loads directly
in ``ui.perfetto.dev`` or ``chrome://tracing``:

* one *process* per rank (``pid`` = rank, named ``rank N``);
* a **calls** thread with one complete ("X") slice per library call
  (nested calls nest);
* a **sections** thread with one slice per monitoring section;
* a **transfers** async track per data-transfer operation ("b"/"e" pairs
  keyed by transfer id).  Transfers whose initiation was invisible
  (case 3) get an *a-priori* span ``[end - xfer_time, end]`` when an
  :class:`~repro.core.xfer_table.XferTable` is supplied;
* a **wire** async track with the simulator's ground-truth physical
  transfer intervals (``Fabric.transfer_log``), when recording was on;
* one counter ("C") track per windowed metric fed from a
  :class:`~repro.telemetry.windows.WindowSeries`.

Timestamps are simulated seconds scaled to trace microseconds.  The
exporter is pure post-processing: it consumes a recorded event list (a
PERUSE :class:`~repro.core.trace.TraceSink`), never the live hot path.
"""

from __future__ import annotations

import functools
import json
import os
import typing

from repro.core.events import EventKind, NameRegistry, TimedEvent
from repro.telemetry.windows import WINDOW_METRICS, WindowSeries

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.xfer_table import XferTable
    from repro.netsim.nic import TransferRecord

#: Simulated seconds -> trace microseconds.
TIME_SCALE = 1e6

#: Thread ids within each rank's process.
TID_CALLS = 1
TID_SECTIONS = 2
TID_TRANSFERS = 3
TID_WIRE = 4

#: Thread id used by host-time span timelines (``repro.tracing.merge``).
TID_SPANS = 1

_THREAD_NAMES = {
    TID_CALLS: "library calls",
    TID_SECTIONS: "sections",
    TID_TRANSFERS: "data transfers",
    TID_WIRE: "wire (ground truth)",
}


class ChromeTraceExporter:
    """Accumulates trace events; serializes the Chrome JSON object format.

    Each event is stored already encoded: the compact JSON text that
    ``json.dumps(event, separators=(",", ":"))`` gives its dict, written
    with one f-string when the event is added.  :meth:`to_json` is then a
    join inside the fixed envelope, and :meth:`to_dict` a parse of it.
    """

    def __init__(self, other_data: "dict[str, object] | None" = None) -> None:
        #: Encoded trace events, in the order they were added.
        self.events: list[str] = []
        #: The envelope's ``otherData`` object.
        self.other_data = other_data if other_data is not None else {
            "exporter": "repro.telemetry.perfetto",
            "time_unit": "us (simulated)",
        }
        self._named_pids: set[int] = set()
        self._wire_seq = 0

    # -- metadata -----------------------------------------------------------
    def _ensure_process(self, rank: int, label: str = "") -> None:
        if rank not in self._named_pids:
            name = f"rank {rank}" + (f" ({label})" if label else "")
            self.add_process(rank, name, thread_names=_THREAD_NAMES)

    def add_process(self, pid: int, name: str,
                    sort_index: "int | None" = None,
                    thread_names: "dict[int, str] | None" = None) -> None:
        """Name an arbitrary process track (not tied to a simulated rank).

        The host-span merge (:mod:`repro.tracing.merge`) builds multi-
        process timelines -- service worker, sweep cells, shard workers
        -- whose pids are assigned by enumeration, not rank number.
        """
        if pid in self._named_pids:
            return
        self._named_pids.add(pid)
        sort = pid if sort_index is None else sort_index
        self.events.append(
            f'{{"ph":"M","name":"process_name","pid":{pid},"tid":0,'
            f'"args":{{"name":{_quote(name)}}}}}')
        self.events.append(
            f'{{"ph":"M","name":"process_sort_index","pid":{pid},"tid":0,'
            f'"args":{{"sort_index":{_num(sort)}}}}}')
        for tid, tname in (thread_names or {TID_SPANS: "spans"}).items():
            self.events.append(
                f'{{"ph":"M","name":"thread_name","pid":{pid},"tid":{tid},'
                f'"args":{{"name":{_quote(tname)}}}}}')

    def add_complete_slice(self, pid: int, tid: int, name: str, cat: str,
                           t0: float, t1: float,
                           args: "dict | None" = None) -> None:
        """One complete ("X") slice from absolute times in seconds."""
        self.events.append(
            f'{{"ph":"X","name":{_quote(name)},"cat":{_quote(cat)},'
            f'"pid":{pid},"tid":{tid},"ts":{_ts(t0 * TIME_SCALE)},'
            f'"dur":{_ts(max(0.0, (t1 - t0)) * TIME_SCALE)}'
            + (f',"args":{_compact(args)}}}' if args else "}"))

    def _add_async(self, pid: int, tid: int, cat: str, name: str, ident: str,
                   t0: float, t1: float, args: str) -> None:
        """One async "b"/"e" pair keyed by ``ident`` (ASCII built from ints,
        so written unescaped); ``args`` is already-encoded JSON."""
        head = (f'{{"cat":{_quote(cat)},"name":{_quote(name)},"id":"{ident}",'
                f'"pid":{pid},"tid":{tid},"ph":')
        self.events.append(
            f'{head}"b","ts":{_ts(t0 * TIME_SCALE)},"args":{args}}}')
        self.events.append(f'{head}"e","ts":{_ts(t1 * TIME_SCALE)}}}')

    # -- slices from the raw event stream -----------------------------------
    def add_rank_events(
        self,
        rank: int,
        events: typing.Sequence[TimedEvent],
        names: NameRegistry,
        xfer_table: "XferTable | None" = None,
        label: str = "",
    ) -> None:
        """Render one rank's recorded event stream as slices."""
        self._ensure_process(rank, label)
        if not events:
            return
        end_of_stream = events[-1].time
        call_stack: list[tuple[int, float]] = []
        section_stack: list[tuple[int, float]] = []
        open_xfers: dict[int, TimedEvent] = {}
        add_slice = self.add_complete_slice

        def xfer_span(ev: TimedEvent, suffix: str, t0: float, t1: float,
                      cat: str) -> None:
            self._add_async(rank, TID_TRANSFERS, cat,
                            f"xfer {_fmt_nbytes(ev.b)}{suffix}",
                            f"x{rank}.{ev.a}", t0, t1,
                            f'{{"nbytes":{_num(ev.b)}}}')

        for ev in events:
            kind = ev.kind
            if kind == EventKind.CALL_ENTER:
                call_stack.append((ev.a, ev.time))
            elif kind == EventKind.CALL_EXIT:
                if call_stack:
                    ident, t0 = call_stack.pop()
                    add_slice(rank, TID_CALLS, names.name_of(ident), "call",
                              t0, ev.time)
            elif kind == EventKind.SECTION_BEGIN:
                section_stack.append((ev.a, ev.time))
            elif kind == EventKind.SECTION_END:
                if section_stack:
                    ident, t0 = section_stack.pop()
                    add_slice(rank, TID_SECTIONS, names.name_of(ident),
                              "section", t0, ev.time)
            elif kind == EventKind.XFER_BEGIN:
                open_xfers[ev.a] = ev
            elif kind == EventKind.XFER_END:
                begin = open_xfers.pop(ev.a, None)
                if begin is not None:
                    xfer_span(ev, "", begin.time, ev.time, "transfer")
                elif xfer_table is not None:
                    # Case 3: initiation invisible; draw the a-priori span.
                    span = xfer_table.time_for(float(ev.b))
                    xfer_span(ev, " (a-priori)", max(0.0, ev.time - span),
                              ev.time, "transfer.apriori")
        # Anything still open at the end of the stream is drawn to the end.
        for ident, t0 in call_stack:
            add_slice(rank, TID_CALLS, names.name_of(ident), "call.unclosed",
                      t0, end_of_stream)
        for ident, t0 in section_stack:
            add_slice(rank, TID_SECTIONS, names.name_of(ident),
                      "section.unclosed", t0, end_of_stream)
        for begin in open_xfers.values():
            xfer_span(begin, " (unresolved)", begin.time, end_of_stream,
                      "transfer.unresolved")

    # -- counters from the windowed series -----------------------------------
    def add_window_counters(
        self,
        rank: int,
        series: WindowSeries,
        metrics: typing.Sequence[str] = WINDOW_METRICS,
        label: str = "",
    ) -> None:
        """One counter track per metric: the per-window delta, stepped."""
        self._ensure_process(rank, label)
        unknown = set(metrics) - set(WINDOW_METRICS)
        if unknown:
            raise ValueError(f"unknown window metrics {sorted(unknown)}")
        rows = series.deltas()
        if not rows:
            return
        # Every metric's track samples the same instants: encode them once.
        stamps = [_ts(row["start"] * TIME_SCALE) for row in rows]
        end = _ts(rows[-1]["end"] * TIME_SCALE)
        for metric in metrics:
            head = (f'{{"ph":"C","name":{_quote("win." + metric)},'
                    f'"pid":{rank},"tid":0,"ts":')
            self.events.extend(
                f'{head}{ts},"args":{{"value":{_num(row[metric])}}}}}'
                for ts, row in zip(stamps, rows))
            # Close the staircase so the last window has visible width.
            self.events.append(f'{head}{end},"args":{{"value":0.0}}}}')

    # -- ground-truth wire intervals -----------------------------------------
    def add_transfer_log(
        self,
        records: "typing.Sequence[TransferRecord]",
        min_nbytes: float = 0.0,
    ) -> None:
        """Render the simulator's physical transfer log on per-rank tracks.

        Each record is drawn on its *source* rank's wire thread (for RDMA
        Read, the source is the target NIC streaming the data back).
        Records of at most ``min_nbytes`` (control packets) are skipped.
        """
        for rec in records:
            if rec.nbytes <= min_nbytes:
                continue
            self._ensure_process(rec.src)
            self._wire_seq += 1
            self._add_async(
                rec.src, TID_WIRE, "wire",
                f"{rec.kind} {_fmt_nbytes(rec.nbytes)} → {rec.dst}",
                f"w{self._wire_seq}", rec.start, rec.end,
                f'{{"nbytes":{_num(rec.nbytes)},"dst":{_num(rec.dst)}}}')

    # -- serialization --------------------------------------------------------
    def to_json(self) -> str:
        return (f'{{"traceEvents":[{",".join(self.events)}],'
                f'"displayTimeUnit":"ms",'
                f'"otherData":{_compact(self.other_data)}}}')

    def to_dict(self) -> dict[str, object]:
        return json.loads(self.to_json())

    def save(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


#: A string as a JSON literal, exactly as ``json.dumps`` writes it
#: (``ensure_ascii``); memoized, since names and categories repeat.
_quote = functools.lru_cache(maxsize=4096)(
    json.encoder.encode_basestring_ascii)

#: Compact ``json.dumps`` for free-form values (span args, ``otherData``).
_compact = json.JSONEncoder(separators=(",", ":")).encode

#: Timestamps and durations: always finite floats, which ``json.dumps``
#: writes with ``float.__repr__``.
_ts = float.__repr__

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(x: float) -> str:
    """An int or float exactly as ``json.dumps`` writes it."""
    s = float.__repr__(x) if isinstance(x, float) else int.__repr__(x)
    return _NON_FINITE.get(s, s)


def _fmt_nbytes(n: float) -> str:
    n = int(n)
    if n >= 1 << 20 and n % (1 << 20) == 0:
        return f"{n >> 20}MiB"
    if n >= 1 << 10 and n % (1 << 10) == 0:
        return f"{n >> 10}KiB"
    return f"{n}B"
