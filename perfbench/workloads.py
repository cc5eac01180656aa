"""The four benchmark workloads, driven only through public entry points.

Each workload has three parts:

* ``probe()`` -- what one fresh interpreter does before it can serve the
  workload (imports, one warm-up cell, a server start).  ``run.py`` times
  it from outside in child processes as ``setup_s``.
* ``prepare()`` -- untimed warm-up in the benchmark process, plus
  whatever the correctness gate needs (reference digests).  The NAS and
  halo workloads run their full input once here: the first pass in a
  process runs measurably slower (memo tables and allocator arenas
  fill), and timing it would skew a median of a few passes.
* ``run_pass(rng, sampler)`` -- one timed pass.  It returns a
  :class:`PassResult`; every output the pass produced has been checked
  against its reference by the time it returns.

Why each workload exists, and which layer it loads or bypasses, is in
``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
import statistics
import threading
import time
import typing

from stats import OpenLoop, calibrate, digest, reports_digest, tail

if typing.TYPE_CHECKING:  # pragma: no cover
    from layers import LayerSampler

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: NAS grid: the paper's Figs. 10-13 benchmarks at its rank counts, class A,
#: plus Fig. 19's MG on ARMCI blocking and non-blocking -- 21 cells, run
#: with the arguments ``characterize``/``characterize_mg`` use.
NAS_MPI = ("bt", "cg", "lu", "ft", "sp")
NAS_CLASS = "A"
NAS_NITER = 2
MG_NITER = 1
WARMUP_CELL = ("lu", "S", 4, "")

#: Halo: 256 ranks x 10 steps on 2 process shards, window sync (71 rounds).
#: One run takes about 0.6 s on 2 cores, so a run of the benchmark holds
#: enough of them for a median and a tail that repeat.
HALO_RANKS = 256
HALO_STEPS = 10
HALO_SHARDS = 2
HALO_ARGS = (HALO_STEPS, 4096.0, 20.0e-6)

#: Service: distinct NAS cells (benchmark, class, ranks); each pass starts
#: with an empty cache, so the first submission of each executes.
SERVICE_SPECS = (
    ("bt", "S", 4), ("bt", "A", 4), ("cg", "S", 2), ("cg", "S", 4),
    ("cg", "A", 2), ("lu", "S", 2), ("lu", "S", 4), ("lu", "A", 4),
    ("lu", "S", 8), ("ft", "S", 4), ("ft", "A", 8), ("sp", "S", 4),
    ("sp", "A", 4), ("mg", "S", 4), ("mg", "A", 2), ("mg", "S", 8),
    ("ep", "S", 4), ("is", "S", 4), ("is", "A", 8), ("cg", "A", 4),
)
SERVICE_TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: Submissions per second.  Fresh executions (one in ten submissions)
#: keep the two workers under half busy, so no backlog grows.
SERVICE_RATE = 40.0
SERVICE_WINDOW_S = 5.0
SERVICE_WORKERS = 2
#: Seconds a pass waits, after its last submission, for jobs to finish.
SERVICE_DRAIN_S = 120.0


@dataclasses.dataclass
class PassResult:
    """What one timed pass measured."""

    wall: float
    #: Per-operation latencies (seconds); failures enter as ``inf``.
    latencies: "list[float]"
    attempted: int
    failed: int
    #: Per-layer numbers of this pass, keyed by metric name.
    counters: "dict[str, float]" = dataclasses.field(default_factory=dict)
    #: Human-readable reasons for each failed operation.
    errors: "list[str]" = dataclasses.field(default_factory=list)
    #: Provenance of the pass's own tail metrics (percentile, samples).
    tails: "dict[str, dict]" = dataclasses.field(default_factory=dict)
    #: Host-speed factor around the pass (``stats.speed_factor``); the
    #: runner sets it.
    speed: float = 1.0
    #: Calibration times taken inside the pass, one before each operation
    #: and one after the last, untimed; empty for a pass that takes none.
    calibrations: "list[float]" = dataclasses.field(default_factory=list)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_digest(reports: typing.Sequence[typing.Any]) -> str:
    """Digest of one run's per-rank reports (see ``reference.json``)."""
    return reports_digest([rep.to_dict() for rep in reports])


def _engine_counts(reports: typing.Sequence[typing.Any]) -> "tuple[int, int]":
    """(core events, library calls) summed over every rank's report."""
    events = sum(rep.event_count for rep in reports)
    calls = sum(count for rep in reports for count, _t in rep.call_stats.values())
    return events, calls


# ---------------------------------------------------------------------------
# NAS grid (plain and observed)
# ---------------------------------------------------------------------------
def nas_cells() -> "list[tuple[str, str, int, str]]":
    from repro.experiments.nas_char import PAPER_PROC_COUNTS

    cells = [(b, NAS_CLASS, n, "") for b in NAS_MPI for n in PAPER_PROC_COUNTS[b]]
    for variant in ("blocking", "nonblocking"):
        cells += [("mg", NAS_CLASS, n, variant) for n in PAPER_PROC_COUNTS["mg"]]
    return cells


def cell_label(cell: "tuple[str, str, int, str]") -> str:
    """The label ``characterize``/``characterize_mg`` give the cell's run."""
    bench, klass, n, variant = cell
    if bench == "mg":
        return f"mg.{klass}.{n}.{'b' if variant == 'blocking' else 'nb'}"
    return f"{bench}.{klass}.{n}"


def run_nas_cell(cell: "tuple[str, str, int, str]",
                 observe: bool = False) -> "tuple[typing.Any, dict]":
    """Run one cell; returns (result, observability counters).

    With ``observe`` every hook the launcher accepts is on -- telemetry,
    metrics and a tracer for MPI cells, metrics for MG -- and the outputs
    are exported in memory (Perfetto JSON, rollup, OpenMetrics text, span
    trace).  The exports are timed as ``observe.export_s``.
    """
    bench, klass, n, variant = cell
    label = cell_label(cell)
    registry = None
    if observe:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
    counts = {"tracing.spans": 0, "telemetry.windows": 0, "observe.export_s": 0.0}
    if bench == "mg":
        from repro.armci import ArmciConfig, run_armci_app
        from repro.nas.mg import mg_app

        result = run_armci_app(
            mg_app, n, config=ArmciConfig(), label=label,
            app_args=(klass, MG_NITER, None, variant == "blocking"),
            metrics=registry,
        )
        if registry is not None:
            from repro.metrics import render_openmetrics

            t0 = time.perf_counter()
            render_openmetrics(registry)
            counts["observe.export_s"] = time.perf_counter() - t0
        return result, counts

    from repro.experiments.nas_char import MPI_BENCHMARKS
    from repro.runtime.launcher import run_app

    app, config_factory = MPI_BENCHMARKS[bench]
    args: tuple = ((klass, NAS_NITER, None, None) if bench == "lu"
                   else (klass, NAS_NITER, None))
    if not observe:
        return run_app(app, n, config=config_factory(), label=label,
                       app_args=args), counts

    from repro.metrics import render_openmetrics
    from repro.telemetry import ClusterRollup, TelemetryConfig
    from repro.tracing import Tracer
    from repro.tracing.merge import build_trace

    tracer = Tracer(process=f"cell {label}")
    result = run_app(app, n, config=config_factory(), label=label,
                     app_args=args, telemetry=TelemetryConfig(),
                     metrics=registry, tracer=tracer)
    t0 = time.perf_counter()
    telemetry = result.telemetry
    telemetry.build_trace(result).to_json()
    series = [rt.series for rt in telemetry.per_rank]
    rollup = ClusterRollup(max(s.width for s in series))
    for rt, s in zip(telemetry.per_rank, series):
        rollup.add_rank(result.reports[rt.rank], s)
    json.dumps(rollup.result())
    render_openmetrics(registry)
    payload = tracer.to_payload()
    json.dumps(build_trace(payload))
    counts["observe.export_s"] = time.perf_counter() - t0
    counts["tracing.spans"] = _count_spans(payload)
    counts["telemetry.windows"] = sum(len(s) for s in series)
    return result, counts


def _count_spans(payload: dict) -> int:
    return (len(payload.get("spans", ())) + len(payload.get("open", ()))
            + sum(_count_spans(c) for c in payload.get("children", ())))


class NasWorkload:
    """The 21-cell NAS grid, serially in this process, cache off."""

    #: Scale pass times to the reference host's speed (``stats.speed_factor``).
    host_scaled = True

    def __init__(self, observe: bool) -> None:
        self.observe = observe
        self.nominal_pass_s = 5.0 if observe else 2.5
        self.cells: "list[tuple[str, str, int, str]]" = []
        self.reference: "dict[str, str]" = {}

    def probe(self) -> None:
        run_nas_cell(WARMUP_CELL, observe=self.observe)

    def prepare(self) -> None:
        self.cells = nas_cells()
        self.reference = load_reference()["nas_grid"]
        missing = [cell_label(c) for c in self.cells
                   if cell_label(c) not in self.reference]
        if missing:
            raise RuntimeError(f"reference.json lacks digests for {missing}")
        for cell in self.cells:
            run_nas_cell(cell, observe=self.observe)

    def run_pass(self, rng: random.Random,
                 sampler: "LayerSampler | None" = None) -> PassResult:
        order = list(self.cells)
        rng.shuffle(order)
        outputs = []
        latencies = []
        counters = {"sim.events": 0, "core.events": 0, "mpisim.calls": 0,
                    "tracing.spans": 0, "telemetry.windows": 0,
                    "observe.export_s": 0.0}
        # Untraced passes calibrate the host's speed between cells, so
        # each cell's time is scaled by the speed it ran at.  The sampler
        # would charge those loops to ``other``; sampled passes skip them.
        calibrations = []
        if sampler is not None:
            sampler.start()
        for cell in order:
            if sampler is None:
                calibrations.append(calibrate())
            t0 = time.perf_counter()
            result, obs = run_nas_cell(cell, observe=self.observe)
            latencies.append(time.perf_counter() - t0)
            outputs.append((cell, result.reports))
            counters["sim.events"] += result.fabric.engine.processed_count
            for key, value in obs.items():
                counters[key] += value
            del result  # free this cell's fabric before the next one runs
        if sampler is not None:
            sampler.stop()
        else:
            calibrations.append(calibrate())
        wall = sum(latencies)
        errors = []
        for i, (cell, reports) in enumerate(outputs):
            events, calls = _engine_counts(reports)
            counters["core.events"] += events
            counters["mpisim.calls"] += calls
            label = cell_label(cell)
            if run_digest(reports) != self.reference[label]:
                errors.append(f"{label}: reports differ from the reference digest")
                latencies[i] = math.inf
        return PassResult(wall, latencies, len(order), len(errors),
                          counters, errors, calibrations=calibrations)


# ---------------------------------------------------------------------------
# Sharded halo
# ---------------------------------------------------------------------------
def run_halo(nprocs: int = HALO_RANKS, shards: "int | None" = HALO_SHARDS,
             app_args: tuple = HALO_ARGS) -> typing.Any:
    from repro.experiments.halo import halo_app
    from repro.mpisim.config import mvapich2_like
    from repro.runtime.launcher import run_app

    if shards is None:
        # The single-process referee: channel delivery, as the sharded
        # engine's bit-identity is defined against it.
        from repro.netsim.params import NetworkParams

        return run_app(halo_app, nprocs, config=mvapich2_like(),
                       params=NetworkParams(delivery="channel"),
                       app_args=app_args, label=f"halo.{nprocs}")
    return run_app(halo_app, nprocs, config=mvapich2_like(),
                   app_args=app_args, label=f"halo.{nprocs}",
                   shards=shards, shard_sync="window",
                   shard_backend="process")


def _io_bytes() -> int:
    """This process's rchar + wchar (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
    except OSError:
        return 0
    return int(fields.get("rchar", 0)) + int(fields.get("wchar", 0))


class HaloWorkload:
    """halo_app on 2 process shards; one pass is one sharded run."""

    #: Scale pass times to the reference host's speed (``stats.speed_factor``).
    host_scaled = True

    nominal_pass_s = 0.6

    def __init__(self) -> None:
        self.reference = ""

    def probe(self) -> None:
        run_halo(16, 2, (2, 4096.0, 20.0e-6))

    def prepare(self) -> None:
        self.reference = load_reference()["halo_shards"]
        run_halo()

    def run_pass(self, rng: random.Random,
                 sampler: "LayerSampler | None" = None) -> PassResult:
        io0 = _io_bytes()
        times0 = os.times()
        if sampler is not None:
            sampler.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = run_halo()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if sampler is not None:
            sampler.stop()
        times1 = os.times()
        io1 = _io_bytes()
        st = result.sync_stats
        busy = st["busy_s"]
        rounds = st["rounds"]
        counters = {
            "sim.events": st["events"],
            "parallel.rounds": rounds,
            "parallel.messages": st["messages"],
            "parallel.shard_busy_max_s": max(busy),
            "parallel.shard_busy_mean_s": sum(busy) / len(busy),
            "parallel.coord_cpu_s": cpu,
            "parallel.coord_wait_s": wall - cpu,
            "parallel.wait_per_round_us": (wall - cpu) / max(1, rounds) * 1e6,
            "parallel.ipc_bytes": io1 - io0,
            "parallel.workers_cpu_s": (
                times1.children_user - times0.children_user
                + times1.children_system - times0.children_system),
        }
        events, calls = _engine_counts(result.reports)
        counters["core.events"] = events
        counters["mpisim.calls"] = calls
        errors = []
        if run_digest(result.reports) != self.reference:
            errors.append(f"halo.{HALO_RANKS}: sharded reports differ from "
                          "the recorded single-process digest")
        latency = math.inf if errors else wall
        return PassResult(wall, [latency], 1, len(errors), counters, errors)


# ---------------------------------------------------------------------------
# Service open loop
# ---------------------------------------------------------------------------
def service_spec(cell: "tuple[str, str, int]", tenant: str) -> dict:
    bench, klass, n = cell
    return {"kind": "nas", "benchmark": bench, "klass": klass, "np": n,
            "tenant": tenant}


def service_label(cell: "tuple[str, str, int]") -> str:
    bench, klass, n = cell
    return f"{bench}.{klass}.{n}"


def service_row_digest(cell: "tuple[str, str, int]") -> str:
    """Digest of the row the service must return for ``cell``.

    The row comes straight from ``_run_cell``, the function the service's
    workers run, and goes through a JSON round trip as it would over HTTP.
    """
    from repro.tools.nas import _run_cell

    bench, klass, n = cell
    row = _run_cell(bench, klass, n, 2, "paper", False, False)
    return digest(json.loads(json.dumps(row)))


def service_schedule(rng: random.Random, total: int
                     ) -> "list[tuple[tuple, str]]":
    """The seeded submission sequence of one pass.

    Every distinct cell is introduced once, at evenly spaced slots in a
    seeded order; every other slot repeats a cell already introduced (a
    cache hit, or a dedupe while the first is still running).  The seed
    changes the order and tenants, never the amount of work.
    """
    order = list(SERVICE_SPECS)
    rng.shuffle(order)
    stride = max(1, total // len(order))
    introduced: list = []
    seq = []
    for i in range(total):
        if i % stride == 0 and i // stride < len(order):
            cell = order[i // stride]
            introduced.append(cell)
        else:
            cell = rng.choice(introduced)
        seq.append((cell, rng.choice(SERVICE_TENANTS)))
    return seq


def _metric(families: dict, family: str, **labels: str) -> float:
    """Sum of a parsed OpenMetrics family's samples carrying ``labels``."""
    fam = families.get(family)
    if fam is None:
        return 0.0
    want = set(labels.items())
    return sum(v for (_suffix, lab), v in fam["samples"].items()
               if want <= set(lab))


class ServiceWorkload:
    """Fixed-rate open loop against a loopback ServerThread, 2 workers."""

    #: The open-loop schedule, not the host's speed, sets most of a pass's
    #: time, so its times are reported as measured.
    host_scaled = False

    nominal_pass_s = SERVICE_WINDOW_S

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.reference: "dict[tuple, str]" = {}
        self._passes = 0

    def _start(self, tag: str) -> typing.Any:
        from repro.service import OverlapService, ServerThread

        root = os.path.join(self.scratch, f"cache-{tag}")
        shutil.rmtree(root, ignore_errors=True)
        service = OverlapService(cache_root=root, workers=SERVICE_WORKERS)
        return ServerThread(service).start()

    def probe(self) -> None:
        from repro.service import ServiceClient

        srv = self._start("probe")
        try:
            with ServiceClient(srv.url, timeout=30.0) as client:
                if client.healthz().status != 200:
                    raise RuntimeError("service failed its health check")
        finally:
            srv.stop()

    def prepare(self) -> None:
        self.probe()
        recorded = load_reference()["service_mix"]
        missing = [service_label(c) for c in SERVICE_SPECS
                   if service_label(c) not in recorded]
        if missing:
            raise RuntimeError(f"reference.json lacks digests for {missing}")
        self.reference = {c: recorded[service_label(c)] for c in SERVICE_SPECS}

    def run_pass(self, rng: random.Random,
                 sampler: "LayerSampler | None" = None) -> PassResult:
        from repro.metrics.openmetrics import parse_openmetrics
        from repro.service import ServiceClient

        total = int(SERVICE_RATE * SERVICE_WINDOW_S)
        seq = service_schedule(rng, total)
        self._passes += 1
        srv = self._start(str(self._passes))
        idle = threading.Event()
        jobs: "list[tuple[int, tuple, int, dict]]" = []
        submit_ms: "list[float]" = []
        try:
            with ServiceClient(srv.url, timeout=60.0) as client:
                if sampler is not None:
                    sampler.start()
                loop = OpenLoop(SERVICE_RATE, time.time() + 0.05)
                for i, (cell, tenant) in enumerate(seq):
                    delay = loop.due(i) - time.time()
                    if delay > 0:
                        idle.wait(delay)
                    loop.record_send(i, time.time())
                    t0 = time.perf_counter()
                    resp = client.submit(service_spec(cell, tenant))
                    submit_ms.append((time.perf_counter() - t0) * 1e3)
                    jobs.append((i, cell, resp.status, resp.body))
                finals = self._drain(client, jobs, idle)
                if sampler is not None:
                    sampler.stop()
                families = parse_openmetrics(client.metrics_text())
                bad = self._check_rows(client, jobs, finals)
        finally:
            srv.stop()

        for i, _cell, _status, _body in jobs:
            state = finals.get(i, {}).get("state")
            if state != "done":
                bad[i] = f"job #{i} did not finish (state {state!r})"
        latencies = []
        queue_ms = []
        exec_s = []
        last_finish = loop.due(0)
        for i, _cell, status, body in jobs:
            if i in bad:
                latencies.append(math.inf)
                continue
            final = finals[i]
            finished = float(final["finished_unix"])
            last_finish = max(last_finish, finished)
            latencies.append(loop.latency(i, finished))
            if status == 202 and not body.get("deduped"):
                started = float(final["started_unix"])
                queue_ms.append((started - float(final["created_unix"])) * 1e3)
                exec_s.append(finished - started)
        hits = _metric(families, "repro_service_submissions", outcome="cache_hit")
        dedupes = _metric(families, "repro_service_submissions", outcome="deduped")
        submit_tail = tail(submit_ms)
        counters = {
            "service.submit_p50_ms": statistics.median(submit_ms),
            "service.submit_tail_ms": submit_tail.value,
            "service.hot_ratio": (hits + dedupes) / len(jobs),
            "service.queue_wait_p50_ms": (statistics.median(queue_ms)
                                          if queue_ms else 0.0),
            "service.exec_p50_s": statistics.median(exec_s) if exec_s else 0.0,
            "service.executed": _metric(families, "repro_service_submissions",
                                        outcome="queued"),
            "service.rejected": _metric(families, "repro_service_submissions",
                                        outcome="rejected"),
            "service.retries": _metric(families, "repro_service_retries"),
            "loadgen.late_max_ms": loop.late_max * 1e3,
        }
        return PassResult(last_finish - loop.due(0), latencies, len(jobs),
                          len(bad), counters, [bad[i] for i in sorted(bad)],
                          {"service.submit_tail_ms": submit_tail._asdict()})

    @staticmethod
    def _drain(client: typing.Any, jobs: list,
               idle: threading.Event) -> "dict[int, dict]":
        """Final status of every job, polling the ones still in flight."""
        finals: "dict[int, dict]" = {}
        pending = {}
        for i, _cell, status, body in jobs:
            if status == 200 or (status == 202 and body.get("state") == "done"):
                finals[i] = body
            elif status == 202:
                pending[i] = body["job_id"]
            else:
                finals[i] = {"state": f"http {status}"}
        deadline = time.monotonic() + SERVICE_DRAIN_S
        while pending and time.monotonic() < deadline:
            for i, job_id in list(pending.items()):
                body = client.job(job_id).body
                if body.get("state") not in ("queued", "running"):
                    finals[i] = body
                    del pending[i]
            if pending:
                idle.wait(0.01)
        return finals

    def _check_rows(self, client: typing.Any, jobs: list,
                    finals: "dict[int, dict]") -> "dict[int, str]":
        """Every finished job's rows must match the recorded digest of the
        direct ``_run_cell`` result for its cell.

        Returns the reason for each job (by index) whose rows differ.
        """
        errors = {}
        for i, cell, _status, _body in jobs:
            final = finals.get(i)
            if final is None or final.get("state") != "done":
                continue
            resp = client.result(final["job_id"])
            rows = resp.body.get("rows") if resp.status == 200 else None
            if (not isinstance(rows, list) or len(rows) != 1
                    or digest(rows[0]) != self.reference[cell]):
                errors[i] = (f"rows of job #{i} ({cell}) differ from the "
                             "recorded _run_cell digest")
        return errors


def make_workload(name: str, scratch: str) -> typing.Any:
    if name == "nas_grid":
        return NasWorkload(observe=False)
    if name == "nas_observed":
        return NasWorkload(observe=True)
    if name == "halo_shards":
        return HaloWorkload()
    if name == "service_mix":
        return ServiceWorkload(scratch)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("nas_grid", "nas_observed", "halo_shards", "service_mix")
