"""Differential harness: macro-event fast path vs per-packet simulation.

The network fast path (:mod:`repro.netsim.nic` burst coalescing plus the
engine's macro-event retirement) is only admissible because it is
*observationally identical* to per-packet simulation: every callback runs
at the same simulated time, in the same order, so every report, telemetry
window, and deterministic metric matches bit for bit.  This module is the
referee: it runs one workload under both ``network_path`` settings and
compares everything the instrumentation layer can observe.

Used by ``python -m repro.tools.perfmain --compare`` (user-facing
equality report) and by ``tests/test_network_fastpath_differential.py``
(the CI gate across protocols and NAS kernels).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.netsim.params import NetworkParams

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.launcher import RunResult

#: Metric families legitimately allowed to differ between the two paths:
#: host-clock measurements (never deterministic) and descriptions of the
#: pending-store *shape* or the macro path itself (a burst keeps one store
#: entry for many sub-events by design, and per-packet mode opens no
#: bursts at all).  Everything else must match exactly.
EXCLUDED_METRIC_FAMILIES = frozenset({
    "repro_engine_sim_seconds_per_host_second",
    "repro_equeue_flush_seconds",
    "repro_peruse_dispatch_seconds",
    "repro_engine_heap_size",
    "repro_engine_heap_hiwater",
    "repro_engine_calendar_active",
    "repro_engine_bursts_opened",
    "repro_engine_burst_reinserts",
})


@dataclasses.dataclass
class Delta:
    """One compared measure: its name and both sides' values."""

    measure: str
    equal: bool
    fast: object
    packet: object


def comparable_metrics(snapshot: dict) -> dict:
    """The deterministic, path-independent subset of a metrics snapshot."""
    metrics = typing.cast(dict, snapshot.get("metrics", {}))
    return {
        name: family
        for name, family in metrics.items()
        if name not in EXCLUDED_METRIC_FAMILIES
    }


def run_both(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    config: object = None,
    params: "NetworkParams | None" = None,
    app_args: tuple = (),
    seed: int = 0,
    label: str = "",
    telemetry: bool = True,
    metrics: bool = True,
) -> "tuple[RunResult, RunResult, dict | None, dict | None]":
    """Run ``app`` under both network paths; returns results + snapshots.

    Returns ``(fast_result, packet_result, fast_metrics, packet_metrics)``
    where the metrics snapshots are ``None`` when ``metrics`` is off.
    Everything else about the two runs -- config, seed, transfer table --
    is identical by construction.
    """
    from repro.runtime.launcher import run_app

    base = params if params is not None else NetworkParams()
    results = []
    snapshots: "list[dict | None]" = []
    for path in ("fast", "packet"):
        registry = None
        if metrics:
            from repro.metrics import MetricsRegistry

            registry = MetricsRegistry()
        tele = None
        if telemetry:
            from repro.telemetry.collect import TelemetryConfig

            tele = TelemetryConfig()
        results.append(
            run_app(
                app, nprocs,
                config=config,  # type: ignore[arg-type]
                params=dataclasses.replace(base, network_path=path),
                app_args=app_args, seed=seed, label=label,
                telemetry=tele, metrics=registry,
            )
        )
        snapshots.append(registry.snapshot() if registry is not None else None)
    return results[0], results[1], snapshots[0], snapshots[1]


def compare_runs(
    fast: "RunResult",
    packet: "RunResult",
    fast_metrics: "dict | None" = None,
    packet_metrics: "dict | None" = None,
) -> list[Delta]:
    """Compare everything observable; one :class:`Delta` per measure.

    Floats are compared with ``==`` (bit identity), never with a
    tolerance: the fast path owes exact equality, not approximation.
    """
    deltas: list[Delta] = []

    def add(measure: str, a: object, b: object) -> None:
        deltas.append(Delta(measure, a == b, a, b))

    add("elapsed", fast.elapsed, packet.elapsed)
    add("rank_finish_times", fast.rank_finish_times, packet.rank_finish_times)
    add("compute_logs", fast.compute_logs, packet.compute_logs)
    for rank, (rf, rp) in enumerate(zip(fast.reports, packet.reports)):
        if rf is None or rp is None:
            add(f"rank{rank}.report", rf, rp)
            continue
        df, dp = rf.to_dict(), rp.to_dict()
        for key in ("wall_time", "event_count", "total", "sections",
                    "call_stats"):
            add(f"rank{rank}.report.{key}", df[key], dp[key])
    if fast.telemetry is not None and packet.telemetry is not None:
        for tf, tp in zip(fast.telemetry.per_rank, packet.telemetry.per_rank):
            add(f"rank{tf.rank}.telemetry.windows",
                tf.series.to_dict(), tp.series.to_dict())
            add(f"rank{tf.rank}.telemetry.events", tf.events, tp.events)
    elif (fast.telemetry is None) != (packet.telemetry is None):
        add("telemetry", fast.telemetry, packet.telemetry)
    if fast_metrics is not None and packet_metrics is not None:
        mf = comparable_metrics(fast_metrics)
        mp = comparable_metrics(packet_metrics)
        for name in sorted(set(mf) | set(mp)):
            add(f"metrics.{name}", mf.get(name), mp.get(name))
    return deltas


def run_sharded_pair(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    shards: int,
    config: object = None,
    params: "NetworkParams | None" = None,
    app_args: tuple = (),
    seed: int = 0,
    label: str = "",
    backend: str = "process",
    strategy: str = "contiguous",
    record_transfers: bool = False,
    hosts: "typing.Sequence | None" = None,
    transport: "typing.Any | None" = None,
) -> "tuple[RunResult, RunResult]":
    """Run once single-process and once sharded; both use channel delivery.

    The single-process run is the ground truth the sharded engine owes
    bit-identical results to (``delivery="channel"`` on both sides -- that
    is the semantics the sharding refactor is defined against).  Returns
    ``(single, sharded)``.  ``backend="socket"`` additionally takes
    ``hosts`` (running ``repro.sim.remote`` worker addresses) and
    optional ``transport`` options, so the referee covers the multi-host
    path with the same bit-identity bar as the local backends.
    """
    from repro.runtime.launcher import run_app

    base = params if params is not None else NetworkParams()
    chan = dataclasses.replace(base, delivery="channel")
    single = run_app(
        app, nprocs, config=config, params=chan,  # type: ignore[arg-type]
        app_args=app_args, seed=seed, label=label,
        record_transfers=record_transfers,
    )
    sharded = run_app(
        app, nprocs, config=config, params=chan,  # type: ignore[arg-type]
        app_args=app_args, seed=seed, label=label,
        record_transfers=record_transfers,
        shards=shards, shard_backend=backend,
        shard_strategy=strategy,
        shard_hosts=hosts, shard_transport=transport,
    )
    return single, sharded


def compare_sharded(single: "RunResult", sharded: "RunResult") -> list[Delta]:
    """Deltas between a single-process channel run and a sharded run.

    Reuses :func:`compare_runs` -- the ``fast`` side is the single-process
    run, the ``packet`` side the sharded one -- and adds the merged
    ground-truth transfer log when both runs recorded it (order inside the
    log is per-shard append order, so both sides are sorted first).
    """
    deltas = compare_runs(single, sharded)
    log_a = getattr(single.fabric, "transfer_log", None)
    log_b = getattr(sharded.fabric, "transfer_log", None)
    if log_a is not None or log_b is not None:
        a = sorted(log_a) if log_a is not None else None
        b = sorted(log_b) if log_b is not None else None
        deltas.append(Delta("transfer_log", a == b, a, b))
    return deltas


def assert_sharded_identical(
    app: typing.Callable[..., typing.Generator],
    nprocs: int,
    shards: int,
    **kwargs: object,
) -> list[Delta]:
    """Run the sharded differential and raise on any inequality.

    The one-call referee used by tests and the CI smoke job: any delta
    between the sharded run and its single-process ground truth is a
    correctness bug in the partitioned engine, never acceptable noise.
    """
    single, sharded = run_sharded_pair(app, nprocs, shards, **kwargs)  # type: ignore[arg-type]
    deltas = compare_sharded(single, sharded)
    bad = [d for d in deltas if not d.equal]
    if bad:
        lines = "\n".join(
            f"  {d.measure}: single={d.fast!r} sharded={d.packet!r}"
            for d in bad[:10]
        )
        raise AssertionError(
            f"sharded run diverged from single-process ground truth "
            f"({len(bad)} of {len(deltas)} measures):\n{lines}"
        )
    return deltas
