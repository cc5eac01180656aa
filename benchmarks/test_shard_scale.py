"""Shard scale curves: engine capacity vs shard count and rank count.

Runs the synthetic halo exchange (``repro.experiments.halo``) through the
sharded parallel-DES engine and records three guarded curves into
``BENCH_simulator.json`` for ``benchmarks/check_regression.py``:

* ``shard_scale`` -- capacity at shards=1,2,4,8 on a 32-rank workload
  (the original strong-scaling curve);
* ``shard_scale_hi`` -- capacity, coordinator-time share, and sync-round
  counts at 256/1024/4096 ranks with shards=8 (the high-rank curve this
  engine is sized for);
* ``shard_fence`` -- the incremental-vs-reference fence-computation
  speedup on a coordinator-stress partition (every halo edge cross-shard);
  the reference runs on the test oracle (``tests/oracles.py``).

The guarded number is *capacity*, not wall clock: aggregate events
retired divided by the busiest worker's CPU time
(``max(sync_stats["busy_s"])``).  On a machine with >= shards free cores
capacity equals wall-clock throughput; on a throttled 1-core CI runner
the workers time-slice and wall clock cannot improve, but capacity still
measures what the partition achieved -- how much the critical-path
worker's load shrank.  See docs/performance.md ("Measuring the win on
shared CI runners").

Coordinator time is measured from the tracer's ``coord.*`` channels
(PR 8): ``coord.fence`` + ``coord.dispatch`` is the coordinator's own
bookkeeping, ``coord.wait`` is time blocked on shards; their sum spans
the whole coordination loop, so the share needs no host-clock baseline.

Run with::

    pytest benchmarks/test_shard_scale.py --benchmark-only -s
"""

from __future__ import annotations

import contextlib
import pathlib
import sys

from repro.experiments.halo import halo_app
from repro.mpisim.config import mvapich2_like
from repro.runtime import run_app
from repro.tracing.span import Tracer, payload_spans

# The fence oracle lives with the tests, in the repository root's
# ``tests`` package.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.oracles import reference_fences  # noqa: E402

RANKS = 32
STEPS = 120
NBYTES = 4096.0
COMPUTE_S = 20.0e-6
SHARDS = (1, 2, 4, 8)

#: High-rank curve: (ranks, steps) at a fixed shards=8.  Steps shrink as
#: ranks grow to hold each run to a few seconds on a 1-core runner.
HI_SHARDS = 8
HI_CONFIGS = ((256, 30), (1024, 10), (4096, 4))

#: Socket-backend capacity point: the same halo workload through real
#: ``repro.sim.remote`` worker subprocesses over loopback TCP -- one
#: shard per worker, so every cross-shard message rides the framed
#: socket transport (heartbeats included).
SOCKET_RANKS = 64
SOCKET_STEPS = 40
SOCKET_SHARDS = 2

#: Fence benchmark: a 1024-rank halo with a round-robin ("scattered")
#: partition, which makes *every* halo edge cross-shard.  That floods the
#: coordinator with routed messages and PLACE/ACK obligations -- exactly
#: the O(messages + shards x obligations) rescan term the incremental
#: fence computation removes -- without changing simulated results (the
#: partition affects scheduling only, never outcomes).
FENCE_RANKS = 1024
FENCE_SHARDS = 8
FENCE_STEPS = 10
FENCE_REPS = 3


def _coord_totals(tracer: Tracer) -> dict[str, float]:
    """Per-category wall-time totals of the coordinator's span channels."""
    totals = {"coord.fence": 0.0, "coord.dispatch": 0.0, "coord.wait": 0.0}
    for span in payload_spans(tracer.to_payload()):
        if span.category in totals:
            totals[span.category] += span.end - span.start
    return totals


def _run_curve() -> dict[int, dict]:
    curve: dict[int, dict] = {}
    for n in SHARDS:
        result = run_app(
            halo_app, RANKS, config=mvapich2_like(),
            app_args=(STEPS, NBYTES, COMPUTE_S),
            label=f"halo.{RANKS}.x{n}", shards=n,
        )
        st = result.sync_stats
        busy = max(st["busy_s"])
        curve[n] = {
            "events": st["events"],
            "busy_s": busy,
            "events_per_s": st["events"] / busy,
            "rounds": st["rounds"],
        }
    return curve


def _run_hi_curve() -> dict[int, dict]:
    curve: dict[int, dict] = {}
    for ranks, steps in HI_CONFIGS:
        tracer = Tracer("bench.shard_scale_hi")
        result = run_app(
            halo_app, ranks, config=mvapich2_like(),
            app_args=(steps, NBYTES, COMPUTE_S),
            label=f"halo.{ranks}.x{HI_SHARDS}", shards=HI_SHARDS,
            tracer=tracer,
        )
        st = result.sync_stats
        busy = max(st["busy_s"])
        totals = _coord_totals(tracer)
        active = totals["coord.fence"] + totals["coord.dispatch"]
        loop = active + totals["coord.wait"]
        curve[ranks] = {
            "steps": steps,
            "events": st["events"],
            "busy_s": busy,
            "events_per_s": st["events"] / busy,
            "rounds": st["rounds"],
            "coord_share": active / loop if loop else 0.0,
            "fence_us_per_round":
                totals["coord.fence"] / st["rounds"] * 1e6,
        }
    return curve


def _fence_run(impl: str, partition: list[list[int]]) -> tuple[float, int]:
    """One scattered-partition run; returns (fence seconds, rounds)."""
    tracer = Tracer("bench.shard_fence")
    oracle = (reference_fences() if impl == "reference"
              else contextlib.nullcontext())
    with oracle:
        result = run_app(
            halo_app, FENCE_RANKS, config=mvapich2_like(),
            app_args=(FENCE_STEPS, NBYTES, COMPUTE_S),
            label=f"halo.fence.{impl}", shards=FENCE_SHARDS,
            shard_partition=partition, tracer=tracer,
        )
    return (_coord_totals(tracer)["coord.fence"],
            result.sync_stats["rounds"])


def _run_fence_pairs() -> dict:
    partition = [
        [r for r in range(FENCE_RANKS) if r % FENCE_SHARDS == s]
        for s in range(FENCE_SHARDS)
    ]
    ratios: list[float] = []
    ref_rounds = inc_rounds = 0
    ref_s = inc_s = 0.0
    for _ in range(FENCE_REPS):
        ref_s, ref_rounds = _fence_run("reference", partition)
        inc_s, inc_rounds = _fence_run("incremental", partition)
        ratios.append(ref_s / inc_s)
    assert ref_rounds == inc_rounds, "fence impls must run identical rounds"
    ratios.sort()
    return {
        "rounds": inc_rounds,
        "reference_us_per_round": ref_s / ref_rounds * 1e6,
        "incremental_us_per_round": inc_s / inc_rounds * 1e6,
        "ratios": ratios,
        "speedup": ratios[len(ratios) // 2],
    }


def test_shard_scale_curve(benchmark, bench_record, emit):
    """Capacity at shards=1,2,4,8 on the halo-exchange workload."""
    curve = benchmark.pedantic(_run_curve, rounds=1, iterations=1)
    base = curve[SHARDS[0]]["events_per_s"]
    speedup = {n: curve[n]["events_per_s"] / base for n in SHARDS}
    bench_record["shard_scale"] = {
        "workload": (f"halo {RANKS} ranks x {STEPS} steps, "
                     f"{NBYTES:.0f} B, {COMPUTE_S * 1e6:.0f} us compute"),
        "metric": "aggregate events / max per-worker busy CPU seconds",
        "shards": list(SHARDS),
        "events_per_s": [round(curve[n]["events_per_s"]) for n in SHARDS],
        "events_per_s_x1": round(curve[1]["events_per_s"]),
        "speedup_x2": round(speedup[2], 2),
        "speedup_x4": round(speedup[4], 2),
        "speedup_x8": round(speedup[8], 2),
        "sync_rounds": [curve[n]["rounds"] for n in SHARDS],
    }
    emit(
        "shard_scale",
        f"shard scale curve (halo exchange, {RANKS} ranks):\n"
        + "\n".join(
            f"  shards={n}: {curve[n]['events_per_s'] / 1e3:8.0f}k ev/s "
            f"({speedup[n]:.2f}x, busiest worker {curve[n]['busy_s']:.2f}s "
            f"CPU, {curve[n]['rounds']} sync rounds)"
            for n in SHARDS
        ),
    )
    # The acceptance floors are 2.5x at shards=4 and 5.0x at shards=8
    # (guarded with tolerance by check_regression.py against the
    # committed curve); assert looser in-test bounds so a noisy runner
    # flags real collapse, not jitter.
    assert speedup[4] >= 2.0, (
        f"shard capacity collapsed: {speedup[4]:.2f}x at shards=4"
    )
    assert speedup[8] >= 3.5, (
        f"shard capacity collapsed: {speedup[8]:.2f}x at shards=8"
    )


def test_shard_scale_hi_rank(benchmark, bench_record, emit):
    """Capacity and coordinator share at 256/1024/4096 ranks, shards=8."""
    curve = benchmark.pedantic(_run_hi_curve, rounds=1, iterations=1)
    ranks_list = [ranks for ranks, _steps in HI_CONFIGS]
    bench_record["shard_scale_hi"] = {
        "workload": (f"halo x shards={HI_SHARDS}, {NBYTES:.0f} B, "
                     f"{COMPUTE_S * 1e6:.0f} us compute, steps per ranks: "
                     + ", ".join(f"{r}->{s}" for r, s in HI_CONFIGS)),
        "metric": "aggregate events / max per-worker busy CPU seconds",
        "ranks": ranks_list,
        "events_per_s": [round(curve[r]["events_per_s"]) for r in ranks_list],
        "events_per_s_1024": round(curve[1024]["events_per_s"]),
        "events_per_s_4096": round(curve[4096]["events_per_s"]),
        "coord_share": [round(curve[r]["coord_share"], 4)
                        for r in ranks_list],
        "fence_us_per_round": [round(curve[r]["fence_us_per_round"], 1)
                               for r in ranks_list],
        "sync_rounds": [curve[r]["rounds"] for r in ranks_list],
    }
    emit(
        "shard_scale_hi",
        f"high-rank scale curve (halo exchange, shards={HI_SHARDS}):\n"
        + "\n".join(
            f"  ranks={r}: {curve[r]['events_per_s'] / 1e3:8.0f}k ev/s, "
            f"coordinator share {curve[r]['coord_share'] * 100:.1f}%, "
            f"fence {curve[r]['fence_us_per_round']:.1f} us/round, "
            f"{curve[r]['rounds']} sync rounds"
            for r in ranks_list
        ),
    )
    # Capacity must not collapse with rank count: 4096 ranks must retain
    # at least half the 256-rank per-event throughput, and the
    # coordinator must stay a minority share of the coordination loop.
    assert curve[4096]["events_per_s"] >= 0.5 * curve[256]["events_per_s"], (
        "per-event capacity collapsed at 4096 ranks"
    )
    assert curve[4096]["coord_share"] < 0.5, (
        f"coordinator dominates the loop: "
        f"{curve[4096]['coord_share'] * 100:.0f}% share at 4096 ranks"
    )


def _run_socket_point() -> dict:
    from repro.netsim.transport import TransportOptions
    from repro.sim.remote import LocalWorkerPool

    with LocalWorkerPool(SOCKET_SHARDS) as pool:
        result = run_app(
            halo_app, SOCKET_RANKS, config=mvapich2_like(),
            app_args=(SOCKET_STEPS, NBYTES, COMPUTE_S),
            label=f"halo.{SOCKET_RANKS}.socket", shards=SOCKET_SHARDS,
            shard_backend="socket", shard_hosts=pool.addresses,
            shard_transport=TransportOptions(),
        )
    st = result.sync_stats
    tr = st["transport"]
    busy = max(st["busy_s"])
    wire = tr["bytes_out"] + tr["bytes_in"]
    return {
        "events": st["events"],
        "busy_s": busy,
        "events_per_s": st["events"] / busy,
        "rounds": st["rounds"],
        "heartbeats": tr["heartbeats"],
        "frames": tr["frames_out"] + tr["frames_in"],
        "wire_bytes": wire,
        "payload_bytes": tr["payload_bytes"],
        "overhead_bytes": wire - tr["payload_bytes"],
        "connect_attempts": sum(tr["connect_attempts"]),
    }


def test_socket_backend_point(benchmark, bench_record, emit):
    """Capacity through real TCP workers, plus transport overhead."""
    point = benchmark.pedantic(_run_socket_point, rounds=1, iterations=1)
    overhead = point["overhead_bytes"] / max(1, point["wire_bytes"])
    bench_record["shard_socket"] = {
        "workload": (f"halo {SOCKET_RANKS} ranks x {SOCKET_STEPS} steps, "
                     f"shards={SOCKET_SHARDS}, one repro.sim.remote "
                     "subprocess per shard over loopback TCP"),
        "metric": "aggregate events / max per-worker busy CPU seconds",
        "events_per_s": round(point["events_per_s"]),
        "sync_rounds": point["rounds"],
        "heartbeats": point["heartbeats"],
        "frames": point["frames"],
        "wire_bytes": point["wire_bytes"],
        "transport_overhead_bytes": point["overhead_bytes"],
        "transport_overhead_ratio": round(overhead, 4),
        "connect_attempts": point["connect_attempts"],
    }
    emit(
        "shard_socket",
        f"socket-backend capacity (halo {SOCKET_RANKS} ranks, "
        f"{SOCKET_SHARDS} TCP workers):\n"
        f"  {point['events_per_s'] / 1e3:8.0f}k ev/s "
        f"(busiest worker {point['busy_s']:.2f}s CPU, "
        f"{point['rounds']} sync rounds)\n"
        f"  wire: {point['wire_bytes'] / 1e3:.0f} kB total, "
        f"{point['overhead_bytes'] / 1e3:.0f} kB framing/pickle/heartbeat "
        f"overhead ({overhead * 100:.1f}%), "
        f"{point['heartbeats']} heartbeats, "
        f"{point['connect_attempts']} connect attempts",
    )
    # Loose sanity floors: capacity must be nonzero and the workers must
    # have been dialed exactly once each on a healthy localhost.
    assert point["events"] > 0 and point["busy_s"] > 0
    assert point["connect_attempts"] >= SOCKET_SHARDS


def test_fence_speedup(benchmark, bench_record, emit):
    """Incremental vs reference fence computation, coordinator-stress run."""
    stats = benchmark.pedantic(_run_fence_pairs, rounds=1, iterations=1)
    bench_record["shard_fence"] = {
        "workload": (f"halo {FENCE_RANKS} ranks x {FENCE_STEPS} steps, "
                     f"shards={FENCE_SHARDS}, round-robin partition "
                     "(every edge cross-shard)"),
        "metric": ("median over reps of reference/incremental coord.fence "
                   "span totals"),
        "rounds": stats["rounds"],
        "reference_us_per_round": round(stats["reference_us_per_round"], 1),
        "incremental_us_per_round":
            round(stats["incremental_us_per_round"], 1),
        "speedup_vs_reference": round(stats["speedup"], 2),
    }
    emit(
        "shard_fence",
        f"fence computation ({FENCE_RANKS} ranks, scattered partition, "
        f"{stats['rounds']} rounds):\n"
        f"  reference:   {stats['reference_us_per_round']:8.1f} us/round\n"
        f"  incremental: {stats['incremental_us_per_round']:8.1f} us/round\n"
        f"  speedup:     {stats['speedup']:.2f}x (reps: "
        + ", ".join(f"{r:.2f}x" for r in stats["ratios"]) + ")",
    )
    # The tentpole acceptance criterion: >= 5x reduction in coord.fence
    # span time on the 1024-rank coordinator-stress configuration.
    assert stats["speedup"] >= 5.0, (
        f"incremental fences only {stats['speedup']:.2f}x faster than the "
        "reference recomputation (acceptance floor is 5x)"
    )
