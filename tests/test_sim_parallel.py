"""Sharded parallel-DES engine: partitioning, edge cases, bit-parity.

The sharded engine (:mod:`repro.sim.parallel`) is only admissible under
the same rule as the network fast path: a sharded run must be
*bit-identical* to a single-process channel-delivery run of the same
seed -- every overlap report, finish time, and compute log equal.  These
tests cover the partitioner's edge cases (one rank per shard, rank
counts not divisible by the shard count, zero cross-shard traffic), the
option surface, and a hypothesis differential across random small
configs and seeds.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.experiments.halo import halo_app, halo_edges
from repro.mpisim.config import MpiConfig, mvapich2_like
from repro.mpisim.packets import EagerPacket
from repro.netsim import channel as ch
from repro.netsim.differential import assert_sharded_identical, compare_runs
from repro.netsim.params import NetworkParams
from repro.netsim.transport import TransportOptions
from repro.netsim.wire import pack_frame, unpack_frame
from repro.runtime import run_app
from repro.sim.parallel import (
    ShardError,
    ShardHostLost,
    partition_ranks,
    run_app_sharded,
)
from tests.oracles import audited_fences, reference_fences

_TAG = 61


def _pair_app(ctx, nbytes=2048.0, rounds=3):
    """Ranks talk only inside disjoint pairs (0,1), (2,3), ..."""
    if ctx.size % 2:
        raise AssertionError("pair app needs an even rank count")
    peer = ctx.rank ^ 1
    for _ in range(rounds):
        r = yield from ctx.comm.irecv(peer, _TAG)
        s = yield from ctx.comm.isend(peer, _TAG, nbytes)
        yield from ctx.compute(10.0e-6)
        yield from ctx.comm.waitall([r, s])
    return ctx.rank


# ---------------------------------------------------------------- partitioner

def test_partition_contiguous_divisible():
    assert partition_ranks(8, 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]


def test_partition_non_divisible_sizes_differ_by_at_most_one():
    parts = partition_ranks(10, 4)
    assert [len(p) for p in parts] == [3, 3, 2, 2]
    assert sorted(r for p in parts for r in p) == list(range(10))


def test_partition_one_rank_per_shard():
    assert partition_ranks(3, 3) == [[0], [1], [2]]
    # More shards than ranks collapses to one rank per shard.
    assert partition_ranks(3, 7) == [[0], [1], [2]]


def test_partition_topology_ring_stays_contiguous():
    # On a ring the heaviest-neighbor traversal is rank order, so the
    # topology strategy reproduces the contiguous cut.
    parts = partition_ranks(8, 2, strategy="topology", edges=halo_edges(8))
    assert parts == [[0, 1, 2, 3], [4, 5, 6, 7]]


def test_partition_topology_groups_heavy_pairs():
    # Pairs (0,3) and (1,2) talk heavily; a contiguous cut of 4 ranks
    # into 2 shards would split both pairs, the topology cut splits none.
    edges = [(0, 3, 100.0), (1, 2, 100.0), (3, 1, 1.0)]
    parts = partition_ranks(4, 2, strategy="topology", edges=edges)
    for a, b, _w in edges[:2]:
        shard_of = {r: i for i, p in enumerate(parts) for r in p}
        assert shard_of[a] == shard_of[b], parts


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_ranks(0, 1)
    with pytest.raises(ValueError):
        partition_ranks(4, 0)
    with pytest.raises(ValueError):
        partition_ranks(4, 2, strategy="hilbert")
    with pytest.raises(ValueError, match="bad edge"):
        partition_ranks(4, 2, strategy="topology", edges=[(0,)])


def test_explicit_partition_must_cover_every_rank():
    with pytest.raises(ValueError):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1], [2]])
    with pytest.raises(ValueError):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="empty shard"):
        run_app_sharded(_pair_app, 4, 2, backend="inline",
                        partition=[[0, 1, 2, 3], []])


# ------------------------------------------------------------- option surface

def test_unsupported_observers_raise():
    from repro.metrics import MetricsRegistry

    with pytest.raises(ValueError, match="metrics"):
        run_app(_pair_app, 4, shards=2, metrics=MetricsRegistry())
    with pytest.raises(ValueError, match="backend"):
        run_app_sharded(_pair_app, 4, 2, backend="thread")


def test_shard_sync_accepts_only_window():
    # Barrier rounds are the one pacing protocol; run_app keeps the
    # keyword for existing callers and rejects every other name.
    with pytest.raises(ValueError, match="shard_sync"):
        run_app(_pair_app, 4, shards=2, shard_backend="inline",
                shard_sync="null")


def test_zero_lookahead_rejected():
    params = NetworkParams(latency=0.0, per_message_overhead=0.0)
    with pytest.raises(ValueError, match="lookahead"):
        run_app_sharded(_pair_app, 4, 2, params=params, backend="inline")


# ----------------------------------------------------------------- edge cases

def test_one_rank_per_shard_matches_single():
    assert_sharded_identical(_pair_app, 4, 4, backend="inline")


def test_non_divisible_ranks_match_single():
    assert_sharded_identical(halo_app, 5, 2, backend="inline",
                             app_args=(4, 1024.0, 15.0e-6))


def test_zero_cross_shard_traffic():
    # The pair app's communicating pairs never straddle the contiguous
    # 2-shard cut of 4 ranks, so the coordinator must carry zero payload
    # messages -- and the run must still terminate and match exactly.
    deltas = assert_sharded_identical(_pair_app, 4, 2, backend="inline")
    assert deltas
    result = run_app_sharded(_pair_app, 4, 2, backend="inline")
    assert result.sync_stats["messages"] == 0
    assert all(s["msgs_across"] == 0 for s in result.shard_stats)


def test_cross_shard_traffic_counted():
    result = run_app_sharded(halo_app, 6, 2, backend="inline",
                             app_args=(3, 1024.0, 15.0e-6))
    assert result.sync_stats["messages"] > 0


def test_process_backend_matches_single():
    assert_sharded_identical(halo_app, 4, 2, backend="process",
                             app_args=(3, 1024.0, 15.0e-6))


def test_shards_one_matches_single():
    assert_sharded_identical(halo_app, 4, 1, backend="inline",
                             app_args=(3, 1024.0, 15.0e-6))


# ------------------------------------------------- hypothesis differential

_CONFIGS = (
    MpiConfig(name="s-eager", eager_limit=1 << 16),
    MpiConfig(name="s-rndv", eager_limit=512, rndv_mode="rget"),
    MpiConfig(name="s-pipe", eager_limit=512, rndv_mode="pipelined",
              frag_size=2048),
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    nprocs=st.integers(min_value=2, max_value=6),
    shards=st.integers(min_value=2, max_value=3),
    config=st.sampled_from(_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    jitter=st.sampled_from((0.0, 0.25)),
    nbytes=st.sampled_from((64.0, 1024.0, 8192.0)),
)
def test_hypothesis_sharded_bit_identical(nprocs, shards, config, seed,
                                          jitter, nbytes):
    """Random small configs: sharded reports must equal single-process."""
    params = NetworkParams(latency_jitter_frac=jitter)
    assert_sharded_identical(
        halo_app, nprocs, shards, config=config,
        params=dataclasses.replace(params),
        app_args=(3, nbytes, 12.0e-6), seed=seed,
        backend="inline", record_transfers=True,
    )


# ----------------------------------------------------- high-rank partitioning

def test_partition_4096_contiguous_blocks():
    parts = partition_ranks(4096, 8)
    assert [len(p) for p in parts] == [512] * 8
    # Contiguous ascending blocks covering every rank exactly once.
    assert [r for p in parts for r in p] == list(range(4096))


def test_partition_4096_non_divisible_balance():
    parts = partition_ranks(4096, 7)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 4096
    assert sorted(r for p in parts for r in p) == list(range(4096))


def test_partition_4096_topology_disconnected_graph():
    # A communication graph touching only a handful of the 4096 ranks:
    # the traversal must still emit every isolated vertex exactly once,
    # keep the +-1 balance, and co-locate the connected heavy pairs.
    edges = [(0, 4095, 10.0), (1, 2048, 5.0), (7, 9, 1.0)]
    parts = partition_ranks(4096, 8, strategy="topology", edges=edges)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(r for p in parts for r in p) == list(range(4096))
    shard_of = {r: i for i, p in enumerate(parts) for r in p}
    for a, b, _w in edges:
        assert shard_of[a] == shard_of[b]
    # Shard lists stay ascending (rank creation order inside a shard).
    for p in parts:
        assert p == sorted(p)


# ------------------------------------------------------ wire codec round-trip

_FLOATS = st.floats(allow_nan=False)
_DATA = st.sampled_from((None, "bounce-0", "bounce-1", 17, (3, 4), b"x"))

_HOT_MSGS = st.builds(
    ch.ChannelMsg,
    when=_FLOATS, key=st.integers(-(2 ** 63), 2 ** 63 - 1),
    kind=st.just(ch.DELIVER),
    src_node=st.integers(0, 2 ** 31 - 1), src_port=st.integers(0, 65535),
    dst_node=st.integers(0, 2 ** 31 - 1), dst_port=st.integers(0, 65535),
    nbytes=_FLOATS,
    payload=st.builds(
        EagerPacket,
        seq=st.integers(-(2 ** 63), 2 ** 63 - 1),
        src=st.integers(-(2 ** 31), 2 ** 31 - 1),
        tag=st.integers(-(2 ** 31), 2 ** 31 - 1),
        nbytes=_FLOATS, data=_DATA,
        ctx=st.integers(-(2 ** 31), 2 ** 31 - 1),
    ),
    extra=st.tuples(_FLOATS, st.booleans(), st.booleans()),
)

#: Messages the columnar path must decline: control kinds, out-of-range
#: or wrongly-typed columns, unhashable payload data.
_REST_MSGS = st.one_of(
    st.builds(
        ch.ChannelMsg,
        when=_FLOATS, key=st.integers(0, 2 ** 40),
        kind=st.sampled_from((ch.PLACE, ch.ACK, ch.READ_REQ, ch.READ_DATA)),
        src_node=st.integers(0, 4095), src_port=st.just(0),
        dst_node=st.integers(0, 4095), dst_port=st.just(0),
        nbytes=_FLOATS,
        payload=st.just(None),
        extra=st.one_of(st.just(("token", 3)), st.integers(0, 9),
                        st.just(None)),
    ),
    # Hot-shaped but with unhashable payload data.
    _HOT_MSGS.map(lambda m: m._replace(
        payload=m.payload._replace(data=[1, 2]))),
    # Hot-shaped but a column out of its fixed-width range.
    _HOT_MSGS.map(lambda m: m._replace(src_node=2 ** 31)),
    # Hot-shaped but a float column carrying an int.
    _HOT_MSGS.map(lambda m: m._replace(nbytes=4096)),
)


def _assert_bit_exact(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, EagerPacket):
        for va, vb in zip(a, b):
            _assert_bit_exact(va, vb)
    else:
        assert a == b


def test_wire_codec_empty_frame():
    frame = pack_frame([])
    assert frame.n == 0 and frame.rest == () and frame.order is None
    assert unpack_frame(frame) == []


@settings(max_examples=60, deadline=None)
@given(msgs=st.lists(st.one_of(_HOT_MSGS, _REST_MSGS), max_size=24))
def test_hypothesis_wire_codec_round_trip(msgs):
    """unpack(pack(msgs)) must reproduce every field bit-exactly."""
    out = unpack_frame(pack_frame(msgs))
    assert out == msgs
    for orig, back in zip(msgs, out):
        for va, vb in zip(orig, back):
            _assert_bit_exact(va, vb)


# ----------------------------------------------------- high-rank differential

def test_high_rank_process_backend_matches_single():
    # 256 ranks through forked workers exercises the batched wire frames
    # end to end (RDMA-write eager mode floods the coordinator with
    # PLACE/ACK obligations as well as hot eager deliveries).
    assert_sharded_identical(
        halo_app, 256, 4, backend="process",
        config=mvapich2_like(), app_args=(3, 2048.0, 15.0e-6),
    )


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    config=st.sampled_from((_CONFIGS[0], mvapich2_like())),
)
def test_hypothesis_high_rank_bit_identical(seed, config):
    """256-rank sharded runs must equal single-process, any seed."""
    assert_sharded_identical(
        halo_app, 256, 4, config=config, seed=seed,
        backend="inline", app_args=(2, 2048.0, 10.0e-6),
    )


# ------------------------------------------- process-shard failures

#: Fast loss detection: a hang would surface as a heartbeat timeout
#: within two seconds, so every failure test below is bounded.
_FAST = TransportOptions(heartbeat_interval=0.1, host_timeout=2.0)


def _dies_mid_run_app(ctx):
    """Halo for two steps, then rank 3's whole worker process exits."""
    yield from halo_app(ctx, 2, 2048.0, 15.0e-6)
    if ctx.rank == 3:
        os._exit(1)
    result = yield from halo_app(ctx, 2, 2048.0, 15.0e-6)
    return result


def _raises_app(ctx):
    yield from halo_app(ctx, 1, 2048.0, 15.0e-6)
    if ctx.rank == 3:
        raise ValueError("rank 3 app bug")
    result = yield from halo_app(ctx, 1, 2048.0, 15.0e-6)
    return result


def test_process_worker_death_is_host_loss():
    t0 = time.monotonic()
    with pytest.raises(ShardHostLost) as info:
        run_app_sharded(_dies_mid_run_app, 4, 2, backend="process",
                        config=mvapich2_like(), transport=_FAST)
    # EOF is seen at once, well inside the silence budget.
    assert time.monotonic() - t0 < _FAST.host_timeout + 5.0
    exc = info.value
    assert exc.reason == "connection-lost"
    assert exc.shard == 1 and exc.retryable is True
    diag = exc.diagnostic
    assert diag is not None and diag.rounds > 0
    assert [s["lost"] for s in diag.shards] == [False, True]
    assert all(s["host"].startswith("local pid ") for s in diag.shards)
    assert exc.partial is not None and exc.partial["lost_shard"] == 1


def test_process_worker_error_is_plain_shard_error():
    with pytest.raises(ShardError) as info:
        run_app_sharded(_raises_app, 4, 2, backend="process",
                        config=mvapich2_like(), transport=_FAST)
    assert not isinstance(info.value, ShardHostLost)
    # The worker's own traceback travels back in the message.
    assert "Traceback" in str(info.value)
    assert "ValueError: rank 3 app bug" in str(info.value)


# ------------------------------------------------------- fence oracle

def test_reference_fence_impl_matches_single():
    with reference_fences():
        assert_sharded_identical(
            halo_app, 12, 3, backend="inline",
            config=mvapich2_like(), app_args=(4, 2048.0, 15.0e-6),
        )


def test_fence_impls_bit_identical():
    # The incremental fence computation must drive byte-for-byte the same
    # schedule as the quadratic reference: same rounds, same reports.
    def run():
        return run_app(
            halo_app, 24, shards=3, shard_backend="inline",
            config=mvapich2_like(), app_args=(4, 2048.0, 15.0e-6),
        )

    inc = run()
    with reference_fences():
        ref = run()
    assert all(d.equal for d in compare_runs(inc, ref))
    assert inc.sync_stats["rounds"] == ref.sync_stats["rounds"] > 0


def test_fences_match_reference_every_round():
    # A round-robin partition makes every halo edge cross-shard.  Under
    # mvapich2_like, 512 B messages go RDMA-write eager (PLACE/ACK
    # obligations in flight, small enough that an ACK horizon undercuts
    # the lookahead) and 64 KiB ones go rget rendezvous (read requests
    # and data across shards).  Latency jitter breaks the halo's symmetry,
    # so shards sit at different clocks and the "everyone else" minimum
    # differs from the global one.  Each round's incremental fences must
    # equal the rescanning oracle's, float for float -- not just the
    # run's final reports.
    nprocs, shards = 24, 4
    partition = [list(range(s, nprocs, shards)) for s in range(shards)]
    capped = 0
    for nbytes in (512.0, 65536.0):
        with audited_fences() as rounds:
            result = run_app_sharded(
                halo_app, nprocs, shards, backend="inline",
                partition=partition, config=mvapich2_like(),
                params=NetworkParams(latency_jitter_frac=0.25), seed=7,
                app_args=(3, nbytes, 15.0e-6),
            )
        assert len(rounds) == result.sync_stats["rounds"] > 0
        capped += sum(f == floor for fences, floors in rounds
                      for f, floor in zip(fences, floors))
    # Some shard's fence was held to its own outstanding ACK horizon, so
    # the obligation cap was exercised, not just present.
    assert capped > 0


# ----------------------------------------------------------- halo smoke CLI

def test_halo_cli_check_json(capsys):
    from repro.experiments import halo

    rc = halo.main(["--ranks", "8", "--steps", "2", "--shards", "2",
                    "--backend", "inline", "--check", "--json"])
    assert rc == 0
    summary = __import__("json").loads(capsys.readouterr().out)
    assert summary["checked"] is True
    assert summary["ranks"] == 8 and summary["shards"] == 2
    assert summary["events"] > 0 and summary["rounds"] > 0


def test_halo_cli_worker_fault_needs_spawned_workers(capsys):
    # On externally started --hosts (or non-socket backends) the fault
    # spec cannot be armed; silently ignoring it would make a
    # fault-injection run look like a healthy pass.
    from repro.experiments import halo

    with pytest.raises(SystemExit) as excinfo:
        halo.main(["--backend", "socket", "--hosts", "127.0.0.1:1",
                   "--worker-fault", "drop-after=5"])
    assert excinfo.value.code == 2
    assert "--worker-fault" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        halo.main(["--backend", "process", "--worker-fault", "drop-after=5"])


def test_halo_cli_plain_run(capsys):
    from repro.experiments import halo

    rc = halo.main(["--ranks", "8", "--steps", "2", "--shards", "2",
                    "--backend", "inline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "halo 8 ranks" in out and "shards=2:" in out


# ------------------------------------------------- event-queue pressure

def test_calendar_queue_engages_in_sharded_run(monkeypatch):
    # Force the calendar threshold low enough for a small run, then
    # check the engine actually migrated -- and that doing so changed
    # nothing observable.
    from repro.sim import engine as engine_mod

    monkeypatch.setattr(engine_mod, "CALENDAR_ENGAGE", 4)
    monkeypatch.setattr(engine_mod, "CALENDAR_COLLAPSE", 2)
    assert_sharded_identical(
        halo_app, 12, 2, backend="inline",
        config=mvapich2_like(), app_args=(3, 1024.0, 15.0e-6),
    )
    result = run_app_sharded(
        halo_app, 12, 2, backend="inline",
        config=mvapich2_like(), app_args=(3, 1024.0, 15.0e-6),
    )
    assert any(s["calendar_engagements"] > 0 for s in result.shard_stats)
    assert all(s["heap_high_water"] > 0 for s in result.shard_stats)
