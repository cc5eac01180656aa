"""Socket shard backend: bit-identity, loss detection, diagnostics.

Drives :mod:`repro.sim.remote` worker servers in-process (no
subprocesses: the accept loop runs on a background thread, sessions on
their own threads) and checks the coordinator-side contract of
``run_app_sharded(backend="socket")``:

* results are **bit-identical** to the single-process ground truth --
  the same differential referee the fork backend passes;
* a worker that dies mid-run (deterministic ``drop-after`` fault) fails
  the run with :class:`ShardHostLost` *immediately* -- reason
  ``connection-lost`` -- never a hang;
* a worker that goes **silent** (deterministic ``stall-after`` fault,
  which holds the send lock so heartbeats stop too) is declared lost
  within ``host_timeout`` -- reason ``heartbeat-timeout``;
* either loss carries a diagnostic snapshot and a partial report, and
  the exception advertises ``retryable = True`` for the service layer;
* a worker that speaks the wrong protocol version is rejected in the
  handshake, and an address nobody listens on fails with a clear
  :class:`ShardError` after bounded connect retries.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.halo import halo_app
from repro.faults.transport import TransportFaultPlan
from repro.mpisim.config import mvapich2_like
from repro.netsim.differential import assert_sharded_identical
from repro.netsim.transport import (
    PROTOCOL_VERSION,
    FrameStream,
    HandshakeError,
    TransportOptions,
    client_handshake,
    connect_with_retry,
)
from repro.runtime.launcher import run_app
from repro.sim.remote import WorkerServer
from repro.sim.parallel import ShardError, ShardHostLost

_APP_ARGS = (3, 2048.0, 15.0e-6)

#: Fast loss detection for tests: frequent heartbeats, short silence
#: budget, few connect attempts.
_FAST = TransportOptions(
    connect_attempts=3, connect_base_delay=0.02,
    heartbeat_interval=0.1, host_timeout=2.0,
)


def _run_socket(hosts, transport=_FAST, ranks=8, shards=2):
    return run_app(
        halo_app, ranks, config=mvapich2_like(), app_args=_APP_ARGS,
        shards=shards, shard_backend="socket",
        shard_hosts=hosts, shard_transport=transport,
    )


# ---------------------------------------------------------------- bit identity

def test_socket_backend_bit_identical():
    with WorkerServer() as w0, WorkerServer() as w1:
        assert_sharded_identical(
            halo_app, 8, 2, backend="socket",
            config=mvapich2_like(), app_args=_APP_ARGS,
            hosts=[w0.address, w1.address], transport=_FAST,
        )


def _assert_transport_stats(result, hosts):
    stats = result.sync_stats["transport"]
    assert stats["hosts"] == hosts
    assert stats["frames_out"] > 0 and stats["frames_in"] > 0
    assert stats["bytes_out"] > 0 and stats["bytes_in"] > 0
    # Framing + pickle + heartbeats cost something over raw payload.
    assert stats["bytes_out"] + stats["bytes_in"] > stats["payload_bytes"]
    for shard, host in zip(result.shard_stats, hosts):
        assert shard["host"] == host
        assert shard["frames_out"] > 0
        assert "heartbeats" in shard
        assert shard["transport_overhead_bytes"] > 0


def test_socket_transport_stats_surface():
    with WorkerServer() as worker:
        result = _run_socket([worker.address])
    _assert_transport_stats(result, [worker.address] * 2)
    assert result.sync_stats["transport"]["connect_attempts"] == [1, 1]
    # Forked process shards report the same counters; nothing was dialled.
    result = run_app(
        halo_app, 8, config=mvapich2_like(), app_args=_APP_ARGS,
        shards=2, shard_backend="process", shard_transport=_FAST,
    )
    hosts = result.sync_stats["transport"]["hosts"]
    assert all(h.startswith("local pid ") for h in hosts)
    _assert_transport_stats(result, hosts)
    assert result.sync_stats["transport"]["connect_attempts"] == [0, 0]


# ------------------------------------------------------------------ host loss

def test_dropped_worker_is_lost_immediately():
    plan = TransportFaultPlan(drop_after_frames=5)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        t0 = time.monotonic()
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
        elapsed = time.monotonic() - t0
    exc = info.value
    # EOF beats the heartbeat deadline: detection is immediate, well
    # under the host_timeout silence budget.
    assert elapsed < _FAST.host_timeout
    assert exc.reason == "connection-lost"
    assert exc.retryable is True
    assert exc.shard == 0 and exc.host == bad.address


def test_stalled_worker_is_lost_within_host_timeout():
    # The stall holds the worker's send lock, so heartbeats stop too:
    # pure silence, detectable only via the host_timeout deadline.
    plan = TransportFaultPlan(stall_after_frames=5, stall_s=4.0)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        t0 = time.monotonic()
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
        elapsed = time.monotonic() - t0
    exc = info.value
    assert exc.reason == "heartbeat-timeout"
    # Lost no earlier than the silence budget, not much later either.
    assert _FAST.host_timeout * 0.5 <= elapsed <= _FAST.host_timeout + 3.0


def test_host_lost_before_first_round_carries_diagnostic():
    # The worker dies right after its handshake answer, before "ready":
    # the loss happens while the coordinator waits for the shards to
    # come up, and must still carry the snapshot and partial report.
    plan = TransportFaultPlan(drop_after_frames=1)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
    exc = info.value
    assert exc.reason == "connection-lost" and exc.shard == 0
    diag = exc.diagnostic
    assert diag is not None
    assert diag.rounds == 0 and diag.messages == 0
    assert [s["lost"] for s in diag.shards] == [True, False]
    assert exc.partial is not None and exc.partial["rounds"] == 0


def test_host_loss_carries_diagnostic_and_partial():
    plan = TransportFaultPlan(drop_after_frames=5)
    with WorkerServer(fault_plan=plan) as bad, WorkerServer() as good:
        with pytest.raises(ShardHostLost) as info:
            _run_socket([bad.address, good.address])
    exc = info.value
    diag = exc.diagnostic
    assert diag is not None
    assert diag.reason == "connection-lost"
    assert len(diag.shards) == 2
    assert [s["lost"] for s in diag.shards] == [True, False]
    text = diag.render_text()
    assert "shard-loss" in text and "[LOST]" in text
    partial = exc.partial
    assert partial is not None
    assert partial["reason"] == "connection-lost"
    assert partial["lost_shard"] == 0
    assert len(partial["shards"]) == 2


# ------------------------------------------------------- handshake + dialing

def test_worker_rejects_version_mismatch():
    with WorkerServer() as worker:
        sock, _ = connect_with_retry(worker.host, worker.port, _FAST)
        stream = FrameStream(sock)
        try:
            with pytest.raises(HandshakeError) as info:
                client_handshake(stream, {"shard": 0}, timeout=5.0,
                                 version=PROTOCOL_VERSION + 7)
            assert "version" in str(info.value)
        finally:
            stream.close()
        # The server survives a rejected peer: a correct dial still works.
        sock, _ = connect_with_retry(worker.host, worker.port, _FAST)
        stream = FrameStream(sock)
        try:
            meta = client_handshake(stream, {"shard": 0}, timeout=5.0)
            assert meta["protocol"] == PROTOCOL_VERSION
        finally:
            stream.close()


def test_unreachable_host_is_shard_error():
    # Bound but never listening: every dial is refused, retries run out.
    import socket as _socket

    srv = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]
    try:
        with pytest.raises(ShardError) as info:
            _run_socket([f"{host}:{port}"])
        assert "shard 0" in str(info.value)
    finally:
        srv.close()


def test_socket_backend_requires_hosts():
    with pytest.raises(ValueError) as info:
        run_app(
            halo_app, 8, config=mvapich2_like(), app_args=_APP_ARGS,
            shards=2, shard_backend="socket",
        )
    assert "hosts" in str(info.value)
