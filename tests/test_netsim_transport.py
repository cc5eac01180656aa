"""Socket transport layer: framing, faults, handshake, stream behavior.

The socket shard backend's bit-identity guarantee rests on two layers:
the wire codec (hypothesis-tested in ``tests/test_sim_parallel.py``) and
the length-prefixed framing underneath it.  TCP is a byte stream -- a
frame can arrive split at *any* boundary, including mid-length-prefix --
so the central property here is that chunked incremental decoding is
field-bit-exact with whole-buffer decoding for arbitrary split points.
The rest covers the fault injector's determinism, the versioned
handshake's rejection path, and the retry/timeout/loss behavior of
:class:`repro.netsim.transport.FrameStream`.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.faults.transport import (
    TransportFaultInjected,
    TransportFaultPlan,
    parse_transport_fault_spec,
)
from repro.mpisim.packets import EagerPacket
from repro.netsim import channel as ch
from repro.netsim.transport import (
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameDecoder,
    FrameStream,
    HandshakeError,
    TransportError,
    TransportOptions,
    TransportTimeout,
    client_handshake,
    connect_with_retry,
    enable_keepalive,
    encode_message,
    parse_hostport,
    server_handshake,
)
from repro.netsim.wire import pack_frame, unpack_frame

# ------------------------------------------------- chunked framing property

_FLOATS = st.floats(allow_nan=False)
_DATA = st.sampled_from((None, "bounce-0", "bounce-1", 17, (3, 4), b"x"))

#: Hot-class eager deliveries (the columnar path) -- same shape as the
#: wire-codec strategy in tests/test_sim_parallel.py.
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

#: Control traffic the columnar path declines (rides Frame.rest).
_REST_MSGS = st.builds(
    ch.ChannelMsg,
    when=_FLOATS, key=st.integers(0, 2 ** 40),
    kind=st.sampled_from((ch.PLACE, ch.ACK, ch.READ_REQ, ch.READ_DATA)),
    src_node=st.integers(0, 4095), src_port=st.just(0),
    dst_node=st.integers(0, 4095), dst_port=st.just(0),
    nbytes=_FLOATS,
    payload=st.just(None),
    extra=st.one_of(st.just(("token", 3)), st.integers(0, 9), st.just(None)),
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


def _decode_all(decoder: FrameDecoder) -> list:
    out = []
    while True:
        ok, msg = decoder.pop()
        if not ok:
            return out
        out.append(msg)


@settings(max_examples=50, deadline=None)
@given(
    rounds=st.lists(
        st.lists(st.one_of(_HOT_MSGS, _REST_MSGS), max_size=12),
        min_size=1, max_size=4),
    data=st.data(),
)
def test_hypothesis_chunked_decode_bit_exact(rounds, data):
    """Frames split at arbitrary stream boundaries decode bit-exactly.

    Encode several rounds of packed channel messages as one contiguous
    byte stream, cut it at hypothesis-chosen positions (including
    mid-length-prefix and mid-payload), and feed the chunks to an
    incremental :class:`FrameDecoder`.  Every recovered message list
    must equal whole-buffer decoding field-bit-exactly.
    """
    frames = [pack_frame(msgs) for msgs in rounds]
    stream = b"".join(encode_message(("reply", f)) for f in frames)

    # Whole-buffer ground truth.
    whole = FrameDecoder()
    whole.feed(stream)
    expect = _decode_all(whole)
    assert whole.pending_bytes() == 0
    assert len(expect) == len(rounds)

    # Arbitrary split points (sorted, possibly duplicated -> empty chunks).
    cuts = sorted(data.draw(st.lists(
        st.integers(0, len(stream)), max_size=16)))
    chunked = FrameDecoder()
    got = []
    prev = 0
    for cut in cuts + [len(stream)]:
        chunked.feed(stream[prev:cut])
        got.extend(_decode_all(chunked))
        prev = cut
    assert chunked.pending_bytes() == 0
    assert len(got) == len(expect)
    for (tag_a, frame_a), (tag_b, frame_b), msgs in zip(got, expect, rounds):
        assert tag_a == tag_b == "reply"
        out_a = unpack_frame(frame_a)
        out_b = unpack_frame(frame_b)
        assert out_a == msgs and out_b == msgs
        for orig, back in zip(msgs, out_a):
            for va, vb in zip(orig, back):
                _assert_bit_exact(va, vb)


def test_decoder_byte_at_a_time():
    blob = encode_message(("hello", PROTOCOL_VERSION, {"x": 1.5}))
    decoder = FrameDecoder()
    out = []
    for i in range(len(blob)):
        decoder.feed(blob[i:i + 1])
        out.extend(_decode_all(decoder))
        # The message must not surface before its last byte arrived.
        assert bool(out) == (i == len(blob) - 1)
    assert out == [("hello", PROTOCOL_VERSION, {"x": 1.5})]


def test_decoder_rejects_oversized_header():
    decoder = FrameDecoder()
    with pytest.raises(TransportError):
        decoder.feed(struct.pack("!I", (1 << 31)))
        decoder.pop()


def test_parse_hostport():
    assert parse_hostport("example.com:81") == ("example.com", 81)
    assert parse_hostport(":81") == ("127.0.0.1", 81)
    assert parse_hostport("9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_hostport("host:notaport")


def test_transport_options_validation():
    with pytest.raises(ValueError):
        TransportOptions(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        TransportOptions(heartbeat_interval=2.0, host_timeout=1.0)


# --------------------------------------------------------------- FrameStream

def _stream_pair() -> "tuple[FrameStream, FrameStream]":
    a, b = socket.socketpair()
    return FrameStream(a), FrameStream(b)


def test_stream_round_trip_and_counters():
    a, b = _stream_pair()
    try:
        a.send(("task", {"shard": 0}))
        assert b.recv(timeout=5.0) == ("task", {"shard": 0})
        assert a.frames_out == 1 and b.frames_in == 1
        assert a.bytes_out == b.bytes_in > 0
    finally:
        a.close()
        b.close()


def test_stream_recv_timeout():
    a, b = _stream_pair()
    try:
        t0 = time.monotonic()
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.05)
        assert time.monotonic() - t0 < 5.0
    finally:
        a.close()
        b.close()


def test_stream_peer_close_is_connection_lost():
    a, b = _stream_pair()
    try:
        a.close()
        with pytest.raises(ConnectionLost):
            b.recv(timeout=5.0)
    finally:
        b.close()


def test_stream_send_stays_blocking_after_try_recv():
    """Regression: a timed-out ``recv`` leaves the socket with a finite
    timeout, and the coordinator sends ``advance`` right after waiting on
    a reply.  A frame larger than the free kernel send buffer must block
    until the peer drains it -- not surface a spurious ConnectionLost
    (and abort a healthy run) via BlockingIOError/socket.timeout."""
    a, b = _stream_pair()
    try:
        with pytest.raises(TransportTimeout):
            a.recv(timeout=0.01)  # socket now has a 10 ms timeout
        big = ("reply", b"x" * (4 << 20))
        got = []
        reader = threading.Thread(
            # Start draining only after the kernel buffer is full, so a
            # non-blocking sendall would deterministically fail first.
            target=lambda: (time.sleep(0.2), got.append(b.recv(timeout=30.0))))
        reader.start()
        a.send(big)
        reader.join(timeout=30.0)
        assert got == [big]
    finally:
        a.close()
        b.close()


def test_enable_keepalive_on_accepted_tcp_socket():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    cli = socket.create_connection(srv.getsockname()[:2])
    conn, _addr = srv.accept()
    try:
        assert enable_keepalive(conn) is True
        assert conn.getsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE) == 1
    finally:
        conn.close()
        cli.close()
        srv.close()


# --------------------------------------------------------- connect + handshake

def test_connect_with_retry_reaches_late_listener():
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]
    # Listen only after a delay: the first attempts must be refused and
    # retried with backoff instead of failing the coordinator.
    timer = threading.Timer(0.3, srv.listen, args=(1,))
    timer.start()
    options = TransportOptions(connect_attempts=20, connect_base_delay=0.05)
    try:
        sock, attempts = connect_with_retry(host, port, options)
        sock.close()
        assert attempts >= 1
    finally:
        timer.cancel()
        srv.close()


def test_connect_with_retry_gives_up():
    # A bound-but-never-listening port refuses every dial.
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]
    options = TransportOptions(connect_attempts=2, connect_base_delay=0.01)
    try:
        with pytest.raises(TransportError):
            connect_with_retry(host, port, options)
    finally:
        srv.close()


def test_handshake_version_mismatch_rejected():
    a, b = _stream_pair()
    errors = []

    def serve():
        try:
            server_handshake(b, {"pid": 1}, timeout=5.0)
        except HandshakeError as exc:
            errors.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        with pytest.raises(HandshakeError) as info:
            client_handshake(a, {"shard": 0}, timeout=5.0,
                             version=PROTOCOL_VERSION + 1)
        thread.join(timeout=5.0)
        # Both sides name the version clash; the client got the server's
        # explicit ("reject", ...) frame, not a dropped connection.
        assert "version" in str(info.value)
        assert len(errors) == 1
    finally:
        a.close()
        b.close()


def test_handshake_success_exchanges_meta():
    a, b = _stream_pair()
    server_meta = {}

    def serve():
        server_meta.update(server_handshake(b, {"pid": 42}, timeout=5.0))

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        worker = client_handshake(a, {"shard": 3}, timeout=5.0)
        thread.join(timeout=5.0)
        assert worker["pid"] == 42
        assert server_meta["shard"] == 3
    finally:
        a.close()
        b.close()


# ------------------------------------------------------- deterministic faults

def test_parse_transport_fault_spec():
    plan = parse_transport_fault_spec("drop-after=12,slow=0.01")
    assert plan.drop_after_frames == 12
    assert plan.slow_send_s == pytest.approx(0.01)
    plan = parse_transport_fault_spec("stall-after=30,stall=2.5")
    assert plan.stall_after_frames == 30
    assert plan.stall_s == pytest.approx(2.5)
    with pytest.raises(ValueError):
        parse_transport_fault_spec("explode-after=1")


def test_injector_drops_at_exact_frame():
    plan = TransportFaultPlan(drop_after_frames=3)
    a_raw, b_raw = socket.socketpair()
    a = FrameStream(a_raw, injector=plan.injector())
    b = FrameStream(b_raw)
    try:
        for i in range(3):
            a.send(("hb",))
        with pytest.raises(TransportFaultInjected):
            a.send(("hb",))
        # The injected drop hard-closes the socket: the peer reads the
        # three pre-fault frames, then EOF.
        for _ in range(3):
            assert b.recv(timeout=5.0) == ("hb",)
        with pytest.raises(ConnectionLost):
            b.recv(timeout=5.0)
    finally:
        a.close()
        b.close()
