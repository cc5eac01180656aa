"""Length-prefixed socket framing for the sharded engine's wire protocol.

Both out-of-process shard backends speak one protocol of pickled
command/reply tuples, carrying cross-shard traffic as columnar
:class:`repro.netsim.wire.Frame` batches: ``shard_backend="process"``
over a ``socketpair`` to a forked worker, ``shard_backend="socket"``
over TCP to a ``repro.sim.remote`` worker.  A stream socket delivers
*bytes*, in whatever chunks the kernel feels like, not whole messages.
This module owns that gap:

* :func:`encode_message` / :class:`FrameDecoder`: every message is one
  ``!I`` length prefix plus a pickled payload.  The decoder is a pure
  incremental parser -- feed it byte chunks split at *any* boundary
  (mid-prefix, mid-payload) and it yields exactly the messages a
  whole-buffer decode would, bit-identically (hypothesis-tested in
  ``tests/test_netsim_transport.py``; the sharded engine's cross-host
  bit-identity guarantee rests on it).
* :class:`FrameStream`: a socket wrapper with the decoder behind it --
  blocking receive with deadline, thread-safe send (the worker heartbeat
  thread shares the stream with the command loop), and traffic counters
  for ``sync_stats``.
* :func:`connect_with_retry`: exponential backoff with deterministic
  seeded jitter -- a worker that is still booting is retried, a dead
  address fails with the attempt history in the message.
* :func:`client_handshake` / :func:`server_handshake`: a versioned hello
  exchange.  Mismatched protocol versions are *rejected* (the worker
  answers with its own version and closes) instead of failing later with
  an unpickling error mid-run.

Trust model: payloads are pickles, so the transport is for hosts you
already trust to run your code -- the same boundary as ``mpirun``.  The
worker bootstrap binds to ``127.0.0.1`` unless told otherwise.

Failure taxonomy: :class:`TransportTimeout` (no frame within the
deadline -- the heartbeat watchdog's signal), :class:`ConnectionLost`
(EOF or a socket error -- the peer died), :class:`HandshakeError`
(version or protocol mismatch at session start).  All are
:class:`TransportError`, which the coordinator maps onto
:class:`repro.sim.parallel.ShardHostLost`.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import socket
import struct
import threading
import time
import typing

__all__ = [
    "PROTOCOL_VERSION",
    "TransportError",
    "TransportTimeout",
    "ConnectionLost",
    "HandshakeError",
    "TransportOptions",
    "FrameDecoder",
    "FrameStream",
    "encode_message",
    "enable_keepalive",
    "connect_with_retry",
    "client_handshake",
    "server_handshake",
    "parse_hostport",
]

#: Bumped on any incompatible change to the command tuples or framing.
#: The handshake rejects mismatches before any simulation state moves.
PROTOCOL_VERSION = 2

_HEADER = struct.Struct("!I")
#: Upper bound on one message's payload; a corrupt or hostile length
#: prefix fails fast instead of allocating gigabytes.
MAX_MESSAGE_BYTES = 1 << 30
_RECV_CHUNK = 1 << 16


class TransportError(RuntimeError):
    """Base failure talking to a remote shard worker."""


class TransportTimeout(TransportError):
    """No complete frame arrived within the allowed time."""


class ConnectionLost(TransportError):
    """The peer closed the connection or the socket errored."""


class HandshakeError(TransportError):
    """Version/protocol mismatch during session establishment."""


@dataclasses.dataclass(frozen=True)
class TransportOptions:
    """Resilience knobs for the out-of-process shard backends.

    ``connect_*`` governs the initial dial of a socket-backend worker (exponential backoff with
    seeded jitter between attempts).  ``heartbeat_interval`` is how often
    a worker emits liveness frames while serving a session (negotiated in
    the handshake, so the coordinator's value wins); ``host_timeout`` is
    the coordinator-side deadline -- a shard that produces *no* frame
    (heartbeat or reply) for that long is declared lost and the run is
    terminated with a diagnostic snapshot instead of hanging the fence.
    """

    connect_timeout: float = 5.0
    connect_attempts: int = 8
    connect_base_delay: float = 0.05
    connect_backoff: float = 2.0
    #: Fraction of each delay added as seeded-random jitter (decorrelates
    #: a thundering herd of shards re-dialing one recovering worker).
    connect_jitter: float = 0.25
    handshake_timeout: float = 10.0
    heartbeat_interval: float = 0.5
    host_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.connect_attempts < 1:
            raise ValueError("connect_attempts must be >= 1")
        for name in ("connect_timeout", "connect_base_delay",
                     "handshake_timeout", "heartbeat_interval",
                     "host_timeout"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.connect_backoff < 1.0:
            raise ValueError("connect_backoff must be >= 1.0")
        if not 0.0 <= self.connect_jitter <= 1.0:
            raise ValueError("connect_jitter must be in [0, 1]")
        if self.host_timeout < self.heartbeat_interval:
            raise ValueError(
                "host_timeout must be >= heartbeat_interval (a deadline "
                "shorter than the liveness period trips on healthy hosts)"
            )


def parse_hostport(spec: str, default_host: str = "127.0.0.1"
                   ) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) -> ``(host, port)``."""
    text = spec.strip()
    host, sep, port_s = text.rpartition(":")
    if not sep:
        host, port_s = default_host, text
    host = host or default_host
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"bad host:port spec {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host, port


def encode_message(obj: object) -> bytes:
    """One wire message: ``!I`` length prefix + pickled payload."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_MESSAGE_BYTES:  # pragma: no cover - sanity cap
        raise TransportError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame cap"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental length-prefixed decoder, safe under arbitrary splits.

    Pure state machine over bytes: :meth:`feed` chunks in any sizes,
    :meth:`pop` complete messages out.  Bytes between messages persist
    across feeds, so a prefix or payload split across reads is simply
    completed by the next chunk -- decoded messages are bit-identical to
    a whole-buffer decode no matter the chunking.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._need: "int | None" = None  # payload length once prefix parsed

    def feed(self, data: bytes) -> None:
        self._buf += data

    def pop(self) -> "tuple[bool, object]":
        """``(True, message)`` when one is complete, else ``(False, None)``."""
        buf = self._buf
        if self._need is None:
            if len(buf) < _HEADER.size:
                return False, None
            (need,) = _HEADER.unpack_from(buf)
            if need > MAX_MESSAGE_BYTES:
                raise TransportError(
                    f"frame header announces {need} bytes "
                    f"(cap {MAX_MESSAGE_BYTES}): corrupt stream?"
                )
            self._need = need
            del buf[:_HEADER.size]
        if len(buf) < self._need:
            return False, None
        payload = bytes(buf[:self._need])
        del buf[:self._need]
        self._need = None
        return True, pickle.loads(payload)

    def pending_bytes(self) -> int:
        return len(self._buf)


class FrameStream:
    """One message-framed socket: deadline-bounded receive, locked send.

    ``injector`` (a :class:`repro.faults.TransportInjector`) hooks every
    send under the send lock, so deterministic transport faults -- drop,
    stall, slow host -- apply to command replies and heartbeats alike.
    Counters (``frames_in/out``, ``bytes_in/out``, ``last_recv``) feed
    the coordinator's ``sync_stats`` and the host-loss watchdog.
    """

    def __init__(self, sock: socket.socket, injector=None) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - e.g. AF_UNIX socketpair
            pass
        self.sock = sock
        self.injector = injector
        self._decoder = FrameDecoder()
        self._send_lock = threading.Lock()
        self.frames_out = 0
        self.frames_in = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.last_recv = time.monotonic()
        self._closed = False

    # -- sending -----------------------------------------------------------
    def send(self, obj: object) -> None:
        data = encode_message(obj)
        with self._send_lock:
            if self.injector is not None:
                self.injector.before_send(self)
            try:
                # recv() leaves the socket's timeout finite; sendall()
                # on such a socket raises as soon as the frame outgrows
                # the free kernel buffer -- possibly after a partial
                # write that desyncs the framing -- and a healthy peer
                # would be misdeclared lost.  Writes always run blocking;
                # recv() re-sets its own timeout before every read.
                self.sock.settimeout(None)
                self.sock.sendall(data)
            except OSError as exc:
                raise ConnectionLost(f"send failed: {exc}") from exc
            self.frames_out += 1
            self.bytes_out += len(data)

    # -- receiving ---------------------------------------------------------
    def recv(self, timeout: "float | None" = None) -> object:
        """Block for one message; :class:`TransportTimeout` on deadline."""
        ok, msg = self._decoder.pop()
        if ok:
            self.frames_in += 1
            return msg
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TransportTimeout(
                        f"no frame within {timeout:.3f}s")
                self.sock.settimeout(remaining)
            else:
                self.sock.settimeout(None)
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except socket.timeout:
                raise TransportTimeout(
                    f"no frame within {timeout:.3f}s") from None
            except OSError as exc:
                raise ConnectionLost(f"recv failed: {exc}") from exc
            if not data:
                raise ConnectionLost("peer closed the connection")
            self.bytes_in += len(data)
            self.last_recv = time.monotonic()
            self._decoder.feed(data)
            ok, msg = self._decoder.pop()
            if ok:
                self.frames_in += 1
                return msg

    # -- teardown ----------------------------------------------------------
    def abort(self) -> None:
        """Hard close (used by fault injection to simulate a dying host)."""
        self._closed = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


def connect_with_retry(
    host: str,
    port: int,
    options: "TransportOptions | None" = None,
    rng: "random.Random | None" = None,
) -> tuple[socket.socket, int]:
    """Dial a worker with exponential backoff + jitter.

    Returns ``(socket, attempts_used)``.  ``rng`` seeds the jitter (the
    coordinator derives it from the run seed and shard id, so retry
    schedules are reproducible); ``None`` uses an unseeded stream.
    """
    options = options or TransportOptions()
    rng = rng or random.Random()
    delay = options.connect_base_delay
    last: "OSError | None" = None
    for attempt in range(1, options.connect_attempts + 1):
        try:
            sock = socket.create_connection(
                (host, port), timeout=options.connect_timeout)
            sock.settimeout(None)
            return sock, attempt
        except OSError as exc:
            last = exc
            if attempt == options.connect_attempts:
                break
            time.sleep(delay * (1.0 + options.connect_jitter * rng.random()))
            delay *= options.connect_backoff
    raise TransportError(
        f"connect to {host}:{port} failed after "
        f"{options.connect_attempts} attempt(s): {last}"
    )


def enable_keepalive(
    sock: socket.socket,
    idle: float = 60.0,
    interval: float = 10.0,
    count: int = 6,
) -> bool:
    """Arm TCP keepalive probes so a half-open peer is eventually reaped.

    The worker's command loop blocks in ``recv()`` with no deadline (a
    slow coordinator between fence rounds is healthy, so an idle timeout
    would misfire), which means a coordinator host that vanishes without
    a TCP reset -- kill -9 plus a network partition -- would otherwise
    pin the session thread, its rank stack, and its heartbeat thread for
    the life of the worker process.  Keepalive distinguishes *dead* from
    *slow*: after ``idle`` seconds of silence the kernel probes every
    ``interval`` seconds, and ``count`` unanswered probes surface as an
    ``OSError`` on the blocked ``recv``.  The per-probe knobs are not
    portable (Linux/macOS spell them differently; some platforms lack
    them), so each is set only where available; returns whether
    ``SO_KEEPALIVE`` itself was enabled.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    except OSError:  # pragma: no cover - e.g. AF_UNIX socketpair
        return False
    for name, value in (
        ("TCP_KEEPIDLE", max(1, int(idle))),
        ("TCP_KEEPINTVL", max(1, int(interval))),
        ("TCP_KEEPCNT", max(1, int(count))),
    ):
        opt = getattr(socket, name, None)
        if opt is None:  # pragma: no cover - platform-dependent
            continue
        try:
            sock.setsockopt(socket.IPPROTO_TCP, opt, value)
        except OSError:  # pragma: no cover - platform-dependent
            pass
    return True


def client_handshake(
    stream: FrameStream,
    meta: "dict[str, object]",
    timeout: float,
    version: int = PROTOCOL_VERSION,
) -> "dict[str, object]":
    """Coordinator side: hello/welcome exchange; returns the worker meta.

    ``meta`` carries the session parameters the worker adopts (rank
    counts, negotiated heartbeat interval, labels).  A worker speaking a
    different protocol version answers ``reject`` with its own version,
    which surfaces here as :class:`HandshakeError` naming both sides.
    """
    stream.send(("hello", version, meta))
    try:
        answer = stream.recv(timeout=timeout)
    except TransportTimeout as exc:
        raise HandshakeError(f"no handshake answer: {exc}") from exc
    if not isinstance(answer, tuple) or not answer:
        raise HandshakeError(f"malformed handshake answer: {answer!r}")
    if answer[0] == "reject":
        raise HandshakeError(
            f"worker rejected the session: speaks protocol "
            f"{answer[1]!r}, we speak {version} ({answer[2]})"
        )
    if answer[0] != "welcome" or len(answer) < 3:
        raise HandshakeError(f"malformed handshake answer: {answer!r}")
    return typing.cast("dict[str, object]", answer[2])


def server_handshake(
    stream: FrameStream,
    meta: "dict[str, object]",
    timeout: float,
    version: int = PROTOCOL_VERSION,
) -> "dict[str, object]":
    """Worker side: validate the hello, answer welcome (or reject).

    Returns the coordinator's meta dict.  A version mismatch sends
    ``("reject", our_version, reason)`` before raising, so the
    coordinator gets an explanation instead of a dropped connection.
    """
    try:
        hello = stream.recv(timeout=timeout)
    except TransportTimeout as exc:
        raise HandshakeError(f"no hello within {timeout}s: {exc}") from exc
    if (not isinstance(hello, tuple) or len(hello) < 3
            or hello[0] != "hello"):
        stream.send(("reject", version, "malformed hello"))
        raise HandshakeError(f"malformed hello: {hello!r}")
    peer_version = hello[1]
    if peer_version != version:
        reason = (f"protocol version mismatch: coordinator speaks "
                  f"{peer_version!r}, worker speaks {version}")
        stream.send(("reject", version, reason))
        raise HandshakeError(reason)
    stream.send(("welcome", version, meta))
    return typing.cast("dict[str, object]", hello[2])
