"""Shard workers: the one command loop every out-of-process shard runs.

``python -m repro.sim.remote --listen HOST:PORT`` turns a host into a
shard worker pool: the coordinator (``run_app_sharded(...,
backend="socket", hosts=[...])``) dials in, completes the versioned
handshake, ships a ``_ShardTask``, and then drives the
advance/reply/finish command loop of :func:`_serve_session`.  The
process backend forks a worker on one end of a ``socketpair`` that runs
the same loop (:func:`serve_forked`) on the task it inherited, so both
backends share one wire protocol and are bit-identical by construction.

Each accepted connection is one *session* serving one shard, handled on
its own thread; one worker process can therefore host several shards
(the coordinator assigns hosts round-robin).  A session thread starts a
heartbeat thread *before* building the shard -- liveness frames flow
while rank stacks are constructed and while the engine runs long
windows, so the coordinator's ``host_timeout`` measures actual silence,
not honest work.

Trust model: tasks arrive as pickles, i.e. the coordinator runs
arbitrary code in this process -- the same trust boundary as ``mpirun``
on a shared cluster.  The default bind address is ``127.0.0.1``; bind a
routable address only on networks where every peer is already trusted.

``--fault SPEC`` (see :func:`repro.faults.parse_transport_fault_spec`)
arms deterministic transport faults on every session -- the CI host-kill
smoke and the loss-path tests use this to make a worker die or go silent
at an exact frame count.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import typing

from repro.faults.transport import TransportFaultInjected, TransportFaultPlan
from repro.netsim import wire as _wire
from repro.netsim.transport import (
    PROTOCOL_VERSION,
    ConnectionLost,
    FrameStream,
    HandshakeError,
    TransportError,
    enable_keepalive,
    parse_hostport,
    server_handshake,
)

__all__ = ["LocalWorkerPool", "WorkerServer", "main", "serve_forked"]

#: How long a freshly accepted connection may take to complete the
#: handshake and ship its task before the session is abandoned.
_SETUP_TIMEOUT = 60.0


def _worker_meta() -> dict:
    return {
        "protocol": PROTOCOL_VERSION,
        "pid": os.getpid(),
        "python": sys.version.split()[0],
    }


def _heartbeat_loop(stream: FrameStream, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            stream.send(("hb",))
        except Exception:
            return


def _serve_session(sock: socket.socket,
                   fault_plan: "TransportFaultPlan | None" = None,
                   task: "typing.Any | None" = None,
                   heartbeat_interval: float = 0.5) -> None:
    """Serve one shard to one coordinator: the only shard command loop.

    A dialled-in session (socket backend) first runs the handshake and
    receives its ``_ShardTask``.  A process-backend worker is forked on
    one end of a ``socketpair`` and passes the ``task`` it inherited, so
    it goes straight to the loop.  Either way a heartbeat thread starts
    before the shard is built, a worker-side Python error is reported as
    an ``("error", traceback)`` frame, and a lost coordinator ends the
    session quietly.
    """
    from repro.sim.parallel import ShardWorker

    # The command loop below blocks in recv() with no deadline (a slow
    # coordinator is healthy); keepalive probes reap the session if the
    # coordinator host vanishes without a TCP reset, instead of leaking
    # this thread, the built rank stack, and the heartbeat thread.
    enable_keepalive(sock)
    injector = fault_plan.injector() if fault_plan is not None else None
    stream = FrameStream(sock, injector=injector)
    hb_stop = threading.Event()
    try:
        if task is None:
            meta = server_handshake(stream, _worker_meta(),
                                    timeout=_SETUP_TIMEOUT)
            heartbeat_interval = float(typing.cast(
                float, meta.get("heartbeat_interval", heartbeat_interval)))
            cmd = stream.recv(timeout=_SETUP_TIMEOUT)
            if cmd[0] != "task":
                raise TransportError(
                    f"protocol error: expected 'task', got {cmd[0]!r}")
            task = cmd[1]
        threading.Thread(
            target=_heartbeat_loop,
            args=(stream, heartbeat_interval, hb_stop),
            daemon=True,
        ).start()
        worker = ShardWorker(task)
        stream.send(("ready", worker.next_event()))
        while True:
            cmd = stream.recv()
            op = cmd[0]
            if op == "advance":
                reply = worker.advance(cmd[1], _wire.unpack_frame(cmd[2]))
                stream.send(
                    ("reply", reply._replace(msgs=_wire.pack_frame(reply.msgs))))
            elif op == "finish":
                stream.send(("result", worker.finish(cmd[1])))
                return
            else:  # "abort"
                return
    except (ConnectionLost, TransportFaultInjected, HandshakeError):
        # The coordinator went away, rejected us, or we simulated dying:
        # from this side there is nobody left to report to.
        pass
    except BaseException:
        try:
            stream.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        hb_stop.set()
        stream.close()


def serve_forked(sock: socket.socket, task: typing.Any,
                 heartbeat_interval: float,
                 inherited: "typing.Sequence[socket.socket]") -> None:
    """Entry point of a process-backend shard worker.

    ``inherited`` are the coordinator-side socket ends the fork copied
    (this worker's peer end and those of earlier shards).  Closing them
    makes a vanished coordinator read as EOF here instead of a hang.
    """
    for other in inherited:
        other.close()
    _serve_session(sock, task=task, heartbeat_interval=heartbeat_interval)


class WorkerServer:
    """Accept loop: one thread per coordinator session.

    ``sessions`` bounds how many connections are served before the loop
    exits (``None`` = serve until :meth:`stop`); the smoke CLI uses it
    to make worker subprocesses self-terminating.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 fault_plan: "TransportFaultPlan | None" = None,
                 sessions: "int | None" = None) -> None:
        self.fault_plan = fault_plan
        self.sessions = sessions
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread: "threading.Thread | None" = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until done/stopped."""
        served = 0
        self._sock.settimeout(0.25)
        try:
            while not self._stop.is_set():
                if self.sessions is not None and served >= self.sessions:
                    break
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                served += 1
                thread = threading.Thread(
                    target=_serve_session, args=(conn, self.fault_plan),
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        finally:
            try:
                self._sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=30.0)

    def start(self) -> "WorkerServer":
        """Run the accept loop on a background thread (tests)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class LocalWorkerPool:
    """Spawn N ``python -m repro.sim.remote`` subprocesses on localhost.

    The multi-host topology on one machine: each worker is a separate
    process reachable only over TCP, exactly what a remote host looks
    like to the coordinator.  Used by ``repro.experiments.halo
    --backend socket --workers N``, the socket capacity benchmark, and
    the CI multi-host smoke job.  ``faults`` optionally gives one
    transport-fault spec string per worker (``None`` entries are
    healthy) -- the host-kill smoke arms only the first worker.
    """

    def __init__(self, count: int,
                 faults: "typing.Sequence[str | None] | None" = None,
                 startup_timeout: float = 30.0) -> None:
        if count < 1:
            raise ValueError("need at least one worker")
        import repro

        self.procs: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        self._dir = tempfile.TemporaryDirectory(prefix="repro-workers-")
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        parts = [root]
        if env.get("PYTHONPATH"):
            parts.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        port_files = []
        try:
            for i in range(count):
                port_file = os.path.join(self._dir.name, f"worker{i}.port")
                cmd = [sys.executable, "-m", "repro.sim.remote",
                       "--listen", "127.0.0.1:0", "--port-file", port_file]
                fault = (faults[i]
                         if faults is not None and i < len(faults) else None)
                if fault:
                    cmd += ["--fault", fault]
                self.procs.append(subprocess.Popen(
                    cmd, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ))
                port_files.append(port_file)
            deadline = time.monotonic() + startup_timeout
            for i, port_file in enumerate(port_files):
                while not os.path.exists(port_file):
                    proc = self.procs[i]
                    if proc.poll() is not None:
                        raise TransportError(
                            f"worker {i} exited with rc={proc.returncode} "
                            f"before listening")
                    if time.monotonic() > deadline:
                        raise TransportError(
                            f"worker {i} did not come up within "
                            f"{startup_timeout:.0f}s")
                    time.sleep(0.05)
                with open(port_file, encoding="utf-8") as fh:
                    self.addresses.append(fh.read().strip())
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        self._dir.cleanup()

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.remote",
        description="Shard worker for run_app_sharded(backend='socket').",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address; port 0 picks a free port (default %(default)s)")
    parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound host:port here once listening "
             "(atomic rename; lets launchers wait for readiness)")
    parser.add_argument(
        "--sessions", type=int, default=None, metavar="N",
        help="exit after serving N coordinator sessions "
             "(default: serve forever)")
    parser.add_argument(
        "--fault", default=None, metavar="SPEC",
        help="deterministic transport fault for every session, e.g. "
             "'drop-after=12' or 'stall-after=30,stall=60' or 'slow=0.01'")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        host, port = parse_hostport(args.listen)
        plan = None
        if args.fault:
            from repro.faults.transport import parse_transport_fault_spec

            plan = parse_transport_fault_spec(args.fault)
        server = WorkerServer(host, port, fault_plan=plan,
                              sessions=args.sessions)
    except (ValueError, OSError) as exc:
        print(f"repro.sim.remote: {exc}", file=sys.stderr)
        return 2
    if args.port_file:
        tmp = args.port_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(server.address)
        os.replace(tmp, args.port_file)
    print(f"repro.sim.remote listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
