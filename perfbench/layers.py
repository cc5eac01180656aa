"""Per-layer self time from a stdlib sampler (traced runs only).

A daemon thread wakes every :data:`SAMPLE_INTERVAL_S` seconds, reads every other
thread's current frame with ``sys._current_frames()`` and charges the
time since its previous wake-up to that frame's *layer*:

* the innermost frame that lives in ``repro/<package>/`` decides the
  layer, so stdlib and numpy helpers count toward the repro layer that
  called them; ``sim/parallel.py`` and ``sim/remote.py`` are split out of
  ``sim`` as ``sim.parallel`` and ``sim.remote``;
* a thread with no repro frame on its stack (the benchmark's own loop,
  the export serializers it calls) counts as ``other``;
* a thread whose innermost frame is a blocking wait (lock, condition,
  selector, pipe or socket read, child wait) is idle and charges nothing,
  so a coordinator blocked on its shard pipes shows as waiting, not as
  self time.

With one busy thread the charged seconds add up to the sampled wall time;
:attr:`LayerSampler.cpu_s` is the sampler thread's own CPU, its overhead.
The end-to-end runs never import this module.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types
import typing

#: Seconds between two stack reads of the sampler thread.
SAMPLE_INTERVAL_S = 0.001

#: Every layer the sampler can report, in display order.  Repro packages
#: no workload loads (faults, analysis, tools) count as ``other``.
#: ``sim.remote`` reads 0 until the process backend runs its session loop.
LAYERS = (
    "sim", "sim.parallel", "sim.remote", "core", "mpisim", "netsim",
    "armci", "nas", "runtime", "telemetry", "metrics", "tracing",
    "service", "experiments", "other",
)

#: (file basename, function) pairs that mean "this thread is blocked".
IDLE_FRAMES = frozenset({
    ("threading.py", "wait"),
    ("threading.py", "_wait_for_tstate_lock"),
    ("selectors.py", "select"),
    ("connection.py", "wait"),
    ("connection.py", "_poll"),
    ("connection.py", "_recv"),
    ("popen_fork.py", "poll"),
    ("socket.py", "readinto"),
    ("socket.py", "accept"),
    # concurrent.futures worker parked in its C-level queue get.
    ("thread.py", "_worker"),
})


def layer_of_path(path: str, repro_root: str) -> "str | None":
    """Layer of a source file, or None when it is not under ``repro_root``.

    ``repro_root`` is the ``.../src/repro`` directory (with no trailing
    separator).
    """
    prefix = repro_root + os.sep
    if not path.startswith(prefix):
        return None
    parts = path[len(prefix):].split(os.sep)
    if len(parts) < 2:
        return "other"  # repro/__init__.py
    package = parts[0]
    if package == "sim" and parts[1] in ("parallel.py", "remote.py"):
        return "sim." + parts[1][:-3]
    return package if package in LAYERS else "other"


class LayerSampler:
    """Sampling attribution of host time to layers (see module doc)."""

    def __init__(self, repro_root: str) -> None:
        self.repro_root = os.path.normpath(repro_root)
        self.seconds: "dict[str, float]" = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0
        self.idle_s = 0.0
        self.cpu_s = 0.0
        self._cache: "dict[types.CodeType, str | None]" = {}
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    # -- attribution --------------------------------------------------------
    def _code_layer(self, code: types.CodeType) -> "str | None":
        try:
            return self._cache[code]
        except KeyError:
            layer = layer_of_path(os.path.normpath(code.co_filename),
                                  self.repro_root)
            self._cache[code] = layer
            return layer

    def classify(self, frame: "types.FrameType | None") -> "str | None":
        """Layer charged for a thread at ``frame``; None when it is idle."""
        if frame is None:
            return None
        code = frame.f_code
        if (os.path.basename(code.co_filename), code.co_name) in IDLE_FRAMES:
            return None
        while frame is not None:
            layer = self._code_layer(frame.f_code)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    # -- sampling thread ----------------------------------------------------
    def _run(self) -> None:
        me = threading.get_ident()
        cpu0 = time.thread_time()
        last = time.perf_counter()
        seconds = self.seconds
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            now = time.perf_counter()
            dt = now - last
            last = now
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                layer = self.classify(frame)
                if layer is None:
                    self.idle_s += dt
                else:
                    seconds[layer] += dt
            self.samples += 1
        self.cpu_s += time.thread_time() - cpu0

    def start(self) -> "LayerSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=10.0)
        if thread.is_alive():
            raise RuntimeError("sampler thread did not stop")
        self._thread = None

    def __enter__(self) -> "LayerSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def merged(samplers: typing.Iterable[LayerSampler]) -> "dict[str, float]":
    """Per-layer seconds summed over several sampled passes."""
    total = dict.fromkeys(LAYERS, 0.0)
    for s in samplers:
        for layer, sec in s.seconds.items():
            total[layer] += sec
    return total
