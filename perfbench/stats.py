"""Pure helpers of the benchmark: tail percentiles, report digests, lateness,
host speed.

Nothing here imports the simulator, so the self-tests run in milliseconds
and the end-to-end runs pay nothing for these helpers.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
import typing

#: Samples that must lie strictly beyond a tail percentile.
TAIL_BEYOND = 10

#: Iterations of the host-speed calibration loop.
CALIBRATION_LOOPS = 100_000
#: Seconds the calibration loop takes on the reference host, a 2-vCPU VM
#: running CPython 3 (the median over 2000 runs of the loop).
REFERENCE_CALIBRATION_S = 0.009


class Tail(typing.NamedTuple):
    """A tail latency with the percentile and sample count behind it."""

    value: float
    percentile: float
    samples: int


def tail(samples: typing.Sequence[float]) -> Tail:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples above it.

    With ``n`` sorted samples that is the value at 0-based rank
    ``n - TAIL_BEYOND - 1``, reported as percentile
    ``100 * (n - TAIL_BEYOND) / n``.  Fewer than ``TAIL_BEYOND + 1``
    samples resolve no such percentile; the
    maximum is returned as percentile 100, and the sample count shows why.
    Failed or refused operations enter as ``inf`` and so count as missing
    any latency limit.
    """
    if not samples:
        raise ValueError("tail() of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n)
    return Tail(ordered[n - TAIL_BEYOND - 1],
                100.0 * (n - TAIL_BEYOND) / n, n)


def canonical(obj: object) -> str:
    """Key-sorted compact JSON; floats keep every digit (``repr``)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    """SHA-256 of :func:`canonical` -- equal iff the payloads are equal.

    A tuple and a list digest alike, as they would after a JSON round trip
    through the service.
    """
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def reports_digest(report_dicts: typing.Sequence[object]) -> str:
    """Digest of one run's per-rank ``OverlapReport.to_dict()`` list."""
    return digest(list(report_dicts))


class OpenLoop:
    """Fixed-rate open-loop schedule and lateness accounting.

    Operation ``i`` is due at ``start + i / rate`` whatever happened to
    earlier ones.  :meth:`record_send` notes when it was really sent; a
    latency is measured from the due time, so a stall in the generator or
    the system charges every operation it delays.
    """

    def __init__(self, rate: float, start: float) -> None:
        if rate <= 0 or not math.isfinite(rate):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = rate
        self.start = start
        self.late: list[float] = []

    def due(self, i: int) -> float:
        return self.start + i / self.rate

    def record_send(self, i: int, sent: float) -> float:
        """Lateness of operation ``i`` sent at ``sent`` (never negative)."""
        late = max(0.0, sent - self.due(i))
        self.late.append(late)
        return late

    def latency(self, i: int, completed: float) -> float:
        """Due-to-completion time of operation ``i``."""
        return completed - self.due(i)

    @property
    def late_max(self) -> float:
        return max(self.late, default=0.0)


def calibrate() -> float:
    """Seconds one run of a fixed pure-Python integer loop takes now.

    The loop touches no memory beyond a few small ints, so nothing the
    measured program does can change its cost; only the host's speed can.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_factor(calibrations: typing.Sequence[float]) -> float:
    """Factor that turns a host time into reference-host time.

    It is the reference calibration time over the median of
    ``calibrations``: 0.8 when the host runs the loop 25% slower than the
    reference host.  A shared host's speed drifts by tens of per cent over
    minutes, and the simulator's pure-Python work slows with it; a time
    multiplied by this factor keeps the program's cost and drops most of
    the drift.
    """
    if not calibrations:
        raise ValueError("speed_factor() of no calibrations")
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)
