"""Wall-time benchmark of the repro stack: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload nas_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation of
the benchmark's own loaded; ``--trace 1`` alternates untraced and sampled
passes and reports the per-layer metrics plus the sampler's overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record with
provenance goes to ``.perfbench_out/`` under the repository root.  Any
output that differs from its reference makes the command exit 1.
Times of the CPU-bound workloads are scaled to a reference host's speed
by calibration loops around them, so the host's drift drops out.

See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from stats import calibrate, speed_factor, tail  # noqa: E402

#: Child processes timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Calibration loops run between two passes or two set-up probes.
CALIBRATIONS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
}


def _self_time_metrics() -> "dict[str, str]":
    from layers import LAYERS

    return {f"{layer}.self_s": "s" for layer in LAYERS}


PER_LAYER_COUNTS = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "core.events": "count",
    "core.us_per_event": "us",
    "mpisim.calls": "count",
    "tracing.spans": "count",
    "telemetry.windows": "count",
    "observe.export_s": "s",
    "parallel.rounds": "count",
    "parallel.messages": "count",
    "parallel.shard_busy_max_s": "s",
    "parallel.shard_busy_mean_s": "s",
    "parallel.coord_cpu_s": "s",
    "parallel.coord_wait_s": "s",
    "parallel.wait_per_round_us": "us",
    "parallel.ipc_bytes": "B",
    "parallel.workers_cpu_s": "s",
    "service.submit_p50_ms": "ms",
    "service.submit_tail_ms": "ms",
    "service.hot_ratio": "ratio",
    "service.queue_wait_p50_ms": "ms",
    "service.exec_p50_s": "s",
    "service.executed": "count",
    "service.rejected": "count",
    "service.retries": "count",
    "loadgen.late_max_ms": "ms",
    "failed_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "trace.sampler_cpu_s": "s",
    "trace.samples": "count",
}


def per_layer_catalogue() -> "dict[str, str]":
    return {**_self_time_metrics(), **PER_LAYER_COUNTS}


# ---------------------------------------------------------------------------
# Provenance and resources
# ---------------------------------------------------------------------------
def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ---------------------------------------------------------------------------
# Set-up timing (child processes, timed from outside)
# ---------------------------------------------------------------------------
def _calibrations() -> "list[float]":
    return [calibrate() for _ in range(CALIBRATIONS)]


def measure_setup(workload: str, scratch: str) -> "tuple[list[float], list[float]]":
    """Host seconds of each set-up probe, and the speed factor around each."""
    times = []
    speeds = []
    before = _calibrations()
    for rep in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               workload, "--scratch", os.path.join(scratch, f"probe-{rep}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed:\n"
                               f"{proc.stderr[-2000:]}")
        times.append(elapsed)
        after = _calibrations()
        speeds.append(speed_factor(before + after))
        before = after
    return times, speeds


def setup_probe(workload: str, scratch: str) -> int:
    from workloads import make_workload

    os.makedirs(scratch, exist_ok=True)
    try:
        make_workload(workload, scratch).probe()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# The measured run
# ---------------------------------------------------------------------------
def run_passes(wl: typing.Any, rng: random.Random, seconds: float,
               trace: bool) -> "tuple[list, list, list]":
    """A fixed number of timed passes: ``seconds`` at the nominal pass time.

    The count depends only on ``seconds`` and the workload, so two
    commits measured with the same ``--seconds`` do the same work, and a
    tail percentile lands on the same rank.  Traced runs alternate
    untraced and sampled passes, so the sampler's overhead is measured on
    the same run.  Calibration loops before and after each pass set its
    ``speed``.  Returns ``(untraced, traced, samplers)``.
    """
    if trace:
        from layers import LayerSampler
    count = max(2, round(seconds / wl.nominal_pass_s))
    untraced: list = []
    traced: list = []
    samplers: list = []
    calibrations = _calibrations if wl.host_scaled else list
    before = calibrations()
    for n in range(count):
        sampled = trace and n % 2 == 1
        sampler = LayerSampler(os.path.join(SRC, "repro")) if sampled else None
        # Start every pass from the same collector state.
        gc.collect()
        res = wl.run_pass(rng, sampler)
        after = calibrations()
        if wl.host_scaled:
            res.speed = speed_factor(before + res.calibrations + after)
        before = after
        (traced if sampled else untraced).append(res)
        if sampler is not None:
            samplers.append(sampler)
    return untraced, traced, samplers


def latency_speeds(p: typing.Any) -> "list[float]":
    """Speed factor for each of a pass's latencies.

    With calibrations between operations, operation ``k`` takes the
    median of the :data:`CALIBRATIONS` nearest to it (calibration ``k``
    was taken just before it); otherwise every operation takes the pass's
    factor.
    """
    cal = p.calibrations
    if not cal:
        return [p.speed] * len(p.latencies)
    half = CALIBRATIONS // 2
    out = []
    for k in range(len(p.latencies)):
        lo = min(max(0, k - half), max(0, len(cal) - CALIBRATIONS))
        out.append(speed_factor(cal[lo:lo + CALIBRATIONS]))
    return out


def scaled_wall(p: typing.Any) -> float:
    """A pass's wall time at the reference host's speed.

    A pass that calibrates between its operations is timed as the sum of
    their times, so each operation is scaled by its own factor.
    """
    if not p.calibrations:
        return p.wall * p.speed
    return sum(x * f for x, f in zip(p.latencies, latency_speeds(p)))


def end_to_end_metrics(setup: "tuple[list[float], list[float]]",
                       passes: list) -> "tuple[dict, dict]":
    """Every time is scaled by its speed factor (1.0 on a workload whose
    passes are not host-scaled; set-up probes always are)."""
    setup_host, setup_speed = setup
    latencies_ms = [x * 1e3 * f for p in passes
                    for x, f in zip(p.latencies, latency_speeds(p))]
    job_tail = tail(latencies_ms)
    values = {
        "setup_s": statistics.median(
            [t * f for t, f in zip(setup_host, setup_speed)]),
        "wall_s": statistics.median([scaled_wall(p) for p in passes]),
        "peak_rss_mb": peak_rss_mb(),
        "job_p50_ms": statistics.median(latencies_ms),
        "job_tail_ms": job_tail.value,
    }
    host_ms = [x * 1e3 for p in passes for x in p.latencies]
    detail = {
        "setup_s_host_samples": setup_host,
        "setup_speed_factors": setup_speed,
        "wall_s_host_samples": [p.wall for p in passes],
        "speed_factors": [p.speed for p in passes],
        "host": {"setup_s": statistics.median(setup_host),
                 "wall_s": statistics.median([p.wall for p in passes]),
                 "job_p50_ms": statistics.median(host_ms),
                 "job_tail_ms": tail(host_ms).value},
        "tails": {"job_tail_ms": job_tail._asdict()},
        "job_p50_samples": len(latencies_ms),
    }
    return values, detail


def per_layer_metrics(untraced: list, traced: list, samplers: list) -> "tuple[dict, dict]":
    from layers import merged

    n = len(traced)
    self_s = {f"{k}.self_s": v / n for k, v in merged(samplers).items()}
    traced_wall = sum(p.wall for p in traced) / n
    values: "dict[str, float]" = dict.fromkeys(PER_LAYER_COUNTS, 0.0)
    values.update(self_s)
    # Counters come from the unsampled passes, so the sampler's own CPU
    # and wake-ups stay out of them; exact counts repeat on every pass.
    for key in untraced[0].counters:
        values[key] = statistics.median([p.counters[key] for p in untraced])
    sim_events = values["sim.events"]
    core_events = values["core.events"]
    values["sim.us_per_event"] = (values["sim.self_s"] / sim_events * 1e6
                                  if sim_events else 0.0)
    values["core.us_per_event"] = (values["core.self_s"] / core_events * 1e6
                                   if core_events else 0.0)
    attempted = sum(p.attempted for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)
    values["failed_ratio"] = failed / attempted
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_ratio"] = (statistics.median([p.wall for p in traced])
                                      / statistics.median([p.wall for p in untraced]))
    values["trace.accounted_ratio"] = sum(self_s.values()) / traced_wall
    values["trace.sampler_cpu_s"] = sum(s.cpu_s for s in samplers) / n
    values["trace.samples"] = sum(s.samples for s in samplers)
    detail = {
        "traced_passes": n,
        "untraced_passes": len(untraced),
        "idle_s_per_pass": sum(s.idle_s for s in samplers) / n,
        # Per-layer counters are medians over untraced passes; so is the
        # provenance of any tail among them.
        "tails": untraced[len(untraced) // 2].tails,
    }
    return values, detail


def _fmt(value: "float | None") -> str:
    if isinstance(value, float) and value != int(value):
        return f"{value:.6g}"
    return str(value)


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        return setup_probe(args.setup_probe, args.scratch)
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import make_workload

    scratch = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        # Set-up time is an end-to-end metric; traced runs report none.
        setup = ([], []) if args.trace else measure_setup(args.workload, scratch)
        wl = make_workload(args.workload, scratch)
        wl.prepare()
        rng = random.Random(args.seed)
        untraced, traced, samplers = run_passes(
            wl, rng, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    if args.trace:
        values, detail = per_layer_metrics(untraced, traced, samplers)
        units = per_layer_catalogue()
    else:
        values, detail = end_to_end_metrics(setup, untraced)
        units = END_TO_END
    # A failed operation can make a latency infinite; JSON has no inf.
    metrics = {name: {"value": values[name] if math.isfinite(values[name])
                      else None, "unit": unit}
               for name, unit in units.items()}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "passes": len(passes),
    }
    record = {"provenance": provenance, "detail": detail, "metrics": metrics,
              "errors": errors}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, m in metrics.items():
        print(f"{name:32s} {_fmt(m['value']):>16s} {m['unit']}")
    for err in errors[:20]:
        print(f"MISMATCH: {err}")
    print("provenance " + json.dumps({**provenance, **detail}, sort_keys=True))
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
