"""Self-tests of the benchmark's own helpers (no simulation runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.join(os.sep, "checkout", "src", "repro")


# -- tail percentile rule ----------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    t = stats.tail(samples)
    assert t.value == 89.0
    assert sum(1 for s in samples if s > t.value) == 10
    assert t.percentile == 90.0 and t.samples == 100


def test_tail_is_order_independent_and_counts_failures_as_misses():
    samples = [5.0] * 30 + [math.inf] * 10 + [1.0] * 60
    t = stats.tail(list(reversed(samples)))
    # Ten failures lie beyond the tail, so it is the slowest success.
    assert t.value == 5.0


def test_tail_with_too_few_samples_is_the_maximum():
    t = stats.tail([3.0, 1.0, 2.0])
    assert t == stats.Tail(3.0, 100.0, 3)
    t = stats.tail([float(i) for i in range(11)])
    assert t.value == 0.0 and t.samples == 11


# -- frame-to-layer mapping --------------------------------------------------
def test_layer_of_path_splits_sim_parallel_and_remote():
    cases = {
        "sim/engine.py": "sim",
        "sim/parallel.py": "sim.parallel",
        "sim/remote.py": "sim.remote",
        "core/monitor.py": "core",
        "mpisim/protocols/rendezvous.py": "mpisim",
        "telemetry/windows.py": "telemetry",
        "faults/plan.py": "other",
        "__init__.py": "other",
    }
    for rel, layer in cases.items():
        assert layers.layer_of_path(os.path.join(ROOT, rel), ROOT) == layer
    assert layers.layer_of_path("/usr/lib/python3/heapq.py", ROOT) is None
    assert layers.layer_of_path(ROOT + "_extra/x.py", ROOT) is None


def _frame_in(path: str, name: str, inner: "types.FunctionType | None" = None):
    """A live frame of function ``name`` compiled as if from ``path``."""
    src = (f"def {name}(inner):\n"
           f"    return inner() if inner else sys._getframe()\n")
    ns: dict = {"sys": sys}
    exec(compile(src, path, "exec"), ns)
    return ns[name](inner)


def test_classify_charges_stdlib_helpers_to_the_calling_layer():
    sampler = layers.LayerSampler(ROOT)
    helper = lambda: _frame_in("/usr/lib/python3/heapq.py", "heappush")  # noqa: E731
    frame = _frame_in(os.path.join(ROOT, "core", "processor.py"), "feed",
                      helper)
    assert sampler.classify(frame) == "core"
    # A stack with no repro frame at all is the benchmark's own: "other".
    assert sampler.classify(_frame_in("/x/run.py", "main")) == "other"


def test_classify_treats_blocking_waits_as_idle():
    sampler = layers.LayerSampler(ROOT)
    helper = lambda: _frame_in("/usr/lib/python3/threading.py", "wait")  # noqa: E731
    frame = _frame_in(os.path.join(ROOT, "sim", "parallel.py"), "fence",
                      helper)
    assert sampler.classify(frame) is None


def test_sampler_accounts_a_busy_thread_wall_time():
    import time

    with layers.LayerSampler(ROOT) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    total = sum(sampler.seconds.values())
    assert sampler.samples > 0
    assert sampler.seconds["other"] == total
    assert 0.05 < total <= 0.2


# -- digest gate -------------------------------------------------------------
def _report(rank: int) -> dict:
    return {"rank": rank, "label": "lu.A.4", "wall_time": 0.125 + rank,
            "event_count": 100 + rank,
            "total": {"min_overlap": 0.1, "max_overlap": 0.30000000000000004},
            "call_stats": {"MPI_Send": (4, 0.002)}}


def test_digest_rejects_one_perturbed_field():
    reports = [_report(r) for r in range(4)]
    ref = stats.reports_digest(reports)
    bumped = json.loads(json.dumps(reports))
    bumped[2]["total"]["max_overlap"] = math.nextafter(
        bumped[2]["total"]["max_overlap"], 1.0)
    assert stats.reports_digest(bumped) != ref
    renamed = json.loads(json.dumps(reports))
    renamed[3]["label"] = "lu.A.8"
    assert stats.reports_digest(renamed) != ref


def test_digest_survives_a_json_round_trip():
    reports = [_report(r) for r in range(4)]
    assert (stats.reports_digest(json.loads(json.dumps(reports)))
            == stats.reports_digest(reports))


# -- open-loop lateness ------------------------------------------------------
def test_open_loop_charges_lateness_from_the_due_time():
    loop = stats.OpenLoop(rate=10.0, start=100.0)
    assert loop.due(3) == 100.3
    assert loop.record_send(0, 99.9) == 0.0  # early sends are not late
    assert math.isclose(loop.record_send(3, 100.35), 0.05)
    assert math.isclose(loop.record_send(4, 100.52), 0.12)
    assert math.isclose(loop.late_max, 0.12)
    # A stalled send still counts its latency from when it was due.
    assert math.isclose(loop.latency(4, 100.60), 0.2)


def test_open_loop_rejects_bad_rates():
    for rate in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            stats.OpenLoop(rate, 0.0)


# -- host-speed scaling -----------------------------------------------------
def test_speed_factor_maps_host_time_to_reference_time():
    ref = stats.REFERENCE_CALIBRATION_S
    assert stats.speed_factor([ref] * 3) == 1.0
    # A host 25% slower at the loop gives a factor 0.8; one outlier
    # calibration does not move the median.
    assert math.isclose(stats.speed_factor([1.25 * ref] * 4 + [9 * ref]), 0.8)
    with pytest.raises(ValueError):
        stats.speed_factor([])
    assert stats.calibrate() > 0


def test_each_operation_takes_the_speed_of_its_nearest_calibrations():
    import run
    import workloads

    ref = stats.REFERENCE_CALIBRATION_S
    # Six cells; the host halves its speed before the fourth (calibration 3).
    cal = [ref] * 3 + [2 * ref] * 4
    p = workloads.PassResult(6.0, [1.0] * 6, 6, 0, calibrations=cal)
    speeds = run.latency_speeds(p)
    assert speeds[:2] == [1.0, 1.0] and speeds[3:] == [0.5] * 3
    assert math.isclose(run.scaled_wall(p), sum(speeds))
    # Without calibrations between operations the pass's factor applies.
    q = workloads.PassResult(2.0, [1.0, 1.0], 2, 0, speed=0.8)
    assert run.latency_speeds(q) == [0.8, 0.8]
    assert math.isclose(run.scaled_wall(q), 1.6)


# -- BENCHMARK.json agrees with the command ----------------------------------
def test_benchmark_json_names_match_the_command():
    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_catalogue())


def test_untraced_runs_never_load_the_sampler():
    import subprocess

    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run, workloads\n"
        "p = workloads.PassResult(1.0, [0.5] * 12, 12, 0)\n"
        "run.end_to_end_metrics(([0.1, 0.2, 0.3], [1.0] * 3), [p, p])\n"
        "print('layers' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, HERE],
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False", out.stderr
