"""CLI: run NAS benchmark cells and write per-process overlap reports.

``--np`` takes a single rank count or a comma-separated grid; grid cells
are independent simulations, so they fan across a process pool
(``--jobs``) and are cached on disk by content (``.repro_cache`` by
default; see ``docs/performance.md``).

Example::

    python -m repro.tools.nas --benchmark lu --klass A --np 4 --niter 2 \\
        --report-dir out/
    python -m repro.tools.nas --benchmark sp --klass A --np 9 --modified
    python -m repro.tools.nas --benchmark mg --klass B --np 8 --nonblocking
    python -m repro.tools.nas --benchmark cg --klass A --np 4,8,16 --jobs 3
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

from repro.analysis.tables import render_size_breakdown
from repro.core.report import OverlapReport
from repro.experiments.nas_char import MPI_BENCHMARKS
from repro.experiments.runner import FailedTask, ResultCache, Task, run_tasks


def _run_cell(
    benchmark: str,
    klass: str,
    nprocs: int,
    niter: int,
    library: str,
    modified: bool,
    nonblocking: bool,
    emit_metrics: bool = False,
    faults: "str | None" = None,
    fault_seed: int = 0,
    shards: "int | None" = None,
) -> dict:
    """Worker: one (benchmark, class, np) cell; returns a plain-data payload.

    Module-level and returning only picklable values (report dicts, not
    ``RunResult`` -- that holds the live fabric) so it can cross a process
    pool and live in the result cache.  With ``emit_metrics`` the run
    carries a :class:`~repro.metrics.MetricsRegistry` and the payload
    gains the rendered OpenMetrics text plus the JSON snapshot.
    ``faults`` is a :func:`repro.faults.plan.parse_fault_spec` string;
    packet faults auto-arm the reliable transport, and every faulted run
    is guarded by a watchdog so a wedged cell terminates with a partial
    report plus diagnostic instead of hanging the sweep.
    """
    import dataclasses as _dc

    from repro.armci import ArmciConfig, run_armci_app
    from repro.mpisim.config import mvapich2_like, openmpi_like
    from repro.nas.mg import mg_app
    from repro.nas.sp import sp_app
    from repro.runtime.launcher import run_app
    from repro.tracing.span import current_tracer

    # Installed ambiently by run_tasks (never passed in the argument
    # tuple: that tuple is the content-hash cache key shared with the
    # service, and a tracer argument would invalidate every cached cell).
    tracer = current_tracer()

    registry = None
    if emit_metrics:
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()

    params = None
    watchdog = None
    plan = None
    if faults:
        from repro.faults import FaultPlan  # noqa: F401 (import check)
        from repro.faults.plan import parse_fault_spec
        from repro.faults.watchdog import WatchdogConfig
        from repro.netsim.params import NetworkParams

        plan = parse_fault_spec(faults, seed=fault_seed)
        params = NetworkParams(faults=plan)
        watchdog = WatchdogConfig(stall_sim_time=0.05, max_sim_time=60.0)

    label = f"{benchmark}.{klass}.{nprocs}"
    if benchmark == "mg":
        if shards is not None:
            raise ValueError(
                "--shards is not supported for mg: the ARMCI runtime keeps "
                "a cross-rank shared region directory that cannot be "
                "partitioned (see docs/performance.md)"
            )
        result = run_armci_app(
            mg_app, nprocs, config=ArmciConfig(), params=params, label=label,
            app_args=(klass, niter, None, not nonblocking),
            metrics=registry,
        )
    else:
        app, config_factory = MPI_BENCHMARKS[benchmark]
        if library == "openmpi":
            config = openmpi_like()
        elif library == "mvapich2":
            config = mvapich2_like()
        else:
            config = config_factory()
        if plan is not None and plan.has_packet_faults and config.resilience is None:
            # A lossy fabric without retransmission cannot complete: arm
            # the reliable transport with its defaults.
            from repro.faults.plan import ResilienceParams

            config = _dc.replace(config, resilience=ResilienceParams())
        if benchmark == "sp":
            app_args: tuple = (klass, niter, None, modified)
            app = sp_app
        elif benchmark == "lu":
            app_args = (klass, niter, None, None)
        elif benchmark == "ep":
            app_args = (klass, None, 1e-3)
        else:
            app_args = (klass, niter, None)
        if shards is not None and (registry is not None or watchdog is not None):
            raise ValueError(
                "--shards cannot be combined with --metrics-dir or --faults "
                "watchdogs: both observe one engine (see docs/performance.md)"
            )
        result = run_app(app, nprocs, config=config, params=params, label=label,
                         app_args=app_args, metrics=registry,
                         watchdog=watchdog, shards=shards, tracer=tracer)

    payload = {
        "label": label,
        "elapsed": result.elapsed,
        "reports": [
            rep.to_dict() if rep is not None else None
            for rep in result.reports
        ],
    }
    injector = getattr(result.fabric, "injector", None)
    if injector is not None:
        payload["faults"] = {
            "spec": faults,
            "seed": fault_seed,
            "packets_dropped": injector.packets_dropped,
            "packets_duplicated": injector.packets_duplicated,
            "packets_reordered": injector.packets_reordered,
        }
    diag = getattr(result, "watchdog", None)
    if diag is not None:
        payload["watchdog"] = diag.render_text()
    if registry is not None:
        from repro.metrics import render_openmetrics

        payload["openmetrics"] = render_openmetrics(registry)
        payload["metrics_snapshot"] = registry.snapshot()
    return payload


def _parse_np(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--np wants an integer or comma-separated integers, got {text!r}"
        ) from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"invalid --np grid {text!r}")
    return values


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.nas",
        description="Run a NAS benchmark on the simulated cluster with the "
        "overlap instrumentation enabled.",
    )
    parser.add_argument("--benchmark", required=True,
                        choices=sorted(MPI_BENCHMARKS) + ["mg"])
    parser.add_argument("--klass", default="A", choices=["S", "W", "A", "B"],
                        help="NPB problem class")
    parser.add_argument("--np", dest="nprocs", type=_parse_np, default=[4],
                        help="simulated rank count, or a comma-separated "
                        "grid (e.g. 4,9,16) run as independent cells")
    parser.add_argument("--niter", type=int, default=2,
                        help="iterations (scaled down from the NPB defaults)")
    parser.add_argument("--library", choices=["paper", "openmpi", "mvapich2"],
                        default="paper",
                        help="'paper' uses the pairing from the paper's Sec. 4")
    parser.add_argument("--modified", action="store_true",
                        help="SP only: apply the Iprobe overlap fix")
    parser.add_argument("--nonblocking", action="store_true",
                        help="MG only: use non-blocking ARMCI calls")
    parser.add_argument("--report-dir", default=None,
                        help="write per-process JSON reports here")
    parser.add_argument("--sizes", action="store_true",
                        help="also print the message-size breakdown")
    parser.add_argument("--rank", type=int, default=0,
                        help="which rank's report to print")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for a --np grid (1 = serial)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject fabric/instrumentation faults, e.g. "
                        "'drop=0.05,dup=0.01,reorder=0.02' or "
                        "'events=0.2,ring=256' (see repro.faults.plan); "
                        "packet faults auto-arm the reliable transport and "
                        "a watchdog")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault streams")
    parser.add_argument("--on-error", choices=["raise", "continue"],
                        default="raise",
                        help="'continue' turns a crashed/failed grid cell "
                        "into a reported failure instead of aborting the "
                        "sweep")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result "
                        "cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                        "$REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--metrics-dir", default=None,
                        help="publish live sweep status here and write one "
                        "OpenMetrics file + JSON metrics snapshot per cell "
                        "(tail with `python -m repro.tools.watch`)")
    parser.add_argument("--shards", type=int, default=None,
                        help="run each cell on the sharded parallel-DES "
                        "engine with this many worker processes (not "
                        "available for mg/ARMCI, --metrics-dir, or fault "
                        "watchdogs; reports are bit-identical to the "
                        "single-process run)")
    parser.add_argument("--trace-dir", default=None,
                        help="record host-time spans for the whole sweep "
                        "(runner, launcher, coordinator, shards) and write "
                        "one merged Perfetto trace_event JSON here; inspect "
                        "with `python -m repro.tools.explain`")
    parser.add_argument("--live", action="store_true",
                        help="render the sweep dashboard in-place on stderr "
                        "while cells run")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.shards is not None:
        if args.shards < 1:
            make_parser().error("--shards must be >= 1")
        if args.benchmark == "mg":
            make_parser().error(
                "--shards is not supported for mg: the ARMCI runtime keeps "
                "a cross-rank shared region directory that cannot be "
                "partitioned")
        if args.metrics_dir is not None or args.faults is not None:
            make_parser().error(
                "--shards cannot be combined with --metrics-dir or --faults")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None
    if args.metrics_dir or args.live:
        from repro.metrics import SweepProgress
        on_update = None
        if args.live:
            from repro.tools.watch import LiveRenderer
            on_update = LiveRenderer().update
        progress = SweepProgress(args.metrics_dir, label=f"nas.{args.benchmark}",
                                 on_update=on_update)
    tracer = None
    sp_root = None
    if args.trace_dir:
        from repro.tracing import Tracer

        tracer = Tracer(process="nas sweep")
        sp_root = tracer.begin(f"nas {args.benchmark}", "runner.root",
                               klass=args.klass, cells=len(args.nprocs),
                               jobs=args.jobs)
    tasks = [
        Task(_run_cell, (args.benchmark, args.klass, nprocs, args.niter,
                         args.library, args.modified, args.nonblocking,
                         args.metrics_dir is not None,
                         args.faults, args.fault_seed,
                         args.shards))
        for nprocs in args.nprocs
    ]
    payloads = run_tasks(tasks, jobs=args.jobs, cache=cache, progress=progress,
                         on_error=args.on_error, tracer=tracer)
    if tracer is not None:
        from repro.tracing import save_trace

        assert sp_root is not None
        sp_root.end()
        tdir = pathlib.Path(args.trace_dir)
        tdir.mkdir(parents=True, exist_ok=True)
        trace_path = tdir / f"nas.{args.benchmark}.trace.json"
        save_trace(trace_path, tracer)
        print(f"wrote span trace to {trace_path}")

    failed = 0
    for i, payload in enumerate(payloads):
        if isinstance(payload, FailedTask):
            failed += 1
            if i:
                print("\n" + "=" * 66 + "\n")
            print(f"cell {payload.name} FAILED: {payload.error}")
            continue
        reports = [
            OverlapReport.from_dict(d) if d is not None else None
            for d in payload["reports"]
        ]
        if i:
            print("\n" + "=" * 66 + "\n")
        report = reports[args.rank]
        assert report is not None
        print(report.render_text())
        if args.sizes:
            print()
            print(render_size_breakdown(report, "by message size:"))
        print(f"\njob wall time: {payload['elapsed'] * 1e3:.3f} ms (simulated)")
        if "faults" in payload:
            f = payload["faults"]
            print(f"faults ({f['spec']!r}, seed {f['seed']}): "
                  f"dropped={f['packets_dropped']} "
                  f"duplicated={f['packets_duplicated']} "
                  f"reordered={f['packets_reordered']}")
        if "watchdog" in payload:
            print(payload["watchdog"])
            print("(reports above are PARTIAL: the watchdog stopped this run)")

        if args.report_dir:
            out = pathlib.Path(args.report_dir)
            out.mkdir(parents=True, exist_ok=True)
            for rank, rep in enumerate(reports):
                if rep is not None:
                    rep.save(out / f"{payload['label']}.rank{rank}.json")
            print(f"wrote {len(reports)} reports to {out}/")

        if args.metrics_dir and "openmetrics" in payload:
            mdir = pathlib.Path(args.metrics_dir)
            mdir.mkdir(parents=True, exist_ok=True)
            om_path = mdir / f"{payload['label']}.om"
            om_path.write_text(payload["openmetrics"], encoding="utf-8")
            with open(mdir / f"{payload['label']}.metrics.json", "w",
                      encoding="utf-8") as fh:
                json.dump(payload["metrics_snapshot"], fh, indent=1)
            print(f"wrote framework metrics to {om_path}")
    if cache is not None and cache.hits:
        print(f"({cache.hits} of {len(tasks)} cells served from cache)")
    if failed:
        print(f"{failed} of {len(tasks)} cells failed")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
