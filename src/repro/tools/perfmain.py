"""CLI: build the a-priori transfer-time table (simulated ``perf_main``).

Example::

    python -m repro.tools.perfmain --out xfer_table.tsv
    python -m repro.tools.perfmain --latency-us 4 --bandwidth-mbs 900 \\
        --min-size 64 --max-size 4194304 --out fast_fabric.tsv

``--compare`` turns the tool into the network fast path's referee: it
runs one NAS workload under both ``network_path`` settings and prints a
per-measure equality report (reports, telemetry windows, deterministic
metrics), so users can verify the macro-event fast path on their own
workload before trusting its numbers::

    python -m repro.tools.perfmain --compare fast --benchmark lu \\
        --klass S --np 4
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.experiments.micro import build_xfer_table
from repro.netsim.params import NetworkParams


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.perfmain",
        description="Measure one-way transfer times on the simulated fabric "
        "and write the table the instrumented library loads at init.",
    )
    parser.add_argument("--out", default=None,
                        help="output table path (TSV); required unless "
                        "--compare is given")
    parser.add_argument("--compare", choices=("fast", "packet"), default=None,
                        help="instead of writing a table, run the given NAS "
                        "workload under BOTH network paths and print a "
                        "per-measure equality report (the argument picks "
                        "which side's wall-clock is quoted)")
    parser.add_argument("--benchmark", choices=("lu", "cg", "sp"),
                        default="lu", help="--compare workload kernel")
    parser.add_argument("--klass", default="S", help="--compare NAS class")
    parser.add_argument("--np", dest="nprocs", type=int, default=4,
                        help="--compare rank count")
    parser.add_argument("--niter", type=int, default=1,
                        help="--compare iteration count")
    parser.add_argument("--latency-us", type=float, default=None,
                        help="fabric latency in microseconds")
    parser.add_argument("--bandwidth-mbs", type=float, default=None,
                        help="fabric bandwidth in MB/s")
    parser.add_argument("--min-size", type=float, default=1.0,
                        help="smallest message size in bytes")
    parser.add_argument("--max-size", type=float, default=8 * 1024 * 1024,
                        help="largest message size in bytes")
    parser.add_argument("--reps", type=int, default=4,
                        help="ping-pong repetitions per size")
    parser.add_argument("--shards", type=int, default=None,
                        help="with --compare: referee the sharded "
                        "parallel-DES engine instead -- run the workload "
                        "once single-process and once with this many "
                        "shards (channel delivery on both sides) and "
                        "print the per-measure equality report")
    return parser


def _compare(args: argparse.Namespace) -> int:
    """Run one workload under both network paths; print the equality report."""
    import time

    from repro.netsim.differential import compare_runs, run_both

    if args.benchmark == "lu":
        from repro.nas.lu import lu_app as app
        app_args: tuple = (args.klass, args.niter, None, None)
    elif args.benchmark == "cg":
        from repro.nas.cg import cg_app as app
        app_args = (args.klass, args.niter, None)
    else:
        from repro.nas.sp import sp_app as app
        app_args = (args.klass, args.niter, None, False)

    host: dict[str, float] = {}
    t0 = time.perf_counter()
    if args.shards is not None:
        from repro.netsim.differential import compare_sharded, run_sharded_pair

        fast, packet = run_sharded_pair(
            app, args.nprocs, args.shards, app_args=app_args,
            label=f"{args.benchmark}.{args.klass}.{args.nprocs}",
        )
        host["both"] = time.perf_counter() - t0
        deltas = compare_sharded(fast, packet)
        sides = ("single", "sharded")
        axis = f"single vs {args.shards} shards"
        fail_hint = ("the sharded engine is NOT safe on this workload; run "
                     "without --shards and report a bug")
        ok_line = ("OK: the sharded engine is bit-identical on this "
                   "workload")
    else:
        fast, packet, mfast, mpacket = run_both(
            app, args.nprocs, app_args=app_args,
            label=f"{args.benchmark}.{args.klass}.{args.nprocs}",
        )
        host["both"] = time.perf_counter() - t0
        deltas = compare_runs(fast, packet, mfast, mpacket)
        sides = ("fast", "packet")
        axis = "fast vs packet"
        fail_hint = ("the fast path is NOT safe on this workload; run with "
                     "network_path='packet' and report a bug")
        ok_line = ("OK: the fast path is observationally identical on this "
                   "workload")
    unequal = [d for d in deltas if not d.equal]

    width = max(len(d.measure) for d in deltas)
    print(f"differential: {args.benchmark}.{args.klass} np={args.nprocs} "
          f"niter={args.niter} ({axis}, "
          f"{host['both']:.2f} s host)")
    for d in deltas:
        mark = "==" if d.equal else "!="
        print(f"  {d.measure:<{width}}  {mark}")
        if not d.equal:
            print(f"    {sides[0]}: {d.fast!r}")
            print(f"    {sides[1]}: {d.packet!r}")
    n_eq = len(deltas) - len(unequal)
    print(f"{n_eq}/{len(deltas)} measures bit-identical", end="")
    ref = packet if (args.shards is not None or args.compare == "packet") \
        else fast
    which = sides[1] if (args.shards is not None
                         or args.compare == "packet") else sides[0]
    print(f"; {which} side simulated {ref.elapsed * 1e3:.2f} ms")
    if unequal:
        print(f"FAIL: {len(unequal)} measure(s) differ -- {fail_hint}")
        return 1
    print(ok_line)
    return 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.compare is not None:
        return _compare(args)
    if args.out is None:
        print("error: --out is required (unless --compare is given)",
              file=sys.stderr)
        return 2
    if args.min_size <= 0 or args.max_size < args.min_size:
        print("error: need 0 < --min-size <= --max-size", file=sys.stderr)
        return 2
    overrides = {}
    if args.latency_us is not None:
        overrides["latency"] = args.latency_us * 1e-6
    if args.bandwidth_mbs is not None:
        overrides["bandwidth"] = args.bandwidth_mbs * 1e6
    params = NetworkParams(**overrides)

    sizes = []
    size = args.min_size
    while size <= args.max_size:
        sizes.append(size)
        size *= 2
    table = build_xfer_table(params, sizes=sizes, path=args.out, reps=args.reps)
    print(f"wrote {table.sizes.size} points to {args.out}")
    for s in (1024.0, 65536.0, 1048576.0):
        if args.min_size <= s <= args.max_size:
            print(f"  {int(s):>8} B -> {table.time_for(s) * 1e6:9.2f} us "
                  f"({table.bandwidth_for(s) / 1e6:7.1f} MB/s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
