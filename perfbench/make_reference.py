"""Record the correctness gate's reference digests in ``reference.json``.

Run from the repository root after a change that is *meant* to alter
simulation results::

    python3 perfbench/make_reference.py

It runs every ``nas_grid`` cell and the single-process (channel delivery)
halo referee once, and stores a SHA-256 digest of each run's per-rank
``OverlapReport.to_dict()`` list.  For ``service_mix`` it stores a digest
of the row ``repro.tools.nas._run_cell`` returns for each service cell.
The benchmark itself never re-runs the referees: sharded, observed and
served runs must reproduce these digests.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    HALO_ARGS,
    HALO_RANKS,
    REFERENCE_PATH,
    SERVICE_SPECS,
    cell_label,
    nas_cells,
    run_digest,
    run_halo,
    run_nas_cell,
    service_label,
    service_row_digest,
)


def main() -> int:
    grid = {}
    for cell in nas_cells():
        result, _ = run_nas_cell(cell)
        grid[cell_label(cell)] = run_digest(result.reports)
    halo = run_halo(HALO_RANKS, None, HALO_ARGS)
    service = {service_label(c): service_row_digest(c) for c in SERVICE_SPECS}
    reference = {
        "nas_grid": grid,
        "halo_shards": run_digest(halo.reports),
        "service_mix": service,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(grid)} grid digests, the halo digest and "
          f"{len(service)} service digests to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
