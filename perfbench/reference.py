"""Compute a workload's instance pool and reference outcomes.

    python3 perfbench/reference.py --workload wsr-k4

Solves every pool network with the workload's solver settings (iteration
limit raised to 10^6) and writes ``perfbench/pools/<workload>.json``.  The stored
status and value are the reference the benchmark's correctness gate checks
against, and the stored iteration counts define the cost strata.  Run it
only on the reference code: regenerating a pool with changed solver code
would move the reference with the code under test.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mmopt import solve  # noqa: E402

from workloads import POOL_DIR, WORKLOADS, make_network, make_problem, screen  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    config = dataclasses.replace(w.config, max_iterations=10**6)
    entries = []
    seed = -1
    while len(entries) < w.pool_size:
        seed += 1
        net = make_network(w, seed)
        if not screen(w, net):
            continue
        solves = []
        for rep in w.representations:
            t0 = time.perf_counter()
            res = solve(make_problem(w, net, rep), config)
            solves.append(
                {
                    "representation": rep,
                    "status": res.status,
                    "value": res.value,
                    "iterations": res.iterations,
                    "peak_regions": res.peak_region_count,
                    "wall_s": round(time.perf_counter() - t0, 4),
                }
            )
        entries.append({"seed": seed, "solves": solves})
        print(seed, solves, file=sys.stderr, flush=True)
    POOL_DIR.mkdir(exist_ok=True)
    doc = {"workload": w.name, "generator_seeds_tried": seed + 1, "entries": entries}
    with open(POOL_DIR / f"{w.name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
