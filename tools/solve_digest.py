"""Digest of every benchmark pool solve, for checking that a change is bit-identical.

    PYTHONPATH=<tree>/src python3 tools/solve_digest.py

Solves every network of each workload's pool that a benchmark draw can pick
(those within ``max_ref_iterations``), with the workload's problem and
solver configuration from ``perfbench/workloads.py``, and prints one line
per workload: the number of solves, a SHA-256 over each solve's (label,
status, iterations, peak boxes, ``repr(value)``, incumbent bytes,
``astuple(stats)``) and the bytes of its per-iteration trace CSV
(``k,box_id,upper_bound,gamma,queue_size``, written to a temporary
directory), so the digest also pins the pop order and the box ids; then the
number of solves that fail ``workloads.check`` and the status counts.  Run
it on two trees and compare the digests.  Exits 1 when any solve fails its
check.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from mmopt.solver import solve  # noqa: E402


def digest(w: workloads.Workload) -> tuple[int, str, int, Counter]:
    cap = w.max_ref_iterations
    entries = [e for e in workloads.load_pool(w) if cap is None or workloads._ref_cost(e) <= cap]
    # every pool entry passes the ALOHA screen; skipping it saves its grids
    instances = workloads.build(w, entries, screened=False)
    sha = hashlib.sha256()
    failed = 0
    statuses = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for inst in instances:
            res = solve(inst.problem, replace(inst.config, trace_path=str(trace_path)))
            incumbent = None if res.incumbent is None else np.asarray(res.incumbent).tobytes()
            record = (
                inst.label,
                res.status,
                res.iterations,
                res.peak_region_count,
                repr(res.value),
                incumbent,
                astuple(res.stats),
            )
            sha.update(repr(record).encode())
            sha.update(trace_path.read_bytes())
            failed += workloads.check(inst, res) is not None
            statuses[res.status] += 1
    return len(instances), sha.hexdigest(), failed, statuses


def main() -> int:
    any_failed = False
    for name, w in workloads.WORKLOADS.items():
        solves, sha, failed, statuses = digest(w)
        counts = " ".join(f"{s}={n}" for s, n in sorted(statuses.items()))
        print(f"{name} solves={solves} sha256={sha} failed={failed} {counts}", flush=True)
        any_failed |= failed > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
