"""Digests of every benchmark pool solve and of fixed energy-efficiency solves,
for checking that a change is bit-identical.

    PYTHONPATH=<tree>/src python3 tools/solve_digest.py [LINE ...]

Solves every network of each workload's pool that a benchmark draw can pick
(those within ``max_ref_iterations``), with the workload's problem and
solver configuration from ``perfbench/workloads.py``, and prints one line
per workload: the number of solves, a SHA-256 over each solve's (label,
status, iterations, peak boxes, ``repr(value)``, incumbent bytes,
``astuple(stats)``) and the bytes of its per-iteration trace CSV
(``k,box_id,upper_bound,gamma,queue_size``, written to a temporary
directory), so the digest also pins the pop order and the box ids; then the
number of solves that fail ``workloads.check`` and the status counts.

Two more lines, ``energy`` and ``energy-floors``, hash the same record of
GEE, WSEE and WMEE solves on ``generate_channels(K, s)`` for K = 2, 3 and
s = 0-3, and of ``dinkelbach_gee`` at K = 2, without floors and with
``r_min`` = 0.3 for every user (eta 0.01, at most 20,000 iterations per
solve, so a capped solve is hashed with its ``iteration-limit`` result).  A
Dinkelbach record leaves out ``stats``, its sums over the auxiliary solves,
and hashes the trace of its last auxiliary solve; an ``InnerSolveFailed``
is hashed by its message and counted as ``inner-solve-failed``.  Run it on
two trees and compare the digests.  Exits 1 when any workload solve fails
its check.

Name lines (a workload, ``energy`` or ``energy-floors``) to print only
those, in the order above: ``tools/solve_digest.py wsr-k4`` checks a change
to the solver loop in a third of the time of all five lines.  An unknown
name exits 2.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from collections import Counter
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from mmopt.core import SolverConfig  # noqa: E402
from mmopt.errors import InnerSolveFailed  # noqa: E402
from mmopt.problems import (  # noqa: E402
    EnergyModel,
    dinkelbach_gee,
    gee_problem,
    generate_channels,
    wmee_problem,
    wsee_problem,
)
from mmopt.solver import solve  # noqa: E402


def record(label: str, res, with_stats: bool = True) -> tuple:
    incumbent = None if res.incumbent is None else np.asarray(res.incumbent).tobytes()
    fields = (res.status, res.iterations, res.peak_region_count, repr(res.value), incumbent)
    return (label, *fields, astuple(res.stats)) if with_stats else (label, *fields)


def digest(w: workloads.Workload) -> tuple[int, str, int, Counter]:
    cap = w.max_ref_iterations
    entries = [e for e in workloads.load_pool(w) if cap is None or workloads._ref_cost(e) <= cap]
    # every pool entry passes the ALOHA screen (a tier-1 test checks the pool)
    instances = workloads.build(w, entries, screened=False)
    sha = hashlib.sha256()
    failed = 0
    statuses = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for inst in instances:
            res = solve(inst.problem, replace(inst.config, trace_path=str(trace_path)))
            sha.update(repr(record(inst.label, res)).encode())
            sha.update(trace_path.read_bytes())
            failed += workloads.check(inst, res) is not None
            statuses[res.status] += 1
    return len(instances), sha.hexdigest(), failed, statuses


# the solver configuration of every energy-efficiency solve
ENERGY_CONFIG = SolverConfig(eta=0.01, max_iterations=20_000)


def energy_runs(r_min: float):
    """(label, run, keep stats) per energy-efficiency solve, where
    ``run(config)`` returns the result (``tools/ab_solve.py`` reads this too)."""
    for k in (2, 3):
        for seed in range(4):
            net = replace(generate_channels(k, seed), r_min=np.full(k, r_min))
            scalar = EnergyModel(phi=np.full(k, 5.0), p_circuit=1.0)
            vector = EnergyModel(phi=np.full(k, 5.0), p_circuit=np.ones(k))
            for name, problem in (
                ("gee", gee_problem(net, scalar)),
                ("wsee", wsee_problem(net, vector)),
                ("wmee", wmee_problem(net, vector)),
            ):
                yield f"{name}-k{k}-s{seed}", partial(solve, problem), True
            if k == 2:
                yield f"dinkelbach-k{k}-s{seed}", partial(dinkelbach_gee, net, scalar), False


def energy_digest(r_min: float) -> tuple[int, str, Counter]:
    sha = hashlib.sha256()
    statuses = Counter()
    solves = 0
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        config = replace(ENERGY_CONFIG, trace_path=str(trace_path))
        for label, run, with_stats in energy_runs(r_min):
            solves += 1
            try:
                res = run(config)
            except InnerSolveFailed as exc:
                sha.update(repr((label, str(exc))).encode())
                statuses["inner-solve-failed"] += 1
                continue
            sha.update(repr(record(label, res, with_stats)).encode())
            sha.update(trace_path.read_bytes())
            statuses[res.status] += 1
    return solves, sha.hexdigest(), statuses


def counts(statuses: Counter) -> str:
    return " ".join(f"{s}={n}" for s, n in sorted(statuses.items()))


ENERGY_LINES = {"energy": 0.0, "energy-floors": 0.3}  # line name -> r_min


def main(argv: list[str]) -> int:
    names = [*workloads.WORKLOADS, *ENERGY_LINES]
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown line {unknown[0]!r}; choose from {', '.join(names)}", file=sys.stderr)
        return 2
    wanted = set(argv or names)
    any_failed = False
    for name, w in workloads.WORKLOADS.items():
        if name not in wanted:
            continue
        solves, sha, failed, statuses = digest(w)
        print(f"{name} solves={solves} sha256={sha} failed={failed} {counts(statuses)}", flush=True)
        any_failed |= failed > 0
    for name, r_min in ENERGY_LINES.items():
        if name not in wanted:
            continue
        solves, sha, statuses = energy_digest(r_min)
        print(f"{name} solves={solves} sha256={sha} {counts(statuses)}", flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
