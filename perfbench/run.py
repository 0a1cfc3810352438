"""mmopt benchmark: seeded branch-reduce-and-bound workloads, one solve at a time.

    python3 perfbench/run.py --workload wsr-k4 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass over
the same instances and reports the per-layer metrics.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full run record is written under
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One caller, no extra threads: pin every BLAS pool before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# Set-up is repeated until this much time is spent (and at least 3 times);
# the median is reported.  A window of 1 s reads up to 40% apart from one
# second to the next on a shared host; 5 s windows agree within a few percent.
SETUP_MIN_SECONDS = 5.0


@dataclass
class Solve:
    label: str
    status: str
    iterations: int
    peak_regions: int
    value: float | None
    seconds: float
    error: str | None

    def counts(self):
        return [self.label, self.status, self.iterations, self.peak_regions]


def die(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_pass(instances, check) -> list[Solve]:
    """Solve every instance once; time only the solve calls."""
    import mmopt.solver

    out = []
    for inst in instances:
        t0 = time.perf_counter()
        try:
            res = mmopt.solver.solve(inst.problem, inst.config)
        except Exception as exc:  # a failed solve is recorded, not fatal
            seconds = time.perf_counter() - t0
            out.append(
                Solve(inst.label, "exception", 0, 0, None, seconds, f"{type(exc).__name__}: {exc}")
            )
            continue
        seconds = time.perf_counter() - t0
        out.append(
            Solve(
                inst.label,
                res.status,
                res.iterations,
                res.peak_region_count,
                res.value,
                seconds,
                check(inst, res),
            )
        )
    return out


def pass_seconds(solves: list[Solve]) -> float:
    return sum(s.seconds for s in solves)


def latency_summary(solves: list[Solve]) -> dict:
    """Median solve time and the highest of p75/p90/p95/p99 with >= 10 solves beyond it."""
    ms = sorted(1e3 * s.seconds for s in solves)
    out = {"solves": len(ms), "p50_ms": statistics.median(ms)}
    for p in (99, 95, 90, 75):
        if len(ms) * (100 - p) >= 1000:
            out[f"p{p}_ms"] = statistics.quantiles(ms, n=100)[p - 1]
            break
    return out


def code_sha256() -> str:
    """Hash of the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(SRC.joinpath("mmopt").rglob("*.py")) + sorted(HERE.rglob("*.py"))
    files += sorted(HERE.joinpath("pools").glob("*.json"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def self_check_counts(key: str, solves: list[Solve], trace_calls: dict | None) -> list[str]:
    """Compare exact counts with an earlier run of the same code and seed, if any.

    The first run of a code version and seed records its counts under
    ``.perfbench/counts``; later runs must reproduce them exactly.
    """
    path = STATE / "counts" / f"{key}.json"
    counts = [s.counts() for s in solves]
    errors = []
    try:
        stored = json.loads(path.read_text())
    except FileNotFoundError:
        stored = {}
    if "solves" in stored and stored["solves"] != counts:
        errors.append(f"iterations or peak regions differ from an earlier run ({path})")
    if trace_calls is not None and "trace_calls" in stored and stored["trace_calls"] != trace_calls:
        errors.append(f"traced call counts differ from an earlier run ({path})")
    stored.setdefault("solves", counts)
    if trace_calls is not None:
        stored.setdefault("trace_calls", trace_calls)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored) + "\n")
    return errors


def timed_setup(w, entries, build):
    """Median seconds of repeated set-ups, and how many were made."""
    samples = []
    while len(samples) < 3 or sum(samples) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        build(w, entries)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mmopt benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mmopt" / "__init__.py").is_file():
        die(f"no package sources at {SRC / 'mmopt'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mmopt

    if not Path(mmopt.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported mmopt from {mmopt.__file__}, not from {SRC}")
    import numpy as np

    from workloads import WORKLOADS, build, check, draw_entries, load_pool

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    try:
        pool = load_pool(w)
    except (OSError, ValueError, KeyError) as exc:
        die(f"cannot load the instance pool: {exc}")
    entries = draw_entries(w, pool, args.seed)
    code_hash = code_sha256()
    count_key = f"{w.name}-seed{args.seed}-{code_hash[:16]}"
    errors: list[str] = []

    # Untimed set-up without the ALOHA grid screen, so that the screen's
    # grids do not set the peak memory; the timed set-ups below screen.
    instances = build(w, entries, screened=False)

    if args.trace:
        from tracing import Tracer, layer_metrics, span_rows

        passes = [run_pass(instances, check)]
        tracer = Tracer()
        tracer.install()
        try:
            traced_instances = build(w, entries)
            setup_table = dict(tracer.table)
            tracer.reset()
            traced = run_pass(traced_instances, check)
        finally:
            tracer.uninstall()
        if [s.counts() for s in traced] != [s.counts() for s in passes[0]]:
            errors.append("the traced pass took other iterations than the untraced pass")
        trace_calls = {f"{p}>{n}": row[0] for (p, n), row in sorted(tracer.table.items())}
        trace_calls.update(sorted(tracer.outcomes.items()))
        errors += self_check_counts(count_key, passes[0], trace_calls)
        all_solves = passes[0] + traced
        wall = pass_seconds(passes[0])
        iterations = sum(s.iterations for s in passes[0])
        metrics = {
            "solver.us_per_iter": (1e6 * wall / iterations if iterations else 0.0, "us"),
            "trace.overhead": (pass_seconds(traced) / wall - 1.0, "ratio"),
        }
        metrics.update(layer_metrics(tracer, iterations, setup_table))
        STATE.mkdir(exist_ok=True)
        spans = {"setup": span_rows(setup_table), "pass": span_rows(tracer.table)}
        (STATE / f"spans-{w.name}-seed{args.seed}.json").write_text(json.dumps(spans, indent=1))
        record_extra = {"traced_pass_s": pass_seconds(traced)}
    else:
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(instances, check))
            elapsed = time.perf_counter() - t_start
            if elapsed + pass_seconds(passes[-1]) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for p in passes[1:]:
            if [s.counts() for s in p] != [s.counts() for s in passes[0]]:
                errors.append("iterations or peak regions differ between passes")
                break
        errors += self_check_counts(count_key, passes[0], None)
        setup_s, setup_repeats = timed_setup(w, entries, build)
        all_solves = [s for p in passes for s in p]
        metrics = {
            "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "iterations": (sum(s.iterations for s in passes[0]), "count"),
            "peak_regions": (max(s.peak_regions for s in passes[0]), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record_extra = {"setup_repeats": setup_repeats}

    failures = [s for s in all_solves if s.error is not None]
    for s in failures:
        print(f"perfbench: FAILED {s.label}: {s.error}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: ERROR {e}", file=sys.stderr)
    fail_rate = len(failures) / len(all_solves)

    record = {
        "workload": w.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "code_sha256": code_hash,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
        "pool_seeds": [e["seed"] for e in entries],
        "pass_seconds": [pass_seconds(p) for p in passes],
        "solve_latency": latency_summary(passes[0]),
        "fail_rate": fail_rate,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "solves": [asdict(s) for s in all_solves],
        **record_extra,
    }
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    lat = record["solve_latency"]
    tail = "".join(f", {k[:-3]} {v:.1f} ms" for k, v in lat.items() if k.startswith("p") and k != "p50_ms")
    print(
        f"{w.name} seed {args.seed} trace {args.trace}: {len(passes)} untraced pass(es), "
        f"{len(all_solves)} solves attempted, {len(failures)} failed"
    )
    print(f"  per solve: p50 {lat['p50_ms']:.1f} ms{tail} over {lat['solves']} solves")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_rate':32s} {fail_rate:14.6g} ratio")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures and not errors,
                "attempted": len(all_solves),
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
