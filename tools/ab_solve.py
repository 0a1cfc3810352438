"""In-process A/B timing of two trees' solvers on one benchmark workload.

    python3 tools/ab_solve.py TREE_A TREE_B --workload wsr-k4 --seed 1 --rounds 3
    python3 tools/ab_solve.py TREE_A TREE_B --workload wsr-floors-k3 --pool --semantic

Copies each tree's ``src/mmopt`` to a temporary directory under its own
package name (``mmopt_a``, ``mmopt_b``) and loads this checkout's
``perfbench/workloads.py`` once per package, so each tree builds the
workload's seeded draw and solver configuration with its own generators and
problem constructors.  Both trees then run in one process: every round
solves the draw instance by instance, each instance with both trees in
turn, tree A first in odd rounds and tree B first in even ones, timing only
the solve calls.  Set-up, memory layout and other effects of the process
fall on both trees alike, which separate benchmark processes cannot promise.

``--pool`` solves every network of the workload's pool that a draw can
pick (those within ``max_ref_iterations``, as ``tools/solve_digest.py``
does) in place of a seed's draw.

Prints each round's seconds per tree and the ratio B/A, then the medians
over the rounds and their ratio.  Exits 1 if any pair of solves differs in
status, iterations, peak boxes, ``repr(value)`` or incumbent bytes, and 2
on a bad argument.

``--semantic`` compares two trees whose solves may differ bit for bit.  Per
solve of the first round it checks that both statuses are equal, that two
values lie within the workload's eta of each other, and that each tree's
result passes ``workloads.check`` (the pool's reference status and value,
and the incumbent's box, rate floors and value by the model formulas).  It
prints a table with each solve's iterations and peak boxes side by side and
exits 1 on any failed check, not on a bitwise difference.
"""

from __future__ import annotations

import os

# One caller, no extra threads, as in perfbench/run.py: pin every BLAS pool
# before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@dataclass
class Tree:
    label: str
    path: Path
    solve: object
    instances: list
    check: object  # the tree's workloads.check


def load_workloads(package: str):
    """``perfbench/workloads.py`` loaded with the name ``mmopt`` bound to
    ``package``, which must already be imported with all its modules."""
    saved = {n: m for n, m in sys.modules.items() if n == "mmopt" or n.startswith("mmopt.")}
    for name in saved:
        del sys.modules[name]
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            sys.modules["mmopt" + name[len(package) :]] = module
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{package}", WORKLOADS_PY)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for name in [n for n in sys.modules if n == "mmopt" or n.startswith("mmopt.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    return workloads


def load_package(label: str, path: Path, tmp: Path):
    """Tree ``path``'s package copied and imported as ``mmopt_<label>``:
    its ``solve`` and the workloads module bound to it."""
    source = path / "src" / "mmopt"
    if not (source / "__init__.py").is_file():
        raise FileNotFoundError(f"no package sources at {source}")
    package = f"mmopt_{label.lower()}"
    shutil.copytree(source, tmp / package, ignore=shutil.ignore_patterns("__pycache__"))
    for module in sorted((tmp / package).glob("*.py")):
        importlib.import_module(package if module.stem == "__init__" else f"{package}.{module.stem}")
    return sys.modules[f"{package}.solver"].solve, load_workloads(package)


def draw(workloads, name: str, seed: int | None) -> list:
    """The instances of the workload's seeded draw, as ``perfbench/run.py``
    builds them, or with ``seed=None`` of every pool network a draw can pick."""
    w = workloads.WORKLOADS[name]
    pool = workloads.load_pool(w)
    if seed is None:
        cap = w.max_ref_iterations
        entries = [e for e in pool if cap is None or workloads._ref_cost(e) <= cap]
    else:
        entries = workloads.draw_entries(w, pool, seed)
    return workloads.build(w, entries, screened=False)


def record(res) -> tuple:
    incumbent = None if res.incumbent is None else res.incumbent.tobytes()
    return (res.status, res.iterations, res.peak_region_count, repr(res.value), incumbent)


def run_round(trees: list[Tree]) -> tuple[dict[str, float], list[dict]]:
    """Seconds per tree over one pass of the draw, and per instance the
    result of each tree by label."""
    seconds = {t.label: 0.0 for t in trees}
    results = []
    for i in range(len(trees[0].instances)):
        results.append({})
        for tree in trees:
            inst = tree.instances[i]
            t0 = time.perf_counter()
            res = tree.solve(inst.problem, inst.config)
            seconds[tree.label] += time.perf_counter() - t0
            results[-1][tree.label] = res
    return seconds, results


def value_gap(a, b) -> float:
    """How far apart two results' values lie; 0 unless both have an incumbent."""
    return abs(a.value - b.value) if a.incumbent is not None and b.incumbent is not None else 0.0


def semantic_failure(trees: list[Tree], i: int, results: dict) -> str | None:
    """Why the two trees' solves of instance ``i`` disagree in meaning, or
    None: unequal statuses, values further apart than eta, or a result that
    fails its tree's ``workloads.check``."""
    a, b = results["A"], results["B"]
    if a.status != b.status:
        return f"status {a.status} vs {b.status}"
    inst = trees[0].instances[i]
    if value_gap(a, b) > inst.config.eta:
        return f"values {a.value!r} and {b.value!r} differ by more than eta {inst.config.eta}"
    for tree in trees:
        why = tree.check(tree.instances[i], results[tree.label])
        if why is not None:
            return f"{tree.label}: {why}"
    return None


def semantic_table(trees: list[Tree], results: list[dict]) -> int:
    """Print each solve's iterations and peak boxes side by side with its
    semantic check; return the number of failed checks."""
    print(f"{'solve':28s} {'status':14s} {'iter A':>8s} {'iter B':>8s} {'peak A':>7s} "
          f"{'peak B':>7s} {'|dvalue|':>9s}  check")
    failures = 0
    totals = {"A": [0, 0], "B": [0, 0]}
    for i, pair in enumerate(results):
        why = semantic_failure(trees, i, pair)
        failures += why is not None
        a, b = pair["A"], pair["B"]
        for label, res in pair.items():
            totals[label][0] += res.iterations
            totals[label][1] = max(totals[label][1], res.peak_region_count)
        gap = value_gap(a, b)
        print(f"{trees[0].instances[i].label:28s} {a.status:14s} {a.iterations:8d} "
              f"{b.iterations:8d} {a.peak_region_count:7d} {b.peak_region_count:7d} "
              f"{gap:9.2e}  {why or 'ok'}")
    print(f"{'total (peak: largest)':28s} {'':14s} {totals['A'][0]:8d} {totals['B'][0]:8d} "
          f"{totals['A'][1]:7d} {totals['B'][1]:7d}")
    print(f"semantic: {failures} failures over {len(results)} solves")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="in-process A/B timing of two trees' solvers")
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pool", action="store_true", help="solve every pool network a draw can pick")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument(
        "--semantic", action="store_true", help="check meaning, not bits (see the docstring)"
    )
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if (args.seed is None) != args.pool:
        ap.error("give either --seed or --pool")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            loaded = [
                (label, path.resolve(), *load_package(label, path.resolve(), Path(tmp)))
                for label, path in (("A", args.tree_a), ("B", args.tree_b))
            ]
        except FileNotFoundError as exc:
            ap.error(str(exc))
        if args.workload not in loaded[0][3].WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        trees = [
            Tree(label, path, solve, draw(workloads, args.workload, args.seed), workloads.check)
            for label, path, solve, workloads in loaded
        ]
        if [i.label for i in trees[0].instances] != [i.label for i in trees[1].instances]:
            print("ab_solve: the trees draw different instances", file=sys.stderr)
            return 1
        for tree in trees:
            print(f"{tree.label}: {tree.path}")
        drawn = "pool" if args.pool else f"seed {args.seed}"
        print(f"{args.workload} {drawn}: {len(trees[0].instances)} solves per tree")

        totals = {t.label: [] for t in trees}
        differ = set()
        first_results = None
        for k in range(args.rounds):
            order = trees if k % 2 == 0 else trees[::-1]
            seconds, results = run_round(order)
            first_results = first_results or results
            for inst, pair in zip(trees[0].instances, results):
                if record(pair["A"]) != record(pair["B"]):
                    differ.add(inst.label)
            for label, s in seconds.items():
                totals[label].append(s)
            first = order[0].label
            print(
                f"round {k + 1} ({first} first): A {seconds['A']:.3f} s  "
                f"B {seconds['B']:.3f} s  B/A {seconds['B'] / seconds['A']:.3f}",
                flush=True,
            )
        med_a, med_b = statistics.median(totals["A"]), statistics.median(totals["B"])
        print(f"median: A {med_a:.3f} s  B {med_b:.3f} s  B/A {med_b / med_a:.3f}")
        if args.semantic:
            print(f"{len(differ)} of {len(trees[0].instances)} solves differ bit for bit")
            return 1 if semantic_table(trees, first_results) else 0
    if differ:
        print(f"ab_solve: solves differ on {', '.join(sorted(differ))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
