"""In-process A/B timing of two trees' solvers on one benchmark workload.

    python3 tools/ab_solve.py TREE_A TREE_B --workload wsr-k4 --seed 1 --rounds 3

Copies each tree's ``src/mmopt`` to a temporary directory under its own
package name (``mmopt_a``, ``mmopt_b``) and loads this checkout's
``perfbench/workloads.py`` once per package, so each tree builds the
workload's seeded draw and solver configuration with its own generators and
problem constructors.  Both trees then run in one process: every round
solves the draw instance by instance, each instance with both trees in
turn, tree A first in odd rounds and tree B first in even ones, timing only
the solve calls.  Set-up, memory layout and other effects of the process
fall on both trees alike, which separate benchmark processes cannot promise.

Prints each round's seconds per tree and the ratio B/A, then the medians
over the rounds and their ratio.  Exits 1 if any pair of solves differs in
status, iterations, peak boxes, ``repr(value)`` or incumbent bytes, and 2
on a bad argument.
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


def draw(workloads, name: str, seed: int) -> list:
    """The instances of the workload's seeded draw, as ``perfbench/run.py`` builds them."""
    w = workloads.WORKLOADS[name]
    entries = workloads.draw_entries(w, workloads.load_pool(w), seed)
    return workloads.build(w, entries, screened=False)


def record(res) -> tuple:
    incumbent = None if res.incumbent is None else res.incumbent.tobytes()
    return (res.status, res.iterations, res.peak_region_count, repr(res.value), incumbent)


def run_round(trees: list[Tree]) -> tuple[dict[str, float], list[str]]:
    """Seconds per tree over one pass of the draw, and the labels of the
    instances whose solves differ between the trees."""
    seconds = {t.label: 0.0 for t in trees}
    differ = []
    for i in range(len(trees[0].instances)):
        records = []
        for tree in trees:
            inst = tree.instances[i]
            t0 = time.perf_counter()
            res = tree.solve(inst.problem, inst.config)
            seconds[tree.label] += time.perf_counter() - t0
            records.append(record(res))
        if records[0] != records[1]:
            differ.append(trees[0].instances[i].label)
    return seconds, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="in-process A/B timing of two trees' solvers")
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

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
            Tree(label, path, solve, draw(workloads, args.workload, args.seed))
            for label, path, solve, workloads in loaded
        ]
        if [i.label for i in trees[0].instances] != [i.label for i in trees[1].instances]:
            print("ab_solve: the trees draw different instances", file=sys.stderr)
            return 1
        for tree in trees:
            print(f"{tree.label}: {tree.path}")
        print(f"{args.workload} seed {args.seed}: {len(trees[0].instances)} solves per tree")

        totals = {t.label: [] for t in trees}
        differ = set()
        for k in range(args.rounds):
            order = trees if k % 2 == 0 else trees[::-1]
            seconds, bad = run_round(order)
            differ.update(bad)
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
    if differ:
        print(f"ab_solve: solves differ on {', '.join(sorted(differ))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
