"""Command-line benchmark harness.

Examples::

    mmopt-bench --experiment wsr-compare --k 4 --realizations 20 \
        --repr mmp,dm --seed 1 --out wsr.csv
    mmopt-bench --experiment single-solve --instance net.json --trace run.csv

Exit codes: 0 on full success, 2 when any run ended in an error row,
1 on a spec or I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .bench import _EXPERIMENTS, _ON_OFF, BenchSpec, run_bench, write_csv, write_json
from .errors import MMOptError


def _csv_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmopt-bench", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiment",
        required=True,
        choices=list(_EXPERIMENTS),
    )
    parser.add_argument("--k", type=int, default=2, help="number of users/variables")
    parser.add_argument("--realizations", type=int, default=1)
    parser.add_argument("--eta", type=float, default=0.01, help="optimality tolerance")
    parser.add_argument(
        "--relative", action="store_true", help="interpret eta relative to the incumbent"
    )
    parser.add_argument("--selection", default="best", help="comma list of best|oldest")
    parser.add_argument("--reduction", default="off", help="comma list of on|off")
    parser.add_argument("--repr", dest="representation", default="mmp", help="comma list of mmp|dm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--timeout-s", type=float, default=None)
    parser.add_argument("--reduction-steps", type=int, default=10)
    parser.add_argument("--instance", default=None, help="instance file for single-solve")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--trace", default=None, help="write per-iteration solver trace CSV")
    return parser


_SELECTIONS = {"best": "best-first", "oldest": "oldest-first"}


def spec_from_args(args: argparse.Namespace) -> BenchSpec:
    try:
        selections = tuple(_SELECTIONS[s] for s in _csv_list(args.selection))
        reductions = tuple(_ON_OFF[s] for s in _csv_list(args.reduction))
    except KeyError as exc:
        raise MMOptError(f"unknown flag value {exc.args[0]!r}") from exc
    return BenchSpec(
        experiment=args.experiment,
        k=args.k,
        realizations=args.realizations,
        eta=args.eta,
        tolerance_mode="relative" if args.relative else "absolute",
        selections=selections,
        reductions=reductions,
        representations=_csv_list(args.representation),
        seed=args.seed,
        max_iterations=args.max_iter,
        max_wall_time=args.timeout_s,
        reduction_bisection_steps=args.reduction_steps,
        instance_path=args.instance,
        trace_path=args.trace,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        rows = run_bench(spec)
        target = sys.stdout if args.out is None else args.out
        if args.format == "csv":
            write_csv(rows, target)
        else:
            write_json(rows, target)
    except (MMOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if any(row.status == "error" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
