"""Span tracing of mmopt from the outside, for the benchmark's traced run.

``Tracer.install()`` replaces the public entry points of each layer with
wrappers that time every call.  A span has a name, a start, an end and a
parent span; each span is folded into a per-(parent, name) table as it ends
-- call count, total time and self time (its duration minus what its child
spans cover) -- so memory stays constant.  A ``wsr-floors-k3`` pass makes
some 10^7 spans, which would take gigabytes to keep one by one.  The table
is written out once the run ends.  ``uninstall()`` restores every original.
"""

from __future__ import annotations

import time
from collections import Counter

import mmopt.bench
import mmopt.core
import mmopt.problems
import mmopt.solver

EVAL_NAMES = ("calculus.eval", "problems.eval")

# module-level functions the solver, the set-up and the harness call by name
_FUNCTIONS = [
    (mmopt.solver, "solve", "solver.solve"),
    (mmopt.solver, "bisect", "solver.bisect"),
    (mmopt.solver, "reduce_box", "solver.reduce_box"),
    (mmopt.solver, "find_incumbent", "solver.find_incumbent"),
    (mmopt.solver, "mm_sufficient_test", "feasibility.verdict"),
    (mmopt.solver, "mm_conclusive_test", "feasibility.verdict"),
    (mmopt.solver, "normal_set_test", "feasibility.verdict"),
    (mmopt.solver, "conormal_set_test", "feasibility.verdict"),
    (mmopt.problems, "generate_channels", "problems.generate"),
    (mmopt.problems, "generate_aloha", "problems.generate"),
    (mmopt.problems, "wsr_problem", "problems.build"),
    (mmopt.problems, "aloha_problem", "problems.build"),
    (mmopt.bench, "_aloha_grid_feasible", "bench.screen"),
]

_METHODS = [
    (mmopt.solver.RegionQueue, "push", "solver.queue.push"),
    (mmopt.solver.RegionQueue, "pop", "solver.queue.pop"),
    (mmopt.solver.RegionQueue, "max_bound", "solver.queue.max_bound"),
    (mmopt.core.BoxNd, "__init__", "core.box_new"),
]


def _verdict_outcome(result, args):
    return f"feasibility.{result.kind.name.lower()}"


def _reduce_outcome(result, args):
    if result is None:
        return "solver.reduce_box.empty"
    return "solver.reduce_box.same" if result is args[0] else "solver.reduce_box.shrunk"


_OUTCOMES = {"feasibility.verdict": _verdict_outcome, "solver.reduce_box": _reduce_outcome}


class Tracer:
    def __init__(self):
        # open spans, innermost last: [name, time covered by finished children]
        self._stack: list[list] = []
        # (parent name, name) -> [calls, total seconds, self seconds]
        self.table: dict[tuple[str, str], list] = {}
        self.outcomes: Counter = Counter()
        self._saved: list = []

    def _wrap(self, fn, name, outcome=None):
        stack, table, clock = self._stack, self.table, time.perf_counter
        outcomes = self.outcomes

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent is not None else "", name)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
            if outcome is not None:
                outcomes[outcome(result, args)] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_eval(self, fn):
        calculus = self._wrap(fn, "calculus.eval")
        problems = self._wrap(fn, "problems.eval")

        def eval_wrapper(f, x, y):
            if f._fn.__module__ == "mmopt.calculus":
                return calculus(f, x, y)
            return problems(f, x, y)

        return eval_wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _FUNCTIONS + _METHODS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, _OUTCOMES.get(name)))
        fn = mmopt.core.MMFunction.eval
        self._saved.append((mmopt.core.MMFunction, "eval", fn))
        mmopt.core.MMFunction.eval = self._wrap_eval(fn)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self):
        self.table.clear()
        self.outcomes.clear()

    def totals(self, name: str) -> tuple[int, float, float]:
        """Calls, total seconds and self seconds of a span name, over all parents."""
        calls = total = own = 0.0
        for (_, n), (c, t, s) in self.table.items():
            if n == name:
                calls += c
                total += t
                own += s
        return int(calls), total, own


def span_rows(table: dict) -> list[dict]:
    """A span table as JSON-ready rows."""
    return [
        {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
        for (p, n), (c, t, s) in sorted(table.items())
    ]


def layer_metrics(tracer: Tracer, iterations: int, setup_table: dict) -> dict:
    """Per-layer metrics of one traced pass, plus the traced set-up's spans.

    ``*.us`` values are microseconds per call including child spans,
    ``*.self_us`` per call excluding them, ``*_s`` totals in seconds.
    """

    def calls(name):
        return tracer.totals(name)[0]

    def per_call_us(total, n):
        return 1e6 * total / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = Counter(tracer.outcomes)
    solve_calls, solve_total, solve_self = tracer.totals("solver.solve")
    bisect_calls, _, bisect_self = tracer.totals("solver.bisect")
    box_calls, box_total, box_self = tracer.totals("core.box_new")
    reduce_calls, reduce_total, _ = tracer.totals("solver.reduce_box")
    push_calls, push_total, _ = tracer.totals("solver.queue.push")
    pop_calls, pop_total, _ = tracer.totals("solver.queue.pop")
    scan_calls, scan_total, _ = tracer.totals("solver.queue.max_bound")
    verdict_calls, verdict_total, _ = tracer.totals("feasibility.verdict")
    calc_calls, _, calc_self = tracer.totals("calculus.eval")
    prob_calls, _, prob_self = tracer.totals("problems.eval")
    eval_calls = calc_calls + prob_calls
    top_calls = sum(
        row[0] for (p, n), row in tracer.table.items() if n in EVAL_NAMES and p not in EVAL_NAMES
    )
    undecided = out["feasibility.unknown"]

    def setup_total(name):
        return sum((t for (_, n), (_, t, _) in setup_table.items() if n == name), 0.0)

    return {
        "solver.self_s": (solve_self, "s"),
        "solver.bisect.calls": (bisect_calls, "count"),
        "solver.bisect.self_us": (per_call_us(bisect_self, bisect_calls), "us"),
        "solver.bisect_box.self_share": (ratio(bisect_self + box_self, solve_total), "ratio"),
        "solver.queue.ops": (push_calls + pop_calls, "count"),
        "solver.queue.us_per_op": (per_call_us(push_total + pop_total, push_calls + pop_calls), "us"),
        "solver.reduce_box.calls": (reduce_calls, "count"),
        "solver.reduce_box.us": (per_call_us(reduce_total, reduce_calls), "us"),
        "solver.reduce_box.share": (ratio(reduce_total, solve_total), "ratio"),
        "solver.reduce_box.empty_ratio": (ratio(out["solver.reduce_box.empty"], reduce_calls), "ratio"),
        "solver.reduce_box.shrunk_ratio": (
            ratio(out["solver.reduce_box.shrunk"], reduce_calls),
            "ratio",
        ),
        "solver.queue.max_bound.calls": (scan_calls, "count"),
        "solver.queue.max_bound.us": (per_call_us(scan_total, scan_calls), "us"),
        "solver.find_incumbent.calls": (calls("solver.find_incumbent"), "count"),
        "core.box_new.calls": (box_calls, "count"),
        "core.box_new.us": (per_call_us(box_total, box_calls), "us"),
        "core.eval.calls": (eval_calls, "count"),
        "core.eval.top_calls": (top_calls, "count"),
        "core.evals_per_iter": (ratio(eval_calls, iterations), "count"),
        "calculus.eval.calls": (calc_calls, "count"),
        "calculus.eval.self_s": (calc_self, "s"),
        "problems.eval.calls": (prob_calls, "count"),
        "problems.eval.self_s": (prob_self, "s"),
        "problems.build_s": (setup_total("problems.build"), "s"),
        "feasibility.verdicts": (verdict_calls, "count"),
        "feasibility.verdict.us": (per_call_us(verdict_total, verdict_calls), "us"),
        "feasibility.infeasible": (out["feasibility.infeasible"], "count"),
        "feasibility.unknown": (undecided, "count"),
        "feasibility.fully_feasible": (out["feasibility.fully_feasible"], "count"),
        "feasibility.witness": (out["feasibility.feasible_with_witness"], "count"),
        "feasibility.decided_ratio": (ratio(verdict_calls - undecided, verdict_calls), "ratio"),
        "bench.screen_s": (setup_total("bench.screen"), "s"),
    }
