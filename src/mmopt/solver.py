"""Branch-reduce-and-bound over mixed monotonic representations.

The loop maintains a queue of boxes, each with the cached upper bound
``U([r, s]) = F(s, r)``.  Per iteration it selects a box (best-first on U or
oldest-first in push order), bisects it at the midpoint of a longest
edge, optionally shrinks each child without losing any feasible point
better than the incumbent, updates the incumbent from per-child feasible
points, prunes children that are provably infeasible or whose bound cannot
beat the incumbent by more than the tolerance, and terminates when no
remaining box can.

Reduction pulls each face of a child in by a line search whose predicate is
a conjunction: the objective above the incumbent and every constraint met.
Each conjunct is monotone along every line on its own, so a phase first
tests every conjunct once at its extreme corner (a *phase certificate*) and
drops those that hold there from all of its lines; each line then tests the
rest at its far end and bisects on the ones that failed there (its
*binding set*).  The multipliers are those of testing every conjunct at
every step.

Feasibility is decided per box by one of three tests: a user oracle, the
one-sided test, or the exact corner test
(:func:`~mmopt.feasibility.mm_conclusive_test`).  The ``normal``,
``conormal`` and ``mm-conclusive`` modes all run the corner test, with the
split set to every coordinate, to no coordinate, and to the constraints'
shared split.  With an exact test (corner or oracle) the returned point is
eta-optimal.  With the one-sided test only (``mm-sufficient-only``),
pruning by infeasibility needs the optimistic corner certificate and the
search may not terminate on its own; iteration or wall-time limits then
return the best incumbent with a limit status.  Boxes thinner than
``_POINT_DIAMETER`` are not split further; when one that no test decided
has a bound above the final cutoff, the solve returns ``resolution-limit``
instead of claiming optimality or infeasibility.
Relative tolerance replaces every incumbent-plus-eta cutoff by
``incumbent + eta * |incumbent|``, which lies above the incumbent for either
sign; before any incumbent is found the cutoff stays ``-inf``.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from .core import (
    STATUS_EPS_ETA_APPROXIMATE,
    STATUS_ETA_OPTIMAL,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_RELATIVE_ETA_OPTIMAL,
    STATUS_RESOLUTION_LIMIT,
    STATUS_TIME_LIMIT,
    BoxNd,
    MMConstraint,
    MMFunction,
    ProblemInstance,
    SolverConfig,
    SolverResult,
    SolveStats,
)
from .errors import DimensionMismatch, MMOptError, NonFiniteEntry, ZeroDiameterBox

# all four tests stay importable from here so that a tracer can wrap them by name
from .feasibility import (  # noqa: F401
    Feasibility,
    FeasibilityVerdict,
    conormal_set_test,
    mm_conclusive_test,
    mm_sufficient_test,
    normal_set_test,
)

__all__ = [
    "RegionQueue",
    "SolveStats",
    "bound",
    "bisect",
    "reduce_box",
    "find_incumbent",
    "solve",
]

# Boxes thinner than this get a verdict and an incumbent candidate, like any
# other box, and are then dropped instead of being queued and split further.
_POINT_DIAMETER = 1e-12

_TRACE_HEADER = "k,box_id,upper_bound,gamma,queue_size"


def bound(objective: MMFunction, box: BoxNd) -> float:
    """Upper bound on the objective over the box: F at (upper, lower) corners."""
    if objective.dim != box.dim:
        raise DimensionMismatch("objective and box dimensions differ")
    return objective.eval(box.s, box.r)


def bisect(box: BoxNd) -> tuple[BoxNd, BoxNd]:
    """Split a box at the midpoint of a longest edge (lowest index on ties).

    Each child copies the one corner the split changes and shares the other
    with the parent, so the children are valid by construction once the
    midpoint lies on the edge.
    """
    r, s = box.r, box.s
    width = s - r
    axis = int(width.argmax())
    if width[axis] <= 0.0:
        raise ZeroDiameterBox("cannot bisect a zero-diameter box")
    mid = 0.5 * (r[axis] + s[axis])
    if not r[axis] <= mid <= s[axis]:  # r + s overflowed to inf
        raise NonFiniteEntry("box corners must be finite")
    lo_s = s.copy()
    lo_s[axis] = mid
    lo_s.flags.writeable = False
    hi_r = r.copy()
    hi_r[axis] = mid
    hi_r.flags.writeable = False
    return BoxNd._trusted(r, lo_s), BoxNd._trusted(hi_r, s)


def _face_cuts(base, step, holds, steps: int) -> dict[int, float]:
    """Line searches of one reduction phase (see :func:`reduce_box`).

    Line ``i`` moves coordinate ``i`` of ``base`` to ``base[i] + t * step[i]``
    for t in [0, 1]; each predicate in ``holds`` is true at t = 0 and
    monotone along every line.  The shrink phase passes ``step = -width``:
    ``s + t * (-w)`` rounds exactly as ``s - t * w``.

    Returns the new value of each coordinate whose multiplier, the top of
    the bracket left by ``steps`` halvings, is below 1.
    """
    corner = base + step  # every t = 1 point lies between base and corner
    holds = [h for h in holds if not h(corner)]  # the phase certificate
    if not holds:
        return {}
    point = base.copy()
    cuts = {}
    for i, (origin, delta) in enumerate(zip(base.tolist(), step.tolist())):
        if delta == 0.0:
            continue
        point[i] = origin + delta
        failing = [h for h in holds if not h(point)]  # the line's binding set
        if failing:
            lo, hi = 0.0, 1.0
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                point[i] = origin + mid * delta
                for h in failing:
                    if not h(point):
                        hi = mid
                        break
                else:
                    lo = mid
            if hi < 1.0:
                cuts[i] = origin + hi * delta
        point[i] = origin
    return cuts


def _apply_cuts(corner, cuts: dict[int, float], lo, hi):
    """A read-only copy of ``corner`` with ``cuts`` set and clipped to ``[lo, hi]``;
    ``corner`` itself when there is no cut."""
    if not cuts:
        return corner
    out = np.array(corner)
    for i, v in cuts.items():
        out[i] = v
    np.clip(out, lo, hi, out=out)
    out.flags.writeable = False
    return out


def reduce_box(
    box: BoxNd,
    objective: MMFunction,
    constraints: tuple[MMConstraint, ...] | list[MMConstraint],
    gamma: float,
    steps: int = 10,
) -> BoxNd | None:
    """Shrink a box without losing any feasible point of value above gamma.

    Returns ``None`` when no such point can exist in the box: some
    constraint is violated at the optimistic corner pair, or the bound does
    not exceed gamma, on the box or on it with its lower corner tightened by
    the first phase.  Otherwise each face is pulled in by a monotone line
    search: first every lower face towards ``s`` (the objective above gamma
    at ``(x, r)`` and every ``G(r, x) <= 0``), then every upper face towards
    the new lower corner (at ``(s, y)`` and ``G(y, s) <= 0``).
    Per-coordinate multipliers are found by ``steps`` halvings of [0, 1],
    rounding up so the surviving region is never undercut.
    ``gamma = -inf`` disables the objective cut.

    Each condition (a *conjunct*) is monotone along every line on its own,
    which is what makes the search exact and cheap: a conjunct that holds at
    the phase's extreme corner (``s - width`` in the shrink phase,
    ``r_new + (s - r_new)`` in the grow phase) holds on every line and is not
    evaluated again, and a line's bisection midpoints evaluate only the
    conjuncts that failed at its far end, constraints before the objective.
    The multipliers are those of a search that tests every conjunct at
    every step.
    """
    if steps < 1:
        raise MMOptError("steps must be >= 1")
    constraints = tuple(constraints)

    def empty(lo, hi) -> bool:
        # no feasible point above gamma in [lo, hi]: a violated optimistic
        # constraint, else a bound not above gamma
        for c in constraints:
            if c.g.eval(lo, hi) > 0.0:
                return True
        return objective.eval(hi, lo) <= gamma

    r, s = box.r, box.s
    if empty(r, s):
        return None
    width = s - r

    shrink_holds = [lambda x, g=c.g: g.eval(r, x) <= 0.0 for c in constraints]
    shrink_holds.append(lambda x: objective.eval(x, r) > gamma)
    cuts = _face_cuts(s, -width, shrink_holds, steps)
    r_new = _apply_cuts(r, cuts, r, s)
    if cuts and empty(r_new, s):  # the tightened lower corner may certify emptiness
        return None

    grow_holds = [lambda y, g=c.g: g.eval(y, s) <= 0.0 for c in constraints]
    grow_holds.append(lambda y: objective.eval(s, y) > gamma)
    top_cuts = _face_cuts(r_new, s - r_new, grow_holds, steps)
    if not cuts and not top_cuts:
        return box
    # the clips keep r <= r_new <= s_new <= s, so the result is a valid box
    s_new = _apply_cuts(s, top_cuts, r_new, s)
    return BoxNd._trusted(r_new, s_new)


def _diag_feasible(constraints, x, slack: float) -> bool:
    return all(c.g.eval(x, x) <= slack for c in constraints)


def _verdict_for(problem: ProblemInstance, box: BoxNd) -> FeasibilityVerdict:
    mode = problem.feasibility_mode
    if mode == "custom-oracle":
        return problem.feasibility_oracle(box)
    if mode == "mm-sufficient-only":
        return mm_sufficient_test(box, problem.constraints)
    # the corner test; its split is every coordinate for a normal set, none
    # for a conormal set, and the constraints' shared split otherwise
    split = range(box.dim) if mode == "normal" else () if mode == "conormal" else None
    return mm_conclusive_test(box, problem.constraints, split)


def _candidate_from_verdict(
    problem: ProblemInstance, box: BoxNd, verdict: FeasibilityVerdict, epsilon: float
) -> np.ndarray | None:
    x = None
    if verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS:
        x = verdict.witness
    elif verdict.kind is Feasibility.FULLY_FEASIBLE:
        x = box.r
    elif (
        verdict.kind is Feasibility.UNKNOWN
        and epsilon > 0.0
        and problem.feasibility_mode == "mm-sufficient-only"
        and _diag_feasible(problem.constraints, box.r, epsilon)
    ):
        x = box.r
    if x is None and problem.incumbent_hook is not None:
        cand = problem.incumbent_hook(box)
        if cand is not None:
            cand = np.asarray(cand, dtype=float)
            if box.contains(cand) and _diag_feasible(problem.constraints, cand, epsilon):
                x = cand
    return x


def find_incumbent(box: BoxNd, problem: ProblemInstance, epsilon: float = 0.0):
    """A feasible point in the box, or None when none can be produced.

    Returns None when the problem's feasibility test finds the box
    infeasible.  Otherwise it tries, in order: the witness of a
    ``FEASIBLE_WITH_WITNESS`` verdict (the corner test of the
    ``mm-conclusive``, ``normal`` and ``conormal`` modes, or an oracle);
    the lower corner of a box certified ``FULLY_FEASIBLE``;
    with ``epsilon > 0`` in ``mm-sufficient-only`` mode, the lower corner
    of an undecided box whose constraints hold within that slack; and, when
    none of these gives a point, the user incumbent hook, whose point must
    lie in the box and meet the constraints.
    """
    verdict = _verdict_for(problem, box)
    if verdict.kind is Feasibility.INFEASIBLE:
        return None
    return _candidate_from_verdict(problem, box, verdict, epsilon)


class RegionQueue:
    """Undecided boxes with cached bounds, under one selection discipline.

    ``push`` gives each box the next id, 0, 1, 2, ... in push order, and
    ``pop`` returns it with the box.  best-first pops a box maximizing the
    cached bound (ties: push order, which puts the lower bisection child
    first); oldest-first pops in push order (FIFO).  Both are one heap of
    ``(key, id, bound, box)``, keyed by ``-bound`` for best-first and by a
    constant for oldest-first.
    """

    __slots__ = ("discipline", "_heap", "_next_id")

    def __init__(self, discipline: str = "best-first"):
        if discipline not in ("best-first", "oldest-first"):
            raise MMOptError(f"unknown selection_rule {discipline!r}")
        self.discipline = discipline
        self._heap: list = []
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, box: BoxNd, ubound: float):
        key = -ubound if self.discipline == "best-first" else 0.0
        heapq.heappush(self._heap, (key, self._next_id, ubound, box))
        self._next_id += 1

    def pop(self) -> tuple[BoxNd, float, int]:
        _, box_id, ubound, box = heapq.heappop(self._heap)
        return box, ubound, box_id

    def max_bound(self) -> float:
        """Largest cached bound over stored boxes (-inf when empty).

        O(1) for best-first, O(n) for oldest-first.
        """
        if self.discipline == "best-first":
            return self._heap[0][2] if self._heap else float("-inf")
        return max((entry[2] for entry in self._heap), default=float("-inf"))


def solve(problem: ProblemInstance, config: SolverConfig | None = None) -> SolverResult:
    """Run the branch-reduce-and-bound loop on a problem instance."""
    if config is None:
        config = SolverConfig()
    t_start = time.perf_counter()

    objective = problem.objective
    constraints = problem.constraints
    eta = config.eta
    relative = config.tolerance_mode == "relative"
    eps = config.epsilon_feasibility
    steps = config.reduction_bisection_steps
    best_first = config.selection_rule == "best-first"

    def cutoff(g: float) -> float:
        # relative: g + eta*|g|, as (1 + eta) * g for g >= 0 and (1 - eta) * g below;
        # before any incumbent, -inf + eta stays -inf
        if not relative or g == -math.inf:
            return g + eta
        return (1.0 + eta) * g if g >= 0.0 else (1.0 - eta) * g

    # loop state; gamma is nondecreasing over iterations
    queue = RegionQueue(config.selection_rule)
    gamma = -math.inf
    incumbent = None
    iteration = 0
    stats = SolveStats()
    thin_bound = -math.inf  # largest bound of a dropped thin box not proven infeasible
    root = problem.initial_box

    x0 = find_incumbent(root, problem, eps)
    if x0 is not None:
        gamma = objective.eval(x0, x0)
        incumbent = x0

    if root.diameter >= _POINT_DIAMETER:
        queue.push(root, bound(objective, root))
    elif _verdict_for(problem, root).kind is not Feasibility.INFEASIBLE:
        thin_bound = bound(objective, root)
    stats.boxes_created = 1
    stats.peak_region_count = len(queue)

    trace = None
    status = None
    try:
        if config.trace_path is not None:
            trace = open(config.trace_path, "w", encoding="utf-8")
            trace.write(_TRACE_HEADER + "\n")

        while True:
            if len(queue) == 0:
                break
            if best_first or iteration % 64 == 0:
                if queue.max_bound() <= cutoff(gamma):
                    break
            if config.max_iterations is not None and iteration >= config.max_iterations:
                status = STATUS_ITERATION_LIMIT
                break
            if (
                config.max_wall_time is not None
                and time.perf_counter() - t_start > config.max_wall_time
            ):
                status = STATUS_TIME_LIMIT
                break

            iteration += 1
            box, selected_u, selected_id = queue.pop()
            gamma_before = gamma  # reduction cuts on the pre-update incumbent

            candidates = []
            survivors = []
            for child in bisect(box):
                if config.reduction_enabled:
                    child = reduce_box(child, objective, constraints, gamma_before, steps)
                    if child is None:
                        stats.boxes_reduced_empty += 1
                        continue
                stats.boxes_created += 1

                verdict = _verdict_for(problem, child)
                if verdict.kind is Feasibility.INFEASIBLE:
                    stats.boxes_pruned_infeasible += 1
                    continue
                x = _candidate_from_verdict(problem, child, verdict, eps)
                if x is not None:
                    candidates.append(x)
                if child.diameter >= _POINT_DIAMETER:
                    survivors.append((child, objective.eval(child.s, child.r)))
                else:
                    thin_bound = max(thin_bound, objective.eval(child.s, child.r))

            for x in candidates:
                value = objective.eval(x, x)
                if value > gamma:
                    gamma = value
                    incumbent = x

            gamma_cut = cutoff(gamma)
            for child, child_u in survivors:
                if child_u <= gamma_cut:
                    stats.boxes_pruned_bound += 1
                    continue
                queue.push(child, child_u)

            if len(queue) > stats.peak_region_count:
                stats.peak_region_count = len(queue)
            if trace is not None:
                trace.write(
                    f"{iteration},{selected_id},{selected_u:.12g},{gamma:.12g},{len(queue)}\n"
                )
    finally:
        if trace is not None:
            trace.close()

    if status is None:
        if thin_bound > cutoff(gamma):  # a dropped thin child may still beat the incumbent
            status = STATUS_RESOLUTION_LIMIT
        elif incumbent is None:
            status = STATUS_INFEASIBLE
        elif eps > 0.0:
            status = STATUS_EPS_ETA_APPROXIMATE
        elif relative:
            status = STATUS_RELATIVE_ETA_OPTIMAL
        else:
            status = STATUS_ETA_OPTIMAL

    return SolverResult(
        incumbent=incumbent,
        value=gamma,
        status=status,
        iterations=iteration,
        peak_region_count=stats.peak_region_count,
        wall_time=time.perf_counter() - t_start,
        stats=stats,
    )
