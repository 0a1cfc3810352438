"""Branch-reduce-and-bound over mixed monotonic representations.

The loop maintains a queue of boxes, each with the cached upper bound
``U([r, s]) = F(s, r)``.  Every box, the root and each bisection child,
is tested, is pruned if infeasible, is bounded, offers the point its
verdict gives as an incumbent candidate, and is then dropped as thin or
kept; once every box of the step has offered its point, the kept ones are
pruned by their bound or queued.  Per iteration the loop selects a box
(best-first on U or oldest-first in push order), bisects it at the
midpoint of a longest edge and optionally shrinks each child without
losing any feasible point better than the incumbent, and it terminates
when no remaining box can beat the incumbent by more than the tolerance.

What a stored box carries: the queue stores one record per box,
``(box, point, halves, widths)``, under the box's bound; the popped record
is the parent of the step's two children, which reuse three of its parts.

- ``point`` is the point the box's test offered (or None), which the solve
  has evaluated.  A child that offers this very array is not evaluated
  again, so no point is evaluated twice down a branch: its value was
  compared with the incumbent value, which never falls, when the parent was
  made, and a point the parent could not admit the child, a subset, cannot
  admit either.  Without constraints the corner test offers ``r``, which the
  lower bisection child shares with its parent; the solve then takes ``r``
  itself as each box's point and builds no verdict.
- ``halves`` is None, or for a separable objective
  (:func:`~mmopt.calculus.mm_separable`, ``F(x, y) = up(x) + down(y)``) the
  pair ``(up(s), down(r))`` whose sum is the bound.  A child whose ``s`` is
  the very array of its parent's ``s`` reuses ``up(s)``, and one whose ``r``
  is the parent's ``r`` reuses ``down(r)``; corner arrays are read-only, so
  the same array holds the same values, also after a reduction that made no
  cut.  A point that is its box's ``r`` reuses ``down(r)``.  So the lower
  child evaluates only ``up`` at its new ``s``, the upper child only
  ``down`` at its new ``r`` and ``up`` at that ``r`` for its point.  Every
  sum of halves is checked for NaN and rounds as ``eval`` does, so the solve
  is the one the whole function gives.
- ``widths`` is the box's edge widths ``(s - r).tolist()``.  The root's are
  computed once; a bisection child's are its parent's with the split edge
  replaced by ``mid - lo`` or ``hi - mid``, the same IEEE subtraction numpy
  makes, and only a child that reduction cut recomputes them.  The split
  and the thin-box test read them without numpy.

Reduction pulls each face of a child in by a line search whose predicate is
a conjunction: the objective above the incumbent and every constraint met.
Each conjunct is monotone along every line on its own, so a phase first
tests every conjunct once at its extreme corner (a *phase certificate*) and
drops those that hold there from all of its lines; each line then tests the
rest at its far end and bisects on the ones that failed there (its
*binding set*).  The multipliers are those of testing every conjunct at
every step.  A problem that carries its own ``reducer`` (see
:class:`~mmopt.core.ProblemInstance`) is reduced by it instead; the floored
``mmp`` sum-rate problem's reducer sets the faces of the conjuncts that
invert along their lines in closed form and line-searches only the rest.

Feasibility is decided per box by the test the problem's inputs imply (its
``feasibility_mode``, read once per solve): a user oracle when one is
given, else the exact corner test
(:func:`~mmopt.feasibility.mm_conclusive_test`) when every constraint
declares the same ``monotone_split``, else the one-sided test.  With an
exact test (corner or oracle) the returned point is eta-optimal.  A point
becomes the incumbent only if it lies in its box and meets every
constraint exactly (``G(x, x) <= 0``).  With the one-sided test only
(``mm-sufficient-only``), pruning by infeasibility needs the optimistic
corner certificate and the search may not terminate on its own;
iteration or wall-time limits then return the best incumbent with a limit
status.  Boxes thinner than ``_POINT_DIAMETER``, scaled by the root, are not
split further; when one that was not proven infeasible has a bound above the
final cutoff, the solve returns ``resolution-limit`` instead of claiming
optimality or infeasibility, also when a test decided that box feasible and
its point was evaluated: the bound alone cannot certify the incumbent.
Relative tolerance replaces every incumbent-plus-eta cutoff by
``incumbent + eta * |incumbent|``, which lies above the incumbent for either
sign; before any incumbent is found the cutoff stays ``-inf``.
"""

from __future__ import annotations

import heapq
import math
import operator
import time

import numpy as np

from .core import (
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
    _is_count,
    _is_real,
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
    "bisect",
    "reduce_box",
    "find_incumbent",
    "solve",
]

# Boxes thinner than this times the root's largest corner magnitude (at least
# 1) are dropped after their verdict instead of being split further; the scale
# keeps a bisection midpoint from rounding onto a corner.
_POINT_DIAMETER = 1e-12

_TRACE_HEADER = "k,box_id,upper_bound,gamma,queue_size"


def bisect(box: BoxNd) -> tuple[BoxNd, BoxNd]:
    """Split a box at the midpoint of a longest edge (lowest index on ties).

    Each child copies the one corner the split changes and shares the other
    with the parent, so the children are valid by construction once the
    midpoint lies on the edge.
    """
    (lower, _), (upper, _) = _split(box, (box.s - box.r).tolist())
    return lower, upper


def _split(box: BoxNd, widths: list[float]):
    """:func:`bisect` for a box whose edge widths ``(s - r).tolist()`` are
    known: the two children, each as ``(child, its widths)``.

    A child's widths are its parent's with the split edge replaced by
    ``mid - lo`` (lower child) or ``hi - mid`` (upper child), the IEEE
    subtractions numpy makes elementwise on the child's corners, so they are
    the child's ``(s - r).tolist()`` bit for bit.
    """
    longest = max(widths)
    if longest <= 0.0:
        raise ZeroDiameterBox("cannot bisect a zero-diameter box")
    axis = widths.index(longest)
    r, s = box.r, box.s
    lo, hi = r.item(axis), s.item(axis)
    mid = 0.5 * (lo + hi)
    if not lo <= mid <= hi:  # r + s overflowed to inf
        raise NonFiniteEntry("box corners must be finite")
    # setflags costs about half of an assignment through .flags, which
    # builds a flags object first
    lo_s = s.copy()
    lo_s[axis] = mid
    lo_s.setflags(write=False)
    hi_r = r.copy()
    hi_r[axis] = mid
    hi_r.setflags(write=False)
    lo_widths = widths.copy()
    lo_widths[axis] = mid - lo
    hi_widths = widths.copy()
    hi_widths[axis] = hi - mid
    return (BoxNd._trusted(r, lo_s), lo_widths), (BoxNd._trusted(hi_r, s), hi_widths)


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
    ``gamma = -inf`` disables the objective cut; a gamma that is NaN or not
    a real number raises :class:`~mmopt.errors.MMOptError`.

    Each condition (a *conjunct*) is monotone along every line on its own,
    which is what makes the search exact and cheap: a conjunct that holds at
    the phase's extreme corner (``s - width`` in the shrink phase,
    ``r_new + (s - r_new)`` in the grow phase) holds on every line and is not
    evaluated again, and a line's bisection midpoints evaluate only the
    conjuncts that failed at its far end, constraints before the objective.
    The multipliers are those of a search that tests every conjunct at
    every step.
    """
    if not _is_count(steps, 1):
        raise MMOptError(f"steps must be an integer >= 1, got {steps!r}")
    if not _is_real(gamma) or gamma != gamma:  # NaN alone is unequal to itself
        raise MMOptError(f"gamma must be a real number or +-inf, got {gamma!r}")
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


# what a box step returns for a box its test proves infeasible
_INFEASIBLE = object()


def _box_point(problem: ProblemInstance):
    """The problem's box step, ``box -> point | None | _INFEASIBLE``, chosen
    once per solve: the point the box's verdict offers (see
    :func:`find_incumbent`), None when it offers none, and ``_INFEASIBLE``
    when the test proves the box infeasible.

    The verdict is that of the ``feasibility_mode``'s test, looked up in this
    module at each call, where a tracer may wrap it.  Without constraints
    the corner test's verdict is always the lower corner as its witness, so
    the step returns ``box.r`` itself and builds no verdict.
    """
    mode, constraints = problem.feasibility_mode, problem.constraints
    if mode == "custom-oracle":
        test = problem.feasibility_oracle
    elif not constraints:
        return operator.attrgetter("r")
    elif mode == "mm-conclusive":
        test = lambda box: mm_conclusive_test(box, constraints)  # noqa: E731
    else:
        test = lambda box: mm_sufficient_test(box, constraints)  # noqa: E731

    def point(box: BoxNd):
        verdict = test(box)
        try:
            kind = verdict.kind
        except AttributeError:  # only an oracle can return a non-verdict
            raise MMOptError(
                f"feasibility_oracle must return a FeasibilityVerdict, got {verdict!r}"
            ) from None
        if kind is Feasibility.INFEASIBLE:
            return _INFEASIBLE
        if kind is Feasibility.FEASIBLE_WITH_WITNESS:
            x = np.asarray(verdict.witness, dtype=float)
            if x.shape != box.r.shape:
                raise DimensionMismatch(f"witness shape {x.shape} != box shape {box.r.shape}")
            return x
        if kind is Feasibility.FULLY_FEASIBLE:
            return box.r
        return None

    return point


def _admissible(constraints, box: BoxNd, x) -> bool:
    """Whether a candidate point lies in its box and meets every constraint exactly."""
    return box.contains(x) and all(c.g.eval(x, x) <= 0.0 for c in constraints)


def find_incumbent(box: BoxNd, problem: ProblemInstance):
    """A feasible point in the box, or None when none can be produced.

    Returns None when the problem's box test (its ``feasibility_mode``)
    finds the box infeasible.  Otherwise the point comes from the verdict:
    the witness of a ``FEASIBLE_WITH_WITNESS`` verdict (the corner test of
    ``mm-conclusive`` mode, or an oracle), or the lower corner of a box
    certified ``FULLY_FEASIBLE``; an undecided box offers none.  The point
    is returned only if it lies in the box and meets every constraint
    exactly.  A box or a witness whose dimension is not the problem's
    raises :class:`~mmopt.errors.DimensionMismatch`, and an oracle return
    value with no verdict ``kind`` raises :class:`~mmopt.errors.MMOptError`.
    """
    if box.dim != problem.dim:
        raise DimensionMismatch(f"box dimension {box.dim} != problem dimension {problem.dim}")
    x = _box_point(problem)(box)
    if x is None or x is _INFEASIBLE or not _admissible(problem.constraints, box, x):
        return None
    return x


class RegionQueue:
    """Opaque items with cached bounds, under one selection discipline.

    ``push`` gives each item the next id, 0, 1, 2, ... in push order, and
    ``pop`` returns the item with its bound and id.  best-first pops an item
    maximizing the bound (ties: push order, which puts the lower bisection
    child first); oldest-first pops in push order (FIFO).  Both are one heap
    of ``(key, id, bound, item)``, keyed by ``-bound`` for best-first and by
    a constant for oldest-first.  Ids are unique, so the heap never compares
    items, and the queue reads nothing of them.
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

    def push(self, item, ubound: float):
        key = -ubound if self.discipline == "best-first" else 0.0
        heapq.heappush(self._heap, (key, self._next_id, ubound, item))
        self._next_id += 1

    def pop(self) -> tuple[object, float, int]:
        _, item_id, ubound, item = heapq.heappop(self._heap)
        return item, ubound, item_id

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
    steps = config.reduction_bisection_steps
    best_first = config.selection_rule == "best-first"
    box_point = _box_point(problem)
    reduce = problem.reducer
    if reduce is None:

        def reduce(box, gamma, steps):
            return reduce_box(box, objective, constraints, gamma, steps)

    def cutoff(g: float) -> float:
        # relative: g + eta*|g|, as (1 + eta) * g for g >= 0 and (1 - eta) * g below;
        # before any incumbent, -inf + eta stays -inf
        if not relative or g == -math.inf:
            return g + eta
        return (1.0 + eta) * g if g >= 0.0 else (1.0 - eta) * g

    # loop state; gamma is nondecreasing over iterations
    queue = RegionQueue(config.selection_rule)
    gamma = -math.inf
    gamma_cut = cutoff(gamma)  # kept equal to cutoff(gamma)
    incumbent = None
    iteration = 0
    stats = SolveStats()
    thin_bound = -math.inf  # largest bound of a dropped thin box not proven infeasible
    root = problem.initial_box
    scale = max(1.0, float(np.abs(root.r).max()), float(np.abs(root.s).max()))
    point_diameter = _POINT_DIAMETER * scale
    # the boxes of this step with their edge widths: the root, then each iteration's children
    boxes = ((root, (root.s - root.r).tolist()),)
    halves = objective.halves  # (up, down) of a separable objective, else None
    if halves is not None:
        up, down = halves
        join = objective._join
    # the popped record's point, corners and halves: no child evaluates the
    # point again, and a child sharing a corner reuses its half
    evaluated = parent_s = parent_r = parent_halves = None

    trace = None
    status = None
    try:
        if config.trace_path is not None:
            trace = open(config.trace_path, "w", encoding="utf-8")
            trace.write(_TRACE_HEADER + "\n")

        while True:
            survivors = []
            stats.boxes_created += len(boxes)
            for box, widths in boxes:
                x = box_point(box)
                if x is _INFEASIBLE:
                    stats.boxes_pruned_infeasible += 1
                    continue
                s, r = box.s, box.r
                if halves is None:
                    box_halves = None
                    box_u = objective.eval(s, r)
                else:
                    up_s = parent_halves[0] if s is parent_s else up(s)
                    down_r = parent_halves[1] if r is parent_r else down(r)
                    box_halves = (up_s, down_r)
                    box_u = join(up_s, down_r)
                if x is not None and x is not evaluated:
                    if halves is None:
                        value = objective.eval(x, x)
                    else:  # the lower corner as a point reuses its box's down(r)
                        value = join(up(x), down_r if x is r else down(x))
                    # the constraint check runs only for a point that would be taken
                    if incumbent is None or value > gamma:
                        if _admissible(constraints, box, x):
                            gamma = value
                            gamma_cut = cutoff(gamma)
                            incumbent = x
                if max(widths) >= point_diameter:
                    survivors.append((box_u, (box, x, box_halves, widths)))
                else:
                    thin_bound = max(thin_bound, box_u)

            # survivors are pruned on the incumbent of the whole step
            for box_u, record in survivors:
                if box_u <= gamma_cut:
                    stats.boxes_pruned_bound += 1
                    continue
                queue.push(record, box_u)

            size = len(queue)
            if size > stats.peak_region_count:
                stats.peak_region_count = size
            if trace is not None and iteration:
                trace.write(f"{iteration},{selected_id},{selected_u:.12g},{gamma:.12g},{size}\n")

            if size == 0:
                break
            if best_first or iteration % 64 == 0:
                if queue.max_bound() <= gamma_cut:
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
            record, selected_u, selected_id = queue.pop()
            selected, evaluated, parent_halves, widths = record
            parent_s, parent_r = selected.s, selected.r
            boxes = _split(selected, widths)
            if config.reduction_enabled:
                # reduction cuts on the incumbent before this step's update; a
                # child it returns unchanged keeps its widths
                reduced = []
                for child, widths in boxes:
                    cut = reduce(child, gamma, steps)
                    if cut is None:
                        stats.boxes_reduced_empty += 1
                    elif cut is child:
                        reduced.append((child, widths))
                    else:
                        reduced.append((cut, (cut.s - cut.r).tolist()))
                boxes = reduced
    finally:
        if trace is not None:
            trace.close()

    if status is None:
        if thin_bound > gamma_cut:  # a dropped thin child may still beat the incumbent
            status = STATUS_RESOLUTION_LIMIT
        elif incumbent is None:
            status = STATUS_INFEASIBLE
        elif relative:
            status = STATUS_RELATIVE_ETA_OPTIMAL
        else:
            status = STATUS_ETA_OPTIMAL

    return SolverResult(
        incumbent=incumbent,
        value=gamma,
        status=status,
        iterations=iteration,
        wall_time=time.perf_counter() - t_start,
        stats=stats,
    )
