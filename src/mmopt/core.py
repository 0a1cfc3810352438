"""Fundamental geometric and problem-definition types.

Everything here is immutable after construction.  A mixed monotonic (MM)
function ``F(x, y)`` is nondecreasing in ``x`` and nonincreasing in ``y``
(componentwise); the objective it represents is the diagonal ``f(x) = F(x, x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CornerOrderViolation,
    DimensionMismatch,
    EvaluationError,
    MMOptError,
    NonFiniteEntry,
)

__all__ = [
    "BoxNd",
    "MMFunction",
    "MMConstraint",
    "ProblemInstance",
    "SolverConfig",
    "SolverResult",
    "SolveStats",
    "MMPropertyReport",
    "make_box",
    "check_mm_property",
    "FEASIBILITY_MODES",
    "STATUS_ETA_OPTIMAL",
    "STATUS_RELATIVE_ETA_OPTIMAL",
    "STATUS_EPS_ETA_APPROXIMATE",
    "STATUS_INFEASIBLE",
    "STATUS_ITERATION_LIMIT",
    "STATUS_TIME_LIMIT",
    "STATUS_RESOLUTION_LIMIT",
]

# Feasibility handling strategies a problem may declare.
FEASIBILITY_MODES = (
    "mm-conclusive",
    "normal",
    "conormal",
    "mm-sufficient-only",
    "custom-oracle",
)

STATUS_ETA_OPTIMAL = "eta-optimal"
STATUS_RELATIVE_ETA_OPTIMAL = "relative-eta-optimal"
STATUS_EPS_ETA_APPROXIMATE = "eps-eta-approximate"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_TIME_LIMIT = "time-limit"
STATUS_RESOLUTION_LIMIT = "resolution-limit"


def _as_readonly_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector with n >= 1, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BoxNd:
    """Axis-aligned hyperrectangle ``[r, s]``.

    ``r <= s`` componentwise; zero-width dimensions are allowed.  Boxes are
    the unit of branching, bounding and reduction; the order in which the
    solver visits them belongs to its queue, not to the box.

    Constructing a ``BoxNd`` copies both corners, checks them and freezes the
    copies; every box that enters through the API is built this way.  The
    children the solver makes by bisection and reduction are valid by
    construction and are not re-validated: they come from :meth:`_trusted`
    and may share read-only corner arrays with their parent.
    """

    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        r = _as_readonly_vector(self.r, "r")
        s = _as_readonly_vector(self.s, "s")
        if r.shape != s.shape:
            raise DimensionMismatch(f"corner dimensions differ: {r.shape} vs {s.shape}")
        if not (np.isfinite(r).all() and np.isfinite(s).all()):
            raise NonFiniteEntry("box corners must be finite")
        if np.any(r > s):
            bad = int(np.argmax(r > s))
            raise CornerOrderViolation(f"r[{bad}] = {r[bad]} exceeds s[{bad}] = {s[bad]}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @classmethod
    def _trusted(cls, r: np.ndarray, s: np.ndarray) -> BoxNd:
        """A box over the given corner arrays, without copies or checks.

        The caller guarantees what ``__post_init__`` would enforce: ``r`` and
        ``s`` are read-only, finite, 1-d float64 arrays of equal shape with
        ``r <= s``.  The arrays are stored as given, so they may be shared
        with other boxes.
        """
        box = object.__new__(cls)
        object.__setattr__(box, "r", r)
        object.__setattr__(box, "s", s)
        return box

    @property
    def dim(self) -> int:
        return self.r.size

    @property
    def diameter(self) -> float:
        """Longest edge length, max_i (s_i - r_i)."""
        return float((self.s - self.r).max())

    def contains(self, x, tol: float = 0.0) -> bool:
        """Whether the point ``x`` (shape ``(dim,)``) lies in the box widened by ``tol``."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.r.shape:
            raise DimensionMismatch(f"point shape {x.shape} != box shape {self.r.shape}")
        return bool(np.all(x >= self.r - tol) and np.all(x <= self.s + tol))

    def __repr__(self):  # compact, for traces and test failures
        return f"BoxNd(r={self.r.tolist()}, s={self.s.tolist()})"


def make_box(r, s) -> BoxNd:
    """Construct a box from its lower and upper corners."""
    return BoxNd(r, s)


class MMFunction:
    """Evaluable ``F(x, y)``, nondecreasing in ``x`` and nonincreasing in ``y``.

    Monotonicity is trusted from the constructors in :mod:`mmopt.calculus`
    and can be spot-checked with :func:`check_mm_property`; there is no
    symbolic verification.  Evaluations returning NaN raise
    :class:`~mmopt.errors.EvaluationError` -- NaN must never reach an
    ordering.  ``-inf`` is a legal value (e.g. a log-utility at a zero rate).
    """

    __slots__ = ("dim", "_fn", "name")

    def __init__(self, dim: int, fn: Callable[[np.ndarray, np.ndarray], float], name: str = "mm"):
        if dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self._fn = fn
        self.name = name

    def eval(self, x, y) -> float:
        v = float(self._fn(x, y))
        if math.isnan(v):
            raise EvaluationError(f"{self.name}: evaluation produced NaN")
        return v

    def diagonal(self, x) -> float:
        """Objective value f(x) = F(x, x)."""
        return self.eval(x, x)

    def __repr__(self):
        return f"MMFunction({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class MMConstraint:
    """Constraint ``G(x, x) <= 0`` with ``G`` mixed monotonic.

    ``monotone_split`` is the (0-based) index set I for constraints whose
    value depends only on the I-coordinates of ``x`` and the complementary
    coordinates of ``y``; it enables the conclusive feasibility test.  Its
    indices must be integers (numpy's included, bools not) in ``[0, dim)``.
    """

    g: MMFunction
    monotone_split: frozenset[int] | None = None

    def __post_init__(self):
        if self.monotone_split is not None:
            idx = tuple(self.monotone_split)
            if not all(_is_count(i, 0) and i < self.g.dim for i in idx):
                raise DimensionMismatch("monotone_split needs integer indices in [0, dim)")
            object.__setattr__(self, "monotone_split", frozenset(int(i) for i in idx))

    @property
    def dim(self) -> int:
        return self.g.dim


@dataclass(frozen=True)
class ProblemInstance:
    """A maximization problem over a box-enclosed feasible set.

    The initial box must enclose the feasible set.  ``feasibility_mode``
    selects how boxes are classified; ``custom-oracle`` requires
    ``feasibility_oracle`` (a ``box -> FeasibilityVerdict`` callable).
    Feasible points come only from verdicts: an oracle offers one as the
    witness of a ``FEASIBLE_WITH_WITNESS`` verdict, and the solver takes it
    only if its shape is ``(dim,)`` (else ``DimensionMismatch``), it lies in
    the box and every constraint holds there within
    ``epsilon_feasibility``.
    """

    objective: MMFunction
    constraints: tuple[MMConstraint, ...]
    initial_box: BoxNd
    feasibility_mode: str = "mm-sufficient-only"
    feasibility_oracle: Callable[[BoxNd], "object"] | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.feasibility_mode not in FEASIBILITY_MODES:
            raise MMOptError(f"unknown feasibility_mode {self.feasibility_mode!r}")
        n = self.objective.dim
        if self.initial_box.dim != n:
            raise DimensionMismatch(
                f"initial box dimension {self.initial_box.dim} != objective dimension {n}"
            )
        for c in self.constraints:
            if c.dim != n:
                raise DimensionMismatch("constraint dimension differs from objective")
        if self.feasibility_mode == "mm-conclusive":
            splits = {c.monotone_split for c in self.constraints}
            if None in splits or len(splits) > 1:
                raise MMOptError(
                    "mm-conclusive mode requires every constraint to carry the same monotone_split"
                )
        if self.feasibility_mode == "custom-oracle" and self.feasibility_oracle is None:
            raise MMOptError("custom-oracle mode requires a feasibility_oracle")

    @property
    def dim(self) -> int:
        return self.objective.dim


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the branch-reduce-and-bound loop.

    ``eta`` is the optimality tolerance, absolute by default or relative to
    the incumbent value gamma (``tolerance_mode="relative"``: a box whose
    bound does not exceed ``gamma + eta * |gamma|`` is pruned, for either
    sign).  ``selection_rule`` is ``"best-first"`` or ``"oldest-first"``.
    ``reduction_enabled`` (a bool) shrinks every child by
    ``reduction_bisection_steps`` halvings per line search.
    ``epsilon_feasibility > 0`` admits incumbents whose constraints hold up
    to that slack; at 0 every incumbent, an oracle's included, meets every
    constraint exactly.  ``max_iterations`` and ``max_wall_time`` (seconds)
    stop the loop with a limit status; ``trace_path`` names a CSV file that
    receives one row per iteration.
    """

    eta: float = 0.01
    tolerance_mode: str = "absolute"
    selection_rule: str = "best-first"
    reduction_enabled: bool = False
    reduction_bisection_steps: int = 10
    epsilon_feasibility: float = 0.0
    max_iterations: int | None = None
    max_wall_time: float | None = None
    trace_path: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise MMOptError("eta must be positive and finite")
        if self.tolerance_mode not in ("absolute", "relative"):
            raise MMOptError(f"unknown tolerance_mode {self.tolerance_mode!r}")
        if self.selection_rule not in ("best-first", "oldest-first"):
            raise MMOptError(f"unknown selection_rule {self.selection_rule!r}")
        if not isinstance(self.reduction_enabled, (bool, np.bool_)):
            raise MMOptError("reduction_enabled must be a bool")
        if not _is_count(self.reduction_bisection_steps, 1):
            raise MMOptError("reduction_bisection_steps must be an integer >= 1")
        if not (math.isfinite(self.epsilon_feasibility) and self.epsilon_feasibility >= 0):
            raise MMOptError("epsilon_feasibility must be finite and nonnegative")
        if self.max_iterations is not None and not _is_count(self.max_iterations, 0):
            raise MMOptError("max_iterations must be an integer >= 0")
        if self.max_wall_time is not None and not self.max_wall_time >= 0:
            raise MMOptError("max_wall_time must be nonnegative")


def _is_count(value, least: int) -> bool:
    """An integer (numpy's included, bools not) of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


@dataclass
class SolveStats:
    """Counts of one solve: why boxes left the search.

    ``boxes_created`` counts the root and every bisection child that
    survives reduction, so ``boxes_created == 1 + 2 * iterations -
    boxes_reduced_empty``.
    """

    boxes_created: int = 0
    boxes_pruned_infeasible: int = 0
    boxes_pruned_bound: int = 0
    boxes_reduced_empty: int = 0
    peak_region_count: int = 0


@dataclass(frozen=True)
class SolverResult:
    incumbent: np.ndarray | None
    value: float
    status: str
    iterations: int
    peak_region_count: int
    wall_time: float
    stats: SolveStats = field(default_factory=SolveStats)


@dataclass(frozen=True)
class MMPropertyReport:
    violations: int
    worst_gap: float


def check_mm_property(
    f: MMFunction, box: BoxNd, samples: int, rng_seed: int = 0
) -> MMPropertyReport:
    """Sampled verification of the defining monotonicity inequalities.

    Draws ``samples`` ordered pairs ``x <= x'`` and ``y <= y'`` inside the
    box and counts violations of ``F(x, y) <= F(x', y)`` and
    ``F(x, y) >= F(x, y')`` beyond 1e-12.  Reporting only; never raises on
    a violation.
    """
    if samples < 1:
        raise MMOptError("samples must be >= 1")
    if f.dim != box.dim:
        raise DimensionMismatch("function and box dimensions differ")
    rng = np.random.default_rng(rng_seed)
    r, width = box.r, box.s - box.r
    violations = 0
    worst = 0.0
    for _ in range(samples):
        u = r + width * rng.random(box.dim)
        v = r + width * rng.random(box.dim)
        x, x_hi = np.minimum(u, v), np.maximum(u, v)
        u = r + width * rng.random(box.dim)
        v = r + width * rng.random(box.dim)
        y, y_hi = np.minimum(u, v), np.maximum(u, v)
        base = f.eval(x, y)
        gap_x = base - f.eval(x_hi, y)  # positive = nondecreasing-in-x violated
        gap_y = f.eval(x, y_hi) - base  # positive = nonincreasing-in-y violated
        if gap_x > 1e-12:
            violations += 1
            worst = max(worst, gap_x)
        if gap_y > 1e-12:
            violations += 1
            worst = max(worst, gap_y)
    return MMPropertyReport(violations=violations, worst_gap=worst)
