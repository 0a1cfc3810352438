"""Fundamental geometric and problem-definition types.

Everything here is immutable after construction.  A mixed monotonic (MM)
function ``F(x, y)`` is nondecreasing in ``x`` and nonincreasing in ``y``
(componentwise); the objective it represents is the diagonal ``f(x) = F(x, x)``.
"""

from __future__ import annotations

import math
import numbers
import os
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
    "STATUS_ETA_OPTIMAL",
    "STATUS_RELATIVE_ETA_OPTIMAL",
    "STATUS_INFEASIBLE",
    "STATUS_ITERATION_LIMIT",
    "STATUS_TIME_LIMIT",
    "STATUS_RESOLUTION_LIMIT",
]

STATUS_ETA_OPTIMAL = "eta-optimal"
STATUS_RELATIVE_ETA_OPTIMAL = "relative-eta-optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration-limit"
STATUS_TIME_LIMIT = "time-limit"
STATUS_RESOLUTION_LIMIT = "resolution-limit"


def _numbers(v, name: str, error: type[MMOptError]) -> np.ndarray:
    """``v`` as a new float array if numpy reads it as integers or floats, else
    ``error``: strings, bools (also among numbers) and ragged lists fail."""
    try:
        arr = np.asarray(v)
        ok = arr.dtype.kind in "iuf" and (
            isinstance(v, np.ndarray)
            or not any(isinstance(e, (bool, np.bool_)) for e in np.asarray(v, dtype=object).flat)
        )
    except ValueError:  # a ragged list
        ok = False
    if not ok:
        raise error(f"{name} must hold numbers, got {v!r}")
    return np.array(arr, dtype=float, copy=True)


def _as_readonly_vector(v, name: str) -> np.ndarray:
    arr = _numbers(v, name, MMOptError)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector with n >= 1, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
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

    def contains(self, x, tol: float = 0.0) -> bool:
        """Whether the point ``x`` (shape ``(dim,)``) lies in the box widened by ``tol``."""
        x = _numbers(x, "point", MMOptError)
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
    A ``fn`` that is not callable raises :class:`~mmopt.errors.MMOptError`.

    :attr:`halves` is ``None``, or for a function built by
    :func:`~mmopt.calculus.mm_separable` its pair ``(up, down)`` with
    ``F(x, y) = up(x) + down(y)``; the solver then evaluates each half of a
    box bound apart and reuses the half a bisection child shares.
    """

    __slots__ = ("dim", "_fn", "name", "_halves")

    def __init__(self, dim: int, fn: Callable[[np.ndarray, np.ndarray], float], name: str = "mm"):
        if not _is_count(dim, 1):
            raise DimensionMismatch(f"dimension must be an integer >= 1, got {dim!r}")
        if not callable(fn):
            raise MMOptError(f"{name}: fn must be callable, got {fn!r}")
        self.dim = int(dim)
        self._fn = fn
        self.name = name
        self._halves = None

    def eval(self, x, y) -> float:
        v = float(self._fn(x, y))
        if math.isnan(v):
            raise EvaluationError(f"{self.name}: evaluation produced NaN")
        return v

    @property
    def halves(self) -> tuple[Callable, Callable] | None:
        """``(up, down)`` of a separable function (see
        :func:`~mmopt.calculus.mm_separable`), else ``None``."""
        return self._halves

    def _join(self, up_value, down_value) -> float:
        """``F``'s value from the values of its halves, checked as :meth:`eval`
        checks its own: ``up(x) + down(y)`` is what ``eval(x, y)`` sums."""
        v = float(up_value + down_value)
        if math.isnan(v):
            raise EvaluationError(f"{self.name}: evaluation produced NaN")
        return v

    def __repr__(self):
        return f"MMFunction({self.name}, dim={self.dim})"


@dataclass(frozen=True)
class MMConstraint:
    """Constraint ``G(x, x) <= 0`` with ``G`` mixed monotonic.

    ``monotone_split`` is a (0-based) index set I such that ``G(x, x)`` is
    nondecreasing in ``x_I`` and nonincreasing in the other coordinates, as
    when ``G`` depends only on ``x_I`` and on ``y`` off I, or for a normal set
    (I = every coordinate) and a conormal set (I = none) with any ``G``; the
    corner test (:func:`~mmopt.feasibility.mm_conclusive_test`) relies on it.
    Its indices must be integers (numpy's included, bools not) in ``[0, dim)``.
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


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A maximization problem over a box-enclosed feasible set.

    The initial box must enclose the feasible set.  How boxes are decided
    follows from the inputs (see :attr:`feasibility_mode`): by
    ``feasibility_oracle`` (a ``box -> FeasibilityVerdict`` callable) when
    one is given, else by the constraints' ``monotone_split``.
    Feasible points come only from verdicts: an oracle offers one as the
    witness of a ``FEASIBLE_WITH_WITNESS`` verdict, and the solver takes it
    only if its shape is ``(dim,)`` (else ``DimensionMismatch``), it lies in
    the box and every constraint holds there exactly (``G(x, x) <= 0``).  An
    oracle return value with no verdict ``kind`` raises ``MMOptError``.  The
    solver keeps the witness array and evaluates it once per branch, so an
    oracle must not change it afterwards.

    ``reducer``, a ``(box, gamma, steps) -> BoxNd | None`` callable, is the
    reduction step that runs in place of :func:`~mmopt.solver.reduce_box`
    when ``reduction_enabled`` is set; ``steps`` is the configured
    ``reduction_bisection_steps``, which a reducer that runs no bisection
    ignores.  It keeps ``reduce_box``'s contract:
    ``None`` only when the box holds no feasible point of value above
    ``gamma``, else a box inside ``box`` (``box`` itself when nothing is cut)
    that keeps every such point, with read-only corners.  A reducer carries
    its own copy of the objective and the constraints (the floored ``mmp``
    sum-rate problem's reducer inverts the rate floors and the sum rate in
    closed form), so a copy of the problem with another objective or other
    constraints must drop it (``reducer=None``).
    """

    objective: MMFunction
    constraints: tuple[MMConstraint, ...]
    initial_box: BoxNd
    feasibility_oracle: Callable[[BoxNd], "object"] | None = None
    reducer: Callable[[BoxNd, float, int], "BoxNd | None"] | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        oracle, reducer = self.feasibility_oracle, self.reducer
        if oracle is not None and not callable(oracle):
            raise MMOptError(f"feasibility_oracle must be callable, got {oracle!r}")
        if reducer is not None and not callable(reducer):
            raise MMOptError(f"reducer must be callable, got {reducer!r}")
        n = self.objective.dim
        if self.initial_box.dim != n:
            raise DimensionMismatch(
                f"initial box dimension {self.initial_box.dim} != objective dimension {n}"
            )
        for c in self.constraints:
            if c.dim != n:
                raise DimensionMismatch("constraint dimension differs from objective")

    @property
    def feasibility_mode(self) -> str:
        """The box test the inputs imply: ``custom-oracle`` with an oracle, else
        ``mm-conclusive`` (the corner test) when every constraint carries the
        same ``monotone_split`` (also when there are none), else
        ``mm-sufficient-only``."""
        if self.feasibility_oracle is not None:
            return "custom-oracle"
        splits = {c.monotone_split for c in self.constraints}
        if len(splits) <= 1 and None not in splits:
            return "mm-conclusive"
        return "mm-sufficient-only"

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
    ``reduction_enabled`` (a bool) shrinks every child, by the problem's
    ``reducer`` when it has one, else by :func:`~mmopt.solver.reduce_box`.
    ``reduction_bisection_steps`` is the number of halvings per line search
    of :func:`~mmopt.solver.reduce_box`, and governs it alone: the floored
    ``mmp`` sum-rate problem's reducer inverts the floors and the own-power
    term in closed form and cuts the upper faces by two verified secant
    steps on a convex line.  ``max_iterations`` and
    ``max_wall_time`` (seconds) stop the loop with a limit status;
    ``trace_path`` (a ``str`` or an ``os.PathLike``) names a CSV file that
    receives one row per iteration.
    """

    eta: float = 0.01
    tolerance_mode: str = "absolute"
    selection_rule: str = "best-first"
    reduction_enabled: bool = False
    reduction_bisection_steps: int = 10
    max_iterations: int | None = None
    max_wall_time: float | None = None
    trace_path: str | os.PathLike | None = None

    def __post_init__(self):
        if not (_is_finite_real(self.eta) and self.eta > 0):
            raise MMOptError(f"eta must be positive and finite, got {self.eta!r}")
        if self.tolerance_mode not in ("absolute", "relative"):
            raise MMOptError(f"unknown tolerance_mode {self.tolerance_mode!r}")
        if self.selection_rule not in ("best-first", "oldest-first"):
            raise MMOptError(f"unknown selection_rule {self.selection_rule!r}")
        if not isinstance(self.reduction_enabled, (bool, np.bool_)):
            raise MMOptError("reduction_enabled must be a bool")
        if not _is_count(self.reduction_bisection_steps, 1):
            raise MMOptError("reduction_bisection_steps must be an integer >= 1")
        if self.max_iterations is not None and not _is_count(self.max_iterations, 0):
            raise MMOptError("max_iterations must be an integer >= 0")
        wall = self.max_wall_time
        if wall is not None and not (_is_real(wall) and wall >= 0):
            raise MMOptError(f"max_wall_time must be nonnegative, got {wall!r}")
        # open() would take an int (or a bool) as a file descriptor and close it
        path = self.trace_path
        if path is not None and not isinstance(path, (str, os.PathLike)):
            raise MMOptError(f"trace_path must be a str or os.PathLike, got {path!r}")


def _is_count(value, least: int) -> bool:
    """An integer (numpy's included, bools not) of at least ``least``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _is_real(value) -> bool:
    """A real number (numpy's included, bools not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A finite real number (numpy's included, bools not); an integer past
    the float range is not finite."""
    if not _is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # int too large to convert to float
        return False


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


@dataclass(frozen=True, eq=False)
class SolverResult:
    incumbent: np.ndarray | None
    value: float
    status: str
    iterations: int
    wall_time: float
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def peak_region_count(self) -> int:
        """Most boxes stored at once, ``stats.peak_region_count``."""
        return self.stats.peak_region_count


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
    if not _is_count(samples, 1):
        raise MMOptError(f"samples must be an integer >= 1, got {samples!r}")
    if not _is_count(rng_seed, 0):
        raise MMOptError(f"rng_seed must be an integer >= 0, got {rng_seed!r}")
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
