"""Box-level feasibility classification.

For a feasible set cut out by mixed monotonic constraints
``G_i(x, x) <= 0`` over a box ``[r, s]``:

* ``G_i(s, r) <= 0`` for all ``i`` certifies the whole box feasible, and
  ``G_i(r, s) > 0`` for some ``i`` certifies it empty -- one-sided tests.
* When every constraint declares the same ``monotone_split`` I (each
  ``G_i(x, x)`` nondecreasing in ``x_I`` and nonincreasing elsewhere), one
  corner decides: the box meets the feasible set iff every
  ``G_i(w, w) <= 0`` at the corner ``w`` taking ``r`` on I and ``s``
  elsewhere, and ``w`` is then the witness.
* Normal sets (sublevel sets of nondecreasing maps) are this corner test
  with I = every coordinate (``w = r``), conormal sets (superlevel sets)
  with I = no coordinate (``w = s``).  :func:`mm_conclusive_test` makes the
  test on constraints; :func:`normal_set_test` and
  :func:`conormal_set_test` make it on plain callables of ``x``, each
  evaluated directly at its corner.
* Floors of the form ``x >= m x + c`` (``m >= 0``, ``c >= 0``; an affine
  standard interference function, as the WSR rate floors are) meet ``[r, s]``
  iff the least fixed point ``p*`` of ``p = max(r, m p + c)`` lies below
  ``s``: :func:`least_point_test` finds ``p*`` by an active-set solve in
  Python floats and decides the boxes the one-sided test leaves open.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import fsum
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .core import BoxNd, MMConstraint
from .errors import EvaluationError, MissingMonotoneSplit

__all__ = [
    "Feasibility",
    "FeasibilityVerdict",
    "mm_sufficient_test",
    "mm_conclusive_test",
    "normal_set_test",
    "conormal_set_test",
    "least_point_test",
    "VERDICT_INFEASIBLE",
    "VERDICT_UNKNOWN",
]


class Feasibility(enum.Enum):
    FULLY_FEASIBLE = "fully-feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"
    FEASIBLE_WITH_WITNESS = "feasible-with-witness"


@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    kind: Feasibility
    witness: np.ndarray | None = None


# the verdicts without a witness, built once: every test returns these instances
VERDICT_INFEASIBLE = FeasibilityVerdict(Feasibility.INFEASIBLE)
VERDICT_UNKNOWN = FeasibilityVerdict(Feasibility.UNKNOWN)


def mm_sufficient_test(box: BoxNd, constraints: Sequence[MMConstraint]) -> FeasibilityVerdict:
    """One-sided feasibility test from constraint values at opposite corners.

    Returns FULLY_FEASIBLE when every constraint is satisfied at the
    pessimistic corner pair (upper, lower), INFEASIBLE when some constraint
    is violated at the optimistic pair (lower, upper), and UNKNOWN for boxes
    straddling a constraint boundary.
    """
    r, s = box.r, box.s
    for c in constraints:
        if c.g.eval(r, s) > 0.0:
            return VERDICT_INFEASIBLE
    for c in constraints:
        if c.g.eval(s, r) > 0.0:
            return VERDICT_UNKNOWN
    return FeasibilityVerdict(Feasibility.FULLY_FEASIBLE, witness=r)


def mm_conclusive_test(box: BoxNd, constraints: Sequence[MMConstraint]) -> FeasibilityVerdict:
    """Exact corner test for constraints that share a ``monotone_split`` I:
    the box meets the feasible set iff every ``G_i(w, w) <= 0`` at the corner
    ``w`` taking ``r`` on I and ``s`` elsewhere, which is then the witness.
    Never UNKNOWN.

    Each ``G_i(x, x)`` is nondecreasing in ``x_I`` and nonincreasing in the
    other coordinates, so every constraint is least over the box at ``w``.
    I = every coordinate gives the normal-set test at ``r``, I = no
    coordinate the conormal-set test at ``s``; with no constraints ``w`` is
    ``r``.  A constraint without a split, or splits that differ, raise
    :class:`~mmopt.errors.MissingMonotoneSplit`.
    """
    r, s = box.r, box.s
    splits = {c.monotone_split for c in constraints}
    if None in splits or len(splits) > 1:
        raise MissingMonotoneSplit("the constraints need one shared monotone_split")
    split = splits.pop() if splits else range(r.size)  # no constraints: w = r
    if len(split) == r.size:
        w = r
    elif not split:
        w = s
    else:
        w = s.copy()
        idx = sorted(split)
        w[idx] = r[idx]
        w.flags.writeable = False
    return _witness_verdict(w, constraints, VERDICT_INFEASIBLE)


def _witness_verdict(w, constraints, otherwise: FeasibilityVerdict) -> FeasibilityVerdict:
    """FEASIBLE_WITH_WITNESS ``w`` when every ``G_i(w, w) <= 0``, else ``otherwise``."""
    for c in constraints:
        if c.g.eval(w, w) > 0.0:
            return otherwise
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, w)


# relative distance by which a least point must leave the box before the box
# is called infeasible; it absorbs the roundoff of the linear solves
_LEAST_POINT_MARGIN = 1e-9


def _solve(a: list, b: list) -> list | None:
    """The solution of ``a x = b`` (``a`` a list of rows) by Gaussian
    elimination with partial pivoting, LAPACK's ``gesv`` algorithm, in
    Python floats; None when a pivot is exactly zero.  Overwrites ``a`` and
    ``b``."""
    n = len(b)
    for j in range(n):
        piv, big = j, abs(a[j][j])
        for i in range(j + 1, n):
            if abs(a[i][j]) > big:  # the first largest, as LAPACK's idamax
                piv, big = i, abs(a[i][j])
        if big == 0.0:
            return None
        a[j], a[piv] = a[piv], a[j]
        b[j], b[piv] = b[piv], b[j]
        top, bj = a[j], b[j]
        for i in range(j + 1, n):
            row = a[i]
            f = row[j] / top[j]
            if f != 0.0:
                for t in range(j + 1, n):
                    row[t] -= f * top[t]
                b[i] -= f * bj
    x = b
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = x[i]
        for t in range(i + 1, n):
            acc -= row[t] * x[t]
        x[i] = acc / row[i]
    return x


def least_point_test(
    box: BoxNd, constraints: Sequence[MMConstraint], m, c
) -> FeasibilityVerdict:
    """Exact test for constraints whose feasible set is ``{x | x >= m x + c}``,
    with ``m`` (n x n) and ``c`` (n) nonnegative and ``c_k > 0`` wherever row
    ``k`` of ``m`` is nonzero, on a box in the nonnegative orthant.  ``m`` and
    ``c`` are numpy arrays or (nested) lists of Python floats.

    The one-sided :func:`mm_sufficient_test` runs first; its INFEASIBLE and
    FULLY_FEASIBLE verdicts stand.  Otherwise the least feasible point ``p*``
    of ``[r, inf)``, the least fixed point of ``p = max(r, m p + c)`` (Yates,
    IEEE JSAC 1995), decides the box: every feasible point of the box lies
    above ``p*``.  An active set finds ``p*`` in at most n linear solves.  It
    starts from the rows with ``(m r + c)_k > r_k``, solves
    ``(I - m_AA) p_A = m_{A,~A} r_~A + c_A`` with ``p_~A = r_~A``, and adds
    the rows that then bind.  Each solution lies below ``p*``.  A solution with
    an entry ``<= 0`` shows that ``m_AA`` has spectral radius at least 1, so
    that no ``p*`` exists.  The active set runs in Python floats, each solve
    by Gaussian elimination with partial pivoting, which for a few users is
    faster than numpy's per-call overhead; each row sum of products is
    their correctly rounded sum (``math.fsum``).

    Returns INFEASIBLE when no ``p*`` exists or it leaves ``s`` by more than a
    relative margin of 1e-9.  Otherwise the witness is ``p*`` raised by that
    margin and clipped to the box, ``w = min((1 + 1e-9) p*, s)``: every floor
    that binds at ``p*`` holds at ``(1 + 1e-9) p*`` with a slack of
    ``1e-9 c_k``, which roundoff cannot undo.  It is returned as
    FEASIBLE_WITH_WITNESS once every ``G_i(w, w) <= 0`` holds.  The verdict
    is UNKNOWN when that check fails or a solve is singular or non-finite.
    """
    verdict = mm_sufficient_test(box, constraints)
    if verdict.kind is not Feasibility.UNKNOWN:
        return verdict
    if isinstance(m, np.ndarray):
        m = m.tolist()
    if isinstance(c, np.ndarray):
        c = c.tolist()
    r, s = box.r.tolist(), box.s.tolist()
    rows = range(len(r))
    p = r
    on = []  # the active set, in ascending order
    while True:
        grow = [k for k in rows if k not in on and fsum(map(mul, m[k], p)) + c[k] > r[k]]
        if not grow:
            break
        on = sorted(on + grow)
        off = [j for j in rows if j not in on]
        # p_k - (m p)_k = c_k on A with p_j = r_j off A: a system in p_A alone
        system = [[(1.0 if i == j else 0.0) - m[i][j] for j in on] for i in on]
        rhs = [c[i] + fsum([m[i][j] * r[j] for j in off]) for i in on]
        solution = _solve(system, rhs)
        if solution is None or not all(map(math.isfinite, solution)):
            return VERDICT_UNKNOWN
        if min(solution) <= 0.0:
            return VERDICT_INFEASIBLE
        p = list(r)
        for k, v in zip(on, solution):
            if v > p[k]:  # a solution is >= r up to roundoff
                p[k] = v
        if any(pk * (1.0 - _LEAST_POINT_MARGIN) > sk for pk, sk in zip(p, s)):
            return VERDICT_INFEASIBLE
    # p* itself meets its binding floors only up to roundoff; (1 + margin) p*
    # meets them with a slack of margin * c_k
    w = np.array([min(pk * (1.0 + _LEAST_POINT_MARGIN), sk) for pk, sk in zip(p, s)])
    w.setflags(write=False)
    return _witness_verdict(w, constraints, VERDICT_UNKNOWN)


def normal_set_test(
    box: BoxNd, nondecreasing: Sequence[Callable[[np.ndarray], float]]
) -> FeasibilityVerdict:
    """Feasibility over a normal set ``{x | g_i(x) <= 0}``, g_i nondecreasing:
    the corner test with every coordinate as the split (the lower corner)."""
    return _corner_test(box.r, nondecreasing, 1.0)


def conormal_set_test(
    box: BoxNd, nondecreasing: Sequence[Callable[[np.ndarray], float]]
) -> FeasibilityVerdict:
    """Feasibility over a conormal set ``{x | h_i(x) >= 0}``, h_i nondecreasing:
    the corner test with no coordinate as the split (the upper corner)."""
    return _corner_test(box.s, nondecreasing, -1.0)


def _corner_test(w: np.ndarray, funcs, sign: float) -> FeasibilityVerdict:
    # the corner test of the constraints sign * f(x) <= 0, each least over the
    # box at w; NaN is rejected as MMFunction.eval rejects it
    for f in funcs:
        v = sign * float(f(w))
        if math.isnan(v):
            raise EvaluationError(f"{f!r}: evaluation produced NaN")
        if v > 0.0:
            return VERDICT_INFEASIBLE
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, w)
