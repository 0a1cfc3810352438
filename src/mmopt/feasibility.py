"""Box-level feasibility classification.

For a feasible set cut out by mixed monotonic constraints
``G_i(x, x) <= 0`` over a box ``[r, s]``:

* ``G_i(s, r) <= 0`` for all ``i`` certifies the whole box feasible, and
  ``G_i(r, s) > 0`` for some ``i`` certifies it empty -- one-sided tests.
* When every constraint depends only on the I-coordinates of ``x`` and the
  complementary coordinates of ``y`` (a shared ``monotone_split``), one
  corner decides: the box meets the feasible set iff every
  ``G_i(w, w) <= 0`` at the corner ``w`` taking ``r`` on I and ``s``
  elsewhere, and ``w`` is then the witness.
* Normal sets (sublevel sets of nondecreasing maps) are this corner test
  with I = every coordinate (``w = r``), conormal sets (superlevel sets)
  with I = no coordinate (``w = s``).  :func:`mm_conclusive_test` is the one
  implementation; :func:`normal_set_test` and :func:`conormal_set_test`
  run it on plain callables of ``x``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

import numpy as np

from .core import BoxNd, MMConstraint, MMFunction
from .errors import DimensionMismatch, MissingMonotoneSplit

__all__ = [
    "Feasibility",
    "FeasibilityVerdict",
    "mm_sufficient_test",
    "mm_conclusive_test",
    "normal_set_test",
    "conormal_set_test",
]


class Feasibility(enum.Enum):
    FULLY_FEASIBLE = "fully-feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"
    FEASIBLE_WITH_WITNESS = "feasible-with-witness"


@dataclass(frozen=True)
class FeasibilityVerdict:
    kind: Feasibility
    witness: np.ndarray | None = None

    @property
    def is_feasible(self) -> bool:
        return self.kind in (Feasibility.FULLY_FEASIBLE, Feasibility.FEASIBLE_WITH_WITNESS)


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
            return FeasibilityVerdict(Feasibility.INFEASIBLE)
    for c in constraints:
        if c.g.eval(s, r) > 0.0:
            return FeasibilityVerdict(Feasibility.UNKNOWN)
    return FeasibilityVerdict(Feasibility.FULLY_FEASIBLE, witness=r)


def mm_conclusive_test(
    box: BoxNd, constraints: Sequence[MMConstraint], split: Collection[int] | None = None
) -> FeasibilityVerdict:
    """Exact corner test: the box meets the feasible set iff every
    ``G_i(w, w) <= 0`` at the corner ``w`` taking ``r`` on the split I (a
    collection of distinct coordinate indices) and ``s`` elsewhere, which
    is then the witness.  Never UNKNOWN.

    Without ``split``, I is the ``monotone_split`` every constraint must
    share (no constraints: every coordinate); ``G_i`` then depends only on
    ``x_I`` and ``y`` off I, so ``G_i(w, w) = G_i(r, s)``.  Every coordinate
    gives the normal-set test at ``r``, no coordinate the conormal-set test
    at ``s``.  A split with a repeated or out-of-range index raises
    :class:`~mmopt.errors.DimensionMismatch`.
    """
    r, s = box.r, box.s
    if split is None:
        constraints = tuple(constraints)
        split = constraints[0].monotone_split if constraints else range(box.dim)
        if split is None:
            raise MissingMonotoneSplit("constraint carries no monotone_split")
        if any(c.monotone_split != split for c in constraints):
            raise MissingMonotoneSplit("constraints disagree on the monotone split")
    elif not (isinstance(split, range) and split == range(r.size)):  # the solver's normal split
        idx = sorted(set(split))
        if len(idx) != len(split) or (idx and (idx[0] < 0 or idx[-1] >= r.size)):
            raise DimensionMismatch(f"split needs distinct coordinate indices below {r.size}")
    if len(split) == r.size:
        w = r
    elif len(split) == 0:
        w = s
    else:
        w = s.copy()
        idx = sorted(split)
        w[idx] = r[idx]
        w.flags.writeable = False
    for c in constraints:
        if c.g.eval(w, w) > 0.0:
            return FeasibilityVerdict(Feasibility.INFEASIBLE)
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, w)


def normal_set_test(
    box: BoxNd, nondecreasing: Sequence[Callable[[np.ndarray], float]]
) -> FeasibilityVerdict:
    """Feasibility over a normal set ``{x | g_i(x) <= 0}``, g_i nondecreasing:
    the corner test with every coordinate as the split (the lower corner)."""
    return mm_conclusive_test(box, _diagonal(box, nondecreasing, 1.0), range(box.dim))


def conormal_set_test(
    box: BoxNd, nondecreasing: Sequence[Callable[[np.ndarray], float]]
) -> FeasibilityVerdict:
    """Feasibility over a conormal set ``{x | h_i(x) >= 0}``, h_i nondecreasing:
    the corner test with no coordinate as the split (the upper corner)."""
    return mm_conclusive_test(box, _diagonal(box, nondecreasing, -1.0), ())


def _diagonal(box: BoxNd, funcs, sign: float) -> list[MMConstraint]:
    # each callable f of x as the constraint G(x, y) = sign * f(x)
    return [MMConstraint(MMFunction(box.dim, lambda x, y, f=f: sign * f(x))) for f in funcs]
