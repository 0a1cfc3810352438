"""Combinators that build new mixed monotonic functions from existing ones.

Each combinator preserves the defining monotonicity (nondecreasing in the
first argument, nonincreasing in the second), so problem constructors never
hand-verify it.  Outputs close over their parts; evaluation is pure and
re-entrant, so results are safe to share.

Sums, minima, maxima, monotone compositions, products and ratios combine
existing representations; :func:`mm_unimodal` starts one from a univariate
term with a known peak, and its box bound is exact; :func:`mm_separable`
starts one from an increasing and a decreasing function, and keeps the two
so that the solver can evaluate each half of a bound apart.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import BoxNd, MMFunction, _is_count, _numbers
from .errors import (
    DimensionMismatch,
    DirectionViolation,
    DomainError,
    EmptyList,
    MMOptError,
    NegativeWeight,
    NegativityDetected,
    NonFiniteEntry,
    NonpositiveDenominator,
)

__all__ = [
    "mm_sum",
    "mm_weighted_sum",
    "mm_min",
    "mm_max",
    "mm_compose_nondecreasing",
    "mm_compose_nonincreasing",
    "mm_product",
    "mm_ratio",
    "mm_unimodal",
    "mm_separable",
]


def _common_dim(parts: Sequence[MMFunction]) -> int:
    if not parts:
        raise EmptyList("need at least one function")
    dim = parts[0].dim
    for p in parts[1:]:
        if p.dim != dim:
            raise DimensionMismatch(f"mixed dimensions: {p.dim} vs {dim}")
    return dim


def _pointwise(combine, parts: Sequence[MMFunction], name: str) -> MMFunction:
    """``combine`` (sum, min or max) of the parts' values at each argument
    pair; a single part is returned as it is."""
    parts = tuple(parts)
    dim = _common_dim(parts)
    if len(parts) == 1:
        return parts[0]

    def fn(x, y):
        return combine(p.eval(x, y) for p in parts)

    return MMFunction(dim, fn, name=name)


def mm_sum(parts: Sequence[MMFunction]) -> MMFunction:
    """Pointwise sum of mixed monotonic functions."""
    return _pointwise(sum, parts, "sum")


def mm_weighted_sum(weights, parts: Sequence[MMFunction]) -> MMFunction:
    """Sum of mixed monotonic functions with finite nonnegative weights.

    The terms are added in order in Python floats.  Each part is evaluated
    through ``p.eval`` looked up at call time, not a method bound in
    advance, so that anything wrapping ``MMFunction.eval`` (a tracer, a
    counter) sees the nested evaluations too.
    """
    parts = tuple(parts)
    w = _numbers(weights, "weights", MMOptError)
    if w.ndim != 1 or w.size != len(parts):
        raise DimensionMismatch(f"{w.size} weights for {len(parts)} functions")
    if not np.isfinite(w).all():
        raise NonFiniteEntry(f"weights must be finite, got {w.tolist()}")
    if np.any(w < 0):
        raise NegativeWeight("weights must be nonnegative")
    dim = _common_dim(parts)
    terms = tuple(zip(w.tolist(), parts))

    def fn(x, y):
        total = 0  # the start and order of sum()
        for wi, p in terms:
            total += wi * p.eval(x, y)
        return total

    return MMFunction(dim, fn, name="wsum")


def mm_min(parts: Sequence[MMFunction]) -> MMFunction:
    """Pointwise minimum of mixed monotonic functions."""
    return _pointwise(min, parts, "min")


def mm_max(parts: Sequence[MMFunction]) -> MMFunction:
    """Pointwise maximum of mixed monotonic functions."""
    return _pointwise(max, parts, "max")


def _spot_check_direction(g, lo: float, hi: float, nondecreasing: bool):
    """Sample 100 points of a scalar map and verify the declared direction.

    Non-finite samples (outside the map's domain) are skipped; the check is
    a tripwire, not a proof.
    """
    ts = np.linspace(lo, hi, 100)
    prev_t = prev_v = None
    for t in ts:
        try:
            v = float(g(t))
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if not math.isfinite(v):
            continue
        if prev_v is not None:
            ok = v >= prev_v - 1e-12 if nondecreasing else v <= prev_v + 1e-12
            if not ok:
                word = "nondecreasing" if nondecreasing else "nonincreasing"
                raise DirectionViolation(
                    f"map declared {word} but g({prev_t}) = {prev_v} and g({t}) = {v}"
                )
        prev_t, prev_v = t, v


def _apply_scalar(g, value: float, name: str) -> float:
    try:
        out = float(g(value))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"{name}: scalar map undefined at {value}") from exc
    if math.isnan(out):
        raise DomainError(f"{name}: scalar map produced NaN at {value}")
    return out


def _compose(g, inner: MMFunction, check_range, nondecreasing: bool) -> MMFunction:
    """``g`` applied to ``inner(x, y)``, or for a nonincreasing ``g`` to
    ``inner(y, x)``, after the optional spot check of its direction."""
    if check_range is not None:
        _spot_check_direction(g, check_range[0], check_range[1], nondecreasing)

    def fn(x, y):
        if not nondecreasing:
            x, y = y, x
        return _apply_scalar(g, inner.eval(x, y), "compose")

    return MMFunction(inner.dim, fn, name=f"{'g' if nondecreasing else 'h'}({inner.name})")


def mm_compose_nondecreasing(
    g: Callable[[float], float],
    inner: MMFunction,
    check_range: tuple[float, float] | None = None,
) -> MMFunction:
    """Compose a nondecreasing scalar map with a mixed monotonic function.

    ``check_range=(lo, hi)`` spot-checks the declared direction of ``g`` by
    sampling; omit it when no meaningful sampling interval exists.
    """
    return _compose(g, inner, check_range, nondecreasing=True)


def mm_compose_nonincreasing(
    h: Callable[[float], float],
    inner: MMFunction,
    check_range: tuple[float, float] | None = None,
) -> MMFunction:
    """Compose a nonincreasing scalar map with a mixed monotonic function.

    The arguments are swapped into the inner function -- the result
    evaluates ``h(inner(y, x))`` -- so that the composition is again
    nondecreasing in ``x`` and nonincreasing in ``y``.
    """
    return _compose(h, inner, check_range, nondecreasing=False)


def mm_product(parts: Sequence[MMFunction], domain_box: BoxNd) -> MMFunction:
    """Product of nonnegative mixed monotonic functions on ``domain_box``.

    Nonnegativity of every factor is sampled at construction (1000 argument
    pairs drawn from the box) and hard-checked at every evaluation; a factor
    below -1e-12 aborts with :class:`~mmopt.errors.NegativityDetected`.
    Values in [-1e-12, 0) are clamped to zero, and exact zeros are admitted.
    """
    parts = tuple(parts)
    dim = _common_dim(parts)
    if domain_box.dim != dim:
        raise DimensionMismatch("domain box dimension differs from the factors")

    def fn(x, y):
        out = 1.0
        for p in parts:
            v = p.eval(x, y)
            if v < -1e-12:
                raise NegativityDetected(f"factor {p.name} evaluated negative ({v})")
            out *= v if v > 0.0 else 0.0
        return out

    rng = np.random.default_rng(0)
    r, width = domain_box.r, domain_box.s - domain_box.r
    for _ in range(1000):  # x drawn before y; a negative factor raises in fn
        fn(r + width * rng.random(dim), r + width * rng.random(dim))
    return MMFunction(dim, fn, name="prod")


def mm_ratio(numerator: MMFunction, denominator: MMFunction) -> MMFunction:
    """Mixed monotonic quotient of a nonnegative numerator by a positive,
    nondecreasing-in-``x`` denominator.

    The denominator is evaluated with swapped arguments (the reciprocal of a
    positive mixed monotonic function with swapped arguments is mixed
    monotonic again), so the result is
    ``numerator(x, y) / denominator(y, x)`` -- for a denominator depending
    only on its first slot this is the familiar ``p(x) / q(y)`` shape.
    """
    if numerator.dim != denominator.dim:
        raise DimensionMismatch("numerator and denominator dimensions differ")

    def fn(x, y):
        q = denominator.eval(y, x)
        if q <= 0.0:
            raise NonpositiveDenominator(f"denominator evaluated to {q}")
        return numerator.eval(x, y) / q

    return MMFunction(numerator.dim, fn, name=f"{numerator.name}/{denominator.name}")


def mm_unimodal(h: Callable[[float], float], index: int, peak: float, dim: int) -> MMFunction:
    """Exact representation of a unimodal term ``h(x[index])``.

    ``h`` must be nondecreasing up to ``peak`` and nonincreasing beyond it;
    this is trusted, not checked.  The result is
    ``F(x, y) = h(min(x_i, peak)) + h(max(y_i, peak)) - h(peak)``: mixed
    monotonic, equal to ``h(x_i)`` on the diagonal, and ``F(s, r)`` is the
    maximum of ``h`` over ``[r_i, s_i]``, so the bound is exact on every box.
    ``h`` may return ``-inf`` (e.g. a log at zero) but must be finite at the
    peak.
    """
    if not (_is_count(dim, 1) and _is_count(index, 0) and index < dim):
        raise DimensionMismatch(f"index {index!r} is no coordinate of dimension {dim!r}")
    h_peak = _apply_scalar(h, peak, "unimodal")
    if not math.isfinite(h_peak):
        raise DomainError(f"unimodal: term must be finite at its peak, got {h_peak}")

    def fn(x, y):
        rise = _apply_scalar(h, min(x[index], peak), "unimodal")
        fall = _apply_scalar(h, max(y[index], peak), "unimodal")
        return rise + fall - h_peak

    return MMFunction(dim, fn, name=f"unimodal{index}")


def mm_separable(
    dim: int,
    up: Callable[[np.ndarray], float],
    down: Callable[[np.ndarray], float],
    name: str = "separable",
) -> MMFunction:
    """Separable representation ``F(x, y) = up(x) + down(y)``.

    ``up`` must be nondecreasing and ``down`` nonincreasing (componentwise);
    this is trusted, not checked.  Then ``F`` is mixed monotonic: for
    ``x <= x'``, ``F(x', y) - F(x, y) = up(x') - up(x) >= 0``, and for
    ``y <= y'``, ``F(x, y') - F(x, y) = down(y') - down(y) <= 0``, since each
    half reads only its own slot.  The diagonal is ``up(x) + down(x)``, as in
    Tuy's difference of increasing functions ``up(x) - (-down(x))``.

    The result keeps ``(up, down)`` as its :attr:`~mmopt.core.MMFunction.halves`,
    and ``eval`` sums the same two calls, so the two cannot disagree.  A box
    bound ``F(s, r)`` splits into ``up(s)``, which a bisection child keeps
    when it keeps the upper corner, and ``down(r)``, which it keeps with the
    lower corner.  A half that is not callable raises
    :class:`~mmopt.errors.MMOptError`.
    """
    for half, what in ((up, "up"), (down, "down")):
        if not callable(half):
            raise MMOptError(f"{name}: {what} must be callable, got {half!r}")

    def fn(x, y):
        return up(x) + down(y)

    f = MMFunction(dim, fn, name=name)
    f._halves = (up, down)
    return f
