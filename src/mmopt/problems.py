"""Ready-made problem families and seeded instance generators.

Covers power control in interference networks (weighted sum rate with
minimum-rate constraints, in two bound representations), energy-efficiency
ratios (global, weighted-sum and weighted-minimum variants, plus a
Dinkelbach-style baseline), and transmit-probability optimization for
slotted random access.  Constructors return immutable
:class:`~mmopt.core.ProblemInstance` values assembled from the combinator
calculus; rates are interference-treated-as-noise throughout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from math import fsum
from operator import mul

import numpy as np

from .calculus import mm_min, mm_ratio, mm_separable, mm_sum, mm_unimodal, mm_weighted_sum
from .core import (
    STATUS_ETA_OPTIMAL,
    STATUS_INFEASIBLE,
    STATUS_RELATIVE_ETA_OPTIMAL,
    BoxNd,
    MMConstraint,
    MMFunction,
    ProblemInstance,
    SolverConfig,
    SolverResult,
    SolveStats,
    _is_count,
    _is_finite_real,
    _numbers,
)
from .errors import InnerSolveFailed, InvalidNetwork
from .feasibility import (
    _LEAST_POINT_MARGIN,
    Feasibility,
    _witness_verdict,
    least_point_test,
    mm_sufficient_test,
)
from .solver import solve

__all__ = [
    "REPRESENTATIONS",
    "InterferenceNetwork",
    "EnergyModel",
    "AlohaNetwork",
    "wsr_problem",
    "bound_gap_mmp_vs_dm",
    "gee_problem",
    "wsee_problem",
    "wmee_problem",
    "dinkelbach_gee",
    "aloha_problem",
    "generate_channels",
    "generate_aloha",
    "aloha_feasibility_boundary",
]


def _frozen(v, shape: tuple[int, ...], name: str, lo=None, strict_lo=None) -> np.ndarray:
    """``v`` as a nonempty read-only finite float array of ``shape``, each
    entry ``>= lo`` and ``> strict_lo`` where given; else ``InvalidNetwork``."""
    arr = _numbers(v, name, InvalidNetwork)
    if arr.size == 0:
        raise InvalidNetwork(f"{name} must not be empty")
    if arr.shape != shape:
        raise InvalidNetwork(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidNetwork(f"{name} must be finite")
    if lo is not None and np.any(arr < lo):
        raise InvalidNetwork(f"{name} must be >= {lo}")
    if strict_lo is not None and np.any(arr <= strict_lo):
        raise InvalidNetwork(f"{name} must be > {strict_lo}")
    arr.flags.writeable = False
    return arr


def _positive(v, name: str) -> float:
    if not (_is_finite_real(v) and v > 0):
        raise InvalidNetwork(f"{name} must be a positive number, got {v!r}")
    return float(v)


@dataclass(frozen=True, eq=False)
class InterferenceNetwork:
    """K-user interference network with per-user power caps.

    ``alpha`` holds the direct-channel gains, ``beta[k, j]`` the gain from
    transmitter j into receiver k (``beta[k, k]`` may be nonzero to model
    self-interference), ``sigma2`` the noise power, ``p_max`` the power
    caps, ``w`` the utility weights and ``r_min`` the per-user minimum
    rates.
    """

    alpha: np.ndarray
    beta: np.ndarray
    sigma2: float
    p_max: np.ndarray
    w: np.ndarray
    r_min: np.ndarray

    def __post_init__(self):
        k = _numbers(self.alpha, "alpha", InvalidNetwork).size
        object.__setattr__(self, "alpha", _frozen(self.alpha, (k,), "alpha", strict_lo=0.0))
        object.__setattr__(self, "beta", _frozen(self.beta, (k, k), "beta", lo=0.0))
        object.__setattr__(self, "sigma2", _positive(self.sigma2, "sigma2"))
        object.__setattr__(self, "p_max", _frozen(self.p_max, (k,), "p_max", strict_lo=0.0))
        object.__setattr__(self, "w", _frozen(self.w, (k,), "w", lo=0.0))
        object.__setattr__(self, "r_min", _frozen(self.r_min, (k,), "r_min", lo=0.0))

    @property
    def K(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class EnergyModel:
    """Power-consumption model: amplifier inefficiencies, circuit power, bandwidth.

    ``p_circuit`` is a scalar for the network-wide energy efficiency ratio
    and a per-user vector for the weighted-sum/-minimum variants.
    """

    phi: np.ndarray
    p_circuit: float | np.ndarray
    bandwidth: float = 1.0

    def __post_init__(self):
        n = _numbers(self.phi, "phi", InvalidNetwork).size
        object.__setattr__(self, "phi", _frozen(self.phi, (n,), "phi", lo=0.0))
        pc = self.p_circuit
        if np.ndim(pc) == 0:
            pc = _positive(pc, "p_circuit")
        else:
            pc = _frozen(pc, self.phi.shape, "p_circuit", strict_lo=0.0)
        object.__setattr__(self, "p_circuit", pc)
        object.__setattr__(self, "bandwidth", _positive(self.bandwidth, "bandwidth"))

    @property
    def per_user_circuit(self) -> bool:
        return isinstance(self.p_circuit, np.ndarray)


@dataclass(frozen=True, eq=False)
class AlohaNetwork:
    """Slotted random access: success rates, interferer sets, rate floors."""

    c: np.ndarray
    interferers: tuple[tuple[int, ...], ...]
    r_min: np.ndarray

    def __post_init__(self):
        k = _numbers(self.c, "c", InvalidNetwork).size
        object.__setattr__(self, "c", _frozen(self.c, (k,), "c", strict_lo=0.0))
        try:
            sets = [tuple(idx) for idx in self.interferers]
        except TypeError:  # not a list of index lists
            sets = []  # k >= 1, as c is not empty
        if len(sets) != k:
            raise InvalidNetwork(f"interferers must list {k} index sets, got {self.interferers!r}")
        for i, ids in enumerate(sets):
            if not all(_is_count(j, 0) and j < k for j in ids) or len(set(ids)) < len(ids):
                raise InvalidNetwork(f"interferers[{i}] must hold distinct user indices below {k}")
            if i in ids:
                raise InvalidNetwork(f"user {i} cannot interfere with itself")
            sets[i] = tuple(sorted(int(j) for j in ids))
        object.__setattr__(self, "interferers", tuple(sets))
        object.__setattr__(self, "r_min", _frozen(self.r_min, (k,), "r_min", lo=0.0))

    @property
    def K(self) -> int:
        return self.c.size


# ---------------------------------------------------------------------------
# weighted sum rate


def _floats(v) -> list:
    """A point as a list of Python floats: a list as it is, an array by
    ``tolist``."""
    if type(v) is list:
        return v
    try:
        return v.tolist()
    except AttributeError:  # a tuple or another sequence
        return [float(t) for t in v]


_LN2 = math.log(2.0)


class _Kernel:
    """An interference network's rate formulas in Python floats, built once
    per problem and read by its sum rate, its rate floors, its least-point
    oracle and its reducer; for a few users Python floats are faster than
    numpy's per-call overhead.

    Holds ``alpha``, the diagonal ``own`` of ``beta``, the ``cross`` rows of
    ``beta`` with a zero diagonal, ``sigma2`` and the weights ``w`` as lists,
    and builds the floor map and each column's readers on first use.  User
    k's rate with own power ``x_k`` under the interference of ``y`` is
    ``log2(1 + alpha_k x_k / (D_k + beta_kk x_k))``, with the noise
    ``D_k = sigma2 + sum_j cross_kj y_j``; self-interference stays with the
    own power.  Each sum of products is their correctly rounded sum
    (``math.fsum``), which no summation order and no Python version changes,
    and the weighted rates are added in index order.  Points are lists of
    floats or numpy arrays.
    """

    __slots__ = ("net", "w", "alpha", "own", "cross", "s2", "_floors", "_readers")

    def __init__(self, net: InterferenceNetwork, weights):
        self.net = net
        self.w = [float(v) for v in weights]
        self.alpha = net.alpha.tolist()
        self.cross = net.beta.tolist()
        self.own = []
        for k, row in enumerate(self.cross):
            self.own.append(row[k])
            row[k] = 0.0
        self.s2 = net.sigma2
        self._floors = self._readers = None

    def value(self, x, y) -> float:
        """The weighted sum rate ``F(x, y)``."""
        y = _floats(y)
        s2 = self.s2
        total = 0.0
        for wk, ak, bk, row, xk in zip(self.w, self.alpha, self.own, self.cross, _floats(x)):
            total += wk * math.log2(1.0 + ak * xk / (s2 + fsum(map(mul, row, y)) + bk * xk))
        return total

    def rate(self, k: int):
        """User k's rate (unweighted) as a plain ``(x, y) -> float``, with own
        power ``x_k`` in the increasing slot and the interference of ``y`` in
        the decreasing slot."""
        s2, ak, bk, row = self.s2, self.alpha[k], self.own[k], self.cross[k]

        def rate(x, y) -> float:
            xk = float(x[k])
            return math.log2(1.0 + ak * xk / (s2 + fsum(map(mul, row, _floats(y))) + bk * xk))

        return rate

    def noise(self, y: list) -> list:
        """Each user's noise plus interference ``D_k = sigma2 + sum_{j != k}
        beta_kj y_j``."""
        s2 = self.s2
        return [s2 + fsum(map(mul, row, y)) for row in self.cross]

    def terms(self, x: list, noise: list) -> list:
        """The weighted rates ``w_k rate_k`` at own powers ``x`` over the
        :meth:`noise` ``D``; :meth:`value` is their sum in index order."""
        return [
            wk * math.log2(1.0 + ak * xk / (dk + bk * xk))
            for wk, ak, bk, dk, xk in zip(self.w, self.alpha, self.own, noise, x)
        ]

    def faces(self, noise: list, terms: list, gamma: float) -> list:
        """Each ``x_i`` below which ``F(x', y) <= gamma``, where ``x'`` is
        ``x`` with entry i lowered, given the :meth:`noise` ``noise`` at
        ``y`` and the :meth:`terms` ``terms`` at ``(x, y)``: the shrink
        phase's faces, with the other own powers at ``s = x`` and the
        interference at ``r = y``.

        Only term i reads ``x_i`` there, so the face inverts its SINR:
        ``x_i = t D_i / (alpha_i - t beta_ii)`` with ``t = 2^((gamma -
        rest) / w_i) - 1`` and ``rest`` the other terms.  A coordinate gets
        no face (``-inf``) when its weight is zero, when its term exceeds
        ``gamma - rest`` at every power, or when that would take a rate of
        more than 1,000 bits, which only roundoff next to a tiny weight
        gives, since ``F(x, y) > gamma``.
        """
        out = []
        for i, (wi, ai, bi, di) in enumerate(zip(self.w, self.alpha, self.own, noise)):
            face = -math.inf
            if wi > 0.0:
                bits = (gamma - fsum(terms[:i] + terms[i + 1 :])) / wi
                if 0.0 < bits <= 1000.0:
                    t = math.expm1(_LN2 * bits)
                    den = ai - t * bi
                    if den > 0.0:  # den <= 0 only by roundoff, as F(s, r) > gamma
                        face = t * di / den
            out.append(face)
        return out

    def floor_map(self) -> tuple[list, list, list] | tuple[()]:
        """:func:`_floor_map` as lists of floats, built on first use, which
        keeps building a problem cheap."""
        if self._floors is None:
            self._floors = tuple(a.tolist() for a in _floor_map(self.net))
        return self._floors

    def readers(self) -> list:
        """Per column i, each user k whose noise reads ``y_i`` (``cross_ki
        > 0``) with that gain, in index order; built on first use."""
        if self._readers is None:
            cross = self.cross
            self._readers = [
                [(k, row[i]) for k, row in enumerate(cross) if row[i] > 0.0]
                for i in range(len(cross))
            ]
        return self._readers


def _rate_mm(kernel: _Kernel, k: int, weight: float) -> MMFunction:
    """``weight`` times user k's rate."""
    rate = kernel.rate(k)

    def fn(x, y):
        return weight * rate(x, y)

    return MMFunction(kernel.net.K, fn, name=f"rate{k}")


def _sum_rate(kernel: _Kernel) -> MMFunction:
    """The ``mmp`` weighted sum rate: each rate keeps its own power inside
    its fraction."""
    return MMFunction(kernel.net.K, kernel.value, name="wsr_mmp")


def _floors(net: InterferenceNetwork | AlohaNetwork, rate) -> tuple[MMConstraint, ...]:
    """Minimum-rate constraints ``r_min[k] - rate_k(y, x) <= 0``, for the
    WSR and the ALOHA families alike.

    ``rate(k)`` is user k's rate as a plain ``(x, y) -> float``,
    nondecreasing in ``x`` and nonincreasing in ``y``; the argument roles are
    swapped so that each gap is again nondecreasing in its first slot.
    Floors at zero are vacuous (rates are nonnegative) and are skipped.
    """

    def floor(k: int) -> MMConstraint:
        rate_k = rate(k)
        rmin = float(net.r_min[k])

        def fn(x, y):
            return rmin - rate_k(y, x)

        return MMConstraint(MMFunction(net.K, fn, name=f"rate_floor{k}"))

    return tuple(floor(k) for k in range(net.K) if net.r_min[k] > 0)


def _floor_map(net: InterferenceNetwork) -> tuple[np.ndarray, ...] | tuple[()]:
    """The WSR rate floors as ``p >= m p + c``, with the factors ``scale``
    that make ``(m p + c)_k = scale_k D_k(p)``, or ``()`` when one cannot be
    met.

    Floor k reads ``p_k >= scale_k (sigma2 + sum_{j != k} beta_kj p_j)``
    with ``scale_k = g_k / (alpha_k - g_k beta_kk)`` and ``g_k = 2^r_min[k]
    - 1``; a floor with ``alpha_k <= g_k beta_kk`` holds at no power.  Rows
    without a floor are 0.
    """
    gain = np.exp2(net.r_min) - 1.0
    den = net.alpha - gain * np.diag(net.beta)
    if np.any(den <= 0.0):
        return ()
    scale = gain / den
    m = scale[:, None] * net.beta
    np.fill_diagonal(m, 0.0)
    return m, scale * net.sigma2, scale


def _floor_hooks(kernel: _Kernel, floors, with_reducer: bool):
    """The feasibility oracle and the reducer of a power problem under the
    WSR rate floors ``floors`` (see :func:`_power_problem`).

    Both read the kernel's floor map, the oracle its ``(m, c)`` and the
    reducer its ``scale``.  The reducer is ``None`` unless ``with_reducer``
    is set, that is unless the objective is the kernel's own weighted sum
    rate; it ignores the solver's ``steps``, as it runs no bisection.  When
    a floor cannot be met, the oracle is the one-sided test and the reducer
    empties every box, both rightly, since no point meets the floor.
    Otherwise the oracle is :func:`~mmopt.feasibility.least_point_test`,
    which decides every box, and the reducer is :func:`_reduce_power_box`.
    """

    def oracle(box: BoxNd):
        affine = kernel.floor_map()
        if not affine:
            return mm_sufficient_test(box, floors)
        return least_point_test(box, floors, affine[0], affine[1])

    def reducer(box: BoxNd, gamma: float, steps: int):
        affine = kernel.floor_map()
        if not affine:
            return None
        return _reduce_power_box(box, gamma, kernel, affine[2])

    return oracle, reducer if with_reducer else None


def _readonly(values: list) -> np.ndarray:
    out = np.array(values)
    out.setflags(write=False)
    return out


def _in_order(terms: list) -> float:
    """The sum of ``terms`` in index order, as :meth:`_Kernel.value` adds
    them."""
    total = 0.0
    for t in terms:
        total += t
    return total


# secant steps per upper face of the objective in _reduce_power_box
_SECANT_STEPS = 2


def _reduce_power_box(box: BoxNd, gamma: float, kernel: _Kernel, scale: list):
    """:func:`~mmopt.solver.reduce_box` for the kernel's ``mmp`` weighted sum
    rate under its rate floors, whose least own powers are ``scale_k D_k``
    (:func:`_floor_map`), with no line search.  Runs on lists of floats;
    only the corners of the box it returns are arrays.

    Everything at a corner pair comes from one :meth:`_Kernel.noise` vector
    ``D`` at the interference corner: the floors' least own powers
    ``scale_k D_k``, the :meth:`_Kernel.terms` at ``(s, y)``, whose sum is
    the certificate ``F(s, y)``, and the objective's SINR faces.  It is made
    at ``r`` and once more at the new lower corner ``lo``.

    Shrink phase (lower faces, the other own powers at ``s``, interference
    at ``r``): floor i's face is ``scale_i D_i``, and the objective's the
    SINR inverse of its term i (:meth:`_Kernel.faces`).  Grow phase (upper
    faces, own powers at ``s``, interference from ``lo``): floor ``k != i``
    caps ``y_i <= lo_i + (s_k / scale_k - D_k) / beta_ki``.  The objective
    has no inverse there, but along line i, ``F(s, lo + t e_i)`` is convex
    and decreasing in t: term i does not read ``y_i``, and every other term
    is convex and decreasing in its noise, which is affine in t.  So the
    chord from ``(0, F(s, lo))`` to any point at or below gamma lies above
    the curve, and its root is a sound face.  Unless ``F`` at the upper
    corner is above gamma (no line can cut), a line whose end is at or
    below gamma takes ``_SECANT_STEPS`` such roots, each accepted only when
    the value computed there, from the terms that read ``y_i``, is at or
    below gamma.  Every face is moved outward by the relative margin
    ``_LEAST_POINT_MARGIN`` and clipped to the box.

    Returns what ``reduce_box`` returns: ``None`` when no feasible point
    above gamma remains, by the MM certificates on the box or on it with the
    new lower corner (a floor that fails at the optimistic corner pair by
    more than the margin, or a bound not above gamma), ``box`` itself when
    nothing is cut.
    """
    down, up = 1.0 - _LEAST_POINT_MARGIN, 1.0 + _LEAST_POINT_MARGIN
    r, s = box.r.tolist(), box.s.tolist()

    def corner(y: list):
        # the noise and terms at (s, y) and their sum F(s, y), or None when
        # a floor's least own power exceeds s by more than the margin or the
        # sum is not above gamma
        noise = kernel.noise(y)
        for ck, dk, sk in zip(scale, noise, s):
            if ck * dk * down > sk:
                return None
        terms = kernel.terms(s, noise)
        value = _in_order(terms)
        return None if value <= gamma else (noise, terms, value)

    at = corner(r)
    if at is None:
        return None
    noise, terms, value = at
    # the floors' faces, and the objective's where it has them
    faces = kernel.faces(noise, terms, gamma) if gamma > -math.inf else [-math.inf] * len(s)
    lo = [
        min(sk, max(rk, ck * dk * down, face * down))
        for rk, sk, ck, dk, face in zip(r, s, scale, noise, faces)
    ]
    if lo != r:
        at = corner(lo)
        if at is None:
            return None
        noise, terms, value = at

    # floor k holds at (s, lo), so it caps each y_i with beta_ki > 0; a user
    # without a floor caps nothing (slack inf)
    top = list(s)
    slack = [sk / ck - dk if ck > 0.0 else math.inf for ck, dk, sk in zip(scale, noise, s)]
    columns = kernel.readers()
    for i, readers in enumerate(columns):
        for k, bki in readers:
            face = (lo[i] + slack[k] / bki) * up
            if face < top[i]:
                top[i] = max(lo[i], face)
    if gamma > -math.inf and _in_order(kernel.terms(s, kernel.noise(top))) <= gamma:
        w, signal = kernel.w, [ak * sk for ak, sk in zip(kernel.alpha, s)]
        own = [bk * sk for bk, sk in zip(kernel.own, s)]

        def along(readers: list, rest: float, t: float) -> float:
            # F(s, lo + t e_i): the terms that do not read y_i are rest
            total = rest
            for k, bki in readers:
                total += w[k] * math.log2(1.0 + signal[k] / (noise[k] + bki * t + own[k]))
            return total

        for i, readers in enumerate(columns):
            end = top[i] - lo[i]
            if end == 0.0 or not readers:
                continue
            rest = value - fsum([terms[k] for k, _ in readers])
            hi, f_hi = end, along(readers, rest, end)
            if f_hi > gamma:
                continue
            for _ in range(_SECANT_STEPS):
                t = hi * ((value - gamma) / (value - f_hi))
                f = along(readers, rest, t)
                if f > gamma:
                    break
                hi, f_hi = t, f
            if hi < end:
                top[i] = min(top[i], max(lo[i], (lo[i] + hi) * up))
    r_new = box.r if lo == r else _readonly(lo)
    if top == s:
        return box if r_new is box.r else BoxNd._trusted(r_new, box.s)
    return BoxNd._trusted(r_new, _readonly(top))


def _power_problem(kernel: _Kernel, objective: MMFunction | None = None) -> ProblemInstance:
    """Maximize ``objective`` over the power box [0, p_max] under the
    network's rate floors: the one path of every power-control family.

    Without a positive ``r_min`` the feasible set is the whole box, which the
    corner test decides at its lower corner (``mm-conclusive``, no
    constraints).  The floors read the kernel's rates through
    :func:`_floors`, like the ALOHA floors.  They share no monotone split,
    but each is an affine floor on the powers, so the instance carries the
    exact oracle of :func:`_floor_hooks` (``custom-oracle``).  ``objective``
    None is the kernel's own ``mmp`` weighted sum rate (:func:`_sum_rate`);
    the instance then also carries the closed-form reducer of
    :func:`_floor_hooks`, and every other objective is reduced by
    :func:`~mmopt.solver.reduce_box`.
    """
    net = kernel.net
    with_reducer = objective is None
    if with_reducer:
        objective = _sum_rate(kernel)
    box = BoxNd(np.zeros(net.K), net.p_max)
    floors = _floors(net, kernel.rate)
    if not floors:
        return ProblemInstance(objective, floors, box)
    oracle, reducer = _floor_hooks(kernel, floors, with_reducer)
    return ProblemInstance(objective, floors, box, feasibility_oracle=oracle, reducer=reducer)


def _dm_objective(net: InterferenceNetwork, weights) -> MMFunction:
    """Weighted sum rate as a difference of two increasing log terms: every
    power in the signal-plus-interference log binds to the increasing slot,
    every power in the interference log to the decreasing slot."""
    alpha, beta, s2 = net.alpha, net.beta, net.sigma2

    def up(x):
        return float(weights.dot(np.log2(alpha * x + s2 + beta @ x)))

    def down(y):
        # a + (-b) rounds exactly as a - b, so the sum is the difference of logs
        return -float(weights.dot(np.log2(s2 + beta @ y)))

    return mm_separable(net.K, up, down, name="wsr_dm")


REPRESENTATIONS = ("mmp", "dm")


def wsr_problem(net: InterferenceNetwork, representation: str = "mmp") -> ProblemInstance:
    """Weighted sum rate maximization over the power box [0, p_max].

    ``representation`` (one of :data:`REPRESENTATIONS`) selects the bound:
    ``"mmp"`` keeps each rate's own power inside its fraction, ``"dm"`` uses
    the difference-of-logs split (always looser, never tighter).  Positive
    ``r_min`` entries become rate floors, decided exactly per box by the
    least feasible power vector (see :func:`_power_problem`).
    """
    if representation not in REPRESENTATIONS:
        raise InvalidNetwork(f"unknown representation {representation!r}")
    kernel = _Kernel(net, net.w)
    if representation == "mmp":
        return _power_problem(kernel)
    return _power_problem(kernel, _dm_objective(net, net.w))


def bound_gap_mmp_vs_dm(net: InterferenceNetwork, box: BoxNd) -> float:
    """Bound of the difference-of-logs split minus the per-rate bound on a
    box; nonnegative up to roundoff, zero on degenerate boxes."""
    u_dm = _dm_objective(net, net.w).eval(box.s, box.r)
    u_mmp = _Kernel(net, net.w).value(box.s, box.r)
    return u_dm - u_mmp


# ---------------------------------------------------------------------------
# energy efficiency


def _power_draw(net: InterferenceNetwork, energy: EnergyModel):
    """The network's total power draw ``p -> phi . p + p_circuit`` as a plain
    function, for a ``phi`` of one entry per user and a scalar ``p_circuit``."""
    if energy.phi.size != net.K:
        raise InvalidNetwork("phi dimension differs from the network")
    if energy.per_user_circuit:
        raise InvalidNetwork("network energy efficiency takes a scalar p_circuit")
    phi, pc = energy.phi, energy.p_circuit
    return lambda p: float(phi.dot(p)) + pc


def gee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Network energy efficiency: total throughput over total power draw.

    The consumed power (amplifier draw plus static circuit power) enters the
    decreasing slot, so the ratio is optimized directly -- no outer
    fractional-programming loop.  Positive ``r_min`` entries become rate
    floors, decided exactly per box (see :func:`_power_problem`).
    """
    draw = _power_draw(net, energy)
    kernel = _Kernel(net, np.full(net.K, energy.bandwidth))
    denominator = MMFunction(net.K, lambda x, y: draw(x), name="power_draw")
    return _power_problem(kernel, mm_ratio(_sum_rate(kernel), denominator))


def _per_user_efficiency_terms(kernel: _Kernel, energy: EnergyModel) -> list[MMFunction]:
    net = kernel.net
    if energy.phi.size != net.K:
        raise InvalidNetwork("phi dimension differs from the network")
    if not energy.per_user_circuit:
        raise InvalidNetwork("per-user efficiencies need a per-user p_circuit vector")
    b = energy.bandwidth
    terms = []
    for k in range(net.K):
        numerator = _rate_mm(kernel, k, float(net.w[k] * b))
        phik = float(energy.phi[k])
        pck = float(energy.p_circuit[k])

        def den_fn(x, y, k=k, phik=phik, pck=pck):
            return phik * x[k] + pck

        terms.append(mm_ratio(numerator, MMFunction(net.K, den_fn, name=f"draw{k}")))
    return terms


def wsee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Weighted sum of per-user energy efficiencies, under the network's
    rate floors (see :func:`_power_problem`)."""
    kernel = _Kernel(net, net.w)
    return _power_problem(kernel, mm_sum(_per_user_efficiency_terms(kernel, energy)))


def wmee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Weighted minimum of per-user energy efficiencies, under the network's
    rate floors (see :func:`_power_problem`)."""
    kernel = _Kernel(net, net.w)
    return _power_problem(kernel, mm_min(_per_user_efficiency_terms(kernel, energy)))


def _dinkelbach_aux_objective(
    net: InterferenceNetwork, energy: EnergyModel, lam: float
) -> MMFunction:
    """Throughput minus lam-scaled power draw: the difference-of-logs sum
    rate plus a penalty whose linear power term binds to the decreasing slot."""
    draw = _power_draw(net, energy)

    def penalty(x, y):
        return -lam * draw(y)

    throughput = mm_weighted_sum([energy.bandwidth], [_dm_objective(net, np.ones(net.K))])
    return mm_sum([throughput, MMFunction(net.K, penalty, name=f"draw(lam={lam:.6g})")])


_DINKELBACH_TOL = 1e-6
_DINKELBACH_MAX_OUTER = 50


def dinkelbach_gee(
    net: InterferenceNetwork, energy: EnergyModel, inner_config: SolverConfig
) -> SolverResult:
    """Fractional-programming baseline for the energy-efficiency ratio.

    Alternates between solving the parametric auxiliary problem (throughput
    minus a lam-weighted power draw under the network's rate floors, by
    branch-and-bound on the difference-of-logs bound) and updating lam to
    the ratio the incumbent reaches on the :func:`gee_problem` objective;
    stops once the auxiliary optimum drops to ``_DINKELBACH_TOL``, and gives
    up after ``_DINKELBACH_MAX_OUTER`` auxiliary solves.  The auxiliary
    problems share the box and the floors of :func:`gee_problem`, so a first
    auxiliary solve that ends ``infeasible`` (floors that cannot be met)
    returns an ``infeasible`` result with no incumbent and value ``-inf``;
    any other auxiliary solve that is not (relative-)eta-optimal raises
    ``InnerSolveFailed``.  ``iterations`` and the four box counts of
    ``stats`` add up over the auxiliary solves (``boxes_created`` counts one
    root each); the peak is the largest of theirs.  Inner tolerance errors
    can leak into the result, so this carries no end-to-end optimality
    guarantee; it serves as a cross-check baseline.
    """
    ratio_of = gee_problem(net, energy).objective
    kernel = _Kernel(net, net.w)  # the auxiliary problems' floors
    t0 = time.perf_counter()
    lam = 0.0
    total_iterations = 0
    stats = SolveStats()
    ok_statuses = (STATUS_ETA_OPTIMAL, STATUS_RELATIVE_ETA_OPTIMAL)
    for outer in range(_DINKELBACH_MAX_OUTER):
        aux = _power_problem(kernel, _dinkelbach_aux_objective(net, energy, lam))
        res = solve(aux, inner_config)
        total_iterations += res.iterations
        stats = SolveStats(
            stats.boxes_created + res.stats.boxes_created,
            stats.boxes_pruned_infeasible + res.stats.boxes_pruned_infeasible,
            stats.boxes_pruned_bound + res.stats.boxes_pruned_bound,
            stats.boxes_reduced_empty + res.stats.boxes_reduced_empty,
            max(stats.peak_region_count, res.stats.peak_region_count),
        )
        if outer == 0 and res.status == STATUS_INFEASIBLE:  # res.value is -inf: returned below
            p, ratio = None, -math.inf
        elif res.status not in ok_statuses or res.incumbent is None:
            raise InnerSolveFailed(f"auxiliary solve ended with status {res.status}")
        else:
            p = res.incumbent
            ratio = ratio_of.eval(p, p)
        if res.value <= _DINKELBACH_TOL:
            return SolverResult(
                incumbent=p,
                value=ratio,
                status=res.status,
                iterations=total_iterations,
                wall_time=time.perf_counter() - t0,
                stats=stats,
            )
        lam = ratio
    raise InnerSolveFailed(f"no convergence within {_DINKELBACH_MAX_OUTER} outer iterations")


# ---------------------------------------------------------------------------
# slotted random access

# lower corner of the probability box; keeps the log-utility finite
_ALOHA_FLOOR = 1e-9


def _ln(t: float) -> float:
    if t > 0.0:
        return math.log(t)
    return float("-inf") if t == 0.0 else float("nan")


def _aloha_rate(net: AlohaNetwork, k: int):
    """Throughput of user k as a plain ``(x, y) -> float``: success rate
    times own transmit probability times the probability that no interferer
    transmits."""
    ck = float(net.c[k])
    idx = np.array(net.interferers[k], dtype=int)

    def fn(x, y):
        return ck * x[k] * float(np.prod(1.0 - y[idx])) if idx.size else ck * x[k]

    return fn


def _aloha_utility_term(net: AlohaNetwork, j: int) -> MMFunction:
    """User j's share of the proportional-fair utility,
    ``h(t) = log c_j + log t + m log(1 - t)`` with m the number of users j
    interferes with; unimodal with its peak at ``1 / (1 + m)``."""
    log_c = math.log(float(net.c[j]))
    m = sum(j in idx for idx in net.interferers)

    def h(t):
        value = log_c + _ln(t)
        # m = 0 must not meet log(0) at t = 1: 0 * -inf is NaN
        return value + m * _ln(1.0 - t) if m else value

    return mm_unimodal(h, j, 1.0 / (1 + m), net.K)


def aloha_problem(net: AlohaNetwork) -> ProblemInstance:
    """Proportional-fair transmit-probability optimization.

    The utility, the sum of log-throughputs, separates by user:
    ``sum_j log c_j + log p_j + m_j log(1 - p_j)``, where ``m_j`` counts the
    users that j interferes with.  Each term is unimodal, so the objective
    is a sum of :func:`~mmopt.calculus.mm_unimodal` terms and its box bound
    is exact.  The rate floors are built like the WSR floors (see
    :func:`_floors`), as swapped-argument gaps over the throughputs; they do
    not admit a shared monotone split, and unlike the WSR floors they are
    not affine in the probabilities, so no exact test decides them.  The
    one-sided test yields points only from boxes lying wholly inside the
    feasible set, which best-first search on an exact bound rarely visits,
    so the instance runs in ``custom-oracle`` mode with an oracle that keeps
    every verdict of that test and offers an undecided box's midpoint as
    the witness when it meets every floor.
    """
    k = net.K
    objective = mm_sum([_aloha_utility_term(net, j) for j in range(k)])
    constraints = _floors(net, partial(_aloha_rate, net))

    def oracle(box: BoxNd):
        verdict = mm_sufficient_test(box, constraints)
        if verdict.kind is Feasibility.UNKNOWN:
            return _witness_verdict(0.5 * (box.r + box.s), constraints, verdict)
        return verdict

    box = BoxNd(np.full(k, _ALOHA_FLOOR), np.ones(k))
    return ProblemInstance(objective, constraints, box, feasibility_oracle=oracle)


def aloha_feasibility_boundary(k: int) -> float:
    """Largest ratio rho such that every user can simultaneously reach a
    throughput of rho times its success rate under full interference;
    attained at equal transmit probabilities 1/K."""
    _check_draw(k)
    if k == 1:
        return 1.0
    return (k - 1) ** (k - 1) / k**k


# ---------------------------------------------------------------------------
# seeded generators


def _check_draw(k, seed=0) -> None:
    """``InvalidNetwork`` unless ``k`` is an integer >= 1 and ``seed`` one >= 0."""
    if not _is_count(k, 1):
        raise InvalidNetwork(f"need an integer count of users >= 1, got {k!r}")
    if not _is_count(seed, 0):
        raise InvalidNetwork(f"seed must be an integer >= 0, got {seed!r}")


def generate_channels(k: int, seed: int) -> InterferenceNetwork:
    """Random interference network: squared magnitudes of unit-variance
    complex normal gains, no self-interference, noise power 0.01, unit
    power caps and weights, no rate floors.  Deterministic per seed."""
    _check_draw(k, seed)
    rng = np.random.default_rng(seed)
    za = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    alpha = np.abs(za) ** 2
    zb = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    beta = np.abs(zb) ** 2
    np.fill_diagonal(beta, 0.0)
    return InterferenceNetwork(
        alpha=alpha,
        beta=beta,
        sigma2=0.01,
        p_max=np.ones(k),
        w=np.ones(k),
        r_min=np.zeros(k),
    )


def generate_aloha(k: int, seed: int) -> AlohaNetwork:
    """Random full-interference access network with rate floors near the
    feasibility boundary.

    Success rates come from squared complex-normal gains; each floor is the
    user's success rate times a normal draw centered on the symmetric
    feasibility boundary (std 0.05, clipped at zero), so some floors are
    active and draws straddle infeasibility.  Deterministic per seed.
    """
    _check_draw(k, seed)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    c = np.log2(1.0 + np.abs(z) ** 2)
    chi = rng.normal(aloha_feasibility_boundary(k), 0.05, size=k)
    r_min = np.maximum(c * chi, 0.0)
    interferers = tuple(tuple(j for j in range(k) if j != i) for i in range(k))
    return AlohaNetwork(c=c, interferers=interferers, r_min=r_min)
