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
from .solver import _face_cuts, solve

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


def _rate(net: InterferenceNetwork, k: int):
    """Per-user rate as a plain ``(x, y) -> float`` with own power in the
    increasing slot and interference in the decreasing slot
    (self-interference stays with the own power)."""
    a = float(net.alpha[k])
    bkk = float(net.beta[k, k])
    cross = np.array(net.beta[k])
    cross[k] = 0.0
    s2 = net.sigma2

    def fn(x, y):
        xk = float(x[k])
        den = s2 + bkk * xk + float(cross.dot(y))
        return math.log2(1.0 + a * xk / den)

    return fn


def _rate_mm(net: InterferenceNetwork, k: int) -> MMFunction:
    return MMFunction(net.K, _rate(net, k), name=f"rate{k}")


def _floors(net: InterferenceNetwork | AlohaNetwork, rate) -> tuple[MMConstraint, ...]:
    """Minimum-rate constraints ``r_min[k] - rate_k(y, x) <= 0``, for the
    WSR and the ALOHA families alike.

    ``rate(net, k)`` is user k's rate as a plain ``(x, y) -> float``,
    nondecreasing in ``x`` and nonincreasing in ``y``; the argument roles are
    swapped so that each gap is again nondecreasing in its first slot.
    Floors at zero are vacuous (rates are nonnegative) and are skipped.
    """

    def floor(k: int) -> MMConstraint:
        rate_k = rate(net, k)
        rmin = float(net.r_min[k])

        def fn(x, y):
            return rmin - rate_k(y, x)

        return MMConstraint(MMFunction(net.K, fn, name=f"rate_floor{k}"))

    return tuple(floor(k) for k in range(net.K) if net.r_min[k] > 0)


def _floor_map(net: InterferenceNetwork) -> tuple[np.ndarray, np.ndarray] | tuple[()]:
    """The WSR rate floors as ``p >= m p + c``, or ``()`` when one cannot be met.

    Floor k reads ``p_k >= g_k (sigma2 + sum_{j != k} beta_kj p_j)
    / (alpha_k - g_k beta_kk)`` with ``g_k = 2^r_min[k] - 1``; a floor with
    ``alpha_k <= g_k beta_kk`` holds at no power.  Rows without a floor are 0.
    """
    gain = np.exp2(net.r_min) - 1.0
    den = net.alpha - gain * np.diag(net.beta)
    if np.any(den <= 0.0):
        return ()
    scale = gain / den
    m = scale[:, None] * net.beta
    np.fill_diagonal(m, 0.0)
    return m, scale * net.sigma2


def _floor_hooks(net: InterferenceNetwork, floors, objective: MMFunction, sum_rate_weights):
    """The feasibility oracle and the reducer of a power problem under the
    WSR rate floors ``floors`` (see :func:`_power_problem`).

    Both read :func:`_floor_map`, built on the first call of either, and the
    reducer the :class:`_SumRate` of ``sum_rate_weights``, built on its first
    call, which keeps building a problem cheap.  The reducer is ``None``
    unless ``sum_rate_weights`` is given, that is unless ``objective`` is
    the ``mmp`` weighted sum rate with these weights.  When a floor cannot
    be met, the oracle is the one-sided test and the reducer empties every
    box, both rightly, since no point meets the floor.  Otherwise the oracle
    is :func:`~mmopt.feasibility.least_point_test`, which decides every box,
    and the reducer is :func:`_reduce_power_box`.
    """
    built = sum_rate = None

    def floor_map():
        nonlocal built
        if built is None:
            built = _floor_map(net)
        return built

    def oracle(box: BoxNd):
        affine = floor_map()
        if not affine:
            return mm_sufficient_test(box, floors)
        return least_point_test(box, floors, *affine)

    def reducer(box: BoxNd, gamma: float, steps: int):
        nonlocal sum_rate
        affine = floor_map()
        if not affine:
            return None
        if sum_rate is None:
            sum_rate = _SumRate(net, sum_rate_weights)
        return _reduce_power_box(box, gamma, steps, objective.eval, *affine, sum_rate)

    return oracle, None if sum_rate_weights is None else reducer


_LN2 = math.log(2.0)


class _SumRate:
    """A network's weighted sum-rate terms, with the closed-form faces they
    put on a box in the shrink phase of reduction.  The interference is one
    numpy matrix-vector product; the rest runs on Python floats, which for a
    few users is faster than numpy."""

    __slots__ = ("w", "alpha", "own", "cross", "s2")

    def __init__(self, net: InterferenceNetwork, weights):
        self.w = [float(v) for v in weights]
        self.alpha = net.alpha.tolist()
        self.own = np.diag(net.beta).tolist()
        self.cross = np.array(net.beta)
        np.fill_diagonal(self.cross, 0.0)
        self.s2 = net.sigma2

    def noise(self, y: np.ndarray) -> list:
        """Each user's noise plus interference ``D_k = sigma2 + sum_{j != k}
        beta_kj y_j``."""
        s2 = self.s2
        return [s2 + v for v in self.cross.dot(y).tolist()]

    def terms(self, x: list, noise: list) -> list:
        """The weighted rates ``w_k rate_k`` at own powers ``x`` over
        :meth:`noise` ``D``."""
        return [
            wk * math.log2(1.0 + ak * xk / (dk + bk * xk))
            for wk, ak, bk, dk, xk in zip(self.w, self.alpha, self.own, noise, x)
        ]

    def faces(self, terms: list, noise: list, gamma: float) -> list:
        """Each ``x_i`` below which ``F(x, r) <= gamma`` with the other own
        powers at ``s``, from the :meth:`terms` at ``(s, r)``.

        Only term i reads ``x_i`` there, so the face inverts its SINR:
        ``x_i = t D_i / (alpha_i - t beta_ii)`` with ``t = 2^((gamma -
        rest) / w_i) - 1`` and ``rest`` the other terms.  A coordinate gets
        no face (``-inf``) when its weight is zero, when its term exceeds
        ``gamma - rest`` at every power, or when that would take a rate of
        more than 1,000 bits, which only roundoff next to a tiny weight
        gives, since ``F(s, r) > gamma``.
        """
        out = []
        for i, (wi, ai, bi, di) in enumerate(zip(self.w, self.alpha, self.own, noise)):
            face = -math.inf
            if wi > 0.0:
                bits = (gamma - math.fsum(terms[:i] + terms[i + 1 :])) / wi
                if 0.0 < bits <= 1000.0:
                    t = math.expm1(_LN2 * bits)
                    den = ai - t * bi
                    if den > 0.0:  # den <= 0 only by roundoff, as F(s, r) > gamma
                        face = t * di / den
            out.append(face)
        return out


def _readonly(values: list) -> np.ndarray:
    out = np.array(values)
    out.flags.writeable = False
    return out


def _reduce_power_box(box: BoxNd, gamma: float, steps: int, value, m, c, sum_rate):
    """:func:`~mmopt.solver.reduce_box` for the ``mmp`` weighted sum rate
    ``value`` (its ``eval``) under rate floors that read ``p >= m p + c``,
    with the faces of the conjuncts that invert along their lines set in
    closed form.

    Shrink phase (lower faces, the other own powers at ``s``, interference
    at ``r``): floor i's face is ``(m r + c)_i``, and the objective's the
    SINR inverse of its term i (:meth:`_SumRate.faces`).  Grow phase (upper
    faces, own powers at ``s``, interference from the new lower corner):
    floor ``k != i`` caps ``y_i <= (s_k - c_k - sum_{j != i} m_kj y_j) /
    m_ki``, and the objective, which has no inverse there, is line-searched
    by ``steps`` halvings over what is left.  Every closed-form face is moved
    outward by the relative margin ``_LEAST_POINT_MARGIN`` and clipped to
    the box.

    Returns what ``reduce_box`` returns: ``None`` when no feasible point
    above gamma remains, by the MM certificates on the box or on it with the
    new lower corner (a floor that fails at the optimistic corner pair by
    more than the margin, or a bound not above gamma), ``box`` itself when
    nothing is cut.
    """
    down, up = 1.0 - _LEAST_POINT_MARGIN, 1.0 + _LEAST_POINT_MARGIN
    r, s = box.r, box.s
    rl, sl, c = r.tolist(), s.tolist(), c.tolist()

    def floor_needs(y: np.ndarray) -> list | None:
        # each floor's least own power (m y + c)_k under the interference of
        # y, or None when one exceeds s by more than the margin
        need = [ck + v for ck, v in zip(c, m.dot(y).tolist())]
        return None if any(nk * down > sk for nk, sk in zip(need, sl)) else need

    need = floor_needs(r)
    if need is None or value(s, r) <= gamma:
        return None
    lo = [nk * down for nk in need]  # the floors' faces
    if gamma > -math.inf:
        noise = sum_rate.noise(r)
        faces = sum_rate.faces(sum_rate.terms(sl, noise), noise, gamma)
        lo = [max(f, face * down) for f, face in zip(lo, faces)]
    lo = [min(sk, max(rk, f)) for rk, sk, f in zip(rl, sl, lo)]
    if lo == rl:
        r_new = r
    else:
        r_new = _readonly(lo)
        need = floor_needs(r_new)
        if need is None or value(s, r_new) <= gamma:
            return None

    # floor k holds at (s, r_new), so it caps each y_i with m_ki > 0
    top = list(sl)
    for row, nk, sk in zip(m.tolist(), need, sl):
        slack = sk - nk
        for i, mki in enumerate(row):
            if mki > 0.0:
                top[i] = min(top[i], max(lo[i], (lo[i] + slack / mki) * up))
    if gamma > -math.inf:
        holds = [lambda y: value(s, y) > gamma]
        for i, v in _face_cuts(r_new, np.array(top) - r_new, holds, steps).items():
            top[i] = min(top[i], v)
    if top == sl:
        return box if r_new is r else BoxNd._trusted(r_new, s)
    return BoxNd._trusted(r_new, _readonly(top))


def _power_problem(
    net: InterferenceNetwork, objective: MMFunction, sum_rate_weights=None
) -> ProblemInstance:
    """Maximize ``objective`` over the power box [0, p_max] under the
    network's rate floors: the one path of every power-control family.

    Without a positive ``r_min`` the feasible set is the whole box, which the
    corner test decides at its lower corner (``mm-conclusive``, no
    constraints).  The floors are built by :func:`_floors` like the ALOHA
    floors.  They share no monotone split, but each is an affine floor on
    the powers, so the instance carries the exact oracle of
    :func:`_floor_hooks` (``custom-oracle``).  ``sum_rate_weights`` says that
    ``objective`` is the ``mmp`` weighted sum rate with these weights; the
    instance then also carries the closed-form reducer of
    :func:`_floor_hooks`, and every other objective is reduced by
    :func:`~mmopt.solver.reduce_box`.
    """
    box = BoxNd(np.zeros(net.K), net.p_max)
    floors = _floors(net, _rate)
    if not floors:
        return ProblemInstance(objective, floors, box)
    oracle, reducer = _floor_hooks(net, floors, objective, sum_rate_weights)
    return ProblemInstance(objective, floors, box, feasibility_oracle=oracle, reducer=reducer)


def _mmp_objective(net: InterferenceNetwork, weights) -> MMFunction:
    """Weighted sum of the per-user rates, each with its own power inside its
    fraction."""
    return mm_weighted_sum(weights, [_rate_mm(net, k) for k in range(net.K)])


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


# the weighted-sum-rate bound of each representation name
_WSR_OBJECTIVES = {"mmp": _mmp_objective, "dm": _dm_objective}
REPRESENTATIONS = tuple(_WSR_OBJECTIVES)


def wsr_problem(net: InterferenceNetwork, representation: str = "mmp") -> ProblemInstance:
    """Weighted sum rate maximization over the power box [0, p_max].

    ``representation`` (one of :data:`REPRESENTATIONS`) selects the bound:
    ``"mmp"`` keeps each rate's own power inside its fraction, ``"dm"`` uses
    the difference-of-logs split (always looser, never tighter).  Positive
    ``r_min`` entries become rate floors, decided exactly per box by the
    least feasible power vector (see :func:`_power_problem`).
    """
    if representation not in _WSR_OBJECTIVES:
        raise InvalidNetwork(f"unknown representation {representation!r}")
    objective = _WSR_OBJECTIVES[representation](net, net.w)
    return _power_problem(net, objective, net.w if representation == "mmp" else None)


def bound_gap_mmp_vs_dm(net: InterferenceNetwork, box: BoxNd) -> float:
    """Bound of the difference-of-logs split minus the per-rate bound on a
    box; nonnegative up to roundoff, zero on degenerate boxes."""
    u_dm = _dm_objective(net, net.w).eval(box.s, box.r)
    u_mmp = _mmp_objective(net, net.w).eval(box.s, box.r)
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
    numerator = _mmp_objective(net, np.full(net.K, energy.bandwidth))
    denominator = MMFunction(net.K, lambda x, y: draw(x), name="power_draw")
    return _power_problem(net, mm_ratio(numerator, denominator))


def _per_user_efficiency_terms(net: InterferenceNetwork, energy: EnergyModel) -> list[MMFunction]:
    if energy.phi.size != net.K:
        raise InvalidNetwork("phi dimension differs from the network")
    if not energy.per_user_circuit:
        raise InvalidNetwork("per-user efficiencies need a per-user p_circuit vector")
    b = energy.bandwidth
    terms = []
    for k in range(net.K):
        numerator = mm_weighted_sum([net.w[k] * b], [_rate_mm(net, k)])
        phik = float(energy.phi[k])
        pck = float(energy.p_circuit[k])

        def den_fn(x, y, k=k, phik=phik, pck=pck):
            return phik * x[k] + pck

        terms.append(mm_ratio(numerator, MMFunction(net.K, den_fn, name=f"draw{k}")))
    return terms


def wsee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Weighted sum of per-user energy efficiencies, under the network's
    rate floors (see :func:`_power_problem`)."""
    return _power_problem(net, mm_sum(_per_user_efficiency_terms(net, energy)))


def wmee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Weighted minimum of per-user energy efficiencies, under the network's
    rate floors (see :func:`_power_problem`)."""
    return _power_problem(net, mm_min(_per_user_efficiency_terms(net, energy)))


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
    t0 = time.perf_counter()
    lam = 0.0
    total_iterations = 0
    stats = SolveStats()
    ok_statuses = (STATUS_ETA_OPTIMAL, STATUS_RELATIVE_ETA_OPTIMAL)
    for outer in range(_DINKELBACH_MAX_OUTER):
        res = solve(_power_problem(net, _dinkelbach_aux_objective(net, energy, lam)), inner_config)
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
    constraints = _floors(net, _aloha_rate)

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
