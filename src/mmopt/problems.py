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

from .calculus import mm_min, mm_ratio, mm_sum, mm_unimodal, mm_weighted_sum
from .core import (
    STATUS_ETA_OPTIMAL,
    STATUS_RELATIVE_ETA_OPTIMAL,
    BoxNd,
    MMConstraint,
    MMFunction,
    ProblemInstance,
    SolverConfig,
    SolverResult,
)
from .errors import InnerSolveFailed, InvalidNetwork
from .feasibility import Feasibility, FeasibilityVerdict, least_point_test, mm_sufficient_test
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


def _frozen_vector(v, k: int, name: str, lo=None, strict_lo=None) -> np.ndarray:
    arr = np.array(v, dtype=float, copy=True)
    if arr.shape != (k,):
        raise InvalidNetwork(f"{name} must have shape ({k},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidNetwork(f"{name} must be finite")
    if lo is not None and np.any(arr < lo):
        raise InvalidNetwork(f"{name} must be >= {lo}")
    if strict_lo is not None and np.any(arr <= strict_lo):
        raise InvalidNetwork(f"{name} must be > {strict_lo}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
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
        k = np.asarray(self.alpha).size
        object.__setattr__(self, "alpha", _frozen_vector(self.alpha, k, "alpha", strict_lo=0.0))
        beta = np.array(self.beta, dtype=float, copy=True)
        if beta.shape != (k, k):
            raise InvalidNetwork(f"beta must have shape ({k}, {k}), got {beta.shape}")
        if not np.isfinite(beta).all() or np.any(beta < 0):
            raise InvalidNetwork("beta must be finite and nonnegative")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise InvalidNetwork("sigma2 must be positive")
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "p_max", _frozen_vector(self.p_max, k, "p_max", strict_lo=0.0))
        object.__setattr__(self, "w", _frozen_vector(self.w, k, "w", lo=0.0))
        object.__setattr__(self, "r_min", _frozen_vector(self.r_min, k, "r_min", lo=0.0))

    @property
    def K(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class EnergyModel:
    """Power-consumption model: amplifier inefficiencies, circuit power, bandwidth.

    ``p_circuit`` is a scalar for the network-wide energy efficiency ratio
    and a per-user vector for the weighted-sum/-minimum variants.
    """

    phi: np.ndarray
    p_circuit: float | np.ndarray
    bandwidth: float = 1.0

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float, copy=True)
        if phi.ndim != 1 or not np.isfinite(phi).all() or np.any(phi < 0):
            raise InvalidNetwork("phi must be a finite nonnegative vector")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        pc = np.asarray(self.p_circuit, dtype=float)
        if pc.ndim == 0:
            if not (np.isfinite(pc) and pc > 0):
                raise InvalidNetwork("p_circuit must be positive")
            object.__setattr__(self, "p_circuit", float(pc))
        else:
            object.__setattr__(
                self, "p_circuit", _frozen_vector(pc, phi.size, "p_circuit", strict_lo=0.0)
            )
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise InvalidNetwork("bandwidth must be positive")
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    @property
    def per_user_circuit(self) -> bool:
        return isinstance(self.p_circuit, np.ndarray)


@dataclass(frozen=True)
class AlohaNetwork:
    """Slotted random access: success rates, interferer sets, rate floors."""

    c: np.ndarray
    interferers: tuple[tuple[int, ...], ...]
    r_min: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.c).size
        object.__setattr__(self, "c", _frozen_vector(self.c, k, "c", strict_lo=0.0))
        sets = []
        if len(self.interferers) != k:
            raise InvalidNetwork(f"interferers must list {k} index sets")
        for i, idx in enumerate(self.interferers):
            ids = tuple(sorted(int(j) for j in idx))
            if any(j < 0 or j >= k for j in ids):
                raise InvalidNetwork(f"interferers[{i}] indices out of range")
            if i in ids:
                raise InvalidNetwork(f"user {i} cannot interfere with itself")
            sets.append(ids)
        object.__setattr__(self, "interferers", tuple(sets))
        object.__setattr__(self, "r_min", _frozen_vector(self.r_min, k, "r_min", lo=0.0))

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
        den = s2 + bkk * xk + float(np.dot(cross, y))
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


def _floor_oracle(net: InterferenceNetwork, constraints: tuple[MMConstraint, ...]):
    """The feasibility oracle of the WSR rate floors ``constraints``:
    :func:`~mmopt.feasibility.least_point_test` on :func:`_floor_map`, which
    decides every box.  The map is built on the first call, which keeps
    building a problem cheap.  When a floor cannot be met, the oracle is the
    one-sided test, which then finds every box infeasible.
    """
    affine = None

    def oracle(box: BoxNd) -> FeasibilityVerdict:
        nonlocal affine
        if affine is None:
            affine = _floor_map(net)
        if not affine:
            return mm_sufficient_test(box, constraints)
        return least_point_test(box, constraints, *affine)

    return oracle


def _power_problem(
    net: InterferenceNetwork, objective: MMFunction, floored: bool = False
) -> ProblemInstance:
    """Maximize ``objective`` over the power box [0, p_max], under the
    network's rate floors when ``floored``.

    Without floors the feasible set is the whole box, a normal set.  The
    floors are built by :func:`_floors` like the ALOHA floors.  They share no
    monotone split, but each is an affine floor on the powers, so the
    instance runs in ``custom-oracle`` mode with the exact
    :func:`_floor_oracle`.  In that mode ``epsilon_feasibility`` adds no
    candidate points: it applies to undecided boxes of
    ``mm-sufficient-only`` mode only.
    """
    box = BoxNd(np.zeros(net.K), net.p_max)
    floors = _floors(net, _rate) if floored else ()
    if not floors:
        return ProblemInstance(objective, (), box, feasibility_mode="normal")
    return ProblemInstance(
        objective,
        floors,
        box,
        feasibility_mode="custom-oracle",
        feasibility_oracle=_floor_oracle(net, floors),
    )


def _mmp_objective(net: InterferenceNetwork, weights) -> MMFunction:
    """Weighted sum of the per-user rates, each with its own power inside its
    fraction."""
    return mm_weighted_sum(weights, [_rate_mm(net, k) for k in range(net.K)])


def _dm_objective(net: InterferenceNetwork, weights) -> MMFunction:
    """Weighted sum rate as a difference of two increasing log terms: every
    power in the signal-plus-interference log binds to the increasing slot,
    every power in the interference log to the decreasing slot."""
    alpha, beta, s2 = net.alpha, net.beta, net.sigma2

    def fn(x, y):
        plus = np.log2(alpha * x + s2 + beta @ x)
        minus = np.log2(s2 + beta @ y)
        return float(np.dot(weights, plus) - np.dot(weights, minus))

    return MMFunction(net.K, fn, name="wsr_dm")


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
    return _power_problem(net, objective, floored=True)


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
    return lambda p: float(np.dot(phi, p)) + pc


def gee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Network energy efficiency: total throughput over total power draw.

    The consumed power (amplifier draw plus static circuit power) enters the
    decreasing slot, so the ratio is optimized directly -- no outer
    fractional-programming loop.  Minimum-rate constraints are omitted.
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
    """Weighted sum of per-user energy efficiencies."""
    return _power_problem(net, mm_sum(_per_user_efficiency_terms(net, energy)))


def wmee_problem(net: InterferenceNetwork, energy: EnergyModel) -> ProblemInstance:
    """Weighted minimum of per-user energy efficiencies."""
    return _power_problem(net, mm_min(_per_user_efficiency_terms(net, energy)))


def _sum_rate(net: InterferenceNetwork, p: np.ndarray) -> float:
    den = net.sigma2 + net.beta @ p
    return float(np.sum(np.log2(1.0 + net.alpha * p / den)))


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
    minus a lam-weighted power draw, by branch-and-bound on the
    difference-of-logs bound) and updating lam to the achieved ratio; stops
    once the auxiliary optimum drops to ``_DINKELBACH_TOL``, and gives up
    after ``_DINKELBACH_MAX_OUTER`` auxiliary solves.  Inner tolerance
    errors can leak into the result, so this carries no end-to-end
    optimality guarantee; it serves as a cross-check baseline.
    """
    draw = _power_draw(net, energy)
    t0 = time.perf_counter()
    lam = 0.0
    total_iterations = 0
    peak = 0
    ok_statuses = (STATUS_ETA_OPTIMAL, STATUS_RELATIVE_ETA_OPTIMAL)
    for _ in range(_DINKELBACH_MAX_OUTER):
        res = solve(_power_problem(net, _dinkelbach_aux_objective(net, energy, lam)), inner_config)
        total_iterations += res.iterations
        peak = max(peak, res.peak_region_count)
        if res.status not in ok_statuses or res.incumbent is None:
            raise InnerSolveFailed(f"auxiliary solve ended with status {res.status}")
        p = res.incumbent
        ratio = energy.bandwidth * _sum_rate(net, p) / draw(p)
        if res.value <= _DINKELBACH_TOL:
            return SolverResult(
                incumbent=p,
                value=ratio,
                status=res.status,
                iterations=total_iterations,
                peak_region_count=peak,
                wall_time=time.perf_counter() - t0,
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
    the witness when it meets every floor.  In that mode
    ``epsilon_feasibility`` adds no candidate points.
    """
    k = net.K
    objective = mm_sum([_aloha_utility_term(net, j) for j in range(k)])
    constraints = _floors(net, _aloha_rate)

    def oracle(box: BoxNd) -> FeasibilityVerdict:
        verdict = mm_sufficient_test(box, constraints)
        if verdict.kind is Feasibility.UNKNOWN:
            x = 0.5 * (box.r + box.s)
            if all(c.g.eval(x, x) <= 0.0 for c in constraints):
                return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=x)
        return verdict

    box = BoxNd(np.full(k, _ALOHA_FLOOR), np.ones(k))
    return ProblemInstance(
        objective, constraints, box, feasibility_mode="custom-oracle", feasibility_oracle=oracle
    )


def aloha_feasibility_boundary(k: int) -> float:
    """Largest ratio rho such that every user can simultaneously reach a
    throughput of rho times its success rate under full interference;
    attained at equal transmit probabilities 1/K."""
    if k < 1:
        raise InvalidNetwork("need at least one user")
    if k == 1:
        return 1.0
    return (k - 1) ** (k - 1) / k**k


# ---------------------------------------------------------------------------
# seeded generators


def generate_channels(k: int, seed: int) -> InterferenceNetwork:
    """Random interference network: squared magnitudes of unit-variance
    complex normal gains, no self-interference, noise power 0.01, unit
    power caps and weights, no rate floors.  Deterministic per seed."""
    if k < 1:
        raise InvalidNetwork("need at least one user")
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
    if k < 1:
        raise InvalidNetwork("need at least one user")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    c = np.log2(1.0 + np.abs(z) ** 2)
    chi = rng.normal(aloha_feasibility_boundary(k), 0.05, size=k)
    r_min = np.maximum(c * chi, 0.0)
    interferers = tuple(tuple(j for j in range(k) if j != i) for i in range(k))
    return AlohaNetwork(c=c, interferers=interferers, r_min=r_min)
