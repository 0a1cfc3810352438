"""Independent reference computations for the test suite.

Everything here is hand-coded straight from the model formulas (no use of
the MM representations or the solver) so tests compare two independent
routes to the same value.  The exceptions are :func:`reduce_box_reference`,
the solver's earlier box reduction, and the three exact feasibility tests
that the corner test replaced (:func:`normal_set_test_reference`,
:func:`conormal_set_test_reference`, :func:`mm_conclusive_test_reference`),
kept as written; the current code must agree with them bit for bit.
"""

import numpy as np

from mmopt.core import BoxNd
from mmopt.errors import MissingMonotoneSplit
from mmopt.feasibility import Feasibility, FeasibilityVerdict


def wsr_rates(net, p):
    """Per-user rates at a power vector (or stacked meshgrid arrays)."""
    p = np.asarray(p, dtype=float)
    rates = []
    for k in range(net.K):
        den = net.sigma2 + sum(net.beta[k, j] * p[j] for j in range(net.K))
        rates.append(np.log2(1.0 + net.alpha[k] * p[k] / den))
    return np.array(rates)


def wsr_value(net, p):
    return float(np.dot(net.w, wsr_rates(net, p)))


def wsr_budget_grid_max(net, budget, n=101):
    """Best weighted sum rate over the points of an n-per-dimension grid
    whose total power is at most ``budget`` (K = 3 only)."""
    assert net.K == 3
    axes = [np.linspace(0.0, net.p_max[i], n) for i in range(3)]
    p = np.meshgrid(*axes, indexing="ij")
    value = np.zeros_like(p[0])
    for k in range(3):
        den = net.sigma2 + sum(net.beta[k, j] * p[j] for j in range(3))
        value += net.w[k] * np.log2(1.0 + net.alpha[k] * p[k] / den)
    return float(value[p[0] + p[1] + p[2] <= budget].max())


def wsr_grid_max(net, n=1001):
    """Best weighted sum rate over an n-per-dimension grid (K = 2 only)."""
    assert net.K == 2
    ax = [np.linspace(0.0, net.p_max[i], n) for i in range(2)]
    p1, p2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    value = np.zeros_like(p1)
    feasible = np.ones(p1.shape, dtype=bool)
    for k, pk in enumerate((p1, p2)):
        den = net.sigma2 + net.beta[k, 0] * p1 + net.beta[k, 1] * p2
        rate = np.log2(1.0 + net.alpha[k] * pk / den)
        value += net.w[k] * rate
        if net.r_min[k] > 0:
            feasible &= rate >= net.r_min[k]
    if not feasible.any():
        return float("-inf")
    return float(value[feasible].max())


def energy_grid_max(net, energy, family, n=801):
    """Best ``family`` ("gee", "wsee" or "wmee") energy efficiency over the
    points of an n-per-dimension grid that meet every rate floor (K = 2
    only); -inf when none does."""
    assert net.K == 2
    ax = [np.linspace(0.0, net.p_max[i], n) for i in range(2)]
    p = np.array(np.meshgrid(ax[0], ax[1], indexing="ij"))
    rates = wsr_rates(net, p)
    feasible = np.all(rates >= net.r_min[:, None, None], axis=0)
    if not feasible.any():
        return float("-inf")
    phi = energy.phi[:, None, None]
    if family == "gee":
        draw = np.sum(phi * p, axis=0) + float(energy.p_circuit)
        value = energy.bandwidth * np.sum(rates, axis=0) / draw
    else:
        draw = phi * p + energy.p_circuit[:, None, None]
        terms = net.w[:, None, None] * energy.bandwidth * rates / draw
        value = np.sum(terms, axis=0) if family == "wsee" else np.min(terms, axis=0)
    return float(value[feasible].max())


def dm_gap_closed_form(net, box):
    """Difference-of-logs bound minus per-rate bound, from the per-user
    two-term log identity evaluated at the box corners."""
    r, s = box.r, box.s
    total = 0.0
    for k in range(net.K):
        cross = np.array(net.beta[k])
        cross[k] = 0.0
        a, bkk, s2 = net.alpha[k], net.beta[k, k], net.sigma2
        t1 = np.log2(
            (a * s[k] + s2 + bkk * s[k] + cross @ r) / (a * s[k] + s2 + bkk * s[k] + cross @ s)
        )
        t2 = np.log2((s2 + bkk * r[k] + cross @ r) / (s2 + bkk * s[k] + cross @ r))
        total += net.w[k] * (t1 + t2)
    return -float(total)


def gee_value(net, energy, p):
    p = np.asarray(p, dtype=float)
    num = energy.bandwidth * float(np.sum(wsr_rates(net, p)))
    return num / (float(np.dot(energy.phi, p)) + float(energy.p_circuit))


def gee_grid_max_1d(net, energy, n=10**6):
    assert net.K == 1
    p = np.linspace(0.0, net.p_max[0], n)
    rate = np.log2(1.0 + net.alpha[0] * p / (net.sigma2 + net.beta[0, 0] * p))
    value = energy.bandwidth * rate / (energy.phi[0] * p + float(energy.p_circuit))
    return float(value.max())


def wsee_value(net, energy, p):
    p = np.asarray(p, dtype=float)
    rates = wsr_rates(net, p)
    terms = net.w * energy.bandwidth * rates / (energy.phi * p + energy.p_circuit)
    return float(np.sum(terms))


def wmee_value(net, energy, p):
    p = np.asarray(p, dtype=float)
    rates = wsr_rates(net, p)
    terms = net.w * energy.bandwidth * rates / (energy.phi * p + energy.p_circuit)
    return float(np.min(terms))


def aloha_rates(net, theta):
    theta = np.asarray(theta, dtype=float)
    rates = []
    for k in range(net.K):
        rate = net.c[k] * theta[k]
        for j in net.interferers[k]:
            rate = rate * (1.0 - theta[j])
        rates.append(rate)
    return np.array(rates)


def aloha_utility(net, theta):
    rates = aloha_rates(net, theta)
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(rates)))


def aloha_grid(net, n=201):
    """(any feasible grid point?, best utility over feasible grid points).

    Evaluates every rate on an n-per-dimension grid by broadcasting;
    infeasible networks report (False, -inf).
    """
    k = net.K
    axes = np.linspace(0.0, 1.0, n)

    def rate_array(i):
        shape = [1] * k
        shape[i] = n
        rate = net.c[i] * axes.reshape(shape)
        for j in net.interferers[i]:
            shape_j = [1] * k
            shape_j[j] = n
            rate = rate * (1.0 - axes.reshape(shape_j))
        return rate

    feasible = np.ones((n,) * k, dtype=bool)
    for i in range(k):
        feasible &= rate_array(i) >= net.r_min[i]
    if not feasible.any():
        return False, float("-inf")
    utility = np.zeros((n,) * k)
    with np.errstate(divide="ignore"):
        for i in range(k):
            utility = utility + np.log(rate_array(i))
    return True, float(utility[feasible].max())


def random_box(rng, lower, upper, min_width=0.0):
    """A random nondegenerate sub-box of [lower, upper]."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a = lower + (upper - lower) * rng.random(lower.size)
    b = lower + (upper - lower) * rng.random(lower.size)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if min_width > 0.0:
        hi = np.minimum(np.maximum(hi, lo + min_width), upper)
        lo = np.minimum(lo, hi - min_width)
        lo = np.maximum(lo, lower)
    return lo, hi


def _sup_step(pred, steps):
    """Largest t in [0, 1] with pred true, rounded up to the bracket top.

    ``pred`` must be monotone (true on an interval [0, t*]); the returned
    value never undershoots t*, which keeps the reduction conservative.
    pred(0) is assumed true and not evaluated.
    """
    if pred(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return hi


def reduce_box_reference(box, objective, constraints, gamma, steps=10):
    """Box reduction that re-evaluates the whole predicate at every step.

    The solver's reduction before it learned to skip conditions that cannot
    fail; ``mmopt.solver.reduce_box`` must return the same corners.
    """
    constraints = tuple(constraints)
    for c in constraints:
        if c.g.eval(box.r, box.s) > 0.0:
            return None
    if objective.eval(box.s, box.r) <= gamma:
        return None

    r, s = box.r, box.s
    width = s - r
    n = box.dim

    r_new = np.array(r)
    changed = False
    for i in range(n):
        if width[i] <= 0.0:
            continue

        def shrink_ok(t, i=i):
            x = s.copy()
            x[i] = s[i] - t * width[i]
            if objective.eval(x, r) <= gamma:
                return False
            for c in constraints:
                if c.g.eval(r, x) > 0.0:
                    return False
            return True

        t_hat = _sup_step(shrink_ok, steps)
        if t_hat < 1.0:
            r_new[i] = s[i] - t_hat * width[i]
            changed = True
    if not changed:
        r_new = r
    else:
        np.clip(r_new, r, s, out=r_new)
        # the tightened lower corner may already certify emptiness
        for c in constraints:
            if c.g.eval(r_new, s) > 0.0:
                return None
        if objective.eval(s, r_new) <= gamma:
            return None

    s_new = np.array(s)
    s_changed = False
    for i in range(n):
        top_width = s[i] - r_new[i]
        if top_width <= 0.0:
            continue

        def grow_ok(t, i=i, top_width=top_width):
            y = np.array(r_new)
            y[i] = r_new[i] + t * top_width
            if objective.eval(s, y) <= gamma:
                return False
            for c in constraints:
                if c.g.eval(y, s) > 0.0:
                    return False
            return True

        t_hat = _sup_step(grow_ok, steps)
        if t_hat < 1.0:
            s_new[i] = r_new[i] + t_hat * top_width
            s_changed = True

    if not changed and not s_changed:
        return box
    if not s_changed:
        s_new = s
    else:
        np.clip(s_new, r_new, s, out=s_new)
    # the clips keep r <= r_new <= s_new <= s, so the result is a valid box
    r_new.flags.writeable = False
    s_new.flags.writeable = False
    return BoxNd._trusted(r_new, s_new)


def mm_conclusive_test_reference(box, constraints, _cache=None):
    """Conclusive test for constraints sharing a monotone split.

    Requires every constraint to carry the same index set I; the box meets
    the feasible set iff all ``G_i(r, s) <= 0``, in which case the point
    taking ``r`` on I and ``s`` elsewhere is feasible.  Never UNKNOWN.
    """
    constraints = tuple(constraints)
    if not constraints:
        return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=box.r)
    split = constraints[0].monotone_split
    if split is None:
        raise MissingMonotoneSplit("constraint carries no monotone_split")
    for c in constraints[1:]:
        if c.monotone_split != split:
            raise MissingMonotoneSplit("constraints disagree on the monotone split")
    r, s = box.r, box.s
    for i, c in enumerate(constraints):
        g_rs = _cache.g_rs(i) if _cache is not None else c.g.eval(r, s)
        if g_rs > 0.0:
            return FeasibilityVerdict(Feasibility.INFEASIBLE)
    witness = s.copy()
    idx = sorted(split)
    witness[idx] = r[idx]
    witness.flags.writeable = False
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=witness)


def normal_set_test_reference(box, nondecreasing):
    """Feasibility over a normal set ``{x | g_i(x) <= 0}``, g_i nondecreasing.

    The box meets the set iff every ``g_i`` is nonpositive at the lower
    corner, which is then the witness.
    """
    r = box.r
    for g in nondecreasing:
        if float(g(r)) > 0.0:
            return FeasibilityVerdict(Feasibility.INFEASIBLE)
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=r)


def conormal_set_test_reference(box, nondecreasing):
    """Feasibility over a conormal set ``{x | h_i(x) >= 0}``, h_i nondecreasing.

    The box meets the set iff every ``h_i`` is nonnegative at the upper
    corner, which is then the witness.  (Testing the lower corner instead
    would reject boxes that straddle the boundary yet contain feasible
    points.)
    """
    s = box.s
    for h in nondecreasing:
        if float(h(s)) < 0.0:
            return FeasibilityVerdict(Feasibility.INFEASIBLE)
    return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=s)
