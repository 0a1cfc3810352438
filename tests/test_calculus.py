import math

import numpy as np
import pytest

from mmopt.calculus import (
    mm_compose_nondecreasing,
    mm_compose_nonincreasing,
    mm_max,
    mm_min,
    mm_product,
    mm_ratio,
    mm_separable,
    mm_sum,
    mm_unimodal,
    mm_weighted_sum,
)
from mmopt.core import MMFunction, check_mm_property, make_box
from mmopt.errors import (
    DimensionMismatch,
    DirectionViolation,
    DomainError,
    EmptyList,
    EvaluationError,
    MMOptError,
    NegativeWeight,
    NegativityDetected,
    NonFiniteEntry,
    NonpositiveDenominator,
)
from mmopt.problems import generate_channels, wsr_problem

from oracles import wsr_value


def x0(dim=1):
    return MMFunction(dim, lambda x, y: float(x[0]), name="x0")


def neg_y0(dim=1):
    return MMFunction(dim, lambda x, y: float(-y[0]), name="-y0")


def const(value, dim=1):
    return MMFunction(dim, lambda x, y: float(value), name=f"const{value}")


class TestSum:
    def test_linear_parts(self):
        f = mm_sum([x0(), neg_y0()])
        assert f.eval(np.array([2.0]), np.array([3.0])) == -1.0

    def test_single_element_identity(self):
        g = x0()
        f = mm_sum([g])
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.random(1), rng.random(1)
            assert f.eval(x, y) == g.eval(x, y)

    def test_wsr_rate_sum_is_mm(self):
        net = generate_channels(4, seed=2)
        objective = wsr_problem(net).objective
        report = check_mm_property(
            objective, make_box(np.zeros(4), np.ones(4)), samples=1000, rng_seed=1
        )
        assert report.violations == 0

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            mm_sum([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mm_sum([x0(1), x0(2)])


class TestWeightedSum:
    def test_basic(self):
        parts = [
            MMFunction(2, lambda x, y: float(x[0])),
            MMFunction(2, lambda x, y: float(-y[1])),
        ]
        f = mm_weighted_sum((1.0, 1.0), parts)
        assert f.eval(np.array([1.0, 1.0]), np.array([2.0, 2.0])) == -1.0

    def test_zero_weights_give_constant_zero(self):
        f = mm_weighted_sum((0.0, 0.0), [x0(), neg_y0()])
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert f.eval(rng.random(1), rng.random(1)) == 0.0

    def test_weighted_constants(self):
        f = mm_weighted_sum((2.0, 3.0), [const(1.0), const(1.0)])
        assert f.eval(np.zeros(1), np.zeros(1)) == 5.0

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            mm_weighted_sum((-1.0,), [x0()])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mm_weighted_sum((1.0, 2.0), [x0()])

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_at_construction(self, weight):
        with pytest.raises(NonFiniteEntry):
            mm_weighted_sum((1.0, weight), [x0(), x0()])

    @pytest.mark.parametrize(
        "weights",
        [["2.0", "1.0"], [True, 1.0], [[1.0, 2.0], [1.0]]],
        ids=["strings", "bool-among-numbers", "ragged"],
    )
    def test_weights_take_only_numbers(self, weights):
        # a float conversion read "2.0" as 2.0 and True as 1.0
        with pytest.raises(MMOptError, match="weights must hold numbers"):
            mm_weighted_sum(weights, [x0(), x0()])


class TestMinMax:
    def test_min(self):
        f = mm_min([x0(), MMFunction(1, lambda x, y: 5.0 - y[0])])
        assert f.eval(np.array([1.0]), np.array([1.0])) == 1.0

    def test_max(self):
        f = mm_max([x0(), MMFunction(1, lambda x, y: 5.0 - y[0])])
        assert f.eval(np.array([1.0]), np.array([1.0])) == 4.0

    def test_min_of_efficiency_terms_is_mm(self):
        from mmopt.problems import EnergyModel, wmee_problem

        net = generate_channels(3, seed=9)
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=np.ones(3))
        objective = wmee_problem(net, energy).objective
        report = check_mm_property(
            objective, make_box(np.zeros(3), np.ones(3)), samples=1000, rng_seed=2
        )
        assert report.violations == 0


class TestCompose:
    def test_log_of_sinr_equals_rate(self):
        # g = log2(1 + t) over the interference quotient reproduces the rate
        net = generate_channels(2, seed=4)
        k = 0
        cross = np.array(net.beta[k])
        cross[k] = 0.0
        sinr = MMFunction(
            2,
            lambda x, y: net.alpha[k]
            * x[k]
            / (net.sigma2 + net.beta[k, k] * x[k] + float(cross @ y)),
        )
        rate = mm_compose_nondecreasing(lambda t: math.log2(1.0 + t), sinr, check_range=(0.0, 50.0))
        direct = wsr_problem(net).objective
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = rng.random(2), rng.random(2)
            expected = math.log2(
                1.0 + net.alpha[k] * x[k] / (net.sigma2 + float(cross @ y))
            )
            assert rate.eval(x, y) == pytest.approx(expected, abs=1e-12)
        assert direct is not None  # representations built both ways

    def test_identity_map(self):
        inner = x0()
        f = mm_compose_nondecreasing(lambda t: t, inner)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = rng.random(1), rng.random(1)
            assert f.eval(x, y) == inner.eval(x, y)

    def test_exp_at_zero(self):
        f = mm_compose_nondecreasing(math.exp, MMFunction(1, lambda x, y: x[0] - y[0]))
        assert f.eval(np.zeros(1), np.zeros(1)) == 1.0

    def test_domain_error(self):
        f = mm_compose_nondecreasing(math.log, x0())
        with pytest.raises(DomainError):
            f.eval(np.array([-1.0]), np.array([0.0]))

    def test_direction_spot_check(self):
        with pytest.raises(DirectionViolation):
            mm_compose_nondecreasing(lambda t: -t, x0(), check_range=(0.0, 1.0))
        with pytest.raises(DirectionViolation):
            mm_compose_nonincreasing(lambda t: t, x0(), check_range=(0.0, 1.0))


class TestComposeNonincreasing:
    def test_negation_swaps_arguments(self):
        f = mm_compose_nonincreasing(lambda t: -t, x0())
        # result is -y0
        assert f.eval(np.array([9.0]), np.array([2.0])) == -2.0
        report = check_mm_property(f, make_box((0.0,), (1.0,)), samples=200, rng_seed=0)
        assert report.violations == 0

    def test_reciprocal_swap_rule(self):
        # h = 1/t over F(x, y) = 1 + y0 gives 1 / (1 + x0)
        inner = MMFunction(1, lambda x, y: 1.0 + y[0])
        f = mm_compose_nonincreasing(lambda t: 1.0 / t, inner, check_range=(0.5, 2.0))
        assert f.eval(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_constant(self):
        f = mm_compose_nonincreasing(lambda t: 7.0, x0())
        rng = np.random.default_rng(8)
        for _ in range(20):
            assert f.eval(rng.random(1), rng.random(1)) == 7.0


class TestProduct:
    def test_unit_corner(self):
        parts = [
            MMFunction(2, lambda x, y: float(x[0])),
            MMFunction(2, lambda x, y: float(x[1])),
        ]
        f = mm_product(parts, make_box((0.0, 0.0), (1.0, 1.0)))
        assert f.eval(np.ones(2), np.array([0.3, 0.9])) == 1.0

    def test_single_part_identity(self):
        g = x0()
        f = mm_product([g], make_box((0.0,), (1.0,)))
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.random(1), rng.random(1)
            assert f.eval(x, y) == g.eval(x, y)

    def test_aloha_throughput_is_mm(self):
        # c * x_k * prod(1 - y_j) as a product of nonnegative factors
        k_users = 3
        box = make_box(np.zeros(k_users), np.ones(k_users))
        c = 1.7
        parts = [MMFunction(k_users, lambda x, y: c * x[0])]
        for j in (1, 2):
            parts.append(MMFunction(k_users, lambda x, y, j=j: 1.0 - y[j]))
        f = mm_product(parts, box)
        report = check_mm_property(f, box, samples=1000, rng_seed=4)
        assert report.violations == 0
        theta = np.array([0.5, 0.25, 0.5])
        assert f.eval(theta, theta) == pytest.approx(c * 0.5 * 0.75 * 0.5, abs=1e-12)

    def test_negativity_detected_at_construction(self):
        with pytest.raises(NegativityDetected):
            mm_product([MMFunction(1, lambda x, y: x[0] - 0.5)], make_box((0.0,), (1.0,)))

    def test_negativity_detected_at_eval(self):
        # sampled check passes on the declared box, later eval outside trips it
        f = mm_product([x0()], make_box((0.0,), (1.0,)))
        with pytest.raises(NegativityDetected):
            f.eval(np.array([-1.0]), np.array([0.0]))


class TestRatio:
    def test_linear_over_affine(self):
        num = x0()
        den = MMFunction(1, lambda x, y: 1.0 + x[0])  # q(y) = 1 + y0 after the swap
        f = mm_ratio(num, den)
        assert f.eval(np.array([1.0]), np.array([0.0])) == 1.0

    def test_gee_representation_is_mm(self):
        from mmopt.problems import EnergyModel, gee_problem

        net = generate_channels(3, seed=12)
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=1.0)
        objective = gee_problem(net, energy).objective
        report = check_mm_property(
            objective, make_box(np.zeros(3), np.ones(3)), samples=1000, rng_seed=5
        )
        assert report.violations == 0

    def test_nonpositive_denominator(self):
        f = mm_ratio(x0(), x0())
        with pytest.raises(NonpositiveDenominator):
            f.eval(np.array([1.0]), np.array([0.0]))


def log_barrier_term(m):
    """log t + m log(1 - t): unimodal on [0, 1] with its peak at 1 / (1 + m)."""

    def h(t):
        value = math.log(t) if t > 0.0 else -math.inf
        if m:
            value += m * (math.log(1.0 - t) if t < 1.0 else -math.inf)
        return value

    return h


class TestUnimodal:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_is_mm(self, m):
        f = mm_unimodal(log_barrier_term(m), 1, 1.0 / (1 + m), 3)
        box = make_box(np.full(3, 1e-9), np.ones(3))
        assert check_mm_property(f, box, samples=2000, rng_seed=m).violations == 0

    @pytest.mark.parametrize("m", [0, 2])
    def test_diagonal_is_the_term(self, m):
        h = log_barrier_term(m)
        f = mm_unimodal(h, 0, 1.0 / (1 + m), 2)
        rng = np.random.default_rng(m)
        for _ in range(500):
            x = rng.random(2)
            assert f.eval(x, x) == pytest.approx(h(x[0]), abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_box_bound_is_the_maximum(self, m):
        h = log_barrier_term(m)
        peak = 1.0 / (1 + m)
        f = mm_unimodal(h, 0, peak, 1)
        rng = np.random.default_rng(10 + m)
        for lo, hi in [(0.05, 0.1), (0.1, 0.9), (0.7, 0.95), tuple(np.sort(rng.random(2)))]:
            u = f.eval(np.array([hi]), np.array([lo]))
            assert all(u >= h(t) - 1e-12 for t in np.linspace(lo, hi, 1000))
            assert u == pytest.approx(h(min(max(peak, lo), hi)), abs=1e-12)

    def test_endpoints_give_minus_inf(self):
        h = log_barrier_term(2)
        f = mm_unimodal(h, 0, 1.0 / 3.0, 1)
        # a zero in the rising slot or a one in the falling slot hits a log(0)
        for x, y in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 1.0), (0.0, 0.5)]:
            assert f.eval(np.array([x]), np.array([y])) == -math.inf
        assert f.eval(np.ones(1), np.zeros(1)) == h(1.0 / 3.0)
        # m = 0 peaks at the box edge and stays finite there
        g = mm_unimodal(log_barrier_term(0), 0, 1.0, 1)
        assert g.eval(np.ones(1), np.ones(1)) == 0.0
        assert g.eval(np.zeros(1), np.zeros(1)) == -math.inf

    def test_rejects_bad_index_and_peak(self):
        with pytest.raises(DimensionMismatch):
            mm_unimodal(log_barrier_term(1), 2, 0.5, 2)
        with pytest.raises(DomainError):
            mm_unimodal(log_barrier_term(1), 0, 1.0, 1)

    @pytest.mark.parametrize(
        "index, dim", [(0.5, 2), (True, 2), (-1, 2), (0, 2.7), (0, True), (0, 0)]
    )
    def test_rejects_non_integer_index_and_dim(self, index, dim):
        # int() would truncate these; the first evaluation would then fail
        with pytest.raises(DimensionMismatch):
            mm_unimodal(log_barrier_term(1), index, 0.5, dim)


class TestSeparable:
    W = np.array([1.0, 2.0, 0.5])

    def up(self, x):
        return float(self.W.dot(np.log1p(x)))

    def down(self, y):
        return -float(self.W.dot(np.sqrt(y)))

    def test_is_mm(self):
        f = mm_separable(3, self.up, self.down)
        report = check_mm_property(f, make_box(np.zeros(3), np.full(3, 2.0)), samples=500)
        assert report.violations == 0

    def test_bound_is_the_sum_of_its_halves(self):
        f = mm_separable(3, self.up, self.down, name="sep")
        assert f.halves == (self.up, self.down) and f.name == "sep"
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = 2.0 * rng.random(3)
            s = r + rng.random(3)
            assert f.eval(s, r) == self.up(s) + self.down(r)
        # only this combinator sets halves
        assert x0().halves is None and mm_sum([x0(), neg_y0()]).halves is None

    @pytest.mark.parametrize("half", ["up", "down"])
    def test_nan_from_either_half_raises(self, half):
        halves = {"up": lambda x: float(x[0]), "down": lambda y: -float(y[0])}
        halves[half] = lambda v: float("nan")
        f = mm_separable(1, halves["up"], halves["down"], name="sep")
        with pytest.raises(EvaluationError, match="sep"):
            f.eval(np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("up, down", [(None, abs), (abs, 1.0)], ids=["up", "down"])
    def test_rejects_a_half_that_is_not_callable(self, up, down):
        with pytest.raises(MMOptError, match="must be callable"):
            mm_separable(1, up, down)

    def test_dm_objective_is_separable_with_the_old_bits(self):
        # the halves sum to the difference of logs exactly, as a + (-b) == a - b
        net = generate_channels(4, seed=3)
        f = wsr_problem(net, "dm").objective
        up, down = f.halves
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = rng.random(4)
            s = np.minimum(r + rng.random(4), 1.0)
            plus = np.log2(net.alpha * s + net.sigma2 + net.beta @ s)
            minus = np.log2(net.sigma2 + net.beta @ r)
            old = float(net.w.dot(plus) - net.w.dot(minus))
            assert f.eval(s, r) == up(s) + down(r) == old


class TestRepresentationPerturbation:
    """Adding sum(x - y) keeps the monotonicity but loosens the corner bound."""

    def _perturbed(self, f):
        return MMFunction(
            f.dim, lambda x, y: f.eval(x, y) + float(np.sum(np.asarray(x) - np.asarray(y)))
        )

    def test_still_mm(self):
        net = generate_channels(2, seed=6)
        base = wsr_problem(net).objective
        box = make_box(np.zeros(2), np.ones(2))
        report = check_mm_property(self._perturbed(base), box, samples=1000, rng_seed=6)
        assert report.violations == 0

    def test_bound_loosens_by_box_width_sum(self):
        net = generate_channels(2, seed=6)
        base = wsr_problem(net).objective
        tilde = self._perturbed(base)
        box = make_box((0.1, 0.2), (0.8, 1.0))
        loosening = tilde.eval(box.s, box.r) - base.eval(box.s, box.r)
        assert loosening == pytest.approx(float(np.sum(box.s - box.r)), abs=1e-9)
        assert loosening >= 0.0


def test_wsr_diagonal_matches_hand_coded_rate_sum():
    net = generate_channels(3, seed=7)
    objective = wsr_problem(net).objective
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = rng.random(3)
        assert objective.eval(p, p) == pytest.approx(wsr_value(net, p), abs=1e-12)
