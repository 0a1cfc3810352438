from dataclasses import replace

import numpy as np
import pytest

from mmopt.core import MMConstraint, MMFunction, ProblemInstance, make_box
from mmopt.errors import EvaluationError, MissingMonotoneSplit
from mmopt.feasibility import (
    VERDICT_INFEASIBLE,
    VERDICT_UNKNOWN,
    Feasibility,
    FeasibilityVerdict,
    conormal_set_test,
    least_point_test,
    mm_conclusive_test,
    mm_sufficient_test,
    normal_set_test,
)
from mmopt.problems import generate_aloha, generate_channels, wsr_problem
from mmopt.solver import _INFEASIBLE, _box_point

from oracles import (
    conormal_set_test_reference,
    mm_conclusive_test_reference,
    normal_set_test_reference,
    random_box,
    wsr_rates,
)


def linear_constraint(dim, a_x, b_y, offset, split=None):
    """G(x, y) = a_x . x + b_y . y + offset with a_x >= 0 >= b_y."""
    a = np.asarray(a_x, dtype=float)
    b = np.asarray(b_y, dtype=float)
    g = MMFunction(dim, lambda x, y: float(a @ x + b @ y + offset))
    return MMConstraint(g, monotone_split=split)


class TestSufficient:
    def test_zero_rate_floors_fully_feasible(self):
        net = generate_channels(2, seed=0)  # r_min = 0
        prob = wsr_problem(net)
        # zero floors are vacuous, so the sufficient test sees no constraints
        verdict = mm_sufficient_test(make_box((0.0, 0.0), (1.0, 1.0)), prob.constraints)
        assert verdict.kind is Feasibility.FULLY_FEASIBLE

    def test_infeasible(self):
        c = MMConstraint(MMFunction(1, lambda x, y: x[0] - 1.0))
        verdict = mm_sufficient_test(make_box((2.0,), (3.0,)), (c,))
        assert verdict.kind is Feasibility.INFEASIBLE

    def test_straddling_box_is_unknown(self):
        c = MMConstraint(MMFunction(1, lambda x, y: x[0] - y[0]))
        verdict = mm_sufficient_test(make_box((0.0,), (1.0,)), (c,))
        assert verdict.kind is Feasibility.UNKNOWN


class TestVerdictConstants:
    def test_witness_less_verdicts_are_shared(self):
        c = MMConstraint(MMFunction(1, lambda x, y: x[0] - y[0]))
        assert mm_sufficient_test(make_box((0.0,), (1.0,)), (c,)) is VERDICT_UNKNOWN
        c = MMConstraint(MMFunction(1, lambda x, y: x[0] - 1.0))
        assert mm_sufficient_test(make_box((2.0,), (3.0,)), (c,)) is VERDICT_INFEASIBLE
        c = linear_constraint(1, (1.0,), (0.0,), -1.0, split=frozenset({0}))
        assert mm_conclusive_test(make_box((2.0,), (3.0,)), (c,)) is VERDICT_INFEASIBLE
        assert VERDICT_UNKNOWN.witness is None and VERDICT_INFEASIBLE.witness is None


def affine_floors(m, c):
    """The floors ``x >= m x + c`` as constraints ``G_k(x, y) = (m x + c)_k - y_k``."""
    n = len(c)
    return [linear_constraint(n, m[k], -np.eye(n)[k], c[k]) for k in range(n)]


class TestLeastPoint:
    M = np.array([[0.0, 0.5], [0.25, 0.0]])
    C = np.array([0.1, 0.2])

    def verdict(self, lo, hi, m=M, c=C):
        return least_point_test(make_box(lo, hi), affine_floors(m, c), m, c)

    def test_witness_is_the_least_point(self):
        # the one-sided test leaves [0, 1]^2 open; p* = (I - m)^-1 c lies inside
        verdict = self.verdict((0.0, 0.0), (1.0, 1.0))
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        p_star = np.linalg.solve(np.eye(2) - self.M, self.C)
        np.testing.assert_allclose(verdict.witness, p_star, rtol=1e-8)
        assert np.all(verdict.witness >= p_star)

    def test_rows_join_the_active_set(self):
        # at r only row 1 binds: p* = (0.5, 0.2 + 0.25 * 0.5)
        verdict = self.verdict((0.5, 0.0), (1.0, 1.0))
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, [0.5, 0.325], rtol=1e-8)
        # at r only row 0 binds, and row 1 binds once row 0 is solved
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        c = np.array([0.5, 0.1])
        verdict = self.verdict((0.0, 0.4), (1.0, 1.0), m, c)
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, np.linalg.solve(np.eye(2) - m, c), rtol=1e-8)

    def test_least_point_beyond_the_box_is_infeasible(self):
        # p*_0 = 0.2286 > 0.2, which the one-sided test does not see
        box = make_box((0.0, 0.0), (0.2, 1.0))
        assert mm_sufficient_test(box, affine_floors(self.M, self.C)) is VERDICT_UNKNOWN
        assert self.verdict((0.0, 0.0), (0.2, 1.0)) is VERDICT_INFEASIBLE

    def test_divergent_iteration_is_infeasible(self):
        # x0 >= 2 x1 + 0.1 and x1 >= 2 x0 + 0.1 have no nonnegative solution
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        c = np.array([0.1, 0.1])
        assert self.verdict((0.0, 0.0), (1.0, 1.0), m, c) is VERDICT_INFEASIBLE

    def test_singular_solve_is_unknown(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = np.array([0.1, 0.1])
        assert self.verdict((0.0, 0.0), (1.0, 1.0), m, c) is VERDICT_UNKNOWN

    def test_one_sided_verdicts_stand(self):
        fully = self.verdict((0.5, 0.5), (0.6, 0.6))
        assert fully.kind is Feasibility.FULLY_FEASIBLE
        np.testing.assert_array_equal(fully.witness, [0.5, 0.5])
        assert self.verdict((0.0, 0.0), (0.05, 1.0)) is VERDICT_INFEASIBLE

    def test_witness_must_meet_the_constraints(self):
        # constraints stricter than the floors m, c describe: the least point
        # of the floors is no witness for them
        strict = affine_floors(self.M, self.C + 0.05)
        verdict = least_point_test(make_box((0.0, 0.0), (1.0, 1.0)), strict, self.M, self.C)
        assert verdict is VERDICT_UNKNOWN

    @pytest.mark.parametrize("k", [2, 3])
    def test_wsr_floors_against_a_grid(self, k):
        # grid points of each box, checked with the rate formulas directly:
        # no box with a feasible grid point is called infeasible, each such
        # box gets a witness, and every witness lies in its box and meets
        # every floor
        rng = np.random.default_rng(40 + k)
        n = 41 if k == 2 else 13
        outcomes = set()
        for trial in range(30):
            net = replace(generate_channels(k, 700 + trial), r_min=rng.uniform(0.05, 0.8, k))
            prob = wsr_problem(net)
            for _ in range(10):
                box = make_box(*random_box(rng, np.zeros(k), net.p_max))
                verdict = prob.feasibility_oracle(box)
                axes = [np.linspace(box.r[i], box.s[i], n) for i in range(k)]
                rates = wsr_rates(net, np.meshgrid(*axes, indexing="ij"))
                floors = net.r_min.reshape((k,) + (1,) * k)
                grid_feasible = np.all(rates >= floors, axis=0).any()
                outcomes.add(verdict.kind)
                if grid_feasible:
                    assert verdict.kind is not Feasibility.INFEASIBLE
                    assert verdict.witness is not None
                if verdict.witness is not None:
                    assert box.contains(verdict.witness)
                    assert np.all(wsr_rates(net, verdict.witness) >= net.r_min)
        assert Feasibility.FEASIBLE_WITH_WITNESS in outcomes
        assert Feasibility.INFEASIBLE in outcomes


class TestConclusive:
    def test_normal_set_witness_is_lower_corner(self):
        c = linear_constraint(2, (1.0, 1.0), (0.0, 0.0), -1.0, split=frozenset({0, 1}))
        verdict = mm_conclusive_test(make_box((0.0, 0.0), (1.0, 1.0)), (c,))
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, [0.0, 0.0])

    def test_infeasible_when_lower_corner_violates(self):
        c = linear_constraint(2, (1.0, 1.0), (0.0, 0.0), -1.0, split=frozenset({0, 1}))
        verdict = mm_conclusive_test(make_box((0.6, 0.6), (1.0, 1.0)), (c,))
        assert verdict.kind is Feasibility.INFEASIBLE

    def test_mixed_split_witness(self):
        # feasible iff x0 - y1 - 0.5 <= 0 at (r0, s1)
        c = linear_constraint(2, (1.0, 0.0), (0.0, -1.0), -0.5, split=frozenset({0}))
        verdict = mm_conclusive_test(make_box((0.2, 0.0), (1.0, 0.4)), (c,))
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, [0.2, 0.4])

    def test_split_is_no_argument(self):
        # the split comes from the constraints alone
        c = linear_constraint(2, (1.0, 1.0), (0.0, 0.0), -1.0, split=frozenset({0, 1}))
        with pytest.raises(TypeError):
            mm_conclusive_test(make_box((0.0, 0.0), (1.0, 1.0)), (c,), frozenset({0}))

    def test_random_access_floors_have_no_shared_split(self):
        from mmopt.problems import aloha_problem

        net = generate_aloha(3, seed=1)
        prob = aloha_problem(net)
        assert prob.constraints, "generator should produce active floors"
        with pytest.raises(MissingMonotoneSplit):
            mm_conclusive_test(prob.initial_box, prob.constraints)

    def test_never_contradicts_sufficient(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            split = frozenset(int(i) for i in range(dim) if rng.random() < 0.5)
            comp = [i for i in range(dim) if i not in split]
            a = np.zeros(dim)
            b = np.zeros(dim)
            for i in split:
                a[i] = rng.random() * 2
            for i in comp:
                b[i] = -rng.random() * 2
            c = linear_constraint(dim, a, b, float(rng.normal()), split=split)
            lo = rng.random(dim)
            hi = lo + rng.random(dim)
            box = make_box(lo, hi)
            sufficient = mm_sufficient_test(box, (c,))
            conclusive = mm_conclusive_test(box, (c,))
            if sufficient.kind is Feasibility.FULLY_FEASIBLE:
                assert conclusive.kind is Feasibility.FEASIBLE_WITH_WITNESS
            if sufficient.kind is Feasibility.INFEASIBLE:
                assert conclusive.kind is Feasibility.INFEASIBLE


class TestNormalConormal:
    def test_normal_witness(self):
        verdict = normal_set_test(
            make_box((0.0, 0.0), (1.0, 1.0)), [lambda x: float(np.sum(x) - 3.0)]
        )
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, [0.0, 0.0])

    def test_normal_infeasible(self):
        verdict = normal_set_test(make_box((1.0,), (2.0,)), [lambda x: float(x[0])])
        assert verdict.kind is Feasibility.INFEASIBLE

    def test_power_cap_subboxes_always_feasible(self):
        cap = 1.0
        gs = [lambda x, i=i: float(x[i] - cap) for i in range(2)]
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo = rng.random(2) * cap
            hi = lo + (cap - lo) * rng.random(2)
            verdict = normal_set_test(make_box(lo, hi), gs)
            assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS

    def test_conormal_witness_upper_corner(self):
        verdict = conormal_set_test(make_box((0.0,), (1.0,)), [lambda x: float(x[0] - 0.5)])
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        np.testing.assert_allclose(verdict.witness, [1.0])

    def test_conormal_nonnegative_at_top(self):
        verdict = conormal_set_test(make_box((0.0, 0.0), (1.0, 1.0)), [lambda x: float(x[0])])
        np.testing.assert_allclose(verdict.witness, [1.0, 1.0])

    def test_conormal_infeasible(self):
        verdict = conormal_set_test(make_box((0.0,), (1.0,)), [lambda x: float(x[0] - 2.0)])
        assert verdict.kind is Feasibility.INFEASIBLE


def test_witnesses_are_feasible_and_inside():
    rng = np.random.default_rng(23)
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        split = frozenset(range(dim)) if trial % 3 == 0 else frozenset({0})
        comp = [i for i in range(dim) if i not in split]
        constraints = []
        for _ in range(int(rng.integers(1, 4))):
            a = np.zeros(dim)
            b = np.zeros(dim)
            for i in split:
                a[i] = rng.random()
            for i in comp:
                b[i] = -rng.random()
            constraints.append(linear_constraint(dim, a, b, float(rng.normal()), split=split))
        lo = rng.random(dim)
        box = make_box(lo, lo + rng.random(dim))
        verdict = mm_conclusive_test(box, tuple(constraints))
        if verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS:
            w = verdict.witness
            assert box.contains(w, tol=1e-12)
            for c in constraints:
                assert c.g.eval(w, w) <= 1e-9


def _diagonal_constraint(a, b, curved, offset, split):
    """G(x, y) = a.x - b.y + offset (+ 0.5 a.x^2 if curved), a, b >= 0: both
    slots matter off the diagonal; G(x, x) is nondecreasing when a >= b (the
    split is every coordinate) and, without the curved term, nonincreasing
    when a <= b (the split is no coordinate)."""

    def g_fn(x, y):
        value = float(a @ x) - float(b @ y)
        if curved:
            value = value + 0.5 * float(a @ (x * x))
        return value + offset

    return MMConstraint(MMFunction(a.size, g_fn), monotone_split=split)


class TestCornerTestMatchesReference:
    """The corner test against the three exact tests it replaced, kept in
    ``oracles.py``: same verdict kinds and bit-identical witnesses, through
    the public tests and through the test the solver derives for a problem."""

    OBJECTIVE = {d: MMFunction(d, lambda x, y: 0.0) for d in (1, 2, 3, 4)}

    @staticmethod
    def assert_same(verdict, reference):
        assert verdict.kind is reference.kind
        if reference.witness is None:
            assert verdict.witness is None
        else:
            assert np.array_equal(verdict.witness, reference.witness)

    def solver_verdict(self, box, constraints):
        problem = ProblemInstance(self.OBJECTIVE[box.dim], constraints, box)
        assert problem.feasibility_mode == "mm-conclusive"
        point = _box_point(problem)(box)
        if point is _INFEASIBLE:
            return VERDICT_INFEASIBLE
        return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=point)

    def random_box(self, rng, dim):
        lo = rng.random(dim)
        return make_box(lo, lo + rng.random(dim) + 0.05)

    def test_conclusive_on_criterion_09_constraints(self):
        rng = np.random.default_rng(909)
        kinds = set()
        for case in range(300):
            dim = 2 if case < 150 else 3
            split = frozenset(int(i) for i in range(dim) if rng.random() < 0.5)
            constraints = []
            for _ in range(int(rng.integers(1, 4))):
                a = np.zeros(dim)
                b = np.zeros(dim)
                for i in range(dim):
                    if i in split:
                        a[i] = rng.random() * 2.0
                    else:
                        b[i] = rng.random() * 2.0
                offset = float(rng.normal(scale=1.0))
                curved = bool(rng.random() < 0.3)

                def g_fn(x, y, a=a, b=b, offset=offset, curved=curved):
                    up = float(a @ x)
                    down = float(b @ y)
                    if curved:
                        up = up + 0.5 * float(a @ (x * x))
                    return up - down + offset

                constraints.append(MMConstraint(MMFunction(dim, g_fn), monotone_split=split))
            constraints = tuple(constraints)
            box = self.random_box(rng, dim)
            reference = mm_conclusive_test_reference(box, constraints)
            self.assert_same(mm_conclusive_test(box, constraints), reference)
            self.assert_same(self.solver_verdict(box, constraints), reference)
            kinds.add(reference.kind)
        assert kinds == {Feasibility.INFEASIBLE, Feasibility.FEASIBLE_WITH_WITNESS}

    @pytest.mark.parametrize("mode", ["normal", "conormal"])
    def test_normal_and_conormal_on_diagonal_constraints(self, mode):
        # the splits constrain only the diagonal G(x, x): nondecreasing for a
        # normal set (a >= b), nonincreasing for a conormal set (a <= b)
        rng = np.random.default_rng(11 if mode == "normal" else 12)
        kinds = set()
        for case in range(300):
            dim = 1 + case % 4
            constraints = []
            for _ in range(int(rng.integers(0, 4))):
                big = rng.random(dim) * 2.0
                small = big * rng.random(dim) * float(rng.random() < 0.7)
                offset = float(rng.normal(scale=1.5))
                if mode == "normal":
                    curved = bool(rng.random() < 0.3)
                    c = _diagonal_constraint(big, small, curved, offset, range(dim))
                else:
                    c = _diagonal_constraint(small, big, False, offset, ())
                constraints.append(c)
            constraints = tuple(constraints)
            box = self.random_box(rng, dim)
            if mode == "normal":
                funcs = [lambda x, c=c: c.g.eval(x, x) for c in constraints]
                reference = normal_set_test_reference(box, funcs)
                self.assert_same(normal_set_test(box, funcs), reference)
            else:
                funcs = [lambda x, c=c: -c.g.eval(x, x) for c in constraints]
                reference = conormal_set_test_reference(box, funcs)
                self.assert_same(conormal_set_test(box, funcs), reference)
            # without constraints no split is declared, and the corner test
            # takes the lower corner (see test_no_constraints_witness_is_the_corner)
            if constraints or mode == "normal":
                self.assert_same(mm_conclusive_test(box, constraints), reference)
                self.assert_same(self.solver_verdict(box, constraints), reference)
            kinds.add(reference.kind)
        assert kinds == {Feasibility.INFEASIBLE, Feasibility.FEASIBLE_WITH_WITNESS}

    @pytest.mark.parametrize(
        "mode, corner", [("normal", "r"), ("conormal", "s"), ("mm-conclusive", "r")]
    )
    def test_no_constraints_witness_is_the_corner(self, mode, corner):
        # the normal and conormal tests at their corners; a problem without
        # constraints derives the corner test, which takes the lower corner
        box = make_box((0.0, 1.0), (2.0, 3.0))
        if mode == "normal":
            verdict = normal_set_test(box, [])
        elif mode == "conormal":
            verdict = conormal_set_test(box, [])
        else:
            verdict = self.solver_verdict(box, ())
        assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
        assert verdict.witness is getattr(box, corner)

    @pytest.mark.parametrize("test", [normal_set_test, conormal_set_test])
    def test_aliases_reject_nan_like_every_constraint(self, test):
        with pytest.raises(EvaluationError):
            test(make_box((0.0,), (1.0,)), [lambda x: float("nan")])
