import hashlib
import math
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmopt.solver
from mmopt.core import (
    BoxNd,
    MMConstraint,
    MMFunction,
    ProblemInstance,
    SolverConfig,
    make_box,
)
from mmopt.calculus import mm_separable
from mmopt.errors import (
    DimensionMismatch,
    EvaluationError,
    MMOptError,
    NonFiniteEntry,
    ZeroDiameterBox,
)
from mmopt.feasibility import (
    Feasibility,
    FeasibilityVerdict,
    mm_sufficient_test,
    normal_set_test,
)
from mmopt.problems import (
    AlohaNetwork,
    InterferenceNetwork,
    aloha_feasibility_boundary,
    aloha_problem,
    generate_aloha,
    generate_channels,
    wsr_problem,
)
from mmopt.solver import RegionQueue, bisect, find_incumbent, reduce_box, solve

from oracles import (
    aloha_rates,
    random_box,
    reduce_box_reference,
    wsr_budget_grid_max,
    wsr_grid_max,
    wsr_rates,
    wsr_value,
)


def two_user_symmetric_net(r_min=0.0):
    return InterferenceNetwork(
        alpha=(1.0, 1.0),
        beta=((0.0, 1.0), (1.0, 0.0)),
        sigma2=0.01,
        p_max=(1.0, 1.0),
        w=(1.0, 1.0),
        r_min=(r_min, r_min),
    )


def symmetric_aloha_near_boundary():
    """Two users, floors at 0.9 of the symmetric boundary; optimum 2 log(1/4) < 0."""
    rho = 0.9 * aloha_feasibility_boundary(2)
    return AlohaNetwork(c=(1.0, 1.0), interferers=((1,), (0,)), r_min=(rho, rho))


def offering(problem, point, decide=False):
    """``problem`` in custom-oracle mode, with an oracle that offers ``point``
    as the witness of every box; with ``decide``, only of the boxes the
    one-sided test leaves undecided."""

    def oracle(box):
        if decide:
            verdict = mm_sufficient_test(box, problem.constraints)
            if verdict.kind is not Feasibility.UNKNOWN:
                return verdict
        return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, np.array(point))

    return replace(problem, feasibility_oracle=oracle)


def assert_valid_box(box):
    """The box is exactly what the validating constructor would build."""
    fresh = BoxNd(box.r, box.s)
    for got, want in ((box.r, fresh.r), (box.s, fresh.s)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


class TestBound:
    def test_degenerate_box_gives_diagonal(self):
        net = generate_channels(2, seed=0)
        objective = wsr_problem(net).objective
        x = np.array([0.4, 0.7])
        box = make_box(x, x)
        assert objective.eval(box.s, box.r) == objective.eval(x, x)

    def test_symmetric_two_user_corner_value(self):
        objective = wsr_problem(two_user_symmetric_net()).objective
        u = objective.eval(np.ones(2), np.zeros(2))
        assert u == pytest.approx(2.0 * math.log2(101.0), abs=1e-12)

    def test_dm_bound_never_tighter(self):
        from oracles import dm_gap_closed_form

        net = two_user_symmetric_net()
        box = make_box((0.0, 0.0), (1.0, 1.0))
        u_mmp = wsr_problem(net, "mmp").objective.eval(box.s, box.r)
        u_dm = wsr_problem(net, "dm").objective.eval(box.s, box.r)
        assert u_dm - u_mmp >= -1e-12
        assert u_dm - u_mmp == pytest.approx(dm_gap_closed_form(net, box), abs=1e-9)


class TestBisect:
    def test_longest_edge(self):
        lo, hi = bisect(make_box((0.0, 0.0), (1.0, 2.0)))
        np.testing.assert_allclose(lo.r, [0.0, 0.0])
        np.testing.assert_allclose(lo.s, [1.0, 1.0])
        np.testing.assert_allclose(hi.r, [0.0, 1.0])
        np.testing.assert_allclose(hi.s, [1.0, 2.0])

    def test_tie_breaks_to_lowest_axis(self):
        lo, hi = bisect(make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
        np.testing.assert_allclose(lo.s, [0.5, 1.0, 1.0])
        np.testing.assert_allclose(hi.r, [0.5, 0.0, 0.0])

    def test_degenerate_dimension_skipped(self):
        lo, hi = bisect(make_box((0.0, 0.0), (0.0, 4.0)))
        np.testing.assert_allclose(lo.s, [0.0, 2.0])
        np.testing.assert_allclose(hi.r, [0.0, 2.0])

    def test_zero_diameter_raises(self):
        with pytest.raises(ZeroDiameterBox):
            bisect(make_box((1.0, 1.0), (1.0, 1.0)))

    def test_midpoint_overflow_raises(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteEntry):
            bisect(make_box([1e308], [1.7e308]))

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.lists(st.floats(0.01, 3), min_size=1, max_size=4),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_children_partition_parent(self, lower, widths, depth):
        n = min(len(lower), len(widths))
        lo = np.array(lower[:n])
        parent = make_box(lo, lo + np.array(widths[:n]))
        for _ in range(depth):  # parents built by earlier splits, not validated
            parent = bisect(parent)[1]
        a, b = bisect(parent)
        for child in (a, b):
            assert_valid_box(child)
        axis = int(np.argmax(parent.s - parent.r))
        # children agree with the parent away from the split axis
        np.testing.assert_array_equal(a.r, parent.r)
        np.testing.assert_array_equal(b.s, parent.s)
        # they share exactly the split plane
        assert a.s[axis] == b.r[axis] == pytest.approx(
            0.5 * (parent.r[axis] + parent.s[axis]), abs=1e-12
        )
        mask = np.arange(n) != axis
        np.testing.assert_array_equal(a.s[mask], parent.s[mask])
        np.testing.assert_array_equal(b.r[mask], parent.r[mask])

    def test_diameter_halves_within_dimension_splits(self):
        box = make_box(np.zeros(3), np.ones(3))
        d0 = max((box.s - box.r).tolist())
        for level in range(1, 4):
            for _ in range(3):
                box = bisect(box)[0]
            assert max((box.s - box.r).tolist()) <= d0 / 2**level + 1e-15


class TestReduce:
    def test_no_cut_no_constraints_returns_same_box(self):
        f = MMFunction(2, lambda x, y: float(x.sum()))
        box = make_box((0.0, 0.0), (1.0, 1.0))
        assert reduce_box(box, f, (), float("-inf")) is box

    def test_objective_cut_one_dimensional(self):
        f = MMFunction(1, lambda x, y: float(x[0]))
        red = reduce_box(make_box((0.0,), (1.0,)), f, (), 0.5, steps=10)
        assert red.r[0] == pytest.approx(0.5, abs=2**-10 + 1e-12)
        assert red.r[0] >= 0.5 - 1e-12
        assert red.s[0] == 1.0

    def test_zero_width_edge_keeps_its_coordinate(self):
        f = MMFunction(2, lambda x, y: float(x[0]))
        box = make_box((0.0, 0.5), (1.0, 0.5))
        red = reduce_box(box, f, (), 0.5, steps=10)
        want = reduce_box_reference(box, f, (), 0.5, 10)
        assert np.array_equal(red.r, want.r) and np.array_equal(red.s, want.s)
        assert red.r[1] == red.s[1] == 0.5 and 0.5 <= red.r[0] < 0.5 + 2**-9

    def test_infeasible_corner_shortcut(self):
        f = MMFunction(1, lambda x, y: float(x[0]))
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - 1.0)))
        assert reduce_box(make_box((2.0,), (3.0,)), f, (g,), float("-inf")) is None

    def test_bound_below_gamma_is_empty(self):
        f = MMFunction(1, lambda x, y: float(x[0]))
        assert reduce_box(make_box((0.0,), (1.0,)), f, (), 2.0) is None

    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=2),
        st.lists(st.floats(0.0, 2), min_size=2, max_size=2),
        st.floats(-4, 6),
        st.floats(-2, 2),
        st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_result_is_valid_box_inside_parent(self, lower, widths, gamma, slack, steps):
        # F(x, y) = x0 + 2 x1 - y0, G(x, y) = x0 - y1 - slack: both mixed monotonic
        f = MMFunction(2, lambda x, y: float(x[0] + 2.0 * x[1] - y[0]))
        g = MMConstraint(MMFunction(2, lambda x, y: float(x[0] - y[1] - slack)))
        lo = np.array(lower)
        box = BoxNd(lo, lo + np.array(widths))
        red = reduce_box(box, f, (g,), gamma, steps=steps)
        if red is None or red is box:
            return
        assert_valid_box(red)
        assert np.all(box.r <= red.r) and np.all(red.r <= red.s) and np.all(red.s <= box.s)

    def test_reduction_never_loses_better_points(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            net = generate_channels(2, seed=200 + trial)
            net = InterferenceNetwork(
                alpha=net.alpha,
                beta=net.beta,
                sigma2=net.sigma2,
                p_max=net.p_max,
                w=net.w,
                r_min=np.full(2, 0.25),
            )
            prob = wsr_problem(net)
            lo = rng.random(2) * 0.5
            hi = lo + rng.random(2) * 0.5
            box = make_box(lo, hi)
            gamma = float(rng.random() * 5.0) if trial % 4 else float("-inf")
            red = reduce_box(box, prob.objective, prob.constraints, gamma, steps=10)
            # grid over the original box; every feasible better-than-gamma
            # point must survive inside the reduced box
            ax = [np.linspace(box.r[i], box.s[i], 101) for i in range(2)]
            p1, p2 = np.meshgrid(ax[0], ax[1], indexing="ij")
            value = np.zeros_like(p1)
            feas = np.ones(p1.shape, dtype=bool)
            for k, pk in enumerate((p1, p2)):
                den = net.sigma2 + net.beta[k, 0] * p1 + net.beta[k, 1] * p2
                rate = np.log2(1.0 + net.alpha[k] * pk / den)
                value += net.w[k] * rate
                feas &= rate >= net.r_min[k]
            better = feas & (value > gamma)
            if red is None:
                assert not better.any()
                continue
            inside = np.ones(p1.shape, dtype=bool)
            for i, pg in enumerate((p1, p2)):
                inside &= (pg >= red.r[i] - 1e-12) & (pg <= red.s[i] + 1e-12)
            assert not (better & ~inside).any()


    def test_steps_below_one_rejected(self):
        f = MMFunction(1, lambda x, y: float(x[0]))
        box = make_box((0.0,), (1.0,))
        for steps in (0, -1):
            with pytest.raises(MMOptError):
                reduce_box(box, f, (), 0.5, steps=steps)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, 0])
    def test_steps_must_be_a_count(self, steps):
        # a float once failed inside the line search, and True ran as 1 step
        f = MMFunction(1, lambda x, y: float(x[0]))
        box = make_box((0.0,), (1.0,))
        with pytest.raises(MMOptError, match="steps must be an integer >= 1"):
            reduce_box(box, f, (), 0.5, steps=steps)
        assert reduce_box(box, f, (), 0.5, steps=np.int64(3)) is not None

    @pytest.mark.parametrize("gamma", [float("nan"), np.float64("nan"), "0.5", None, True])
    def test_gamma_must_be_a_real_number(self, gamma):
        # a NaN gamma once failed every objective test and cut the box to a sliver
        f = MMFunction(2, lambda x, y: float(x.sum() - y.sum()))
        box = make_box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(MMOptError, match="gamma must be a real number"):
            reduce_box(box, f, (), gamma)
        assert reduce_box(box, f, (), float("-inf")) is box
        assert reduce_box(box, f, (), float("inf")) is None


def reduction_cases():
    """Seeded (problem, box, gamma, steps) cases for the reduction oracle.

    Each draw sets its rate floors below the rates at a random point p of
    the initial box, so p is feasible and its value is a realistic
    incumbent; each draw is reduced on a random box and on a random box
    around p.  WSR draws come with and without self-interference.
    """
    variants = [("wsr", k, selfint) for k in (2, 3, 4) for selfint in (False, True)]
    variants += [("aloha", k, False) for k in (2, 3)]
    for seed in range(8):
        for family, k, selfint in variants:
            rng = np.random.default_rng([seed, k, selfint])
            if family == "wsr":
                net = generate_channels(k, 300 + seed)
                if selfint:
                    beta = np.array(net.beta)
                    np.fill_diagonal(beta, 0.5 * rng.random(k))
                    net = replace(net, beta=beta)
                p = rng.random(k) * net.p_max
                net = replace(net, r_min=rng.uniform(0.5, 1.0, k) * wsr_rates(net, p))
                prob = wsr_problem(net)
            else:
                net = generate_aloha(k, 3000 + seed)
                p = rng.uniform(0.05, 0.95, k)
                net = replace(net, r_min=rng.uniform(0.5, 1.0, k) * aloha_rates(net, p))
                prob = aloha_problem(net)
            root = prob.initial_box
            around_p = (p - rng.random(k) * (p - root.r), p + rng.random(k) * (root.s - p))
            for corners in (random_box(rng, root.r, root.s), around_p):
                box = BoxNd(*corners)
                top = prob.objective.eval(box.s, box.r)
                just_below = top - 1e-6 * max(1.0, abs(top))
                for gamma in (float("-inf"), prob.objective.eval(p, p), just_below):
                    for steps in (1, 5, 10):
                        yield prob, box, gamma, steps


class TestReduceAgainstReference:
    def test_bit_identical_to_full_predicate_search(self):
        outcomes = {"empty": 0, "same": 0, "shrunk": 0}
        for prob, box, gamma, steps in reduction_cases():
            got = reduce_box(box, prob.objective, prob.constraints, gamma, steps=steps)
            want = reduce_box_reference(box, prob.objective, prob.constraints, gamma, steps)
            if want is None:
                assert got is None
                outcomes["empty"] += 1
                continue
            assert got is not None
            assert (got is box) == (want is box)
            assert np.array_equal(got.r, want.r) and np.array_equal(got.s, want.s)
            outcomes["same" if want is box else "shrunk"] += 1
        assert sum(outcomes.values()) >= 500
        assert min(outcomes.values()) >= 20, outcomes


def counting(dim, fn, calls, name):
    def counted(x, y):
        calls.append(name)
        return fn(x, y)

    return MMFunction(dim, counted, name=name)


class TestReduceEvaluationCount:
    def test_slack_conjuncts_evaluated_once_per_phase(self):
        calls = []
        f = counting(3, lambda x, y: float(x.sum() - y.sum()), calls, "f")
        cons = (
            MMConstraint(counting(3, lambda x, y: float(x[0] - y[1] - 5.0), calls, "g0")),
            MMConstraint(counting(3, lambda x, y: float(x[2] - 5.0), calls, "g1")),
        )
        box = make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert reduce_box(box, f, cons, float("-inf"), steps=10) is box
        # one entry check at the corners, then one certificate per phase
        assert sorted(calls) == ["f"] * 3 + ["g0"] * 3 + ["g1"] * 3
        calls.clear()
        assert reduce_box_reference(box, f, cons, float("-inf"), 10) is box
        assert len(calls) == 3 * (1 + 2 * 3)

    def test_midpoints_evaluate_only_the_binding_constraint(self):
        steps = 10
        calls = []
        f = counting(3, lambda x, y: float(x.sum()), calls, "f")
        cons = (
            MMConstraint(counting(3, lambda x, y: float(0.5 - y[1]), calls, "bind")),
            MMConstraint(counting(3, lambda x, y: float(x[2] - 2.0), calls, "slack")),
        )
        box = make_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        got = reduce_box(box, f, cons, float("-inf"), steps=steps)
        # entry check and shrink certificate; t = 1 on each of the three
        # lines, then the midpoints of axis 1, the only line where "bind"
        # fails; the new lower corner's check and the grow certificate,
        # which drops every conjunct
        corners = ["bind", "slack", "f"] * 2
        assert calls == corners + ["bind"] * (3 + steps) + corners
        assert 0.0 < got.r[1] <= 0.5 and got.r[[0, 2]].tolist() == [0.0, 0.0]
        new_calls = len(calls)
        calls.clear()
        want = reduce_box_reference(box, f, cons, float("-inf"), steps)
        assert np.array_equal(got.r, want.r) and np.array_equal(got.s, want.s)
        assert len(calls) > new_calls


class TestFindIncumbent:
    def test_fully_feasible_box_yields_lower_corner(self):
        prob = wsr_problem(two_user_symmetric_net())
        box = make_box((0.2, 0.3), (0.8, 0.9))
        np.testing.assert_allclose(find_incumbent(box, prob), [0.2, 0.3])

    def test_conclusive_witness_mixes_corners(self):
        g = MMFunction(2, lambda x, y: float(x[0] - y[1] - 0.5))
        prob = ProblemInstance(
            MMFunction(2, lambda x, y: float(x[0] - y[1])),
            (MMConstraint(g, monotone_split=frozenset({0})),),
            make_box((0.0, 0.0), (1.0, 1.0)),
        )
        assert prob.feasibility_mode == "mm-conclusive"
        x = find_incumbent(make_box((0.1, 0.2), (0.9, 0.8)), prob)
        np.testing.assert_allclose(x, [0.1, 0.8])

    def test_unknown_box_returns_none_without_hook(self):
        net = two_user_symmetric_net(r_min=0.4)
        prob = replace(wsr_problem(net), feasibility_oracle=None)
        assert prob.feasibility_mode == "mm-sufficient-only"
        # box straddling the floor: optimistic corner passes, pessimistic fails
        box = make_box((0.0, 0.0), (1.0, 1.0))
        assert find_incumbent(box, prob) is None

    def test_oracle_point_validated(self):
        base = wsr_problem(two_user_symmetric_net(r_min=0.4))
        x = find_incumbent(base.initial_box, offering(base, [1.0, 1.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])
        # an oracle offering an infeasible point is rejected
        bad = offering(base, [1.0, 0.0])  # user 2 gets no rate
        assert find_incumbent(bad.initial_box, bad) is None

    def test_oracle_point_of_wrong_shape_raises(self):
        # the oracle offers a 1-d point for every box of a 2-d problem; it
        # must not become the incumbent
        prob = offering(
            ProblemInstance(
                MMFunction(2, lambda x, y: float(x.sum())), (), make_box((0.0, 0.0), (1.0, 1.0))
            ),
            [0.5],
        )
        with pytest.raises(DimensionMismatch):
            find_incumbent(prob.initial_box, prob)
        with pytest.raises(DimensionMismatch):
            solve(prob, SolverConfig(max_iterations=10))

    def test_box_of_another_dimension_raises(self):
        # a 3-d box on a 2-user problem once returned its lower corner
        prob = wsr_problem(generate_channels(2, 0))
        with pytest.raises(DimensionMismatch, match="box dimension 3 != problem dimension 2"):
            find_incumbent(make_box(np.zeros(3), np.ones(3)), prob)

    def test_epsilon_admits_near_feasible_corner(self):
        # undecided box whose lower corner violates the floor by 0.01
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - 0.5 * y[0] - 0.24)))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (g,),
            make_box((0.0,), (1.0,)),
        )
        box = make_box((0.5,), (0.9,))
        assert g.g.eval(box.r, box.r) == pytest.approx(0.01)
        assert find_incumbent(box, prob) is None
        np.testing.assert_allclose(find_incumbent(box, prob, epsilon=0.02), [0.5])

    def test_oracle_point_checked_at_the_solve_epsilon(self):
        # the oracle offers a point that violates the constraint by 5e-10
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - 0.5)))
        prob = offering(
            ProblemInstance(MMFunction(1, lambda x, y: float(x[0])), (g,), make_box((0,), (1,))),
            [0.5 + 5e-10],
        )
        box = make_box((0.0,), (1.0,))
        assert find_incumbent(box, prob) is None
        np.testing.assert_array_equal(find_incumbent(box, prob, epsilon=1e-9), [0.5 + 5e-10])
        # the point must lie in the box itself, not within a tolerance of it
        assert find_incumbent(make_box((0.0,), (0.5,)), prob, epsilon=1e-9) is None

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf"), True, "0.1"])
    def test_epsilon_must_be_a_finite_real_at_least_zero(self, epsilon):
        # each of these once returned a point
        prob = ProblemInstance(MMFunction(1, lambda x, y: float(x[0])), (), make_box((0,), (1,)))
        with pytest.raises(MMOptError, match="epsilon must be a finite real number >= 0"):
            find_incumbent(prob.initial_box, prob, epsilon=epsilon)
        np.testing.assert_array_equal(find_incumbent(prob.initial_box, prob, np.float64(0.1)), [0])


class TestRegionQueue:
    def test_best_first_pops_max_bound(self):
        q = RegionQueue("best-first")
        boxes = [make_box((0.0,), (float(i + 1),)) for i in range(3)]
        for box, u in zip(boxes, (1.5, 3.5, 2.5)):
            q.push(box, u)
        assert q.max_bound() == 3.5
        # ids count pushes from 0, and each comes back with its box and bound
        for want_id, want_u in ((1, 3.5), (2, 2.5), (0, 1.5)):
            box, u, box_id = q.pop()
            assert (box_id, u) == (want_id, want_u) and box is boxes[want_id]

    def test_best_first_ties_pop_in_push_order(self):
        q = RegionQueue("best-first")
        for u in (1.0, 2.0, 1.0, 2.0, 1.0):
            q.push(make_box((0.0,), (1.0,)), u)
        assert [q.pop()[2] for _ in range(5)] == [1, 3, 0, 2, 4]

    def test_oldest_first_is_fifo(self):
        q = RegionQueue("oldest-first")
        for u in (3.0, 0.0, 9.0, 1.0):
            q.push(make_box((0.0,), (1.0,)), u)
        assert [q.pop()[2] for _ in range(2)] == [0, 1]
        q.push(make_box((0.0,), (1.0,)), 5.0)
        assert [q.pop()[2] for _ in range(3)] == [2, 3, 4]
        assert len(q) == 0

    def test_oldest_first_max_bound_scans(self):
        q = RegionQueue("oldest-first")
        q.push(make_box((0.0,), (1.0,)), 1.0)
        q.push(make_box((0.0,), (1.0,)), 9.0)
        assert q.max_bound() == 9.0
        assert RegionQueue("oldest-first").max_bound() == float("-inf")

    def test_unknown_discipline_rejected(self):
        with pytest.raises(MMOptError, match="unknown selection_rule 'bogus'"):
            RegionQueue("bogus")

    @pytest.mark.parametrize("discipline", ["best-first", "oldest-first"])
    def test_pop_returns_the_very_item(self, discipline):
        # items are opaque: the queue orders them by bound and id alone
        q = RegionQueue(discipline)
        items = [object(), (make_box((0.0,), (1.0,)), np.zeros(1), None, [1.0]), object()]
        for item, u in zip(items, (1.0, 3.0, 2.0)):
            q.push(item, u)
        order = (1, 2, 0) if discipline == "best-first" else (0, 1, 2)
        for want in order:
            item, u, item_id = q.pop()
            assert item is items[want] and (u, item_id) == ((1.0, 3.0, 2.0)[want], want)


class TestSolve:
    def test_single_user_full_power(self):
        net = InterferenceNetwork(
            alpha=(1.0,),
            beta=((0.0,),),
            sigma2=0.01,
            p_max=(1.0,),
            w=(1.0,),
            r_min=(0.0,),
        )
        res = solve(wsr_problem(net), SolverConfig(eta=0.01))
        assert res.status == "eta-optimal"
        assert res.value == pytest.approx(math.log2(101.0), abs=0.01)
        assert res.incumbent[0] >= 0.98

    def test_two_user_matches_grid_oracle(self):
        for seed in range(5):
            net = generate_channels(2, seed=seed)
            res = solve(wsr_problem(net), SolverConfig(eta=0.01))
            assert res.status == "eta-optimal"
            assert res.value >= wsr_grid_max(net, n=501) - 0.01 - 1e-9
            assert res.value == pytest.approx(wsr_value(net, res.incumbent), abs=1e-12)

    def test_infeasible_rate_floors(self):
        net = two_user_symmetric_net()
        capacity = math.log2(1.0 + 1.0 / 0.01)
        net = InterferenceNetwork(
            alpha=net.alpha,
            beta=net.beta,
            sigma2=net.sigma2,
            p_max=net.p_max,
            w=net.w,
            r_min=(capacity + 0.1, capacity + 0.1),
        )
        res = solve(wsr_problem(net), SolverConfig(eta=0.01))
        assert res.status == "infeasible"
        assert res.incumbent is None
        assert res.value == float("-inf")

    def test_iteration_limit(self):
        net = generate_channels(3, seed=1)
        res = solve(wsr_problem(net), SolverConfig(eta=1e-6, max_iterations=10))
        assert res.status == "iteration-limit"
        assert res.iterations == 10

    def test_time_limit(self):
        net = generate_channels(4, seed=2)
        res = solve(wsr_problem(net, "dm"), SolverConfig(eta=1e-9, max_wall_time=0.05))
        assert res.status == "time-limit"
        assert res.wall_time >= 0.05

    def test_thin_infeasible_child_is_counted(self):
        # the one-sided test proves infeasible only boxes thinner than 1e-12,
        # the width below which children are no longer queued
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - y[0] + 1e-12)))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (g,),
            make_box((0.0,), (1.0,)),
        )
        res = solve(prob, SolverConfig(eta=0.01, max_iterations=50))
        assert (res.status, res.iterations) == ("iteration-limit", 50)
        assert astuple(res.stats) == (101, 14, 0, 0, 40)

    def test_single_feasible_point_is_not_reported_infeasible(self):
        # p = 1 meets the floor with equality and no other point does; it is
        # the root's least feasible point, and the floor holds there in floats
        net = InterferenceNetwork(
            alpha=(1.0,),
            beta=((0.0,),),
            sigma2=0.01,
            p_max=(1.0,),
            w=(1.0,),
            r_min=(math.log2(101.0),),
        )
        prob = wsr_problem(net)
        res = solve(prob, SolverConfig(eta=0.01))
        assert (res.status, res.iterations, res.value) == ("eta-optimal", 0, math.log2(101.0))
        assert res.incumbent.tolist() == [1.0]
        # the root's bound is its point's value, so the root is pruned by bound
        assert astuple(res.stats) == (1, 0, 1, 0, 0)
        # the one-sided test leaves every thin child near p = 1 undecided
        # and without a point
        one_sided = replace(prob, feasibility_oracle=None)
        res = solve(one_sided, SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == ("resolution-limit", 40)
        assert astuple(res.stats) == (81, 40, 0, 0, 1)

    @pytest.mark.parametrize(
        "scale, status, iterations", [(1.0, "eta-optimal", 16), (0.999999, "eta-optimal", 16)]
    )
    def test_floors_met_only_at_full_power(self, scale, status, iterations):
        beta = np.array([[0.0, 0.3], [0.2, 0.0]])
        full = np.log2(1.0 + 1.0 / (0.01 + beta @ np.ones(2)))  # the rates at p_max
        net = InterferenceNetwork(
            alpha=(1.0, 1.0),
            beta=beta,
            sigma2=0.01,
            p_max=(1.0, 1.0),
            w=(1.0, 1.0),
            r_min=tuple(scale * full),
        )
        res = solve(wsr_problem(net), SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == (status, iterations)
        assert res.value == {1.0: 4.60577250564641, 0.999999: 4.60576789996621}[scale]
        assert res.value >= wsr_grid_max(net) - 0.01
        assert np.all(wsr_rates(net, res.incumbent) >= net.r_min)
        if scale == 1.0:  # the floors hold with equality at p_max, in floats too
            floors = wsr_problem(net).constraints
            assert [c.g.eval(net.p_max, net.p_max) for c in floors] == [0.0, 0.0]
            assert res.incumbent.tolist() == [1.0, 1.0]

    def test_unmeetable_floor_is_infeasible(self):
        # alpha_0 <= (2^r_min - 1) beta_00: user 0's self-interference keeps
        # its rate below the floor at every power
        net = InterferenceNetwork(
            alpha=(1.0, 1.0),
            beta=((1.0, 0.1), (0.1, 0.0)),
            sigma2=0.01,
            p_max=(1.0, 1.0),
            w=(1.0, 1.0),
            r_min=(1.0, 0.5),
        )
        res = solve(wsr_problem(net), SolverConfig(eta=0.01))
        # the oracle decides the root itself
        assert (res.status, res.incumbent, res.iterations) == ("infeasible", None, 0)
        assert res.stats.boxes_pruned_infeasible == 1
        assert wsr_grid_max(net) == -math.inf

    def test_thin_box_above_the_incumbent_blocks_the_optimality_claim(self):
        # feasible set [0, 0.3] and the point 1, where x is largest; boxes
        # [1 - d, 1] stay undecided and offer no point at every width d
        g = MMConstraint(MMFunction(1, lambda x, y: min(float(x[0]) - 0.3, 1.0 - float(y[0]))))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (g,),
            make_box((0.0,), (1.0,)),
        )
        res = solve(prob, SolverConfig(eta=0.01))
        assert (res.status, res.iterations, res.value) == ("resolution-limit", 48, 0.296875)

    def test_thin_boxes_at_large_coordinates(self):
        # one ulp at 1e6 is 1.16e-10, above 1e-12: a threshold not scaled to
        # the root would let a midpoint round onto a corner, so that a child
        # equals its parent and the loop runs into its limit
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - (1e6 + 0.3))))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (g,),
            make_box((1e6,), (1e6 + 1.0,)),
        )
        res = solve(prob, SolverConfig(eta=1e-15, max_iterations=200_000))
        assert (res.status, res.iterations) == ("resolution-limit", 22)
        assert 1e6 + 0.3 - 1e-5 < res.value <= 1e6 + 0.3

    def test_thin_root_box_is_not_reported_infeasible(self):
        # the feasible set is the single point x0 inside a root box thinner
        # than 1e-12, which the one-sided test cannot decide
        x0 = 0.5 + 5e-14
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (
                MMConstraint(MMFunction(1, lambda x, y: float(x0 - y[0]))),
                MMConstraint(MMFunction(1, lambda x, y: float(x[0] - x0))),
            ),
            make_box((0.5,), (0.5 + 1e-13,)),
        )
        res = solve(prob, SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == ("resolution-limit", 0)

    def test_oracle_point_must_meet_constraints_exactly(self):
        # the one-sided test decides what it can; every box it leaves open
        # is offered a point that violates the constraint by 5e-10, or one
        # outside the box
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - 0.5)))
        base = ProblemInstance(MMFunction(1, lambda x, y: float(x[0])), (g,), make_box((0,), (1,)))
        for point in ([0.5 + 5e-10], [7.0]):
            res = solve(offering(base, point, decide=True), SolverConfig(eta=0.01))
            assert (res.status, res.value) == ("eta-optimal", 0.4921875)
            assert g.g.eval(res.incumbent, res.incumbent) <= 0.0
        prob = offering(base, [0.5 + 5e-10], decide=True)
        res = solve(prob, SolverConfig(eta=0.01, epsilon_feasibility=1e-9))
        assert (res.status, res.value) == ("eps-eta-approximate", 0.5 + 5e-10)

    def test_gamma_nondecreasing_in_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        net = generate_channels(2, seed=3)
        res = solve(wsr_problem(net), SolverConfig(eta=0.01, trace_path=str(trace)))
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "k,box_id,upper_bound,gamma,queue_size"
        assert len(lines) == res.iterations + 1
        gammas = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        # the selected bound never drops below the final incumbent value
        ubounds = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(ubounds) >= res.value

    def test_selection_rules_agree(self):
        for seed in range(5):
            net = generate_channels(2, seed=seed)
            best = solve(wsr_problem(net), SolverConfig(eta=0.01, selection_rule="best-first"))
            oldest = solve(wsr_problem(net), SolverConfig(eta=0.01, selection_rule="oldest-first"))
            assert best.status == oldest.status == "eta-optimal"
            assert abs(best.value - oldest.value) <= 0.01 + 1e-9

    def test_perturbed_representation_agrees(self):
        net = generate_channels(2, seed=8)
        base = wsr_problem(net)
        loose_obj = MMFunction(
            2, lambda x, y: base.objective.eval(x, y) + float(np.sum(np.asarray(x) - np.asarray(y)))
        )
        loose = ProblemInstance(loose_obj, base.constraints, base.initial_box)
        res_base = solve(base, SolverConfig(eta=0.01))
        res_loose = solve(loose, SolverConfig(eta=0.01))
        assert abs(res_base.value - res_loose.value) <= 0.01 + 1e-9
        assert res_loose.iterations >= res_base.iterations

    def test_relative_tolerance_mode(self):
        net = generate_channels(2, seed=9)
        res = solve(wsr_problem(net), SolverConfig(eta=0.01, tolerance_mode="relative"))
        assert res.status == "relative-eta-optimal"
        assert (1.0 + 0.01) * res.value >= wsr_grid_max(net, n=501) - 1e-9

    def test_epsilon_mode_on_boundary_optimum(self):
        g = MMConstraint(MMFunction(1, lambda x, y: float(x[0] - 0.6)))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(x[0])),
            (g,),
            make_box((0.0,), (1.0,)),
        )
        res = solve(prob, SolverConfig(eta=0.001, epsilon_feasibility=0.01))
        assert res.status == "eps-eta-approximate"
        assert res.value >= 0.6 - 0.001
        assert res.value <= 0.6 + 0.01 + 1e-9
        assert g.g.eval(res.incumbent, res.incumbent) <= 0.01

    def test_constraint_without_split_gets_the_one_sided_test(self):
        # maximize -x on [0, 1] subject to 0.5 - x <= 0; G(x, y) = 0.5 - y[0]
        # declares no split, so the one-sided test decides the boxes
        g = MMConstraint(MMFunction(1, lambda x, y: float(0.5 - y[0])))
        prob = ProblemInstance(
            MMFunction(1, lambda x, y: float(-y[0])), (g,), make_box((0.0,), (1.0,))
        )
        assert prob.feasibility_mode == "mm-sufficient-only"
        res = solve(prob, SolverConfig(eta=0.01))
        assert (res.status, res.value, res.iterations) == ("eta-optimal", -0.5, 7)

    def test_custom_oracle_mode(self):
        # maximize x + y over the quarter disc of radius 1
        def oracle(box):
            assert_valid_box(box)
            if float(np.sum(box.s**2)) <= 1.0:
                return FeasibilityVerdict(Feasibility.FULLY_FEASIBLE, witness=box.r)
            if float(np.sum(box.r**2)) > 1.0:
                return FeasibilityVerdict(Feasibility.INFEASIBLE)
            return FeasibilityVerdict(Feasibility.UNKNOWN)

        prob = ProblemInstance(
            MMFunction(2, lambda x, y: float(x[0] + x[1])),
            (),
            make_box((0.0, 0.0), (1.0, 1.0)),
            feasibility_oracle=oracle,
        )
        res = solve(prob, SolverConfig(eta=0.005))
        assert res.status == "eta-optimal"
        assert res.value == pytest.approx(math.sqrt(2.0), abs=0.005 + 1e-9)
        assert float(np.sum(res.incumbent**2)) <= 1.0 + 1e-9

    def test_degenerate_initial_box(self):
        x = np.array([0.3, 0.4])
        net = generate_channels(2, seed=6)
        prob = wsr_problem(net)
        degenerate = ProblemInstance(prob.objective, prob.constraints, make_box(x, x))
        res = solve(degenerate, SolverConfig(eta=0.01))
        assert res.iterations == 0
        assert res.value == pytest.approx(wsr_value(net, x), abs=1e-12)

    def test_peak_region_count_positive(self):
        net = generate_channels(3, seed=2)
        res = solve(wsr_problem(net), SolverConfig(eta=0.01))
        assert res.peak_region_count >= 1

    def test_oracle_receives_valid_boxes(self):
        seen = []
        base = wsr_problem(two_user_symmetric_net(r_min=0.4))

        def oracle(box):
            assert_valid_box(box)
            seen.append(box)
            return mm_sufficient_test(box, base.constraints)

        prob = replace(base, feasibility_oracle=oracle)
        res = solve(prob, SolverConfig(eta=0.05, reduction_enabled=True, max_iterations=200))
        assert len(seen) > res.iterations > 0

    def test_relative_tolerance_negative_optimum(self):
        # gamma < 0: a cutoff of (1 + eta) * gamma would lie below gamma and
        # never prune the box holding the incumbent
        prob = aloha_problem(symmetric_aloha_near_boundary())
        absolute = solve(prob, SolverConfig(eta=0.01, max_iterations=20_000))
        relative = solve(
            prob, SolverConfig(eta=0.01, tolerance_mode="relative", max_iterations=20_000)
        )
        assert absolute.status == "eta-optimal"
        assert relative.status == "relative-eta-optimal"
        assert relative.iterations <= absolute.iterations
        assert relative.value < 0.0
        assert relative.value + 0.01 * abs(relative.value) >= absolute.value

    def test_eta_optimal_incumbent_satisfies_constraints(self):
        net = two_user_symmetric_net(r_min=0.3)
        prob = wsr_problem(net)
        res = solve(prob, SolverConfig(eta=0.01, max_iterations=10**6))
        assert res.status == "eta-optimal"
        for c in prob.constraints:
            assert c.g.eval(res.incumbent, res.incumbent) <= 1e-9
        assert res.value == pytest.approx(wsr_value(net, res.incumbent), abs=1e-12)


class TestGoldenTrace:
    """Trace files and counts of fixed solves; any change to the search
    order, the bounds or the pruning shows up here.

    The two unfloored WSR cases were recorded before bisection and reduction
    stopped re-validating their boxes; the floored one with the exact
    least-point test of the floors and the power problems' closed-form
    reducer (with ``reduce_box`` it took 196 iterations, peak 34, to the
    value 4.22664610380826; now 4.226287443067227, within its eta of 0.1,
    at an incumbent that meets every floor).  The ALOHA case was recorded
    with the exact separable bound and the midpoint incumbent step; on that
    bound the two-user symmetric instance solves at the root, so a
    three-user draw that runs the loop takes its place.
    """

    CASES = {
        "wsr3-mmp": (
            lambda: wsr_problem(generate_channels(3, 2), "mmp"),
            SolverConfig(eta=0.01),
            ("eta-optimal", 1161, 207),
            "7922e657c4528bdf23705806fe6a0620e3a62bee3abd87b4afa0c58cc5de7f20",
        ),
        "wsr3-dm": (
            lambda: wsr_problem(generate_channels(3, 2), "dm"),
            SolverConfig(eta=0.01),
            ("eta-optimal", 2211, 484),
            "4701eb34f1b1d7390ee8fe7ce4e41b39d46f73480fb195a9bb38a9b789a67103",
        ),
        "wsr3-floors-oldest-reduce": (
            lambda: wsr_problem(replace(generate_channels(3, 8), r_min=np.full(3, 0.3))),
            SolverConfig(
                eta=0.1,
                selection_rule="oldest-first",
                reduction_enabled=True,
                reduction_bisection_steps=5,
                max_iterations=20_000,
            ),
            ("eta-optimal", 182, 28),
            "e17cb87aa78cbd85539f4a5c2b303e8c1c14df711ad85fe23ff9c2cebe443d76",
        ),
        "aloha3-draw3000": (
            lambda: aloha_problem(generate_aloha(3, 3000)),
            SolverConfig(eta=0.01, max_iterations=20_000),
            ("eta-optimal", 62, 18),
            "f34bd56a771151a5a3fc833ac4fbbbbefc1f1b676753941bd236e8cb89eda904",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trace_and_counts(self, name, tmp_path):
        build, config, counts, digest = self.CASES[name]
        trace = tmp_path / "trace.csv"
        res = solve(build(), replace(config, trace_path=str(trace)))
        assert (res.status, res.iterations, res.peak_region_count) == counts
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest

    def test_solve_returns_its_counts(self):
        build, config, counts, _ = self.CASES["wsr3-floors-oldest-reduce"]
        res = solve(build(), config)
        stats = res.stats
        assert (res.status, res.iterations, res.peak_region_count) == counts
        assert stats.boxes_reduced_empty > 0
        # every bisection child is counted once it survives reduction
        assert stats.boxes_created == 1 + 2 * res.iterations - stats.boxes_reduced_empty
        assert stats.peak_region_count == res.peak_region_count
        assert stats.boxes_pruned_infeasible + stats.boxes_pruned_bound > 0


class TestConstrainedNormalSet:
    """A normal-set solve with a constraint that binds: WSR K=3 under a
    total-power budget ``sum(p) <= 1.5`` (network seed 34, whose
    unconstrained optimum spends 2).  The budget is a normal set: it
    declares every coordinate as its monotone split, so the corner test runs
    at the lower corner."""

    BUDGET = 1.5
    # trace digest and counts recorded with the separate normal-set test
    # that the corner test replaced
    COUNTS = ("eta-optimal", 829, 172)
    DIGEST = "75acfed13bc649ce797c5d1ccf2de0b916975dfabada6e95d826a9bf99d74cde"

    def problem(self):
        net = generate_channels(3, 34)
        base = wsr_problem(net)
        budget = MMFunction(3, lambda x, y: float(np.sum(x)) - self.BUDGET, name="budget")
        constraint = MMConstraint(budget, monotone_split=frozenset(range(3)))
        return net, ProblemInstance(base.objective, (constraint,), base.initial_box)

    def solve_traced(self, problem, path):
        res = solve(problem, SolverConfig(eta=0.01, trace_path=str(path)))
        return res, path.read_bytes()

    def test_against_grid_and_conclusive_mode(self, tmp_path):
        net, normal = self.problem()
        assert normal.feasibility_mode == "mm-conclusive"
        res, trace = self.solve_traced(normal, tmp_path / "normal.csv")
        assert (res.status, res.iterations, res.peak_region_count) == self.COUNTS
        assert hashlib.sha256(trace).hexdigest() == self.DIGEST
        assert res.incumbent.sum() <= self.BUDGET
        assert res.value == pytest.approx(wsr_value(net, res.incumbent), abs=1e-12)
        grid = wsr_budget_grid_max(net, self.BUDGET, n=101)
        assert grid - 0.01 - 1e-9 <= res.value <= grid + 0.01
        # the budget binds: without it the optimum spends more
        free = solve(wsr_problem(net), SolverConfig(eta=0.01))
        assert free.incumbent.sum() > self.BUDGET

        # the same set through normal_set_test as an oracle solves the same way
        spend = [lambda x: float(np.sum(x)) - self.BUDGET]
        oracle = replace(normal, feasibility_oracle=lambda box: normal_set_test(box, spend))
        res_o, trace_o = self.solve_traced(oracle, tmp_path / "oracle.csv")
        assert trace_o == trace
        assert (res_o.status, res_o.iterations, res_o.peak_region_count) == self.COUNTS
        assert repr(res_o.value) == repr(res.value)
        assert np.array_equal(res_o.incumbent, res.incumbent)


class TestOfferedPointEvaluatedOnce:
    """Each point a verdict offers is evaluated once: a child that offers
    the very array its popped parent offered is not evaluated again.  Its
    value was compared with the incumbent value when the parent was made,
    that value never falls, and the child lies inside the parent, so the
    point cannot be taken the second time."""

    @staticmethod
    def counted(problem, calls):
        objective = counting(problem.dim, problem.objective.eval, calls, "f")
        return replace(problem, objective=objective)

    def test_unconstrained_wsr_makes_three_evaluations_per_iteration(self):
        # no constraints, best-first, no reduction, no thin boxes: the root's
        # bound and point, then two child bounds and only the upper child's
        # point; the lower child's witness is the r it shares with its parent
        calls = []
        problem = self.counted(wsr_problem(generate_channels(3, 2), "dm"), calls)
        assert problem.feasibility_mode == "mm-conclusive" and not problem.constraints
        res = solve(problem, SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == ("eta-optimal", 2211)
        assert res.stats.boxes_created == 1 + 2 * res.iterations
        assert len(calls) == 2 + 3 * res.iterations

    @pytest.mark.parametrize("selection, reduce", [("best-first", False), ("oldest-first", True)])
    def test_shared_witness_solves_like_a_fresh_copy(self, selection, reduce, tmp_path):
        # an oracle offering box.r itself lets the lower child skip its point;
        # one offering a copy never does, and both must solve the same way
        problem = wsr_problem(generate_channels(3, 2), "dm")
        config = SolverConfig(eta=0.01, selection_rule=selection, reduction_enabled=reduce)

        def run(witness, name):
            def oracle(box):
                return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness(box))

            calls = []
            instance = self.counted(replace(problem, feasibility_oracle=oracle), calls)
            path = tmp_path / f"{name}.csv"
            res = solve(instance, replace(config, trace_path=str(path)))
            return res, path.read_bytes(), len(calls)

        shared, shared_trace, shared_calls = run(lambda box: box.r, "shared")
        fresh, fresh_trace, fresh_calls = run(lambda box: box.r.copy(), "fresh")
        assert shared_trace == fresh_trace
        assert astuple(shared.stats) == astuple(fresh.stats)
        assert (shared.status, shared.iterations, shared.peak_region_count) == (
            fresh.status,
            fresh.iterations,
            fresh.peak_region_count,
        )
        assert repr(shared.value) == repr(fresh.value)
        assert shared.incumbent.tobytes() == fresh.incumbent.tobytes()
        assert shared.iterations > 0 and shared_calls < fresh_calls

    def test_point_a_parent_did_not_offer_is_evaluated(self):
        # f(x) = -sum(x) is best at the root's lower corner, which the root
        # does not offer (UNKNOWN); its lower child offers that same array
        root = make_box((0.0, 0.0), (1.0, 1.0))
        f = MMFunction(2, lambda x, y: -float(y.sum()), name="f")

        def oracle(box):
            if box.r is root.r and box.s is root.s:
                return FeasibilityVerdict(Feasibility.UNKNOWN)
            return FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, box.r)

        res = solve(ProblemInstance(f, (), root, oracle), SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == ("eta-optimal", 1)
        assert res.incumbent is root.r
        assert res.value == 0.0


class TestSeparableHalves:
    """A separable objective keeps each box's halves ``(up(s), down(r))``
    with its queue entry, and a child evaluates only the half whose corner
    it does not share with its popped parent."""

    @staticmethod
    def problem(r_min=0.0):
        net = replace(generate_channels(3, 2), r_min=np.full(3, r_min))
        return wsr_problem(net, "dm")

    def test_each_iteration_evaluates_three_halves(self):
        # no constraints, best-first, no reduction, no thin boxes: the root
        # evaluates up(s), down(r) and up(r) for its point r; per iteration
        # the lower child evaluates up(lo_s), the upper child down(hi_r) and
        # up(hi_r) for its point, and reuses the parent's other halves
        problem = self.problem()
        up, down = problem.objective.halves
        calls = []

        def counted(half, name):
            def fn(v):
                calls.append(name)
                return half(v)

            return fn

        objective = mm_separable(3, counted(up, "up"), counted(down, "down"))
        # the limit only bounds a solve whose halves went wrong
        config = SolverConfig(eta=0.01, max_iterations=5_000)
        res = solve(replace(problem, objective=objective), config)
        assert (res.status, res.iterations) == ("eta-optimal", 2211)
        assert calls.count("up") == 2 + 2 * res.iterations == 4424
        assert calls.count("down") == 1 + res.iterations == 2212

    @pytest.mark.parametrize(
        "r_min, config",
        [
            (0.0, SolverConfig(eta=0.01)),
            (0.0, SolverConfig(eta=0.01, selection_rule="oldest-first", reduction_enabled=True)),
            (0.0, SolverConfig(eta=0.01, tolerance_mode="relative")),
            (0.3, SolverConfig(eta=0.01)),
        ],
        ids=["best-first", "oldest-first-reduce", "relative", "floors-oracle"],
    )
    def test_solves_like_the_plain_function(self, r_min, config, tmp_path):
        problem = self.problem(r_min)
        f = problem.objective
        plain = replace(problem, objective=MMFunction(f.dim, f.eval, name=f.name))
        assert f.halves is not None and plain.objective.halves is None

        def run(instance, name):
            path = tmp_path / f"{name}.csv"
            # the limit only bounds a solve whose halves went wrong
            res = solve(instance, replace(config, trace_path=path, max_iterations=30_000))
            return res, path.read_bytes()

        (halved, halved_trace), (whole, whole_trace) = run(problem, "halves"), run(plain, "plain")
        assert halved.iterations > 0 and halved.incumbent is not None
        assert halved_trace == whole_trace
        assert astuple(halved.stats) == astuple(whole.stats)
        assert (halved.status, halved.iterations, halved.peak_region_count) == (
            whole.status,
            whole.iterations,
            whole.peak_region_count,
        )
        assert repr(halved.value) == repr(whole.value)
        assert halved.incumbent.tobytes() == whole.incumbent.tobytes()

    @pytest.mark.parametrize("half", ["up", "down"])
    def test_nan_from_either_half_raises_inside_solve(self, half):
        # up(r) for the root's point at 0, or down(r) of the upper child at 0.5
        halves = {
            "up": lambda x: float(x[0]) if x[0] > 0.0 else float("nan"),
            "down": lambda y: -float(y[0]) if y[0] == 0.0 else float("nan"),
        }
        ok = {"up": lambda x: float(x[0]), "down": lambda y: -float(y[0])}
        ok[half] = halves[half]
        f = mm_separable(1, ok["up"], ok["down"], name="sep")
        problem = ProblemInstance(f, (), make_box((0.0,), (1.0,)))
        with pytest.raises(EvaluationError, match="sep"):
            solve(problem, SolverConfig(eta=0.01, max_iterations=100))


class TestCarriedWidths:
    """Each queue entry carries its box's edge widths: the root's are
    computed once, a bisection child's come from its parent's, and a child
    that reduction cut recomputes them.  Every box the solver pops carries
    its own ``(s - r).tolist()``."""

    @pytest.mark.parametrize(
        "build, config",
        [
            (lambda: wsr_problem(generate_channels(3, 2), "dm"), SolverConfig(eta=0.01)),
            # the floored golden case's config on a network where the floors'
            # closed-form faces leave some children as they are: on the golden
            # network itself every child that survives is cut
            (
                lambda: wsr_problem(replace(generate_channels(3, 5), r_min=np.full(3, 0.1))),
                TestGoldenTrace.CASES["wsr3-floors-oldest-reduce"][1],
            ),
            (
                lambda: wsr_problem(generate_channels(3, 2)),
                SolverConfig(eta=0.01, tolerance_mode="relative"),
            ),
        ],
        ids=["best-first", "floors-oldest-first-reduce", "relative"],
    )
    def test_popped_widths_are_the_box_widths(self, build, config, monkeypatch):
        pop = RegionQueue.pop
        carried = []
        outcomes = Counter()

        def checked_pop(queue):
            record, u, box_id = pop(queue)
            box, _, _, widths = record
            carried.append(widths == (box.s - box.r).tolist())
            return record, u, box_id

        def counted(reduce):
            def counted_reduce(box, *args):
                out = reduce(box, *args)
                outcomes["empty" if out is None else "same" if out is box else "cut"] += 1
                return out

            return counted_reduce

        monkeypatch.setattr(RegionQueue, "pop", checked_pop)
        problem = build()
        # count through whichever reduction runs: the problem's own reducer
        # (the floored case), else reduce_box
        if problem.reducer is not None:
            problem = replace(problem, reducer=counted(problem.reducer))
        else:
            monkeypatch.setattr(mmopt.solver, "reduce_box", counted(mmopt.solver.reduce_box))
        res = solve(problem, config)
        assert res.iterations > 0 and len(carried) == res.iterations and all(carried)
        # with reduction, children both kept and recomputed their widths
        assert not config.reduction_enabled or outcomes["same"] > 0 < outcomes["cut"]


class TestPointWithoutVerdict:
    """Without constraints the corner test's witness is the lower corner, so
    the solve takes ``box.r`` itself and runs no test; with constraints the
    corner test runs once per box and solves as it did through verdicts."""

    @staticmethod
    def counted_corner_test(monkeypatch):
        calls = []
        test = mmopt.solver.mm_conclusive_test

        def counted(box, constraints):
            calls.append(box)
            return test(box, constraints)

        monkeypatch.setattr(mmopt.solver, "mm_conclusive_test", counted)
        return calls

    def test_unconstrained_solve_runs_no_test(self, monkeypatch):
        calls = self.counted_corner_test(monkeypatch)
        problem = wsr_problem(generate_channels(3, 2), "dm")
        assert problem.feasibility_mode == "mm-conclusive" and not problem.constraints
        res = solve(problem, SolverConfig(eta=0.01))
        assert (res.status, res.iterations) == ("eta-optimal", 2211)
        assert find_incumbent(problem.initial_box, problem) is problem.initial_box.r
        assert calls == []

    def test_constrained_corner_test_runs_once_per_box(self, monkeypatch, tmp_path):
        calls = self.counted_corner_test(monkeypatch)
        case = TestConstrainedNormalSet()
        _, problem = case.problem()
        res, trace = case.solve_traced(problem, tmp_path / "trace.csv")
        assert len(calls) == res.stats.boxes_created
        # the result recorded when each box's point came from its verdict
        assert (res.status, res.iterations, res.peak_region_count) == case.COUNTS
        assert hashlib.sha256(trace).hexdigest() == case.DIGEST
        assert repr(res.value) == "8.652281773690335"
        assert res.incumbent.tobytes().hex() == "000000000010e03f00000000000000000000000000f0ef3f"
        assert astuple(res.stats) == (1659, 88, 672, 0, 172)


def test_trace_path_takes_a_path_object(tmp_path):
    path = tmp_path / "trace.csv"
    res = solve(wsr_problem(generate_channels(2, 0)), SolverConfig(eta=0.01, trace_path=path))
    rows = path.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "k,box_id,upper_bound,gamma,queue_size"
    assert len(rows) == 1 + res.iterations
