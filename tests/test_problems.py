import hashlib
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmopt.core import SolverConfig, check_mm_property, make_box
from mmopt.errors import InnerSolveFailed, InvalidNetwork
from mmopt.feasibility import Feasibility, mm_sufficient_test
from mmopt.problems import (
    AlohaNetwork,
    EnergyModel,
    InterferenceNetwork,
    aloha_feasibility_boundary,
    aloha_problem,
    bound_gap_mmp_vs_dm,
    dinkelbach_gee,
    gee_problem,
    generate_aloha,
    generate_channels,
    wmee_problem,
    wsee_problem,
    wsr_problem,
)
from mmopt.problems import _dinkelbach_aux_objective, _Kernel
from mmopt.solver import reduce_box, solve

from oracles import (
    aloha_grid,
    aloha_rates,
    aloha_utility,
    dm_gap_closed_form,
    energy_grid_max,
    gee_grid_max_1d,
    gee_value,
    random_box,
    wmee_value,
    wsee_value,
    wsr_rates,
    wsr_value,
)


def symmetric_net():
    return InterferenceNetwork(
        alpha=(1.0, 1.0),
        beta=((0.0, 1.0), (1.0, 0.0)),
        sigma2=0.01,
        p_max=(1.0, 1.0),
        w=(1.0, 1.0),
        r_min=(0.0, 0.0),
    )


class TestNetworkValidation:
    @pytest.mark.parametrize("k", [0, 2.5, True, np.float64(2.0)])
    def test_generators_need_an_integer_user_count(self, k):
        for make in (generate_channels, generate_aloha):
            with pytest.raises(InvalidNetwork, match="count of users"):
                make(k, 0)
        with pytest.raises(InvalidNetwork, match="count of users"):
            aloha_feasibility_boundary(k)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "1", None])
    def test_generators_need_an_integer_seed(self, seed):
        # True once ran as seed 1; -1 and 1.5 failed inside numpy
        for make in (generate_channels, generate_aloha):
            with pytest.raises(InvalidNetwork, match="seed must be an integer >= 0"):
                make(2, seed)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidNetwork):
            InterferenceNetwork(
                alpha=(1.0, 1.0),
                beta=((0.0,),),
                sigma2=0.01,
                p_max=(1.0, 1.0),
                w=(1.0, 1.0),
                r_min=(0.0, 0.0),
            )

    def test_nonpositive_gain(self):
        with pytest.raises(InvalidNetwork):
            InterferenceNetwork(
                alpha=(0.0,),
                beta=((0.0,),),
                sigma2=0.01,
                p_max=(1.0,),
                w=(1.0,),
                r_min=(0.0,),
            )

    def test_aloha_self_interference_rejected(self):
        with pytest.raises(InvalidNetwork):
            AlohaNetwork(c=(1.0, 1.0), interferers=((0,), (0,)), r_min=(0.0, 0.0))

    @pytest.mark.parametrize(
        "interferers",
        [((1.7,), (0.2,)), ((True,), (0,)), ((1, 1), (0,)), ((2,), (0,)), ((-1,), (0,))],
        ids=["non-integral", "bool", "repeated", "out-of-range", "negative"],
    )
    def test_aloha_interferers_must_be_distinct_user_indices(self, interferers):
        # int() would read 1.7 as 1 and True as 1; a repeated index would
        # count one interferer twice in the floors but once in the objective
        with pytest.raises(InvalidNetwork, match="distinct user indices"):
            AlohaNetwork(c=(1.0, 1.0), interferers=interferers, r_min=(0.0, 0.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma2", True),
            ("sigma2", "0.01"),
            ("sigma2", None),
            ("alpha", ["1.0", "1.0"]),
            ("alpha", [True, True]),
            ("beta", [["0", "1"], ["1", "0"]]),
            ("p_max", [True, True]),
            ("r_min", ["0.5", "0.5"]),
            ("beta", [[0.0, 1.0], [1.0]]),  # ragged: numpy raised ValueError
        ],
    )
    def test_network_rejects_non_numbers(self, field, value):
        # a float conversion would read True as 1.0 and "1.0" as 1.0
        with pytest.raises(InvalidNetwork, match=field):
            replace(symmetric_net(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_circuit", "1"),
            ("p_circuit", True),
            ("p_circuit", ["1", "1"]),
            ("bandwidth", True),
            ("bandwidth", "1"),
            ("phi", [True, False]),
            ("phi", ["5", "5"]),
        ],
    )
    def test_energy_model_rejects_non_numbers(self, field, value):
        with pytest.raises(InvalidNetwork, match=field):
            replace(EnergyModel(phi=(5.0, 5.0), p_circuit=1.0), **{field: value})

    @pytest.mark.parametrize("field, value", [("c", ["2", "2"]), ("r_min", [True, False])])
    def test_aloha_rejects_non_numbers(self, field, value):
        net = AlohaNetwork(c=(2.0, 2.0), interferers=((1,), (0,)), r_min=(0.0, 0.0))
        with pytest.raises(InvalidNetwork, match=field):
            replace(net, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", [True, 1.0]), ("beta", [[0.0, True], [1.0, 0.0]]), ("w", (1, np.bool_(True)))],
    )
    def test_network_rejects_bools_among_numbers(self, field, value):
        # numpy reads [True, 1.0] as the floats [1.0, 1.0]
        with pytest.raises(InvalidNetwork, match=field):
            replace(symmetric_net(), **{field: value})

    def test_energy_model_rejects_bools_among_numbers(self):
        with pytest.raises(InvalidNetwork, match="phi"):
            EnergyModel(phi=[5.0, False], p_circuit=1.0)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: replace(symmetric_net(), alpha=(1.0, math.inf)), "alpha must be finite"),
            (lambda: replace(symmetric_net(), w=(1.0, -1.0)), "w must be >= 0.0"),
            (
                lambda: InterferenceNetwork(
                    alpha=[], beta=np.zeros((0, 0)), sigma2=0.01, p_max=[], w=[], r_min=[]
                ),
                "alpha must not be empty",
            ),
            (lambda: AlohaNetwork(c=[], interferers=(), r_min=[]), "c must not be empty"),
            (lambda: EnergyModel(phi=[], p_circuit=1.0), "phi must not be empty"),
            (
                lambda: AlohaNetwork(c=(1.0, 1.0), interferers=5, r_min=(0.0, 0.0)),
                "interferers must list 2 index sets",
            ),
            (
                lambda: AlohaNetwork(c=(1.0, 1.0), interferers=[1, 0], r_min=(0.0, 0.0)),
                "interferers must list 2 index sets",
            ),
        ],
        ids=[
            "infinite",
            "below-lo",
            "no-users",
            "aloha-no-users",
            "energy-no-users",
            "interferers-int",
            "interferers-flat",
        ],
    )
    def test_bad_value_names_its_field(self, make, message):
        # no users failed later in wsr_problem with "need at least one function",
        # and interferers that were no list of lists raised TypeError
        with pytest.raises(InvalidNetwork, match=message):
            make()

    def test_integers_past_the_float_range_rejected(self):
        # math.isfinite raises OverflowError on 10**400
        with pytest.raises(InvalidNetwork, match="sigma2 must be a positive number"):
            replace(symmetric_net(), sigma2=10**400)
        energy = EnergyModel(phi=(5.0, 5.0), p_circuit=1.0)
        for field in ("p_circuit", "bandwidth"):
            with pytest.raises(InvalidNetwork, match=f"{field} must be a positive number"):
                replace(energy, **{field: 10**400})

    def test_integers_and_numpy_numbers_accepted(self):
        net = InterferenceNetwork(
            alpha=[1, 2],
            beta=np.zeros((2, 2), dtype=np.int64),
            sigma2=np.float64(0.01),
            p_max=np.ones(2, dtype=np.uint8),
            w=(1, 1),
            r_min=(0, 0),
        )
        assert net.alpha.dtype == float and net.beta.dtype == float
        assert type(net.sigma2) is float
        energy = EnergyModel(phi=[5, 5], p_circuit=np.int64(1), bandwidth=2)
        assert energy.phi.dtype == float
        assert type(energy.p_circuit) is float and type(energy.bandwidth) is float
        assert EnergyModel(phi=[5, 5], p_circuit=[1, 2]).p_circuit.dtype == float

    def test_aloha_interferers_take_numpy_integers(self):
        sets = (np.array([2, 1]), (np.int64(0),), ())
        net = AlohaNetwork(c=(1.0, 1.0, 1.0), interferers=sets, r_min=(0.0, 0.0, 0.0))
        assert net.interferers == ((1, 2), (0,), ())
        assert all(type(j) is int for ids in net.interferers for j in ids)


class TestWsr:
    def test_symmetric_diagonal_value(self):
        prob = wsr_problem(symmetric_net())
        p = np.ones(2)
        expected = 2.0 * math.log2(1.0 + 1.0 / 1.01)
        assert prob.objective.eval(p, p) == pytest.approx(expected, abs=1e-12)

    def test_no_interference_full_power_optimum(self):
        net = InterferenceNetwork(
            alpha=(2.0, 0.5),
            beta=np.zeros((2, 2)),
            sigma2=0.01,
            p_max=(1.0, 1.0),
            w=(1.0, 1.0),
            r_min=(0.0, 0.0),
        )
        res = solve(wsr_problem(net), SolverConfig(eta=0.001))
        expected = math.log2(1.0 + 2.0 / 0.01) + math.log2(1.0 + 0.5 / 0.01)
        assert res.value == pytest.approx(expected, abs=0.001)
        assert np.all(res.incumbent >= 0.99)

    def test_representations_agree_on_diagonal(self):
        net = generate_channels(3, seed=21)
        mmp = wsr_problem(net, "mmp").objective
        dm = wsr_problem(net, "dm").objective
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rng.random(3)
            assert mmp.eval(p, p) == pytest.approx(dm.eval(p, p), abs=1e-12)

    def test_float_leaves_bit_equal_to_the_python_float_formula(self):
        # the objective, the floors and the kernel's rates all run the one
        # Python-float formula: the interference as the correctly rounded sum
        # of its products, then the noise, then the self-interference, and
        # the weighted rates added in index order; no numpy, so no BLAS
        # build, takes part
        net = generate_channels(4, seed=5)
        beta = np.array(net.beta)
        np.fill_diagonal(beta, [0.0, 0.3, 0.7, 0.2])
        weights = (0.5, 1.0, 2.0, 1.5)
        net = InterferenceNetwork(
            alpha=net.alpha,
            beta=beta,
            sigma2=net.sigma2,
            p_max=net.p_max,
            w=weights,
            r_min=(0.1, 0.2, 0.3, 0.1),
        )
        prob = wsr_problem(net)
        kernel = _Kernel(net, net.w)
        b, a, s2 = beta.tolist(), net.alpha.tolist(), net.sigma2

        def rate(k, x, y):
            d = math.fsum(b[k][j] * y[j] for j in range(4) if j != k)
            return math.log2(1.0 + a[k] * x[k] / (s2 + d + b[k][k] * x[k]))

        rng = np.random.default_rng(7)
        for _ in range(500):
            x, y = rng.random(4), rng.random(4)
            xl, yl = x.tolist(), y.tolist()
            total = 0.0
            for k, wk in enumerate(weights):
                total += wk * rate(k, xl, yl)
            assert prob.objective.eval(x, y) == prob.objective.eval(xl, yl) == total
            in_order = 0.0
            for term in kernel.terms(xl, kernel.noise(yl)):
                in_order += term
            assert in_order == total
            assert [kernel.rate(k)(x, y) for k in range(4)] == [rate(k, xl, yl) for k in range(4)]
            gaps = [float(net.r_min[k]) - rate(k, yl, xl) for k in range(4)]
            assert [c.g.eval(x, y) for c in prob.constraints] == gaps

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 12])
    def test_kernel_matches_the_numpy_model_formula(self, k):
        # the kernel's F and rates against net.beta @ p (perfbench's
        # workloads._wsr_rates), at self-interference and without it: equal
        # within a few ulps relative, or a few ulps of the log's argument
        # 1 + SINR, to which the summation order moves a small rate
        rng = np.random.default_rng(k)
        ulps = 8 * np.finfo(float).eps
        for seed in range(20):
            net = generate_channels(k, seed)
            beta = net.beta + np.diag(rng.random(k) * (seed % 2))
            net = replace(net, beta=beta, w=rng.random(k))
            kernel = _Kernel(net, net.w)
            objective = wsr_problem(net).objective
            for _ in range(20):
                p = rng.random(k) * 10.0 ** rng.uniform(-3, 1)
                rates = np.log2(1.0 + net.alpha * p / (net.sigma2 + net.beta @ p))
                got = [kernel.rate(i)(p, p) for i in range(k)]
                np.testing.assert_allclose(got, rates, rtol=ulps, atol=ulps)
                value = net.w @ rates
                assert objective.eval(p, p) == pytest.approx(value, rel=ulps, abs=ulps * net.w.sum())

    def test_modes(self):
        # no floors: the corner test, which has no constraint to evaluate
        assert wsr_problem(generate_channels(2, seed=0)).feasibility_mode == "mm-conclusive"
        net = generate_channels(2, seed=0)
        floored = InterferenceNetwork(
            alpha=net.alpha,
            beta=net.beta,
            sigma2=net.sigma2,
            p_max=net.p_max,
            w=net.w,
            r_min=(0.1, 0.1),
        )
        prob = wsr_problem(floored)
        # the floors share no monotone split; their exact test is an oracle
        assert prob.feasibility_mode == "custom-oracle"
        assert prob.feasibility_oracle is not None
        assert len(prob.constraints) == 2

    def test_unknown_representation(self):
        with pytest.raises(InvalidNetwork):
            wsr_problem(symmetric_net(), representation="sinr")


class TestBoundGap:
    def test_degenerate_box_zero_gap(self):
        net = symmetric_net()
        x = np.array([0.3, 0.8])
        assert bound_gap_mmp_vs_dm(net, make_box(x, x)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_closed_form(self):
        net = symmetric_net()
        box = make_box((0.0, 0.0), (1.0, 1.0))
        gap = bound_gap_mmp_vs_dm(net, box)
        assert gap == pytest.approx(2.0 * math.log2(2.01 / 1.01), abs=1e-9)
        assert gap == pytest.approx(dm_gap_closed_form(net, box), abs=1e-9)

    def test_degenerate_interfering_coordinates(self):
        # one-directional interference: only coordinate 1 interferes, and the
        # box is degenerate there, so every cross term cancels
        net = InterferenceNetwork(
            alpha=(1.0, 1.0),
            beta=((0.0, 1.0), (0.0, 0.0)),
            sigma2=0.01,
            p_max=(1.0, 1.0),
            w=(1.0, 1.0),
            r_min=(0.0, 0.0),
        )
        box = make_box((0.1, 0.4), (0.9, 0.4))
        assert bound_gap_mmp_vs_dm(net, box) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            net = generate_channels(int(rng.integers(2, 5)), seed=300 + trial)
            lo, hi = random_box(rng, np.zeros(net.K), net.p_max)
            gap = bound_gap_mmp_vs_dm(net, make_box(lo, hi))
            assert gap >= -1e-12
            assert gap == pytest.approx(dm_gap_closed_form(net, make_box(lo, hi)), abs=1e-9)


class TestGee:
    def test_zero_phi_reduces_to_sum_rate(self):
        net = generate_channels(2, seed=31)
        energy = EnergyModel(phi=np.zeros(2), p_circuit=1.0, bandwidth=1.0)
        gee = gee_problem(net, energy).objective
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.random(2)
            assert gee.eval(p, p) == pytest.approx(wsr_value(net, p), abs=1e-12)

    def test_single_user_matches_dense_grid(self):
        net = InterferenceNetwork(
            alpha=(1.0,),
            beta=((0.0,),),
            sigma2=0.01,
            p_max=(1.0,),
            w=(1.0,),
            r_min=(0.0,),
        )
        energy = EnergyModel(phi=(5.0,), p_circuit=1.0)
        res = solve(gee_problem(net, energy), SolverConfig(eta=1e-5))
        assert res.value == pytest.approx(gee_grid_max_1d(net, energy), abs=1e-4)

    def test_diagonal_at_full_power(self):
        net = generate_channels(2, seed=32)
        energy = EnergyModel(phi=np.full(2, 5.0), p_circuit=1.0)
        gee = gee_problem(net, energy).objective
        p = np.array(net.p_max)
        assert gee.eval(p, p) == pytest.approx(gee_value(net, energy, p), abs=1e-12)

    def test_positive_and_bounded_above(self):
        net = generate_channels(3, seed=33)
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=1.0)
        gee = gee_problem(net, energy).objective
        cap = float(np.sum(np.log2(1.0 + net.alpha * net.p_max / net.sigma2)))
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = 1e-6 + (1.0 - 1e-6) * rng.random(3)
            v = gee.eval(p, p)
            assert 0.0 < v <= cap / float(energy.p_circuit) + 1e-12

    def test_per_user_circuit_rejected(self):
        net = generate_channels(2, seed=34)
        with pytest.raises(InvalidNetwork):
            gee_problem(net, EnergyModel(phi=np.ones(2), p_circuit=np.ones(2)))


class TestWseeWmee:
    def test_single_user_all_metrics_coincide(self):
        net = InterferenceNetwork(
            alpha=(1.3,),
            beta=((0.0,),),
            sigma2=0.01,
            p_max=(1.0,),
            w=(1.0,),
            r_min=(0.0,),
        )
        scalar = EnergyModel(phi=(5.0,), p_circuit=1.0)
        vector = EnergyModel(phi=(5.0,), p_circuit=(1.0,))
        gee = gee_problem(net, scalar).objective
        wsee = wsee_problem(net, vector).objective
        wmee = wmee_problem(net, vector).objective
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.random(1)
            assert wsee.eval(p, p) == pytest.approx(gee.eval(p, p), abs=1e-12)
            assert wmee.eval(p, p) == pytest.approx(gee.eval(p, p), abs=1e-12)

    def test_zero_weight_drops_user(self):
        net = generate_channels(2, seed=41)
        net = InterferenceNetwork(
            alpha=net.alpha,
            beta=net.beta,
            sigma2=net.sigma2,
            p_max=net.p_max,
            w=(1.0, 0.0),
            r_min=net.r_min,
        )
        energy = EnergyModel(phi=np.full(2, 5.0), p_circuit=np.ones(2))
        wsee = wsee_problem(net, energy).objective
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.random(2)
            assert wsee.eval(p, p) == pytest.approx(wsee_value(net, energy, p), abs=1e-12)

    def test_min_below_sum_with_unit_weights(self):
        net = generate_channels(2, seed=42)
        energy = EnergyModel(phi=np.full(2, 5.0), p_circuit=np.ones(2))
        wsee = wsee_problem(net, energy).objective
        wmee = wmee_problem(net, energy).objective
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = 0.01 + 0.99 * rng.random(2)
            assert wmee.eval(p, p) <= wsee.eval(p, p) + 1e-12

    def test_diagonals_match_hand_coded(self):
        net = generate_channels(3, seed=43)
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=np.ones(3))
        wsee = wsee_problem(net, energy).objective
        wmee = wmee_problem(net, energy).objective
        rng = np.random.default_rng(6)
        for _ in range(300):
            p = rng.random(3)
            assert wsee.eval(p, p) == pytest.approx(wsee_value(net, energy, p), abs=1e-12)
            assert wmee.eval(p, p) == pytest.approx(wmee_value(net, energy, p), abs=1e-12)

    def test_scalar_circuit_rejected(self):
        net = generate_channels(2, seed=44)
        with pytest.raises(InvalidNetwork):
            wsee_problem(net, EnergyModel(phi=np.ones(2), p_circuit=1.0))


class TestDinkelbach:
    def test_agrees_with_direct_solve(self):
        net = InterferenceNetwork(
            alpha=(1.0,),
            beta=((0.0,),),
            sigma2=0.01,
            p_max=(1.0,),
            w=(1.0,),
            r_min=(0.0,),
        )
        energy = EnergyModel(phi=(5.0,), p_circuit=1.0)
        direct = solve(gee_problem(net, energy), SolverConfig(eta=0.01))
        baseline = dinkelbach_gee(net, energy, SolverConfig(eta=0.01))
        assert abs(direct.value - baseline.value) <= 0.02
        assert baseline.value == pytest.approx(gee_grid_max_1d(net, energy, n=10**5), abs=0.02)

    def test_constant_denominator_single_outer_step(self):
        net = generate_channels(2, seed=51)
        energy = EnergyModel(phi=np.zeros(2), p_circuit=1.0)
        outer_solves = []
        import mmopt.problems as problems_module

        original = problems_module.solve

        def counting_solve(prob, config):
            outer_solves.append(prob)
            return original(prob, config)

        problems_module.solve = counting_solve
        try:
            res = dinkelbach_gee(net, energy, SolverConfig(eta=0.01))
        finally:
            problems_module.solve = original
        # lam = 0 solve plus the confirming solve at the achieved ratio
        assert len(outer_solves) == 2
        # the box counts add up over both solves, one root each
        stats = res.stats
        assert stats.boxes_created == 2 + 2 * res.iterations - stats.boxes_reduced_empty
        assert stats.peak_region_count == res.peak_region_count > 0
        direct = solve(gee_problem(net, energy), SolverConfig(eta=0.01))
        assert abs(res.value - direct.value) <= 0.02

    def test_unfinished_auxiliary_solve_raises(self):
        net, energy = generate_channels(2, 0), EnergyModel(phi=[5, 5], p_circuit=1.0)
        with pytest.raises(InnerSolveFailed, match="status iteration-limit"):
            dinkelbach_gee(net, energy, SolverConfig(max_iterations=0))

    def test_phi_of_wrong_size_rejected(self):
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=1.0)
        with pytest.raises(InvalidNetwork, match="phi"):
            dinkelbach_gee(generate_channels(2, 0), energy, SolverConfig(eta=0.1))

    def test_zero_lambda_auxiliary_is_sum_rate(self):
        net = generate_channels(2, seed=52)
        energy = EnergyModel(phi=np.full(2, 5.0), p_circuit=1.0)
        aux = _dinkelbach_aux_objective(net, energy, 0.0)
        dm = wsr_problem(net, "dm").objective
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.random(2), rng.random(2)
            assert aux.eval(x, y) == pytest.approx(dm.eval(x, y), abs=1e-12)


def floored_channels(k, seed, r_min):
    return replace(generate_channels(k, seed), r_min=np.full(k, r_min))


# family -> (problem constructor, energy model for K = 2, oracle value)
ENERGY_FAMILIES = {
    "gee": (gee_problem, EnergyModel(phi=np.full(2, 5.0), p_circuit=1.0), gee_value),
    "wsee": (wsee_problem, EnergyModel(phi=np.full(2, 5.0), p_circuit=np.ones(2)), wsee_value),
    "wmee": (wmee_problem, EnergyModel(phi=np.full(2, 5.0), p_circuit=np.ones(2)), wmee_value),
}


class TestEnergyFloors:
    """Every energy-efficiency family, and the Dinkelbach baseline, solve
    under the network's rate floors.  Floors of 1 bit on these networks rule
    out each family's unconstrained optimum."""

    @pytest.mark.parametrize("seed", [1, 5])
    @pytest.mark.parametrize("family", sorted(ENERGY_FAMILIES))
    def test_solve_meets_floors_and_reaches_grid(self, family, seed):
        build, energy, value = ENERGY_FAMILIES[family]
        net = floored_channels(2, seed, 1.0)
        problem = build(net, energy)
        assert len(problem.constraints) == 2
        assert problem.feasibility_mode == "custom-oracle"
        res = solve(problem, SolverConfig(eta=0.01))
        assert res.status == "eta-optimal"
        assert np.all(wsr_rates(net, res.incumbent) >= net.r_min - 1e-12)
        assert value(net, energy, res.incumbent) == pytest.approx(res.value, abs=1e-12)
        assert res.value >= energy_grid_max(net, energy, family) - 0.01

    def test_dinkelbach_meets_floors_and_agrees_with_direct_solve(self):
        _, energy, _ = ENERGY_FAMILIES["gee"]
        net = floored_channels(2, 5, 1.0)
        res = dinkelbach_gee(net, energy, SolverConfig(eta=0.01))
        assert np.all(wsr_rates(net, res.incumbent) >= net.r_min - 1e-12)
        assert gee_value(net, energy, res.incumbent) == pytest.approx(res.value, abs=1e-12)
        direct = solve(gee_problem(net, energy), SolverConfig(eta=0.01))
        assert abs(res.value - direct.value) <= 0.02

    def test_unmeetable_floors(self):
        net = floored_channels(2, 0, 0.5)
        for family, (build, energy, _) in ENERGY_FAMILIES.items():
            assert energy_grid_max(net, energy, family) == -math.inf
            res = solve(build(net, energy), SolverConfig(eta=0.01))
            assert (res.status, res.incumbent) == ("infeasible", None)
        # the auxiliary problems share GEE's box and floors, so the first one
        # is infeasible too; that once raised InnerSolveFailed
        res = dinkelbach_gee(net, ENERGY_FAMILIES["gee"][1], SolverConfig(eta=0.01))
        assert (res.status, res.incumbent, res.value) == ("infeasible", None, -math.inf)
        assert (res.iterations, astuple(res.stats)) == (0, (1, 1, 0, 0, 0))  # the root, pruned


class TestPowerReducer:
    """The reducer that the floored ``mmp`` sum-rate problem carries:
    closed-form faces for the rate floors and the sum rate, two verified
    secant steps along a convex line for the objective's upper faces.
    It never removes a feasible point above gamma (checked by the model
    formulas on sampled points and at the optimistic corner pair of each
    slab it cuts off), and its lower corner is at least ``reduce_box``'s, up
    to the margin by which it rounds each face outward."""

    MARGIN = 1e-9  # feasibility._LEAST_POINT_MARGIN

    @staticmethod
    def network(k, seed, r_min, w=None, beta=None):
        base = generate_channels(k, seed)
        return replace(
            base,
            r_min=np.asarray(r_min, dtype=float),
            w=base.w if w is None else np.asarray(w, dtype=float),
            beta=base.beta if beta is None else np.asarray(beta, dtype=float),
        )

    @staticmethod
    def assert_sound(net, box, gamma, reduced, rng, samples=300):
        """No sampled point of ``box`` outside ``reduced`` (every one, when
        ``reduced`` is None) meets every floor with a value above gamma."""
        lo, hi = box.r, box.s
        points = lo[:, None] + (hi - lo)[:, None] * rng.random((net.K, samples))
        corners = np.array(np.meshgrid(*np.stack([lo, hi], axis=1), indexing="ij"))
        points = np.concatenate([points, corners.reshape(net.K, -1)], axis=1)
        if reduced is not None:
            # points just below each lower face and just above each upper face
            near = []
            for i in range(net.K):
                for face, step in ((reduced.r[i], -1.0), (reduced.s[i], 1.0)):
                    p = reduced.r[:, None] + (reduced.s - reduced.r)[:, None] * rng.random(
                        (net.K, 20)
                    )
                    p[i] = face + step * (1e-7 * abs(face) + 1e-12)
                    near.append(p)
            near = np.concatenate(near, axis=1)
            inside_box = np.all((near >= lo[:, None]) & (near <= hi[:, None]), axis=0)
            points = np.concatenate([points, near[:, inside_box]], axis=1)
        rates = wsr_rates(net, points)
        value = net.w @ rates
        better = np.all(rates >= net.r_min[:, None] + 1e-9, axis=0) & (value > gamma + 1e-9)
        if reduced is None:
            assert not better.any()
            return
        inside = np.all(
            (points >= reduced.r[:, None] - 1e-12) & (points <= reduced.s[:, None] + 1e-12),
            axis=0,
        )
        assert not (better & ~inside).any()

    @staticmethod
    def assert_cuts_certified(net, box, gamma, reduced, step=1e-7):
        """Each slab that ``reduced`` cuts off ``box`` fails a floor, or has a
        value not above gamma, at its optimistic corner pair by the model
        formulas: own powers at their largest, interference at its least,
        and the cut coordinate a relative ``step`` past the face.  A sampled
        point rarely lands where a grow-phase face matters; this pins it."""
        if reduced is None or reduced is box:
            return
        own = np.diag(net.beta)

        def hopeful(x, y):
            # every floor met and a value above gamma with own powers x and
            # interference y
            rates = np.log2(1.0 + net.alpha * x / (net.sigma2 + own * x + net.beta @ y - own * y))
            return np.all(rates >= net.r_min + 1e-9) and net.w @ rates > gamma + 1e-9

        for i in range(net.K):
            if reduced.r[i] > box.r[i]:  # the slab x_i < r_i, interference from box.r
                x = box.s.copy()
                x[i] = max(box.r[i], reduced.r[i] * (1.0 - step) - 1e-12)
                assert not hopeful(x, box.r)
            if reduced.s[i] < box.s[i]:  # the slab y_i > s_i, interference from reduced.r
                y = reduced.r.copy()
                y[i] = min(box.s[i], reduced.s[i] * (1.0 + step) + 1e-12)
                assert not hopeful(box.s, y)

    @given(
        st.integers(1, 4),
        st.integers(0, 10_000),
        st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), min_size=4, max_size=4),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=4, max_size=4),
        st.integers(0, 2**32 - 1),
        st.one_of(st.just(-math.inf), st.floats(-0.2, 1.1)),
        st.integers(1, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_keeps_every_feasible_point_above_gamma(
        self, k, seed, r_min, w, box_seed, share, steps
    ):
        net = self.network(k, seed, r_min[:k], w=w[:k])
        problem = wsr_problem(net)
        if problem.reducer is None:  # no floor
            assert not net.r_min.any()
            return
        rng = np.random.default_rng(box_seed)
        lo, hi = random_box(rng, np.zeros(k), net.p_max)
        if rng.random() < 0.2:  # a zero-width edge
            i = rng.integers(k)
            hi[i] = lo[i]
        box = make_box(lo, hi)
        # gamma as a share of the way from the value at a random point of the
        # box, as an incumbent might have, to the box's bound: from slack to
        # no feasible point
        anchor = net.w @ wsr_rates(net, lo + rng.random(k) * (hi - lo))
        bound = problem.objective.eval(box.s, box.r)
        gamma = anchor + share * (bound - anchor) if share > -math.inf else share
        reduced = problem.reducer(box, gamma, steps)
        if reduced is not None and reduced is not box:
            assert not reduced.r.flags.writeable and not reduced.s.flags.writeable
            assert np.all(box.r <= reduced.r) and np.all(reduced.r <= reduced.s)
            assert np.all(reduced.s <= box.s)
            for i in np.flatnonzero(box.r == box.s):
                assert reduced.r[i] == reduced.s[i] == box.r[i]
        self.assert_sound(net, box, gamma, reduced, rng)
        self.assert_cuts_certified(net, box, gamma, reduced)
        reference = reduce_box(box, problem.objective, problem.constraints, gamma, steps)
        if reduced is not None and reference is not None:
            # the shrink phase's exact faces lie above the bisection's bracket tops
            assert np.all(reduced.r >= reference.r * (1.0 - 2 * self.MARGIN) - 1e-15)

    def test_floor_faces_without_gamma(self):
        # gamma = -inf cuts by the floors alone: the lower corner rises to
        # (m r + c) (1 - margin) and every upper face stays where the floors allow
        net = self.network(3, 8, [0.3, 0.3, 0.3])
        problem = wsr_problem(net)
        box = make_box(np.zeros(3), np.ones(3))
        reduced = problem.reducer(box, -math.inf, 5)
        gain = np.exp2(net.r_min) - 1.0
        face = gain * net.sigma2 / net.alpha  # m r + c at r = 0
        np.testing.assert_allclose(reduced.r, face * (1.0 - self.MARGIN), rtol=1e-12)
        assert np.all(reduced.s <= 1.0)
        self.assert_sound(net, box, -math.inf, reduced, np.random.default_rng(0))

    def test_objective_cuts_upper_faces_only_where_certified(self):
        # on this box the floors cap no upper face, so each upper face that
        # moves is set by the objective's line search
        net = self.network(3, 8, [0.05, 0.05, 0.05])
        problem = wsr_problem(net)
        box = make_box(np.zeros(3), np.ones(3))
        gamma = 0.6 * problem.objective.eval(box.s, box.r)
        assert np.all(problem.reducer(box, -math.inf, 5).s == 1.0)
        reduced = problem.reducer(box, gamma, 5)
        assert np.all(reduced.s < 1.0)
        self.assert_cuts_certified(net, box, gamma, reduced)
        self.assert_sound(net, box, gamma, reduced, np.random.default_rng(4))

    @staticmethod
    def model_value(net, x, y):
        """``F(x, y)`` by the model formula of ``tests/oracles.py``, for a
        network without self-interference: user k's rate at ``y`` with its
        own entry set to ``x_k``."""
        assert not np.diag(net.beta).any()
        own = np.eye(net.K, dtype=bool)
        return sum(net.w[k] * wsr_rates(net, np.where(own[k], x, y))[k] for k in range(net.K))

    def test_objective_upper_faces_lie_between_the_true_face_and_the_line_end(self):
        # the face the objective sets on line i (own powers at s, the other
        # interference at the new lower corner) is no lower than the root of
        # the model formula, found by 60 halvings, and no higher than the end
        net = self.network(3, 8, [0.05, 0.05, 0.05])
        problem = wsr_problem(net)
        box = make_box(np.zeros(3), np.ones(3))
        gamma = 0.6 * problem.objective.eval(box.s, box.r)
        reduced = problem.reducer(box, gamma, 5)
        assert np.all(reduced.s < box.s)
        for i in range(net.K):
            y = reduced.r.copy()
            above, below = reduced.r[i], box.s[i]
            y[i] = below
            assert self.model_value(net, box.s, y) <= gamma
            for _ in range(60):
                y[i] = 0.5 * (above + below)
                if self.model_value(net, box.s, y) > gamma:
                    above = y[i]
                else:
                    below = y[i]
            assert above <= reduced.s[i] <= box.s[i]

    @given(
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=4, max_size=4),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_objective_is_convex_along_each_upper_face_line(self, k, seed, w, zero_share):
        # the secant cut rests on this: F(s, lo + t e_i) has nonnegative
        # second differences in t, with zero weights, zero cross gains and
        # self-interference among the draws
        rng = np.random.default_rng(seed)
        beta = rng.exponential(size=(k, k)) * (rng.random((k, k)) >= zero_share)
        beta[np.diag_indices(k)] *= rng.random() < 0.5
        net = InterferenceNetwork(
            alpha=rng.exponential(size=k), beta=beta, sigma2=10.0 ** rng.uniform(-3, 0),
            p_max=np.ones(k), w=w[:k], r_min=np.zeros(k),
        )
        value = _Kernel(net, net.w).value
        lo, s = random_box(rng, np.zeros(k), net.p_max)
        t = np.linspace(0.0, 1.0, 17)
        for i in range(k):
            f = []
            for ti in t:
                y = lo.copy()
                y[i] = lo[i] + ti * (s[i] - lo[i])
                f.append(value(s, y))
            f = np.array(f)
            assert np.all(np.diff(f) <= 1e-12 * (1.0 + abs(f[0])))  # decreasing
            second = f[:-2] - 2.0 * f[1:-1] + f[2:]
            assert np.all(second >= -1e-12 * (1.0 + abs(f[0])))

    def test_steps_do_not_reach_it(self):
        # the reducer runs no bisection, so the solver's halvings per line
        # search change none of its boxes
        rng = np.random.default_rng(11)
        for seed in range(12):
            net = self.network(3, seed, rng.choice([0.0, 0.05, 0.3], 3) + [0.05, 0.0, 0.0])
            problem = wsr_problem(net)
            for _ in range(25):
                box = make_box(*random_box(rng, np.zeros(3), net.p_max))
                bound = problem.objective.eval(box.s, box.r)
                gamma = rng.choice([-math.inf, rng.uniform(0.3, 1.0) * bound])
                one, ten = problem.reducer(box, gamma, 1), problem.reducer(box, gamma, 10)
                if one is None or one is box:
                    assert ten is one
                else:
                    assert one.r.tobytes() == ten.r.tobytes()
                    assert one.s.tobytes() == ten.s.tobytes()

    def test_zero_weight_user_gets_no_objective_face(self):
        net = self.network(3, 8, [0.3, 0.3, 0.3], w=[0.0, 1.0, 1.0])
        problem = wsr_problem(net)
        box = make_box(np.zeros(3), np.ones(3))
        gamma = 0.6 * problem.objective.eval(box.s, box.r)
        floors_only = problem.reducer(box, -math.inf, 5)
        reduced = problem.reducer(box, gamma, 5)
        # user 0's lower face is its floor's: its own power moves no weighted
        # term; the others' rise above their floors' faces
        assert reduced.r[0] == floors_only.r[0]
        assert np.all(reduced.r[1:] > floors_only.r[1:])
        self.assert_sound(net, box, gamma, reduced, np.random.default_rng(1))

    def test_zero_cross_gain_caps_nothing(self):
        # beta[1, 0] = 0: the one floor, user 1's, reads no power of user 0
        # (m_10 = 0), so only y_2 is capped, at (s_1 - c_1) / m_12
        beta = generate_channels(3, 8).beta.copy()
        beta[1, 0] = 0.0
        net = self.network(3, 8, [0.0, 0.3, 0.0], beta=beta)
        problem = wsr_problem(net)
        gain = 2.0**0.3 - 1.0
        c1, m12 = gain * net.sigma2 / net.alpha[1], gain * beta[1, 2] / net.alpha[1]
        box = make_box(np.zeros(3), (1.0, c1 + 0.5 * m12, 1.0))
        reduced = problem.reducer(box, -math.inf, 5)
        assert reduced.s[0] == 1.0
        assert reduced.s[2] == pytest.approx(0.5, rel=1e-8)
        self.assert_sound(net, box, -math.inf, reduced, np.random.default_rng(2))

    def test_unmeetable_floor_empties_every_box(self):
        # self-interference 0.5 with alpha 1 caps user 0's SINR at 2, below
        # the 2^2 - 1 = 3 that a floor of 2 bits needs
        beta = np.array([[0.5, 0.1], [0.1, 0.0]])
        net = InterferenceNetwork(
            alpha=(1.0, 1.0), beta=beta, sigma2=0.01, p_max=(1.0, 1.0), w=(1.0, 1.0),
            r_min=(2.0, 0.1),
        )
        problem = wsr_problem(net)
        assert problem.reducer(problem.initial_box, -math.inf, 5) is None
        assert solve(problem, SolverConfig(eta=0.01, reduction_enabled=True)).status == "infeasible"

    def test_only_the_floored_mmp_sum_rate_carries_it(self):
        net = generate_channels(3, 8)
        energy = EnergyModel(phi=np.full(3, 5.0), p_circuit=np.ones(3))
        assert wsr_problem(net).reducer is None
        assert wmee_problem(net, energy).reducer is None
        floored = floored_channels(3, 8, 0.3)
        assert wsr_problem(floored).reducer is not None
        assert wsr_problem(floored, "dm").reducer is None
        assert wmee_problem(floored, energy).reducer is None

    def test_runs_only_with_reduction_enabled(self):
        problem = wsr_problem(floored_channels(3, 8, 0.3))
        calls = []

        def spy(box, gamma, steps):
            calls.append(steps)
            return problem.reducer(box, gamma, steps)

        config = SolverConfig(eta=0.1, selection_rule="oldest-first", max_iterations=20_000)
        off = solve(replace(problem, reducer=spy), config)
        assert off.iterations > 0 and calls == []
        on = solve(replace(problem, reducer=spy), replace(config, reduction_enabled=True))
        assert on.status == off.status == "eta-optimal"
        assert abs(on.value - off.value) <= 0.1
        assert len(calls) == 2 * on.iterations and set(calls) == {10}


def result_digest(res):
    """SHA-256 over everything a result reports except its wall time."""
    incumbent = None if res.incumbent is None else res.incumbent.tobytes().hex()
    fields = (
        res.status,
        res.iterations,
        res.peak_region_count,
        repr(res.value),
        incumbent,
        astuple(res.stats),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _golden_energy_run(name):
    net = generate_channels(3, 5)
    scalar = EnergyModel(phi=np.full(3, 5.0), p_circuit=1.0)
    vector = EnergyModel(phi=np.full(3, 5.0), p_circuit=np.ones(3))
    if name == "gee":
        return solve(gee_problem(net, scalar), SolverConfig(eta=0.01))
    if name == "wsee":
        return solve(wsee_problem(net, vector), SolverConfig(eta=0.01))
    if name == "wmee-oldest-reduce":
        config = SolverConfig(
            eta=0.01,
            selection_rule="oldest-first",
            reduction_enabled=True,
            reduction_bisection_steps=5,
        )
        return solve(wmee_problem(net, vector), config)
    net2 = generate_channels(2, 5)
    energy2 = EnergyModel(phi=np.full(2, 5.0), p_circuit=1.0)
    return dinkelbach_gee(net2, energy2, SolverConfig(eta=0.01))


class TestGoldenEnergySolves:
    """Full results (stats included) of fixed energy-efficiency solves,
    recorded before every power-control family built its box and objective
    through one helper.  The Dinkelbach digest was re-recorded when its
    stats began to add up the auxiliary solves (6 solves, 4,934 boxes
    created, peak 93); every other field kept its value."""

    DIGESTS = {
        "gee": "1ad9cc92b70ec3128887440f7ffb1eddd2950b801a8824e7f932e8c05a74b318",
        "wsee": "1ded2d011442639bef2636d0694b1ede0832ec5f409f7bdaeb045dbd6d55a62b",
        "wmee-oldest-reduce": "50a755f043345bd1774c35b320754ee9c50be380d5c7a128997e4eb09e7b08f9",
        "dinkelbach": "04c66c87c3d2196140e17d5c655f067c53449bbe5263985c673279769fd5422c",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_result_digest(self, name):
        assert result_digest(_golden_energy_run(name)) == self.DIGESTS[name]


class TestAloha:
    def test_symmetric_two_user_optimum(self):
        net = AlohaNetwork(c=(1.0, 1.0), interferers=((1,), (0,)), r_min=(0.0, 0.0))
        res = solve(aloha_problem(net), SolverConfig(eta=1e-3, max_iterations=10**6))
        assert res.status == "eta-optimal"
        assert np.max(np.abs(res.incumbent - 0.5)) <= 1e-2
        assert res.value == pytest.approx(2.0 * math.log(0.25), abs=1e-3)

    def test_boundary_floor_configuration(self):
        # floors at exactly the symmetric feasibility boundary
        k = 3
        c = np.array([1.0, 0.8, 1.3])
        rho = aloha_feasibility_boundary(k)
        net = AlohaNetwork(
            c=c,
            interferers=tuple(tuple(j for j in range(k) if j != i) for i in range(k)),
            r_min=c * rho,
        )
        theta = np.full(k, 1.0 / k)
        rates = c * theta * (1.0 - 1.0 / k) ** (k - 1)
        np.testing.assert_allclose(rates, net.r_min, rtol=1e-12)

    def test_feasibility_boundary_values(self):
        assert aloha_feasibility_boundary(2) == pytest.approx(0.25)
        assert aloha_feasibility_boundary(3) == pytest.approx(4.0 / 27.0)

    def test_diagonal_matches_hand_coded_utility(self):
        net = generate_aloha(3, seed=61)
        objective = aloha_problem(net).objective
        rng = np.random.default_rng(8)
        for _ in range(300):
            theta = 0.05 + 0.9 * rng.random(3)
            assert objective.eval(theta, theta) == pytest.approx(
                aloha_utility(net, theta), abs=1e-12
            )

    def test_mode_and_constraints(self):
        net = generate_aloha(3, seed=62)
        prob = aloha_problem(net)
        assert prob.feasibility_mode == "custom-oracle"
        assert len(prob.constraints) == int(np.sum(net.r_min > 0))


def asymmetric_aloha():
    """Four users with partial interferer sets; user 3 interferes with no one
    (m = 0), user 2 with three others."""
    return AlohaNetwork(
        c=(0.9, 1.4, 0.6, 1.1),
        interferers=((1, 2), (2,), (), (0, 1, 2)),
        r_min=(0.05, 0.1, 0.1, 0.05),
    )


class TestAlohaSeparableBound:
    """The objective is a sum of exact unimodal terms, one per user."""

    @pytest.mark.parametrize("net", [asymmetric_aloha(), generate_aloha(3, seed=63)])
    def test_mm_and_diagonal(self, net):
        prob = aloha_problem(net)
        report = check_mm_property(prob.objective, prob.initial_box, samples=2000, rng_seed=3)
        assert report.violations == 0
        rng = np.random.default_rng(9)
        for _ in range(200):
            theta = rng.random(net.K)
            assert prob.objective.eval(theta, theta) == pytest.approx(
                aloha_utility(net, theta), abs=1e-12
            )

    def test_bound_is_the_box_maximum(self):
        net = asymmetric_aloha()
        objective = aloha_problem(net).objective
        peaks = np.array([1 / 2, 1 / 3, 1 / 4, 1.0])  # 1 / (1 + m_j)
        rng = np.random.default_rng(11)
        for _ in range(20):
            r, s = random_box(rng, np.zeros(4), np.ones(4), min_width=0.01)
            u = objective.eval(s, r)
            points = r + (s - r) * rng.random((1000, 4))
            assert u >= max(aloha_utility(net, p) for p in points) - 1e-12
            assert u == pytest.approx(aloha_utility(net, np.clip(peaks, r, s)), abs=1e-12)

    def test_endpoints_give_minus_inf(self):
        objective = aloha_problem(asymmetric_aloha()).objective
        inner = np.full(4, 0.3)
        for i in range(4):
            for edge in (0.0, 1.0):
                x = inner.copy()
                x[i] = edge
                v = objective.eval(x, x)
                assert not math.isnan(v)
                # the m = 0 user keeps a finite utility at probability one
                assert (v == -math.inf) == (edge == 0.0 or i != 3)
        assert objective.eval(np.zeros(4), np.ones(4)) == -math.inf

    def test_midpoint_oracle(self):
        net = asymmetric_aloha()
        prob = aloha_problem(net)
        rng = np.random.default_rng(12)
        offered = declined = 0
        for _ in range(300):
            r, s = random_box(rng, prob.initial_box.r, prob.initial_box.s)
            box = make_box(r, s)
            verdict = prob.feasibility_oracle(box)
            one_sided = mm_sufficient_test(box, prob.constraints)
            if one_sided.kind is not Feasibility.UNKNOWN:
                assert verdict is one_sided  # every decided verdict is kept
                continue
            mid = 0.5 * (r + s)
            if verdict.kind is Feasibility.UNKNOWN:
                declined += 1
                assert any(c.g.eval(mid, mid) > 0.0 for c in prob.constraints)
                assert np.any(aloha_rates(net, mid) < net.r_min)
                continue
            offered += 1
            assert verdict.kind is Feasibility.FEASIBLE_WITH_WITNESS
            x = verdict.witness
            np.testing.assert_array_equal(x, mid)
            assert box.contains(x)
            assert all(c.g.eval(x, x) <= 0.0 for c in prob.constraints)
            assert np.all(aloha_rates(net, x) >= net.r_min - 1e-12)
        assert offered > 0 and declined > 0

    def test_k4_solves_reach_the_grid_optimum(self):
        eta = 0.01
        for seed in (0, 7, 10):
            net = generate_aloha(4, seed)
            feasible, grid_value = aloha_grid(net, n=41)
            assert feasible
            res = solve(aloha_problem(net), SolverConfig(eta=eta, max_iterations=20_000))
            assert res.status == "eta-optimal"
            assert res.value >= grid_value - eta
            assert np.all(aloha_rates(net, res.incumbent) >= net.r_min - 1e-9)


class TestGenerators:
    def test_channels_deterministic(self):
        a = generate_channels(4, seed=7)
        b = generate_channels(4, seed=7)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
        c = generate_channels(4, seed=8)
        assert not np.array_equal(a.alpha, c.alpha)

    def test_channels_defaults(self):
        net = generate_channels(3, seed=1)
        assert np.all(np.diag(net.beta) == 0.0)
        assert net.sigma2 == 0.01
        assert np.all(net.p_max == 1.0)
        assert np.all(net.w == 1.0)
        assert np.all(net.r_min == 0.0)

    def test_gain_mean_is_unit(self):
        # squared magnitudes of unit-variance complex normals average to one
        draws = np.concatenate([generate_channels(100, seed=s).alpha for s in range(100)])
        assert abs(draws.mean() - 1.0) <= 0.05

    def test_aloha_deterministic_and_near_boundary(self):
        a = generate_aloha(3, seed=7)
        b = generate_aloha(3, seed=7)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.r_min, b.r_min)
        ratios = np.concatenate(
            [generate_aloha(3, seed=s).r_min / generate_aloha(3, seed=s).c for s in range(200)]
        )
        assert abs(ratios.mean() - aloha_feasibility_boundary(3)) <= 0.01


def test_all_constructor_objectives_pass_mm_check():
    net = generate_channels(3, seed=71)
    floored = InterferenceNetwork(
        alpha=net.alpha,
        beta=net.beta,
        sigma2=net.sigma2,
        p_max=net.p_max,
        w=net.w,
        r_min=(0.1, 0.1, 0.1),
    )
    energy_scalar = EnergyModel(phi=np.full(3, 5.0), p_circuit=1.0)
    energy_vec = EnergyModel(phi=np.full(3, 5.0), p_circuit=np.ones(3))
    aloha = generate_aloha(3, seed=72)
    cases = [
        (wsr_problem(net, "mmp"), "wsr-mmp"),
        (wsr_problem(net, "dm"), "wsr-dm"),
        (wsr_problem(floored), "wsr-floored"),
        (gee_problem(net, energy_scalar), "gee"),
        (wsee_problem(net, energy_vec), "wsee"),
        (wmee_problem(net, energy_vec), "wmee"),
        (aloha_problem(aloha), "aloha"),
    ]
    for prob, label in cases:
        report = check_mm_property(prob.objective, prob.initial_box, samples=1000, rng_seed=1)
        assert report.violations == 0, label
        for i, c in enumerate(prob.constraints):
            report = check_mm_property(c.g, prob.initial_box, samples=500, rng_seed=2)
            assert report.violations == 0, f"{label} constraint {i}"
