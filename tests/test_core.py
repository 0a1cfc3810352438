import math
from dataclasses import replace

import numpy as np
import pytest

from mmopt.core import (
    MMConstraint,
    MMFunction,
    ProblemInstance,
    SolverConfig,
    SolverResult,
    check_mm_property,
    make_box,
)
from mmopt.errors import (
    CornerOrderViolation,
    DimensionMismatch,
    EvaluationError,
    MMOptError,
    NonFiniteEntry,
)
from mmopt.feasibility import Feasibility, FeasibilityVerdict
from mmopt.problems import EnergyModel, generate_aloha, generate_channels, wsr_problem


def test_solver_config_takes_numpy_integers_and_zero_limits():
    config = SolverConfig(reduction_bisection_steps=np.int64(3), max_iterations=np.int32(0))
    assert config.reduction_bisection_steps == 3
    SolverConfig(max_iterations=0, max_wall_time=0.0)
    # numpy numbers pass where numbers are asked for
    SolverConfig(eta=np.float64(0.1), epsilon_feasibility=np.float32(0), max_wall_time=np.int64(5))


@pytest.mark.parametrize("value", ["off", 1, 0, None])
def test_solver_config_reduction_enabled_must_be_bool(value):
    with pytest.raises(MMOptError, match="reduction_enabled"):
        SolverConfig(reduction_enabled=value)


def test_solver_config_takes_numpy_bools():
    assert SolverConfig(reduction_enabled=np.bool_(True)).reduction_enabled


def test_make_box_basic():
    box = make_box((0.0, 0.0), (1.0, 1.0))
    assert box.dim == 2
    assert max((box.s - box.r).tolist()) == 1.0


def test_make_box_degenerate():
    box = make_box((0.0,), (0.0,))
    assert max((box.s - box.r).tolist()) == 0.0


def test_make_box_order_violation():
    with pytest.raises(CornerOrderViolation):
        make_box((1.0, 0.0), (0.0, 1.0))


def test_make_box_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_box((0.0,), (1.0, 2.0))


@pytest.mark.parametrize(
    "r, s",
    [(["0"], ["1"]), ([False], [True]), ([0.0, True], [1.0, 1.0]), ([[0.0, 1.0], [0.0]], [1.0])],
    ids=["strings", "bools", "bool-among-numbers", "ragged"],
)
def test_make_box_takes_only_numbers(r, s):
    # a float conversion read "0" and False as 0.0; numpy raised ValueError on a ragged list
    with pytest.raises(MMOptError, match="r must hold numbers"):
        make_box(r, s)


def test_make_box_nonfinite():
    with pytest.raises(NonFiniteEntry):
        make_box((0.0,), (np.inf,))
    with pytest.raises(NonFiniteEntry):
        make_box((np.nan,), (1.0,))


def test_box_corners_are_readonly():
    box = make_box((0.0,), (1.0,))
    with pytest.raises(ValueError):
        box.r[0] = 5.0


def test_box_contains():
    box = make_box((0.0, 0.0), (1.0, 2.0))
    assert box.contains((0.5, 1.0))
    assert not box.contains((1.5, 1.0))
    assert box.contains((1.0 + 1e-12, 1.0), tol=1e-9)


@pytest.mark.parametrize(
    "point", [[0.5], [0.5, 1.0, 1.0], [[0.5, 1.0]], 0.5], ids=["short", "long", "row", "scalar"]
)
def test_box_contains_rejects_wrong_shape(point):
    # a point of another shape would broadcast against the corners
    with pytest.raises(DimensionMismatch):
        make_box((0.0, 0.0), (1.0, 2.0)).contains(point)


@pytest.mark.parametrize(
    "point",
    [["0.5", "1.0"], [True, False], [0.5, True], [[0.5, 1.0], [0.5]]],
    ids=["strings", "bools", "bool-among-numbers", "ragged"],
)
def test_box_contains_takes_only_numbers(point):
    # a float conversion read "0.5" as 0.5 and True as 1.0
    with pytest.raises(MMOptError, match="point must hold numbers"):
        make_box((0.0, 0.0), (1.0, 2.0)).contains(point)


@pytest.mark.parametrize(
    "field, value",
    [
        ("eta", True),
        ("eta", "0.1"),
        ("epsilon_feasibility", False),
        ("epsilon_feasibility", "0"),
        ("max_wall_time", True),
        ("max_wall_time", "5"),
    ],
)
def test_solver_config_numbers_reject_bools_and_strings(field, value):
    with pytest.raises(MMOptError, match=field):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["eta", "epsilon_feasibility"])
def test_solver_config_rejects_integers_past_the_float_range(field):
    # math.isfinite raises OverflowError on 10**400
    with pytest.raises(MMOptError, match=f"{field} must be"):
        SolverConfig(**{field: 10**400})


@pytest.mark.parametrize("dim", [2.7, True, np.float64(2.0), 0])
def test_mm_function_dimension_must_be_a_positive_integer(dim):
    # int() would truncate 2.7 to 2 and read True as 1
    with pytest.raises(DimensionMismatch):
        MMFunction(dim, lambda x, y: 0.0)
    assert MMFunction(np.int64(2), lambda x, y: 0.0).dim == 2


def _constraint(split):
    return MMConstraint(MMFunction(2, lambda x, y: float(x[0] - y[1])), monotone_split=split)


class TestProblemInstance:
    OBJECTIVE = MMFunction(2, lambda x, y: float(x[0]))
    BOX = make_box((0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "constraints, oracle, mode",
        [
            ((_constraint(None),), lambda box: None, "custom-oracle"),
            ((_constraint({0}), _constraint({0})), None, "mm-conclusive"),
            ((_constraint(()),), None, "mm-conclusive"),
            ((), None, "mm-conclusive"),
            ((_constraint({0}), _constraint(None)), None, "mm-sufficient-only"),
            ((_constraint({0}), _constraint({0, 1})), None, "mm-sufficient-only"),
        ],
        ids=["oracle", "shared-split", "empty-split", "no-constraints", "no-split", "disagree"],
    )
    def test_feasibility_mode_is_derived(self, constraints, oracle, mode):
        problem = ProblemInstance(self.OBJECTIVE, constraints, self.BOX, feasibility_oracle=oracle)
        assert problem.feasibility_mode == mode

    def test_feasibility_mode_is_no_argument(self):
        with pytest.raises(TypeError):
            ProblemInstance(self.OBJECTIVE, (), self.BOX, feasibility_mode="normal")

    @pytest.mark.parametrize(
        "box, constraints",
        [
            (make_box((0.0,), (1.0,)), ()),
            (BOX, (MMConstraint(MMFunction(3, lambda x, y: 0.0)),)),
        ],
        ids=["box", "constraint"],
    )
    def test_dimensions_must_match_the_objective(self, box, constraints):
        with pytest.raises(DimensionMismatch, match="dimension"):
            ProblemInstance(self.OBJECTIVE, constraints, box)

    def test_oracle_must_be_callable(self):
        # the fourth positional argument is the oracle, not a mode name
        with pytest.raises(MMOptError, match="feasibility_oracle must be callable"):
            ProblemInstance(self.OBJECTIVE, (), self.BOX, "normal")

    def test_reducer_must_be_callable(self):
        with pytest.raises(MMOptError, match="reducer must be callable"):
            ProblemInstance(self.OBJECTIVE, (), self.BOX, reducer="reduce_box")


@pytest.mark.parametrize("fn", [None, 1.0, "x + y"])
def test_mm_function_needs_a_callable(fn):
    with pytest.raises(MMOptError, match="fn must be callable"):
        MMFunction(2, fn)


@pytest.mark.parametrize("path", [True, 1, b"trace.csv"], ids=["bool", "int", "bytes"])
def test_solver_config_trace_path_must_be_a_path(path):
    # open() takes an int or a bool as a file descriptor, and closes it
    with pytest.raises(MMOptError, match="trace_path must be a str or os.PathLike"):
        SolverConfig(trace_path=path)


def test_mm_function_nan_is_hard_error():
    f = MMFunction(1, lambda x, y: float("nan"))
    with pytest.raises(EvaluationError):
        f.eval(np.zeros(1), np.zeros(1))


@pytest.mark.parametrize(
    "split",
    [[0.7, 1.2], [True], [np.float64(1.0)], [2], [-1]],
    ids=["non-integral", "bool", "numpy-float", "out-of-range", "negative"],
)
def test_monotone_split_needs_integer_indices_in_range(split):
    # int() would truncate 0.7 and 1.2 to {0, 1} and read True as 1
    g = MMFunction(2, lambda x, y: float(x[0] - y[1]))
    with pytest.raises(DimensionMismatch, match="monotone_split"):
        MMConstraint(g, monotone_split=split)


def test_monotone_split_takes_numpy_integers():
    g = MMFunction(2, lambda x, y: float(x[0] - y[1]))
    c = MMConstraint(g, monotone_split=[np.int64(0), np.int32(1)])
    assert c.monotone_split == frozenset({0, 1})
    assert all(type(i) is int for i in c.monotone_split)


def test_check_mm_property_canonical_dm_form():
    f = MMFunction(2, lambda x, y: float(x[0] - y[0]))
    report = check_mm_property(f, make_box((0.0, 0.0), (1.0, 1.0)), samples=1000, rng_seed=3)
    assert report.violations == 0
    assert report.worst_gap == 0.0


def test_check_mm_property_reversed_monotonicity():
    f = MMFunction(2, lambda x, y: float(y[0] - x[0]))
    report = check_mm_property(f, make_box((0.0, 0.0), (1.0, 1.0)), samples=1000, rng_seed=3)
    assert report.violations > 0
    assert report.worst_gap > 0.0


def test_check_mm_property_interference_rate():
    # single user with self-interference: rate is increasing in own power
    net_rate = MMFunction(
        1, lambda x, y: math.log2(1.0 + 1.0 * x[0] / (0.01 + 0.5 * x[0]))
    )
    report = check_mm_property(net_rate, make_box((0.0,), (1.0,)), samples=1000, rng_seed=0)
    assert report.violations == 0


@pytest.mark.parametrize("samples", [2.5, True, 0])
def test_check_mm_property_samples_must_be_a_count(samples):
    # a float once raised a bare TypeError, and True drew one sample
    f = MMFunction(1, lambda x, y: float(x[0] - y[0]))
    box = make_box((0.0,), (1.0,))
    with pytest.raises(MMOptError, match="samples must be an integer >= 1"):
        check_mm_property(f, box, samples=samples)
    assert check_mm_property(f, box, samples=np.int64(3)).violations == 0


@pytest.mark.parametrize("rng_seed", [-1, 2.5, True])
def test_check_mm_property_rng_seed_must_be_a_count(rng_seed):
    # -1 once raised numpy's ValueError, 2.5 a TypeError, and True seeded as 1
    f = MMFunction(1, lambda x, y: float(x[0] - y[0]))
    box = make_box((0.0,), (1.0,))
    with pytest.raises(MMOptError, match="rng_seed must be an integer >= 0"):
        check_mm_property(f, box, samples=3, rng_seed=rng_seed)
    assert check_mm_property(f, box, samples=3, rng_seed=np.int64(5)).violations == 0


def test_diagonal_never_exceeds_corner_bound():
    # f(x) = F(x, x) <= F(s, r) for every x in [r, s]
    rng = np.random.default_rng(11)
    net = generate_channels(3, seed=5)
    objective = wsr_problem(net).objective
    box = make_box((0.1, 0.0, 0.2), (0.9, 0.7, 1.0))
    ubound = objective.eval(box.s, box.r)
    for _ in range(1000):
        x = box.r + (box.s - box.r) * rng.random(3)
        assert objective.eval(x, x) <= ubound + 1e-9


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_box((0.0,), (1.0,)),
        lambda: wsr_problem(generate_channels(2, 0)),
        lambda: SolverResult(np.zeros(2), 0.0, "eta-optimal", 0, 0.0),
        lambda: FeasibilityVerdict(Feasibility.FEASIBLE_WITH_WITNESS, witness=np.zeros(2)),
        lambda: generate_channels(2, 0),
        lambda: EnergyModel(phi=(5.0, 5.0), p_circuit=(1.0, 1.0)),
        lambda: generate_aloha(2, 0),
    ],
    ids=["box", "problem", "result", "verdict", "network", "energy", "aloha"],
)
def test_records_with_array_fields_compare_and_hash_by_identity(make):
    # value equality would compare numpy arrays, which raises on == and hash()
    a = make()
    b = replace(a)
    assert a == a and a != b and a != make()
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
