"""Global optimization of mixed monotonic programs by branch-reduce-and-bound.

A mixed monotonic representation of an objective ``f`` is a function
``F(x, y)``, nondecreasing in ``x`` and nonincreasing in ``y``, with
``F(x, x) = f(x)``.  Over a box ``[r, s]`` the value ``F(s, r)`` then bounds
``f`` from above, which drives the rectangular branch-and-bound loop in
:mod:`mmopt.solver`.  :mod:`mmopt.calculus` builds representations
compositionally, :mod:`mmopt.problems` provides ready-made resource
allocation families, and :mod:`mmopt.bench` runs seeded comparison batches.
"""

from . import errors
from .calculus import (
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
from .core import (
    BoxNd,
    MMConstraint,
    MMFunction,
    MMPropertyReport,
    ProblemInstance,
    SolverConfig,
    SolverResult,
    SolveStats,
    check_mm_property,
    make_box,
)
from .feasibility import (
    Feasibility,
    FeasibilityVerdict,
    conormal_set_test,
    least_point_test,
    mm_conclusive_test,
    mm_sufficient_test,
    normal_set_test,
)
from .problems import (
    AlohaNetwork,
    EnergyModel,
    InterferenceNetwork,
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
from .solver import RegionQueue, bisect, find_incumbent, reduce_box, solve

__version__ = "0.1.0"
