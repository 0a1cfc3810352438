"""Workloads of the mmopt benchmark: instance pools, per-seed draws, set-up, checks.

Every workload is a family of problems built only from the package's
seeded generators (``generate_channels`` / ``generate_aloha``).  Its *pool*
is a fixed list of generator seeds whose reference outcome (status, value,
iterations, peak stored boxes) was computed once with the reference code
and stored in ``pools/<workload>.json`` by ``reference.py``.

A benchmark seed draws ``networks`` networks from the pool by stratified
sampling on the reference iteration count: the ``take_all`` costliest pool
networks are in every draw, and the rest of the pool is cut into equal cost
strata with one network drawn from each.  Different seeds therefore give
different inputs, while every seed gets the same mix of easy and hard
instances, so one run is comparable with the next.  Drawing networks freshly
from the generator instead makes the summed cost of a run heavy-tailed: on
``wsr-k4`` one network in ten needs more than 20,000 iterations and the
costliest of the first 80 needs 158,000, more than a whole run.  Networks
above ``max_ref_iterations`` are therefore left out of the draw (they stay
listed in the pool file).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mmopt.bench
import mmopt.problems
from mmopt import SolverConfig

POOL_DIR = Path(__file__).resolve().parent / "pools"

# Grid points per axis of the ALOHA feasibility screen, as mmopt.bench uses for K=3.
ALOHA_SCREEN_POINTS = 201

# Slack for floating-point comparisons of independently computed values.
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "wsr" or "aloha"
    k: int
    r_min: float
    representations: tuple[str, ...]
    config: SolverConfig
    pool_size: int
    networks: int
    take_all: int
    max_ref_iterations: int | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wsr-k4",
            family="wsr",
            k=4,
            r_min=0.0,
            representations=("mmp", "dm"),
            config=SolverConfig(eta=0.01, max_iterations=100_000),
            pool_size=80,
            networks=36,
            take_all=4,
            max_ref_iterations=20_000,
            why="cheapest bound per box, so bisect, BoxNd construction, the heap and the "
            "loop dominate; mmp vs dm shows the tightness result",
        ),
        Workload(
            name="wsr-floors-k3",
            family="wsr",
            k=3,
            r_min=0.3,
            representations=("mmp",),
            config=SolverConfig(
                eta=0.1,
                selection_rule="oldest-first",
                reduction_enabled=True,
                reduction_bisection_steps=5,
                max_iterations=50_000,
            ),
            pool_size=48,
            networks=13,
            take_all=3,
            max_ref_iterations=None,
            why="rate floors: reduce_box line searches, the FIFO queue with its max_bound "
            "scan and prune-as-infeasible dominate; mixes optimal and infeasible outcomes",
        ),
        Workload(
            name="aloha-k3",
            family="aloha",
            k=3,
            r_min=0.0,
            representations=("mmp",),
            config=SolverConfig(eta=0.05, max_iterations=60_000),
            pool_size=60,
            networks=24,
            take_all=3,
            max_ref_iterations=None,
            why="deep calculus composition (log of products, swapped-argument floors), many "
            "UNKNOWN verdicts and large heaps; the target of an exact ALOHA bound",
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """One solve: a problem plus what the reference code returned for it."""

    label: str
    net: object
    problem: object
    config: SolverConfig
    ref_status: str
    ref_value: float


def make_network(w: Workload, seed: int):
    """The generator's network for a pool seed, with the workload's rate floors."""
    if w.family == "aloha":
        return mmopt.problems.generate_aloha(w.k, seed)
    net = mmopt.problems.generate_channels(w.k, seed)
    if w.r_min > 0.0:
        net = dataclasses.replace(net, r_min=np.full(w.k, w.r_min))
    return net


def make_problem(w: Workload, net, representation: str):
    if w.family == "aloha":
        return mmopt.problems.aloha_problem(net)
    return mmopt.problems.wsr_problem(net, representation=representation)


def screen(w: Workload, net) -> bool:
    """The grid feasibility screen mmopt.bench applies to ALOHA draws."""
    if w.family != "aloha":
        return True
    return mmopt.bench._aloha_grid_feasible(net, ALOHA_SCREEN_POINTS)


def load_pool(w: Workload) -> list[dict]:
    path = POOL_DIR / f"{w.name}.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["workload"] != w.name or len(doc["entries"]) != w.pool_size:
        raise ValueError(f"{path} does not match workload {w.name}")
    return doc["entries"]


def _ref_cost(entry: dict) -> int:
    return sum(s["iterations"] for s in entry["solves"])


def draw_entries(w: Workload, pool: list[dict], seed: int) -> list[dict]:
    """The seed's networks: the costliest ``take_all``, then one per cost stratum."""
    cap = w.max_ref_iterations
    order = sorted(
        (e for e in pool if cap is None or _ref_cost(e) <= cap),
        key=lambda e: (_ref_cost(e), e["seed"]),
    )
    rest = order[: len(order) - w.take_all]
    picked = order[len(rest) :]
    rng = np.random.default_rng(seed)
    for stratum in np.array_split(np.arange(len(rest)), w.networks - w.take_all):
        picked.append(rest[int(stratum[rng.integers(stratum.size)])])
    return picked


def build(w: Workload, entries: list[dict], screened: bool = True) -> list[Instance]:
    """Set-up: generate, screen and construct every problem of the draw.

    ``screened=False`` skips the ALOHA grid screen; every pool entry is known
    to pass it, and the screen's large grids would otherwise set the
    process's peak memory before any solve runs.
    """
    instances = []
    for e in entries:
        net = make_network(w, e["seed"])
        if screened and not screen(w, net):
            raise RuntimeError(f"{w.name}: pool seed {e['seed']} fails the feasibility screen")
        for ref in e["solves"]:
            rep = ref["representation"]
            instances.append(
                Instance(
                    label=f"{w.name}/{e['seed']}/{rep}",
                    net=net,
                    problem=make_problem(w, net, rep),
                    config=w.config,
                    ref_status=ref["status"],
                    ref_value=ref["value"],
                )
            )
    return instances


# ---------------------------------------------------------------------------
# independent model formulas for the correctness gate


def _wsr_rates(net, p):
    den = net.sigma2 + net.beta @ p
    return np.log2(1.0 + net.alpha * p / den)


def _aloha_rates(net, p):
    out = np.empty(net.K)
    for k in range(net.K):
        idx = list(net.interferers[k])
        out[k] = net.c[k] * p[k] * float(np.prod(1.0 - p[idx]))
    return out


def check(inst: Instance, result) -> str | None:
    """Why a solve result is wrong, or None when it passes every check.

    Objective value and rate floors are recomputed from the model formulas,
    not from the representations under test.
    """
    if result.status != inst.ref_status:
        return f"status {result.status!r}, reference {inst.ref_status!r}"
    if result.incumbent is None:
        if result.value != float("-inf"):
            return f"no incumbent but value {result.value}"
        return None
    eta = inst.config.eta
    if abs(result.value - inst.ref_value) > eta + VALUE_TOL:
        return f"value {result.value!r} differs from reference {inst.ref_value!r} by more than eta"
    x = np.asarray(result.incumbent, dtype=float)
    if not inst.problem.initial_box.contains(x):
        return f"incumbent {x.tolist()} outside the initial box"
    net = inst.net
    if isinstance(net, mmopt.problems.AlohaNetwork):
        rates = _aloha_rates(net, x)
        value = float(np.sum(np.log(rates))) if np.all(rates > 0) else float("-inf")
    else:
        rates = _wsr_rates(net, x)
        value = float(np.dot(net.w, rates))
    if np.any(rates < net.r_min - VALUE_TOL):
        return f"incumbent {x.tolist()} violates a rate floor"
    if not math.isclose(value, result.value, rel_tol=1e-9, abs_tol=VALUE_TOL):
        return f"reported value {result.value!r} but the model gives {value!r}"
    return None
