"""Benchmark harness: seeded instance batches, result rows, CSV/JSON output.

A batch is described by a :class:`BenchSpec`; :func:`run_bench` expands it
into one solver run per (realization, configuration) pair and records one
:class:`ResultRow` each.  Identical spec and seed reproduce identical rows
except for wall time.  Per-run failures become rows with an ``error``
status and never abort the batch; the exception's type and message go to
standard error and into the row's ``error`` field (JSON output only).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ProblemInstance, SolverConfig, _is_count
from .errors import InvalidNetwork, MMOptError, ParseError, SchemaVersionError, SpecError
from .problems import (
    REPRESENTATIONS,
    _ALOHA_FLOOR,
    AlohaNetwork,
    EnergyModel,
    InterferenceNetwork,
    aloha_problem,
    dinkelbach_gee,
    gee_problem,
    generate_aloha,
    generate_channels,
    wmee_problem,
    wsee_problem,
    wsr_problem,
)
from .solver import solve

__all__ = [
    "BenchSpec",
    "ResultRow",
    "run_bench",
    "write_csv",
    "write_json",
    "read_csv",
    "read_json",
    "load_instance",
    "CSV_HEADER",
]

_ALOHA_MARGIN = 1e-6  # share by which the ALOHA screen raises every rate floor
_ALOHA_MAX_SWEEPS = 100_000  # sweeps after which it rejects a draw still undecided


@dataclass(frozen=True)
class BenchSpec:
    experiment: str
    k: int = 2
    realizations: int = 1
    eta: float = 0.01
    tolerance_mode: str = "absolute"
    selections: tuple[str, ...] = ("best-first",)
    reductions: tuple[bool, ...] = (False,)
    representations: tuple[str, ...] = ("mmp",)
    seed: int = 0
    max_iterations: int | None = None
    max_wall_time: float | None = None
    reduction_bisection_steps: int = 10
    instance_path: str | None = None
    trace_path: str | None = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise SpecError(f"unknown experiment {self.experiment!r}")
        for name, least in (("realizations", 1), ("k", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_count(value, least):
                raise SpecError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.selections or not self.reductions or not self.representations:
            raise SpecError("selections, reductions and representations must be nonempty")
        if self.experiment == "single-solve" and self.instance_path is None:
            raise SpecError("single-solve needs an instance file")
        for rep in self.representations:
            if rep not in REPRESENTATIONS:
                raise SpecError(f"unknown representation {rep!r}")
        takes_representation = _EXPERIMENTS[self.experiment].takes_representation
        if not takes_representation and tuple(self.representations) != ("mmp",):
            raise SpecError(f"{self.experiment} takes no representation other than mmp")
        # each run's solver settings per (selection, reduction), built here so
        # that a bad value fails the spec, not every run; a run adds its trace
        try:
            config = SolverConfig(
                eta=self.eta,
                tolerance_mode=self.tolerance_mode,
                reduction_bisection_steps=self.reduction_bisection_steps,
                max_iterations=self.max_iterations,
                max_wall_time=self.max_wall_time,
            )
            configs = {
                (sel, red): replace(config, selection_rule=sel, reduction_enabled=red)
                for sel, red in itertools.product(self.selections, self.reductions)
            }
        except MMOptError as exc:
            raise SpecError(str(exc)) from exc
        object.__setattr__(self, "_configs", configs)


@dataclass(frozen=True)
class ResultRow:
    instance_id: str
    algorithm: str
    representation: str
    selection: str
    reduction: bool
    status: str
    objective: float | None
    iterations: int
    peak_regions: int
    wall_time_s: float
    seed: int
    # "<exception type>: <message>" for status "error"; not a CSV column
    error: str | None = None


_ON_OFF = {"on": True, "off": False}  # a bool in CSV rows and in the CLI's flag lists
# per ResultRow field type: its CSV parser (None: no CSV column) and the JSON
# value types it takes; exact types, so a bool is no int or float
_FIELD_TYPES = {
    "str": (str, (str,)),
    "str | None": (None, (str, type(None))),
    "bool": (_ON_OFF.__getitem__, (bool,)),
    "int": (int, (int,)),
    "float": (float, (float, int)),
    "float | None": (lambda v: float(v) if v else None, (float, int, type(None))),
}
_ROW_TYPES = {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(ResultRow)}
# CSV columns in the order of the fields of ResultRow, each with its parser
_CSV_COLUMNS = tuple((name, parse) for name, (parse, _) in _ROW_TYPES.items() if parse)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)
_JSON_FIELDS = {name: types for name, (_, types) in _ROW_TYPES.items()}


def _instance_seed(spec_seed: int, index: int) -> int:
    # stable per-instance derivation; independent of how many configs run
    seq = np.random.SeedSequence(entropy=spec_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _config_label(selection: str, reduction: bool) -> str:
    return f"{selection}{'+red' if reduction else ''}"


def _run_one(run, spec: BenchSpec, trace: str | None, **fields) -> ResultRow:
    """Call ``run(config)`` for a solver result and record it in a row with
    ``fields`` (instance_id, algorithm, representation, selection, reduction,
    seed); any failure, building the problem included, becomes an error row."""
    selection, reduction = fields["selection"], fields["reduction"]
    config = replace(spec._configs[selection, reduction], trace_path=trace)
    try:
        res = run(config)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        run_name = " ".join(str(fields[k]) for k in ("instance_id", "algorithm", "representation"))
        print(f"{run_name} {_config_label(selection, reduction)}: {error}", file=sys.stderr)
        return ResultRow(
            **fields,
            status="error",
            objective=None,
            iterations=0,
            peak_regions=0,
            wall_time_s=0.0,
            error=error,
        )
    return ResultRow(
        **fields,
        status=res.status,
        objective=res.value,
        iterations=res.iterations,
        peak_regions=res.peak_region_count,
        wall_time_s=res.wall_time,
    )


def _trace_for(spec: BenchSpec, suffix: str, single: bool) -> str | None:
    if spec.trace_path is None:
        return None
    if single:
        return spec.trace_path
    p = Path(spec.trace_path)
    return str(p.with_name(f"{p.stem}-{suffix}{p.suffix or '.csv'}"))


def _aloha_feasible(net: AlohaNetwork) -> list[float] | None:
    """A point of the solve box ``[_ALOHA_FLOOR, 1]^K`` that meets every rate
    floor, or None: kept <=> a witness exists; rejected => no point meets
    ``(1 + _ALOHA_MARGIN) * r_min``.

    Floor k reads ``p_k >= T_k(p) = r_min,k / (c_k prod_{j in I_k} (1 - p_j))``
    with ``T`` nondecreasing, so the sweeps ``p <- max(lo, (1 + margin) T(p))``
    from the lower corner rise and stay below every point that meets the
    raised floors (Kleene iteration).  The first iterate whose rates
    ``c_k p_k prod (1 - p_j)`` meet every floor is the witness; one that
    leaves the unit box proves the raised floors cannot be met.  A draw still
    undecided after ``_ALOHA_MAX_SWEEPS`` sweeps is rejected; symmetric floors
    at the feasibility boundary take about 4,200 at K <= 8.
    """
    c, r_min = net.c.tolist(), net.r_min.tolist()
    p = [_ALOHA_FLOOR] * net.K
    for _ in range(_ALOHA_MAX_SWEEPS):
        rates = []
        for k, idx in enumerate(net.interferers):
            rate = c[k] * p[k]
            for j in idx:
                rate *= 1.0 - p[j]
            rates.append(rate)
        if all(rate >= floor for rate, floor in zip(rates, r_min)):
            return p
        for k, floor in enumerate(r_min):
            if floor > 0.0:
                # T_k(p) = floor * p_k / rate_k, as p_k > 0; a zero rate leaves the box
                t = (1.0 + _ALOHA_MARGIN) * floor * p[k] / rates[k] if rates[k] else 2.0
                p[k] = max(_ALOHA_FLOOR, t)
        if max(p) > 1.0:
            return None
    return None


# perfbench's set-up calls the screen by this name; drop it once perfbench calls _aloha_feasible
_aloha_grid_feasible = lambda net, points: _aloha_feasible(net) is not None  # noqa: E731


def _channel_instances(spec: BenchSpec, family: str):
    for i in range(spec.realizations):
        seed = _instance_seed(spec.seed, i)
        yield f"{family}-k{spec.k}-{i:03d}", generate_channels(spec.k, seed), seed


def _aloha_instances(spec: BenchSpec):
    """Draw networks until the requested number of feasible ones is found.

    Floors are drawn around the feasibility boundary, so roughly half the
    draws are discarded by :func:`_aloha_feasible`, at any K; a generous cap
    guards against misconfiguration.
    """
    kept = []
    for draw in range(200 * spec.realizations):
        seed = _instance_seed(spec.seed, draw)
        net = generate_aloha(spec.k, seed)
        if _aloha_feasible(net) is not None:
            kept.append((f"aloha-k{spec.k}-{len(kept):03d}", net, seed))
            if len(kept) == spec.realizations:
                return kept
    raise SpecError("aloha generator produced too many infeasible draws")


def _loaded_instances(spec: BenchSpec):
    # loaded before any run, so that a bad file fails the batch, not a row
    path = spec.instance_path
    problems = {rep: load_instance(path, representation=rep) for rep in spec.representations}
    return [(Path(path).stem, problems, spec.seed)]


def _gee_energy(k: int) -> EnergyModel:
    return EnergyModel(phi=np.full(k, 5.0), p_circuit=1.0)


@dataclass(frozen=True)
class _Experiment:
    # spec -> (instance_id, instance, seed) per instance
    instances: Callable
    # (instance, representation) -> ProblemInstance for the BRB runs
    build: Callable
    # whether runs vary over spec.representations and trace names carry it
    takes_representation: bool = False
    # (instance, SolverConfig) -> SolverResult, run after each BRB run
    baseline: Callable | None = None


_EXPERIMENTS = {
    "wsr-compare": _Experiment(
        lambda spec: _channel_instances(spec, "wsr"),
        lambda net, rep: wsr_problem(net, representation=rep),
        takes_representation=True,
    ),
    "gee-compare": _Experiment(
        lambda spec: _channel_instances(spec, "gee"),
        lambda net, rep: gee_problem(net, _gee_energy(net.K)),
        baseline=lambda net, config: dinkelbach_gee(net, _gee_energy(net.K), config),
    ),
    "aloha": _Experiment(_aloha_instances, lambda net, rep: aloha_problem(net)),
    "single-solve": _Experiment(
        _loaded_instances, lambda problems, rep: problems[rep], takes_representation=True
    ),
}


def run_bench(spec: BenchSpec) -> list[ResultRow]:
    """Expand a spec into solver runs and collect one row per run."""
    experiment = _EXPERIMENTS[spec.experiment]
    configs = list(itertools.product(spec.representations, spec.selections, spec.reductions))
    single = spec.realizations == 1 and len(configs) == 1
    rows: list[ResultRow] = []
    for instance_id, instance, seed in experiment.instances(spec):
        for rep, sel, red in configs:
            fields = dict(instance_id=instance_id, selection=sel, reduction=red, seed=seed)
            name = f"{instance_id}-{rep}" if experiment.takes_representation else instance_id
            trace = _trace_for(spec, f"{name}-{_config_label(sel, red)}", single)
            rows.append(
                _run_one(
                    lambda config: solve(experiment.build(instance, rep), config),
                    spec,
                    trace,
                    algorithm="brb",
                    representation=rep,
                    **fields,
                )
            )
            if experiment.baseline is not None:
                rows.append(
                    _run_one(
                        lambda config: experiment.baseline(instance, config),
                        spec,
                        None,
                        algorithm="dinkelbach",
                        representation="dm",
                        **fields,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# serialization


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_text(text: str, target):
    """Write to an open text handle, or to a new file at a path."""
    if hasattr(target, "write"):
        target.write(text)
        return
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(rows, path):
    buf = io.StringIO()  # csv quotes only a field with a comma, a quote or a line break
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(name for name, _ in _CSV_COLUMNS)
    writer.writerows([_fmt(getattr(row, name)) for name, _ in _CSV_COLUMNS] for row in rows)
    _write_text(buf.getvalue(), path)


def write_json(rows, path):
    # every float rounded by the CSV's rule
    payload = [
        {k: float(_fmt(v)) if isinstance(v, float) else v for k, v in asdict(row).items()}
        for row in rows
    ]
    _write_text(json.dumps(payload, indent=1) + "\n", path)


def read_csv(path) -> list[ResultRow]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = [(reader.line_num, parts) for parts in reader]
        except csv.Error as exc:
            raise ParseError(f"line {reader.line_num}: {exc}") from exc
    header = ",".join(records[0][1]) if records else ""
    if header != CSV_HEADER:
        raise ParseError(f"unexpected CSV header: {header!r}")
    rows = []
    for line, parts in records[1:]:
        if len(parts) != len(_CSV_COLUMNS):
            raise ParseError(f"line {line}: expected {len(_CSV_COLUMNS)} fields, got {len(parts)}")
        values = {}
        for (name, parse), v in zip(_CSV_COLUMNS, parts):
            try:
                values[name] = parse(v)
            except (KeyError, ValueError) as exc:
                raise ParseError(f"line {line}, column {name!r}: bad value {v!r}") from exc
        rows.append(ResultRow(**values))
    return rows


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def read_json(path) -> list[ResultRow]:
    payload = _load_json(path)
    if not isinstance(payload, list) or not all(isinstance(e, dict) for e in payload):
        raise ParseError("result JSON must be a list of objects")
    rows = []
    for i, entry in enumerate(payload):
        for key, value in entry.items():
            if key in _JSON_FIELDS and type(value) not in _JSON_FIELDS[key]:
                raise ParseError(f"entry {i}, key {key!r}: bad value {value!r}")
        try:
            rows.append(ResultRow(**entry))
        except TypeError as exc:  # a missing or unknown key
            raise ParseError(f"entry {i}: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# instance files

_SCHEMA = "mmp-bench/1"
_ENERGY_PROBLEMS = {"gee": gee_problem, "wsee": wsee_problem, "wmee": wmee_problem}
_TYPES = ("wsr", *_ENERGY_PROBLEMS, "aloha")


def _require(doc: dict, field: str):
    if field not in doc:
        raise ParseError(f"missing field {field!r}")
    return doc[field]


def _numeric(value, shape: tuple[int, ...]) -> bool:
    """A JSON number for ``shape == ()``, else nested lists of them in exactly
    that shape.  Strings and bools, which float() and numpy would take, fail,
    and so does an integer that float() cannot convert."""
    if not shape:
        return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)
    return (
        isinstance(value, list)
        and len(value) == shape[0]
        and all(_numeric(v, shape[1:]) for v in value)
    )


def _parse_int(value, field: str) -> int:
    """A JSON integer, or a float with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"field {field!r} must hold integers, got {value!r}")
    return value


def _parse_numbers(doc, field, shape=(), default=None):
    """Field ``field`` as a float array of ``shape`` (a float for ``shape == ()``);
    a missing field takes ``default`` in every entry, or without one fails."""
    if field in doc or default is None:
        if not _numeric(_require(doc, field), shape):
            raise ParseError(f"field {field!r} must hold numbers in shape {shape}")
        array = np.array(doc[field], dtype=float)
    else:
        array = np.full(shape, default, dtype=float)
    return array if shape else float(array)


def _parse_interferers(doc, k):
    """Field ``interferers``; when it is missing, every user interferes with every other."""
    if "interferers" not in doc:
        return tuple(tuple(j for j in range(k) if j != i) for i in range(k))
    raw = doc["interferers"]
    if not isinstance(raw, list) or len(raw) != k:
        raise ParseError(f"field 'interferers' must list {k} index sets")
    try:
        return tuple(tuple(_parse_int(j, "interferers") for j in entry) for entry in raw)
    except TypeError as exc:
        raise ParseError("field 'interferers' must list sets of integer indices") from exc


def load_instance(path, representation: str = "mmp") -> ProblemInstance:
    """Parse an ``mmp-bench/1`` JSON document into a problem instance; only a
    ``wsr`` document takes a ``representation`` other than ``mmp``."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    schema = _require(doc, "schema")
    if schema != _SCHEMA:
        raise SchemaVersionError(f"unsupported schema {schema!r} (expected {_SCHEMA!r})")
    kind = _require(doc, "type")
    if kind not in _TYPES:
        raise ParseError(f"unknown problem type {kind!r}")
    if representation not in REPRESENTATIONS or (kind != "wsr" and representation != "mmp"):
        raise InvalidNetwork(f"a {kind} instance takes no representation {representation!r}")
    k = _parse_int(_require(doc, "K"), "K")
    if k < 1:
        raise ParseError("field 'K' must be >= 1")

    if kind == "aloha":
        aloha = dict(
            c=_parse_numbers(doc, "c", (k,)),
            r_min=_parse_numbers(doc, "rmin", (k,), default=0.0),
            interferers=_parse_interferers(doc, k),
        )
    else:
        network = dict(
            alpha=_parse_numbers(doc, "alpha", (k,)),
            beta=_parse_numbers(doc, "beta", (k, k)),
            sigma2=_parse_numbers(doc, "sigma2"),
            p_max=_parse_numbers(doc, "P", (k,)),
            w=_parse_numbers(doc, "w", (k,), default=1.0),
            r_min=_parse_numbers(doc, "rmin", (k,), default=0.0),
        )
    if kind in _ENERGY_PROBLEMS:
        energy = dict(
            phi=_parse_numbers(doc, "phi", (k,)),
            bandwidth=_parse_numbers(doc, "B", default=1.0),
            p_circuit=_parse_numbers(doc, "Pc", () if kind == "gee" else (k,)),
        )
    try:
        if kind == "aloha":
            return aloha_problem(AlohaNetwork(**aloha))
        net = InterferenceNetwork(**network)
        if kind == "wsr":
            return wsr_problem(net, representation=representation)
        return _ENERGY_PROBLEMS[kind](net, EnergyModel(**energy))
    except Exception as exc:
        raise ParseError(str(exc)) from exc
