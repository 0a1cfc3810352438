import io
import json
import math
from dataclasses import asdict, astuple

import numpy as np
import pytest

import mmopt.bench as bench
from mmopt.bench import (
    CSV_HEADER,
    BenchSpec,
    ResultRow,
    load_instance,
    read_csv,
    read_json,
    run_bench,
    write_csv,
    write_json,
)
from mmopt.cli import main
from mmopt.core import MMFunction, ProblemInstance
from mmopt.errors import ParseError, SchemaVersionError, SpecError
from mmopt.problems import AlohaNetwork, generate_aloha, wsr_problem

from oracles import aloha_grid


def small_rows():
    return [
        ResultRow(
            instance_id="wsr-k1-000",
            algorithm="brb",
            representation="mmp",
            selection="best-first",
            reduction=False,
            status="eta-optimal",
            objective=1.5,
            iterations=12,
            peak_regions=3,
            wall_time_s=0.125,
            seed=7,
        ),
        ResultRow(
            instance_id="wsr-k1-001",
            algorithm="brb",
            representation="dm",
            selection="oldest-first",
            reduction=True,
            status="error",
            objective=None,
            iterations=0,
            peak_regions=0,
            wall_time_s=0.0,
            seed=8,
        ),
    ]


class TestSerialization:
    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_two_rows_three_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(small_rows(), path)
        assert len(path.read_text().strip().splitlines()) == 3

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        rows = small_rows()
        write_csv(rows, path)
        assert read_csv(path) == rows

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "rt.json"
        rows = small_rows()
        write_json(rows, path)
        assert read_json(path) == rows

    @pytest.mark.parametrize("column, value", [("iterations", "x"), ("reduction", "yes")])
    def test_csv_bad_value_names_line_and_column(self, tmp_path, column, value):
        path = tmp_path / "bad.csv"
        write_csv(small_rows(), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[CSV_HEADER.split(",").index(column)] = value
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 3, column '{column}'"):
            read_csv(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{"instance_id": "a"}], "entry 0"),  # missing keys
            ([asdict(small_rows()[0]), dict(asdict(small_rows()[0]), gap=1.0)], "entry 1"),
            ({"rows": []}, "list of objects"),
            ([["a", "b"]], "list of objects"),
            # wrongly typed values; a bool is no integer
            ([dict(asdict(small_rows()[0]), iterations="x")], "entry 0, key 'iterations'"),
            ([dict(asdict(small_rows()[0]), iterations=True)], "entry 0, key 'iterations'"),
            ([dict(asdict(small_rows()[0]), objective="1.5")], "entry 0, key 'objective'"),
            ([dict(asdict(small_rows()[0]), reduction="maybe")], "entry 0, key 'reduction'"),
        ],
    )
    def test_json_bad_payload_raises_parse_error(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=message):
            read_json(path)

    def test_twelve_significant_digits(self, tmp_path):
        from dataclasses import replace

        row = replace(small_rows()[0], objective=math.pi)
        path = tmp_path / "pi.csv"
        write_csv([row], path)
        objective_field = path.read_text().splitlines()[1].split(",")[6]
        assert objective_field == f"{math.pi:.12g}"

    # the texts below were recorded before the column order was derived from
    # the fields of ResultRow
    def test_csv_header_literal(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == (
            "instance_id,algorithm,representation,selection,reduction,"
            "status,objective,iterations,peak_regions,wall_time_s,seed\n"
        )

    def test_csv_text_exact(self):
        out = io.StringIO()
        write_csv(small_rows(), out)
        assert out.getvalue() == (
            "instance_id,algorithm,representation,selection,reduction,"
            "status,objective,iterations,peak_regions,wall_time_s,seed\n"
            "wsr-k1-000,brb,mmp,best-first,off,eta-optimal,1.5,12,3,0.125,7\n"
            "wsr-k1-001,brb,dm,oldest-first,on,error,,0,0,0,8\n"
        )

    def test_json_text_exact(self, tmp_path):
        path = tmp_path / "rows.json"
        write_json(small_rows(), path)
        common = dict(algorithm="brb", iterations=0, peak_regions=0, error=None)
        first = dict(
            instance_id="wsr-k1-000",
            representation="mmp",
            selection="best-first",
            reduction=False,
            status="eta-optimal",
            objective=1.5,
            iterations=12,
            peak_regions=3,
            wall_time_s=0.125,
            seed=7,
        )
        second = dict(
            instance_id="wsr-k1-001",
            representation="dm",
            selection="oldest-first",
            reduction=True,
            status="error",
            objective=None,
            wall_time_s=0.0,
            seed=8,
        )
        order = [
            "instance_id",
            "algorithm",
            "representation",
            "selection",
            "reduction",
            "status",
            "objective",
            "iterations",
            "peak_regions",
            "wall_time_s",
            "seed",
            "error",
        ]
        payload = [{k: {**common, **row}[k] for k in order} for row in (first, second)]
        assert path.read_text() == json.dumps(payload, indent=1) + "\n"


class TestSpec:
    def test_zero_realizations_rejected(self):
        with pytest.raises(SpecError):
            BenchSpec(experiment="wsr-compare", realizations=0)

    def test_unknown_experiment(self):
        with pytest.raises(SpecError):
            BenchSpec(experiment="wsr")

    def test_single_solve_needs_instance(self):
        with pytest.raises(SpecError):
            BenchSpec(experiment="single-solve")

    @pytest.mark.parametrize("experiment", ["gee-compare", "aloha"])
    @pytest.mark.parametrize("representations", [("dm",), ("mmp", "dm"), ("mmp", "mmp")])
    def test_representation_only_where_it_is_used(self, experiment, representations):
        with pytest.raises(SpecError, match="representation"):
            BenchSpec(experiment=experiment, representations=representations)
        BenchSpec(experiment=experiment, representations=("mmp",))
        BenchSpec(experiment="wsr-compare", representations=representations)

    @pytest.mark.parametrize("experiment", ["wsr-compare", "gee-compare"])
    def test_unknown_representation_rejected(self, experiment):
        with pytest.raises(SpecError, match="unknown representation 'foo'"):
            BenchSpec(experiment=experiment, representations=("mmp", "foo"))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(eta=-1.0), "eta must be positive"),
            (dict(tolerance_mode="percent"), "tolerance_mode"),
            (dict(selections=("best-first", "random")), "selection_rule"),
            (dict(reduction_bisection_steps=0), "reduction_bisection_steps"),
            (dict(epsilon_feasibility=-0.5), "epsilon_feasibility"),
            (dict(reduction_bisection_steps=2.5, reductions=(True,)), "reduction_bisection_steps"),
            (dict(reduction_bisection_steps=True), "reduction_bisection_steps"),
            (dict(max_iterations=-5), "max_iterations"),
            (dict(max_iterations=True), "max_iterations"),
            (dict(max_iterations=3.0), "max_iterations"),
            (dict(max_wall_time=-1.0), "max_wall_time"),
            (dict(max_wall_time=math.nan), "max_wall_time"),
            (dict(epsilon_feasibility=math.nan), "epsilon_feasibility"),
            (dict(epsilon_feasibility=math.inf), "epsilon_feasibility"),
            (dict(eta=math.inf), "eta must be positive"),
            (dict(eta=math.nan), "eta must be positive"),
            (dict(reductions=("off",)), "reduction_enabled"),
            (dict(reductions=(1,)), "reduction_enabled"),
        ],
    )
    def test_bad_solver_setting_rejected(self, bad, message):
        with pytest.raises(SpecError, match=message):
            BenchSpec(experiment="wsr-compare", **bad)


class TestRunBench:
    def test_wsr_compare_row_count_and_direction(self):
        from mmopt.problems import generate_channels, wsr_problem
        from mmopt.solver import bound

        spec = BenchSpec(
            experiment="wsr-compare",
            k=2,
            realizations=5,
            representations=("mmp", "dm"),
            seed=3,
        )
        rows = run_bench(spec)
        assert len(rows) == 10
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row.instance_id, {})[row.representation] = row
            # objective can never exceed the root bound of its own instance
            prob = wsr_problem(generate_channels(2, seed=row.seed), row.representation)
            assert row.objective <= bound(prob.objective, prob.initial_box) + 1e-9
        wins = sum(
            1
            for pair in by_instance.values()
            if pair["mmp"].iterations <= pair["dm"].iterations
        )
        assert wins > len(by_instance) / 2

    def test_determinism_modulo_wall_time(self, tmp_path):
        spec = BenchSpec(
            experiment="wsr-compare", k=2, realizations=3, representations=("mmp",), seed=11
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_bench(spec), a)
        write_csv(run_bench(spec), b)

        def strip_wall(path):
            lines = path.read_text().splitlines()
            return [",".join(p for i, p in enumerate(line.split(",")) if i != 9) for line in lines]

        assert strip_wall(a) == strip_wall(b)

    def test_error_rows_do_not_abort_batch(self, monkeypatch):
        def exploding_solve(problem, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "solve", exploding_solve)
        spec = BenchSpec(experiment="wsr-compare", k=1, realizations=2, seed=0)
        rows = run_bench(spec)
        assert len(rows) == 2
        assert all(row.status == "error" and row.objective is None for row in rows)

    def test_error_rows_keep_their_cause(self, monkeypatch, tmp_path, capsys):
        def raising(x, y):
            raise ValueError("objective exploded")

        def exploding_problem(net, representation="mmp"):
            base = wsr_problem(net, representation)
            return ProblemInstance(
                MMFunction(net.K, raising), base.constraints, base.initial_box, "normal"
            )

        monkeypatch.setattr(bench, "wsr_problem", exploding_problem)
        rows = run_bench(BenchSpec(experiment="wsr-compare", k=2, realizations=2, seed=0))
        assert [row.status for row in rows] == ["error", "error"]
        assert all(row.error == "ValueError: objective exploded" for row in rows)
        err = capsys.readouterr().err
        assert "wsr-k2-000 brb mmp best-first: ValueError: objective exploded" in err
        assert "wsr-k2-001" in err

        json_path, csv_path = tmp_path / "rows.json", tmp_path / "rows.csv"
        write_json(rows, json_path)
        payload = json.loads(json_path.read_text())
        assert all(entry["error"] == "ValueError: objective exploded" for entry in payload)
        assert read_json(json_path) == rows
        # the CSV keeps its 11 columns; the cause is JSON-only
        write_csv(rows, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert all(len(line.split(",")) == 11 for line in lines)
        assert all(row.error is None for row in read_csv(csv_path))

    def test_constructor_error_keeps_its_cause(self, monkeypatch, capsys):
        def failing_constructor(net, representation="mmp"):
            raise RuntimeError(f"cannot build {representation}")

        monkeypatch.setattr(bench, "wsr_problem", failing_constructor)
        spec = BenchSpec(experiment="wsr-compare", k=1, realizations=1, representations=("dm",))
        (row,) = run_bench(spec)
        assert row.status == "error"
        assert row.error == "RuntimeError: cannot build dm"
        assert "RuntimeError: cannot build dm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, constructor, algorithms",
        [
            ("gee-compare", "gee_problem", ["brb", "dinkelbach"]),
            ("aloha", "aloha_problem", ["brb"]),
        ],
    )
    def test_constructor_errors_become_rows(self, monkeypatch, experiment, constructor, algorithms):
        def failing_constructor(*args):
            raise RuntimeError("cannot build")

        monkeypatch.setattr(bench, constructor, failing_constructor)
        rows = run_bench(BenchSpec(experiment=experiment, k=1, realizations=2, seed=4))
        assert [row.algorithm for row in rows] == algorithms * 2
        brb = [row for row in rows if row.algorithm == "brb"]
        assert all(row.status == "error" for row in brb)
        assert all(row.error == "RuntimeError: cannot build" for row in brb)
        # the Dinkelbach baseline builds its own problems and still runs
        assert all(row.status != "error" for row in rows if row.algorithm == "dinkelbach")

    def test_aloha_batch_screens_feasible(self):
        spec = BenchSpec(experiment="aloha", k=2, realizations=2, seed=5, max_iterations=10**6)
        rows = run_bench(spec)
        assert len(rows) == 2
        assert all(row.status == "eta-optimal" for row in rows)

    def test_aloha_screen_agrees_with_full_grid(self):
        # slab-by-slab screening must give the full grid's verdict, also for
        # partial interferer sets; small grids keep the full oracle cheap
        verdicts = []
        for k, points in ((1, 257), (2, 101), (3, 31), (4, 13)):
            rng = np.random.default_rng(k)
            for seed in range(80):
                net = generate_aloha(k, seed)
                if seed % 2:
                    sets = tuple(
                        tuple(j for j in range(k) if j != i and rng.random() < 0.6)
                        for i in range(k)
                    )
                    net = AlohaNetwork(c=net.c, interferers=sets, r_min=net.r_min)
                verdict = bench._aloha_grid_feasible(net, points)
                assert verdict == aloha_grid(net, points)[0], (k, seed)
                verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_gee_compare_pairs(self):
        spec = BenchSpec(experiment="gee-compare", k=1, realizations=2, seed=4)
        rows = run_bench(spec)
        assert len(rows) == 4
        algos = {row.algorithm for row in rows}
        assert algos == {"brb", "dinkelbach"}
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row.instance_id, {})[row.algorithm] = row
        for pair in by_instance.values():
            assert abs(pair["brb"].objective - pair["dinkelbach"].objective) <= 0.02


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


_WSR2 = {
    "schema": "mmp-bench/1",
    "type": "wsr",
    "K": 2,
    "alpha": [1.0, 1.0],
    "beta": [[0.0, 0.5], [0.5, 0.0]],
    "sigma2": 0.01,
    "P": [1.0, 1.0],
}
_GEE2 = dict(_WSR2, type="gee", phi=[5.0, 5.0], Pc=1.0)
_ALOHA2 = {"schema": "mmp-bench/1", "type": "aloha", "K": 2, "c": [1.0, 1.0]}

# malformed documents, each with the field its error must name
MALFORMED = [
    (dict(_WSR2, sigma2="abc"), "sigma2"),
    (dict(_WSR2, sigma2=[1, 2]), "sigma2"),
    (dict(_WSR2, beta=[["a", 0.5], [0.5, 0.0]]), "beta"),
    (dict(_GEE2, B="x"), "B"),
    (dict(_ALOHA2, interferers=[1, 0]), "interferers"),
    (dict(_ALOHA2, interferers=[["x"], [0]]), "interferers"),
    (dict(_WSR2, beta=[[0.0, 0.5], [0.5]]), "beta"),
    # JSON strings are not numbers
    (dict(_WSR2, sigma2="0.01"), "sigma2"),
    (dict(_WSR2, alpha=["1.0", 1.0]), "alpha"),
    (dict(_GEE2, B="1.0"), "B"),
    (dict(_GEE2, Pc="1.0"), "Pc"),
    (dict(_WSR2, sigma2=10**400), "sigma2"),  # past the float range
]

_WSR1 = dict(_WSR2, K=1, alpha=[1.0], beta=[[0.0]], P=[1.0])

# documents that used to load with a truncated or coerced field
NON_INTEGRAL_OR_BOOLEAN = [
    (dict(_WSR1, K=1.9), "K"),
    (dict(_WSR1, K=True), "K"),
    (dict(_ALOHA2, interferers=[[1.7], [0.2]]), "interferers"),
    (dict(_WSR2, sigma2=True), "sigma2"),
]


class TestLoadInstance:
    @pytest.mark.parametrize("doc, field", MALFORMED)
    def test_malformed_field_raises_parse_error(self, tmp_path, doc, field):
        with pytest.raises(ParseError, match=f"'{field}'"):
            load_instance(write_instance(tmp_path, doc))

    @pytest.mark.parametrize("doc, field", NON_INTEGRAL_OR_BOOLEAN)
    def test_non_integral_or_boolean_field_rejected(self, tmp_path, doc, field):
        with pytest.raises(ParseError, match=f"'{field}'"):
            load_instance(write_instance(tmp_path, doc))

    def test_integral_floats_accepted(self, tmp_path):
        doc = dict(_ALOHA2, K=2.0, interferers=[[1.0], [0]])
        assert load_instance(write_instance(tmp_path, doc)).dim == 2

    def test_minimal_single_user(self, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "schema": "mmp-bench/1",
                "type": "wsr",
                "K": 1,
                "alpha": [1.0],
                "beta": [[0.0]],
                "sigma2": 0.01,
                "P": [1.0],
            },
        )
        prob = load_instance(path)
        np.testing.assert_allclose(prob.initial_box.r, [0.0])
        np.testing.assert_allclose(prob.initial_box.s, [1.0])

    def test_wrong_beta_shape(self, tmp_path):
        path = write_instance(
            tmp_path,
            {
                "schema": "mmp-bench/1",
                "type": "wsr",
                "K": 2,
                "alpha": [1.0, 1.0],
                "beta": [[0.0, 1.0]],
                "sigma2": 0.01,
                "P": [1.0, 1.0],
            },
        )
        with pytest.raises(ParseError, match="beta"):
            load_instance(path)

    def test_unknown_type(self, tmp_path):
        path = write_instance(
            tmp_path, {"schema": "mmp-bench/1", "type": "scheduling", "K": 1}
        )
        with pytest.raises(ParseError, match="type"):
            load_instance(path)

    def test_schema_version(self, tmp_path):
        path = write_instance(tmp_path, {"schema": "mmp-bench/2", "type": "wsr", "K": 1})
        with pytest.raises(SchemaVersionError):
            load_instance(path)

    def test_gee_and_aloha_documents(self, tmp_path):
        gee = write_instance(
            tmp_path,
            {
                "schema": "mmp-bench/1",
                "type": "gee",
                "K": 1,
                "alpha": [1.0],
                "beta": [[0.0]],
                "sigma2": 0.01,
                "P": [1.0],
                "phi": [5.0],
                "Pc": 1.0,
            },
            name="gee.json",
        )
        assert load_instance(gee).feasibility_mode == "normal"
        aloha = write_instance(
            tmp_path,
            {"schema": "mmp-bench/1", "type": "aloha", "K": 2, "c": [1.0, 1.0]},
            name="aloha.json",
        )
        prob = load_instance(aloha)
        assert prob.feasibility_mode == "custom-oracle"
        np.testing.assert_allclose(prob.initial_box.s, [1.0, 1.0])


class TestCli:
    def instance_path(self, tmp_path):
        return write_instance(
            tmp_path,
            {
                "schema": "mmp-bench/1",
                "type": "wsr",
                "K": 1,
                "alpha": [1.0],
                "beta": [[0.0]],
                "sigma2": 0.01,
                "P": [1.0],
            },
        )

    def test_single_solve_to_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = main(
            [
                "--experiment",
                "single-solve",
                "--instance",
                str(self.instance_path(tmp_path)),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0].objective == pytest.approx(math.log2(101.0), abs=0.01)

    def test_trace_flag(self, tmp_path):
        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "--experiment",
                "single-solve",
                "--instance",
                str(self.instance_path(tmp_path)),
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert trace.read_text().splitlines()[0] == "k,box_id,upper_bound,gamma,queue_size"

    def test_json_output_and_flags(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(
            [
                "--experiment",
                "wsr-compare",
                "--k",
                "2",
                "--realizations",
                "2",
                "--repr",
                "mmp,dm",
                "--selection",
                "best,oldest",
                "--seed",
                "1",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_json(out)
        assert len(rows) == 2 * 2 * 2

    def test_spec_failure_exit_code(self, tmp_path, capsys):
        rc = main(["--experiment", "wsr-compare", "--realizations", "0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_instance_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, dict(_WSR2, sigma2="abc"))
        rc = main(["--experiment", "single-solve", "--instance", str(path)])
        assert rc == 1
        assert "error: field 'sigma2'" in capsys.readouterr().err

    def test_bad_solver_setting_exit_code(self, capsys):
        rc = main(["--experiment", "wsr-compare", "--k", "1", "--eta", "-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: eta must be positive" in captured.err

    def test_representation_on_gee_exit_code(self, capsys):
        rc = main(["--experiment", "gee-compare", "--k", "1", "--repr", "dm"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_representation_exit_code(self, capsys):
        rc = main(["--experiment", "wsr-compare", "--k", "1", "--repr", "foo"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unknown representation 'foo'" in captured.err

    def test_error_rows_exit_code(self, tmp_path, monkeypatch):
        def exploding_solve(problem, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "solve", exploding_solve)
        out = tmp_path / "out.csv"
        rc = main(
            [
                "--experiment",
                "wsr-compare",
                "--k",
                "1",
                "--realizations",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 2

    def test_stdout_default(self, tmp_path, capsys):
        rc = main(
            [
                "--experiment",
                "single-solve",
                "--instance",
                str(self.instance_path(tmp_path)),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)


# Rows of four small batches, without wall_time_s, and the trace file names
# they write, recorded before run_bench became one loop over a table of
# experiments.  Objectives are the exact floats; no row has an error.
GOLDEN_DOC = {
    "schema": "mmp-bench/1",
    "type": "wsr",
    "K": 2,
    "alpha": [1.0, 0.7],
    "beta": [[0.0, 0.4], [0.9, 0.0]],
    "sigma2": 0.01,
    "P": [1.0, 1.0],
    "w": [1.0, 2.0],
}
GOLDEN_SPECS = {
    "wsr-compare": dict(
        experiment="wsr-compare",
        k=2,
        realizations=2,
        seed=5,
        representations=("mmp", "dm"),
        selections=("best-first", "oldest-first"),
        reductions=(True, False),
    ),
    "gee-compare": dict(experiment="gee-compare", k=2, realizations=2, seed=5),
    "aloha": dict(experiment="aloha", k=2, realizations=2, seed=5),
    "single-solve": dict(experiment="single-solve", representations=("mmp", "dm")),
}
# (instance_id, seed) -> rows in order, each (algorithm, representation,
# selection, reduction, status, objective, iterations, peak_regions)
GOLDEN_ROWS = {
    "wsr-compare": {
        ("wsr-k2-000", 15658875773272509128): [
            ("brb", "mmp", "best-first", True, "eta-optimal", 6.601647019353274, 11, 3),
            ("brb", "mmp", "best-first", False, "eta-optimal", 6.601647019353274, 25, 8),
            ("brb", "mmp", "oldest-first", True, "eta-optimal", 6.601647019353274, 13, 3),
            ("brb", "mmp", "oldest-first", False, "eta-optimal", 6.601647019353274, 39, 6),
            ("brb", "dm", "best-first", True, "eta-optimal", 6.604443992146226, 19, 6),
            ("brb", "dm", "best-first", False, "eta-optimal", 6.604443992146226, 54, 12),
            ("brb", "dm", "oldest-first", True, "eta-optimal", 6.604443992146226, 27, 5),
            ("brb", "dm", "oldest-first", False, "eta-optimal", 6.604443992146226, 70, 12),
        ],
        ("wsr-k2-001", 6924645418555453511): [
            ("brb", "mmp", "best-first", True, "eta-optimal", 6.378864034430083, 11, 5),
            ("brb", "mmp", "best-first", False, "eta-optimal", 6.383050188152673, 71, 13),
            ("brb", "mmp", "oldest-first", True, "eta-optimal", 6.378864034430083, 15, 3),
            ("brb", "mmp", "oldest-first", False, "eta-optimal", 6.383050188152673, 86, 8),
            ("brb", "dm", "best-first", True, "eta-optimal", 6.381656152768604, 19, 5),
            ("brb", "dm", "best-first", False, "eta-optimal", 6.383050188152673, 107, 18),
            ("brb", "dm", "oldest-first", True, "eta-optimal", 6.381656152768604, 27, 5),
            ("brb", "dm", "oldest-first", False, "eta-optimal", 6.383050188152673, 130, 16),
        ],
    },
    "gee-compare": {
        ("gee-k2-000", 15658875773272509128): [
            ("brb", "mmp", "best-first", False, "eta-optimal", 2.283550313822412, 172, 31),
            ("dinkelbach", "dm", "best-first", False, "eta-optimal", 2.2835516640790834, 2287, 84),
        ],
        ("gee-k2-001", 6924645418555453511): [
            ("brb", "mmp", "best-first", False, "eta-optimal", 2.154416619858372, 436, 83),
            ("dinkelbach", "dm", "best-first", False, "eta-optimal", 2.154417964163976, 4666, 177),
        ],
    },
    "aloha": {
        ("aloha-k2-000", 1725439304048894018): [
            ("brb", "mmp", "best-first", False, "eta-optimal", -3.965136907834448, 45, 11),
        ],
        ("aloha-k2-001", 13230002727910310950): [
            ("brb", "mmp", "best-first", False, "eta-optimal", -10.770871420925069, 20, 11),
        ],
    },
    "single-solve": {
        ("net2", 0): [
            ("brb", "mmp", "best-first", False, "eta-optimal", 12.293932728745416, 28, 8),
            ("brb", "dm", "best-first", False, "eta-optimal", 12.296714823834499, 52, 14),
        ],
    },
}
GOLDEN_TRACES = {
    "wsr-compare": [
        "t-wsr-k2-000-dm-best-first+red.csv",
        "t-wsr-k2-000-dm-best-first.csv",
        "t-wsr-k2-000-dm-oldest-first+red.csv",
        "t-wsr-k2-000-dm-oldest-first.csv",
        "t-wsr-k2-000-mmp-best-first+red.csv",
        "t-wsr-k2-000-mmp-best-first.csv",
        "t-wsr-k2-000-mmp-oldest-first+red.csv",
        "t-wsr-k2-000-mmp-oldest-first.csv",
        "t-wsr-k2-001-dm-best-first+red.csv",
        "t-wsr-k2-001-dm-best-first.csv",
        "t-wsr-k2-001-dm-oldest-first+red.csv",
        "t-wsr-k2-001-dm-oldest-first.csv",
        "t-wsr-k2-001-mmp-best-first+red.csv",
        "t-wsr-k2-001-mmp-best-first.csv",
        "t-wsr-k2-001-mmp-oldest-first+red.csv",
        "t-wsr-k2-001-mmp-oldest-first.csv",
    ],
    "gee-compare": [
        "t-gee-k2-000-best-first.csv",
        "t-gee-k2-001-best-first.csv",
    ],
    "aloha": [
        "t-aloha-k2-000-best-first.csv",
        "t-aloha-k2-001-best-first.csv",
    ],
    "single-solve": [
        "t-net2-dm-best-first.csv",
        "t-net2-mmp-best-first.csv",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_bench_rows(name, tmp_path):
    kwargs = dict(GOLDEN_SPECS[name])
    if name == "single-solve":
        kwargs["instance_path"] = str(write_instance(tmp_path, GOLDEN_DOC, name="net2.json"))
    traces = tmp_path / "traces"
    traces.mkdir()
    rows = run_bench(BenchSpec(**kwargs, trace_path=str(traces / "t.csv")))
    assert all(row.error is None for row in rows)
    got = {}
    for row in rows:
        got.setdefault((row.instance_id, row.seed), []).append(astuple(row)[1:9])
    assert list(got.items()) == list(GOLDEN_ROWS[name].items())
    assert sorted(p.name for p in traces.iterdir()) == GOLDEN_TRACES[name]

