"""Command-line harness: exit codes, CSV schema, determinism, round-trips."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import parieq
from parieq.cli import main, sweep_csv
from parieq.equilibrium import FP_TOL
from parieq.errors import ConfigError
from parieq.scenario import (METRIC_NAMES, build_measure, bundled_scenarios,
                             dump_scenario, load_scenario, loads_scenario,
                             parse_scenario)

REFERENCE_SWEEPS = (Path(__file__).resolve().parents[1]
                    / "benchmarks" / "reference" / "sweep")


def write_scenario(tmp_path, name="tmp", **overrides):
    obj = {
        "name": name,
        "measure": {"kind": "wedge", "n": 1},
        "q": 0.5,
        "w": 1.0,
        "kappa": 0.8,
        "metrics": ["house_revenue"],
    }
    obj.update(overrides)
    path = tmp_path / f"{name}.cfg"
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return header, rows


class TestSolveCommand:
    def test_symmetric_row(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["solve", "--scenario", str(path)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[:4] == ["name", "kappa", "q", "w"]
        row = rows[0]
        assert abs(float(row["p_star"]) - 0.5) < 1e-8
        assert float(row["a1"]) == 0.0 and float(row["a2"]) == 0.0
        assert float(row["residual"]) <= 1e-10
        assert float(row["house_revenue"]) > 0.0

    def test_every_metric_name_gets_a_column(self, tmp_path, capsys):
        path = write_scenario(tmp_path, q=0.9, p_actual=0.9,
                              metrics=list(METRIC_NAMES))
        assert main(["solve", "--scenario", str(path)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert tuple(header[-len(METRIC_NAMES):]) == METRIC_NAMES
        assert all(math.isfinite(float(rows[0][name])) for name in METRIC_NAMES)

    def test_no_equilibrium_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, kappa=0.5)
        assert main(["solve", "--scenario", str(path)]) == 2
        assert "no equilibrium: kappa must exceed 0.5" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a solver failure is neither a config error nor a missing equilibrium
        import parieq.cli as cli_mod
        from parieq.errors import QuadratureError

        def failing_solve(params, measure, fp_tol):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "solve", failing_solve)
        path = write_scenario(tmp_path)
        assert main(["solve", "--scenario", str(path)]) == cli_mod.EXIT_SOLVER == 3
        assert "error: synthetic failure" in capsys.readouterr().err

    def test_one_sided_market_row(self, tmp_path, capsys):
        path = write_scenario(tmp_path, measure={"kind": "wedge", "n": 100},
                              q=0.0, kappa=0.7)
        assert main(["solve", "--scenario", str(path)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert abs(float(rows[0]["p_star"]) - 0.3) < 0.02

    def test_sweep_scenario_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path,
                              kappa={"lo": 0.6, "hi": 0.9, "steps": 3})
        assert main(["solve", "--scenario", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


class TestConfigErrors:
    def test_malformed_json_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text('{\n  "name": "x",\n  "q": oops\n}\n')
        assert main(["solve", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert ":3:" in err  # line anchor

    def test_overlong_integer_names_the_file(self, tmp_path, capsys):
        # json refuses integers beyond 4300 digits with a plain ValueError
        path = tmp_path / "long.cfg"
        path.write_text('{"name": "x", "measure": {"kind": "uniform"}, "w": 1,'
                        ' "kappa": 0.8, "q": ' + "1" * 5000 + "}\n")
        assert main(["solve", "--scenario", str(path)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--scenario", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("overrides", [
        dict(q=1.5),
        dict(w=0.0),
        dict(kappa={"lo": 0.4, "hi": 0.9, "steps": 5}),
        dict(kappa={"lo": 0.6, "hi": 0.9, "steps": 1}),
        dict(metrics=["not_a_metric"]),
        dict(metrics=["diffuse_actual_profit"]),  # p_actual missing
        dict(measure={"kind": "mystery"}),
        dict(measure={"kind": "wedge"}),  # n missing
        # measures whose density cannot be shown positive
        dict(measure={"kind": "wedge", "n": 10**200}),
        dict(measure={"kind": "symmetrized_wedge", "n": 10**200}),
        dict(measure={"kind": "gaussian_mixture", "weights": [1], "means": [0.5],
                      "stddevs": [0.005]}),
        dict(measure={"kind": "scaled", "base": {"kind": "wedge", "n": 100},
                      "factor": 5e-324}),
        # measures whose total mass overflows
        dict(measure={"kind": "tabulated", "knots": [[0, 1e308], [1, 1e308]]}),
        dict(measure={"kind": "gaussian_mixture", "weights": [1e308, 1e308],
                      "means": [0.3, 0.7], "stddevs": [0.2, 0.2]}),
        dict(measure={"kind": "scaled", "factor": 2.0,
                      "base": {"kind": "scaled", "base": {"kind": "uniform"},
                               "factor": 1e308}}),
    ])
    def test_invalid_fields(self, tmp_path, capsys, overrides):
        path = write_scenario(tmp_path, **overrides)
        assert main(["solve", "--scenario", str(path)]) == 1

    @pytest.mark.parametrize("n", [1.5, True, "7"])
    @pytest.mark.parametrize("kind", ["wedge", "symmetrized_wedge"])
    def test_wedge_order_must_be_a_json_integer(self, tmp_path, kind, n):
        with pytest.raises(ConfigError):
            build_measure({"kind": kind, "n": n})
        path = write_scenario(tmp_path, measure={"kind": kind, "n": n})
        assert main(["solve", "--scenario", str(path)]) == 1

    @pytest.mark.parametrize("measure", [
        {"kind": "scaled", "base": {"kind": "wedge", "n": 1}, "factor": "2"},
        {"kind": "scaled", "base": {"kind": "wedge", "n": 1}, "factor": True},
        {"kind": "gaussian_mixture", "weights": ["1", True], "means": [0.3, 0.7],
         "stddevs": [0.1, 0.1]},
        {"kind": "gaussian_mixture", "weights": [1, 1], "means": [0.3, "0.7"],
         "stddevs": [0.1, 0.1]},
        {"kind": "gaussian_mixture", "weights": "12", "means": "55",
         "stddevs": "11"},  # strings iterate to digits
        {"kind": "tabulated", "knots": [[0, "1"], [1, 1]]},
    ], ids=["factor-string", "factor-bool", "weights", "means", "strings",
            "knot"])
    def test_measure_numbers_must_be_json_numbers(self, tmp_path, measure):
        with pytest.raises(ConfigError):
            build_measure(measure)
        path = write_scenario(tmp_path, measure=measure)
        assert main(["solve", "--scenario", str(path)]) == 1

    @pytest.mark.parametrize("overrides", [
        dict(q=float("nan")),
        dict(w=float("inf")),
        dict(kappa={"lo": float("nan"), "hi": 0.9, "steps": 5}),
        dict(measure={"kind": "scaled", "base": {"kind": "wedge", "n": 1},
                      "factor": float("inf")}),
        dict(measure={"kind": "wedge", "n": float("inf")}),
        dict(measure={"kind": "tabulated", "knots": [[0, 1], [0.5, float("inf")],
                                                      [1, 1]]}),
        dict(measure={"kind": "gaussian_mixture", "weights": [float("inf")],
                      "means": [0.5], "stddevs": [0.2]}),
        dict(q=10**400),  # an integer beyond the float range
    ])
    def test_non_finite_numbers_rejected(self, overrides):
        obj = {"name": "x", "measure": {"kind": "wedge", "n": 1}, "q": 0.5,
               "w": 1.0, "kappa": 0.8, **overrides}
        # json writes NaN/Infinity tokens, which the decoder accepts
        with pytest.raises(ConfigError):
            loads_scenario(json.dumps(obj))


class TestBadNumbers:
    @pytest.mark.parametrize("command, extra", [
        ("solve", ["--fp-tol", "nan"]),
        ("solve", ["--fp-tol", "-1"]),
        ("solve", ["--fp-tol", "0"]),
        ("optimize-take", ["--grid", "8"]),
        ("optimize-take", ["--fp-tol", "nan"]),
        ("oracle", ["--n", "1"]),
        ("sweep", ["--fp-tol", "0"]),
    ], ids=lambda v: v if isinstance(v, str) else "=".join(v).lstrip("-"))
    def test_config_error_before_any_solve_or_file(self, tmp_path, capsys,
                                                  monkeypatch, command, extra):
        import parieq.cli as cli_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the numbers were checked")

        for name in ("solve", "optimize_take"):
            monkeypatch.setattr(cli_mod, name, no_solve)
        path = write_scenario(tmp_path, **(
            {"kappa": {"lo": 0.6, "hi": 0.9, "steps": 3}} if command == "sweep" else {}))
        out = tmp_path / "out.csv"
        argv = [command, "--scenario", str(path), *extra]
        if command in ("sweep", "optimize-take"):
            argv += ["--out", str(out)]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, fp_tol", [("solve", "0.3"), ("solve", "inf"),
                                                 ("optimize-take", "inf")])
    def test_too_coarse_tolerance_is_a_solver_failure(self, tmp_path, capsys,
                                                      command, fp_tol):
        # a positive tolerance is a valid number, but at this one the two
        # action boundaries come out of order
        path = write_scenario(tmp_path)
        assert main([command, "--scenario", str(path), "--fp-tol", fp_tol]) == 3
        assert "action boundaries out of order" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["solve", "optimize-take"])
    def test_vanishing_totals_are_a_solver_failure(self, tmp_path, capsys, command):
        # the largest wedge order cancels its antiderivative, so near
        # kappa = 0.5 both small-bettor totals round to zero at a band end
        path = write_scenario(tmp_path, measure={"kind": "wedge", "n": 2**53},
                              q=0.9, kappa=0.5001)
        assert main([command, "--scenario", str(path)]) == 3
        assert "small-bettor totals vanish" in capsys.readouterr().err


class TestSweepCommand:
    def test_rows_ordered_and_complete(self, tmp_path, capsys):
        path = write_scenario(tmp_path, q=0.9, p_actual=0.9,
                              kappa={"lo": 0.6, "hi": 0.9, "steps": 5},
                              metrics=["house_revenue", "diffuse_actual_profit"])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        assert "status" in header
        assert len(rows) == 5
        kappas = [float(r["kappa"]) for r in rows]
        assert kappas == sorted(kappas)
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["diffuse_actual_profit"] != "" for r in rows)

    def test_baseline_pairs_each_kappa(self, tmp_path):
        path = write_scenario(tmp_path, q=0.9,
                              kappa={"lo": 0.6, "hi": 0.9, "steps": 4})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out),
                     "--baseline"]) == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 8
        budgets = {float(r["w"]) for r in rows}
        assert budgets == {1e-10, 1.0}

    def test_byte_identical_reruns(self, tmp_path):
        path = write_scenario(tmp_path, q=0.9,
                              kappa={"lo": 0.55, "hi": 0.95, "steps": 7})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_sweep_matches_reference_bytes(self, name):
        # the benchmark checks one of these files per run; this checks all
        # six, so a changed digit, column or row order fails here too
        got = sweep_csv(load_scenario(bundled_scenarios()[name]), FP_TOL, True)
        assert got.encode() == (REFERENCE_SWEEPS / f"{name}.csv").read_bytes()

    def test_scalar_scenario_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1

    def test_failing_rows_keep_the_file(self, tmp_path, monkeypatch):
        # a per-row solver failure must yield a status cell and blank values
        # while every other row still gets written
        import parieq.cli as cli_mod
        from parieq.errors import QuadratureError
        real_solve = cli_mod.solve

        def flaky_solve(params, measure, fp_tol):
            if abs(params.kappa - 0.75) < 1e-9:
                raise QuadratureError("synthetic failure")
            return real_solve(params, measure, fp_tol=fp_tol)

        monkeypatch.setattr(cli_mod, "solve", flaky_solve)
        path = write_scenario(tmp_path, q=0.9,
                              kappa={"lo": 0.6, "hi": 0.9, "steps": 3})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        assert len(rows) == 3
        statuses = [r["status"] for r in rows]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1] == "error: QuadratureError"
        assert rows[1]["p_star"] == ""
        assert len(rows[1]) == len(header)


class TestOptimizeTakeCommand:
    def test_summary_and_profile(self, tmp_path, capsys):
        path = write_scenario(tmp_path, q=0.9)
        out = tmp_path / "profile.csv"
        assert main(["optimize-take", "--scenario", str(path),
                     "--out", str(out), "--grid", "32"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["name", "kappa_star", "revenue_star"]
        k_star = float(rows[0]["kappa_star"])
        assert abs(k_star - 0.746) < 0.02
        _, profile = parse_csv(out.read_text())
        assert len(profile) == 32
        assert float(rows[0]["revenue_star"]) >= max(
            float(r["revenue"]) for r in profile)


class TestOracleCommand:
    def test_symmetric_gap(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["oracle", "--scenario", str(path), "--n", "500"]) == 0
        out = capsys.readouterr().out
        fields = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert float(fields["gap"]) < 1e-6
        assert fields["converged"] == "True"

    def test_sweep_scenario_rejected(self, tmp_path):
        path = write_scenario(tmp_path,
                              kappa={"lo": 0.6, "hi": 0.9, "steps": 3})
        assert main(["oracle", "--scenario", str(path)]) == 1


class TestBundledSweeps:
    def test_example1_rows_stay_in_the_reported_band(self, tmp_path):
        # the implied probability never leaves [0.5, 0.7] across the grid
        scenario = bundled_scenarios()["example1"]
        out = tmp_path / "ex1.csv"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 50
        for r in rows:
            assert 0.5 <= float(r["p_star"]) <= 0.7
            assert float(r["diffuse_actual_profit"]) < 0.0  # misinformed crowd

    def test_example3_baseline_revenue_dominance_per_row(self, tmp_path):
        # with the large bettor present, take revenue is at least the
        # tiny-budget baseline at every grid point
        scenario = bundled_scenarios()["example3"]
        out = tmp_path / "ex3.csv"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out),
                     "--baseline"]) == 0
        _, rows = parse_csv(out.read_text())
        by_kappa = {}
        for r in rows:
            by_kappa.setdefault(r["kappa"], {})[float(r["w"])] = float(
                r["house_revenue"])
        assert len(by_kappa) == 50
        for kappa, pair in by_kappa.items():
            assert pair[1.0] >= pair[1e-10] - 1e-9, f"kappa={kappa}"


class TestScenarioRoundTrip:
    def test_bundled_files_present(self):
        names = set(bundled_scenarios())
        assert names == {"example1", "example2", "example3",
                         "example4_case1", "example4_case2", "appendixA"}

    def test_bundled_files_round_trip(self):
        for path in bundled_scenarios().values():
            sc = load_scenario(path)
            again = loads_scenario(dump_scenario(sc), origin="round-trip")
            assert again == sc

    @pytest.mark.parametrize("measure", [
        {"kind": "wedge", "n": 7},
        {"kind": "symmetrized_wedge", "n": 3},
        {"kind": "uniform"},
        {"kind": "gaussian_mixture", "weights": [1.0, 0.5], "means": [0.3, 0.75],
         "stddevs": [0.15, 0.1]},
        {"kind": "tabulated", "knots": [[0.0, 0.5], [0.3, 2.0], [1.0, 1.0]]},
        {"kind": "scaled", "factor": 2.5,
         "base": {"kind": "gaussian_mixture", "weights": [0.7], "means": [0.4],
                  "stddevs": [0.2]}},
    ], ids=lambda spec: spec["kind"])
    def test_every_measure_kind_round_trips(self, measure):
        sc = parse_scenario({"name": "kinds", "measure": measure, "q": 0.7,
                             "w": 0.5, "kappa": 0.8, "metrics": []})
        again = loads_scenario(dump_scenario(sc))
        assert again == sc
        assert build_measure(again.measure).total_mass == build_measure(measure).total_mass

    def test_dump_refuses_non_finite_numbers(self):
        sc = load_scenario(bundled_scenarios()["example1"])
        with pytest.raises(ValueError):
            dump_scenario(dataclasses.replace(sc, w=float("inf")))

    def test_dict_round_trip_preserves_precision(self):
        sc = parse_scenario({
            "name": "precise",
            "measure": {"kind": "gaussian_mixture", "weights": [0.1234567890123],
                        "means": [0.5], "stddevs": [0.25]},
            "q": 0.3333333333333333, "w": 1e-10, "kappa": 0.5001,
            "metrics": [],
        })
        assert loads_scenario(dump_scenario(sc)) == sc


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path)
    # run from the directory holding the imported package, so that the child
    # finds it whether it is installed or only on the test run's path
    proc = subprocess.run([sys.executable, "-m", "parieq", "solve",
                           "--scenario", str(path)],
                          capture_output=True, text=True,
                          cwd=Path(parieq.__file__).resolve().parents[1])
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema=1")
