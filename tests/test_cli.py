"""Command-line harness: exit codes, CSV schema, determinism, round-trips."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import parieq
from parieq.cli import main
from parieq.errors import ConfigError
from parieq.metrics import METRICS
from parieq.scenario import (build_measure, bundled_scenarios, dump_scenario,
                             load_scenario, loads_scenario, parse_scenario)

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


def scaled_chain(depth):
    # JSON text, since json.dumps itself recurses once per level
    return ('{"kind": "scaled", "factor": 1.0, "base": ' * depth
            + '{"kind": "uniform"}' + "}" * depth)


def deep_scenario(tmp_path, measure, extra=""):
    path = tmp_path / "deep.cfg"
    path.write_text('{"name": "deep", "q": 0.7, "w": 1.0, "kappa": 0.8, '
                    f'"measure": {measure}{extra}}}\n')
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
        path = write_scenario(tmp_path, q=0.9, p_actual=0.9, metrics=list(METRICS))
        assert main(["solve", "--scenario", str(path)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header[-len(METRICS):] == list(METRICS)
        assert all(math.isfinite(float(rows[0][name])) for name in METRICS)

    def test_metric_cells_look_the_function_up_at_call_time(self, tmp_path, capsys,
                                                            monkeypatch):
        # the benchmark's tracer wraps parieq.metrics.* by replacing them there
        import parieq.metrics
        monkeypatch.setattr(parieq.metrics, "house_revenue", lambda eq, params: 0.125)
        path = write_scenario(tmp_path)
        assert main(["solve", "--scenario", str(path)]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["house_revenue"] == "0.125"

    def test_no_equilibrium_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path, kappa=0.5)
        assert main(["solve", "--scenario", str(path)]) == 2
        assert "no equilibrium: kappa must exceed 0.5" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a solver failure is neither a config error nor a missing equilibrium
        import parieq.cli as cli_mod
        from parieq.errors import QuadratureError

        def failing_solve(params, measure):
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

    @pytest.mark.parametrize("measure, extra", [
        (scaled_chain(990), ""),
        ('{"kind": "uniform"}', ', "ignored": ' + "[" * 100_000 + "]" * 100_000),
    ], ids=["scaled-chain", "nested-arrays"])
    def test_deep_nesting_names_the_file(self, tmp_path, capsys, measure, extra):
        # past the decoder's recursion limit
        path = deep_scenario(tmp_path, measure, extra)
        assert main(["solve", "--scenario", str(path)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_scaled_chain_a_few_hundred_deep_solves(self, tmp_path, capsys):
        # factor 1.0 scales exactly, so the chain's row is its base's row
        rows = []
        for measure in ('{"kind": "uniform"}', scaled_chain(300)):
            assert main(["solve", "--scenario", str(deep_scenario(tmp_path, measure))]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_scaled_chain_past_the_depth_limit_is_a_config_error(self, tmp_path, capsys):
        # the decoder takes 501 levels; the solver would recurse once per
        # level on every density and mass call, and crash at about 984
        path = deep_scenario(tmp_path, scaled_chain(501))
        for command in ("solve", "optimize-take", "oracle"):
            assert main([command, "--scenario", str(path)]) == 1
            assert "config error: 'scaled' records nest over 500 deep" in capsys.readouterr().err

    def test_scaled_chain_at_the_depth_limit_runs_every_command(self, tmp_path, capsys):
        path = deep_scenario(tmp_path, scaled_chain(500),
                             ', "metrics": ["diffuse_subjective_profit"]')
        for command in ("solve", "optimize-take", "oracle"):
            assert main([command, "--scenario", str(path)]) == 0
            assert capsys.readouterr().err == ""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--scenario", str(tmp_path / "nope.cfg")]) == 1

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        # JSON is UTF-8; a UTF-16 file starts with the bytes ff fe
        path = write_scenario(tmp_path)
        path.write_bytes(path.read_text().encode("utf-16"))
        assert path.read_bytes().startswith(b"\xff\xfe")
        assert main(["solve", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read scenario file {path}: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("overrides", [
        dict(q=1.5),
        dict(w=0.0),
        dict(kappa={"lo": 0.4, "hi": 0.9, "steps": 5}),
        dict(kappa={"lo": 0.6, "hi": 0.9, "steps": 1}),
        dict(metrics=["not_a_metric"]),
        dict(metrics=[["house_revenue"]]),  # unhashable
        dict(metrics=["house_revenue", "house_revenue"]),
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
        # a coefficient overflows, and its term at p = 0 is inf * 0.0 = NaN
        dict(measure={"kind": "gaussian_mixture", "weights": [1e300, 1e300],
                      "means": [0.5, 0.5], "stddevs": [1e-10, 0.2]}),
        # a piece whose slope overflows
        dict(measure={"kind": "tabulated",
                      "knots": [[0, 1], [1e-310, 1], [1e-300, 1e10], [1, 1]]}),
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

    def test_a_metric_listed_twice_is_named(self, tmp_path, capsys):
        path = write_scenario(tmp_path, metrics=["house_revenue", "atomic_subjective_profit",
                                                 "house_revenue"])
        assert main(["solve", "--scenario", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: metric 'house_revenue' is listed more than once\n"

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb", "a,b\nc"],
                             ids=["comma", "quote", "cr", "lf", "comma-lf"])
    @pytest.mark.parametrize("command", ["solve", "sweep", "optimize-take"])
    def test_a_name_that_would_break_the_csv_is_rejected(self, tmp_path, capsys,
                                                         command, name):
        # every command writes the name raw into its CSV rows
        path = write_scenario(tmp_path, kappa={"lo": 0.6, "hi": 0.9, "steps": 3}
                              if command == "sweep" else 0.8)
        path.write_text(json.dumps({**json.loads(path.read_text()), "name": name}))
        out = tmp_path / "out.csv"
        argv = [command, "--scenario", str(path)]
        if command != "solve":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == (f"config error: scenario name {name!r} must not contain a comma, "
                       "a double quote, CR or LF\n")

    def test_sweep_range_is_the_take_search_interval(self, tmp_path, capsys):
        path = write_scenario(tmp_path, kappa={"lo": 0.5, "hi": 0.9, "steps": 5})
        assert main(["sweep", "--scenario", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert ("sweep range must satisfy 0.5001 <= lo <= hi <= 0.9999"
                in capsys.readouterr().err)

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
        ("optimize-take", ["--grid", "8"]),
        ("oracle", ["--n", "1"]),
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

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_boundaries_out_of_order_are_a_solver_failure(self, tmp_path, capsys,
                                                          command):
        # on this steep wedge the two action boundaries bisect to one point
        path = write_scenario(tmp_path, measure={"kind": "wedge", "n": 2**20},
                              q=0.01, kappa=0.6)
        assert main([command, "--scenario", str(path)]) == 3
        assert "action boundaries out of order" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["optimize-take", "--scenario", "x.cfg", "--grid", "abc"],
        # no command has a tolerance to set
        ["optimize-take", "--scenario", "x.cfg", "--fp-tol", "1e-10"],
        ["solve", "--scenario", "x.cfg", "--fp-tol", "1e-10"],
        ["sweep", "--scenario", "x.cfg", "--out", "x.csv", "--fp-tol", "1e-10"],
        ["oracle", "--scenario", "x.cfg", "--fp-tol", "1e-10"],
        ["solve"],
        ["oracle", "--scenario", "x.cfg", "--n", "abc"],
        ["frobnicate"],
        [],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_usage_error_is_a_config_error(self, capsys, argv):
        # argparse's own exit code, 2, is the one for no equilibrium
        assert main(argv) == 1
        assert "usage: parieq" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["solve"], ["sweep"], ["optimize-take"],
                                         ["oracle"]],
                             ids=lambda argv: " ".join(argv) or "no-command")
    def test_help_exits_zero(self, capsys, command):
        assert main([*command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: parieq")
        assert "--fp-tol" not in out

    @pytest.mark.parametrize("command", ["solve", "optimize-take"])
    def test_vanishing_totals_are_a_solver_failure(self, tmp_path, capsys, command):
        # the largest wedge order cancels its antiderivative, so near
        # kappa = 0.5 both small-bettor totals round to zero at a band end
        path = write_scenario(tmp_path, measure={"kind": "wedge", "n": 2**53},
                              q=0.9, kappa=0.5001)
        assert main([command, "--scenario", str(path)]) == 3
        assert "small-bettor totals vanish" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("solve", []), ("sweep", ["--out", "sweep.csv"]), ("optimize-take", ["--grid", "16"]),
    ("oracle", ["--n", "50"])])
def test_each_command_builds_its_measure_once(tmp_path, capsys, monkeypatch,
                                              command, extra):
    # every kernel underflows at its far end, so no floor is proven and each
    # build scans the density once
    import parieq.measure as measure_mod
    real_scan, scans = measure_mod._validate_density, []

    def counting_scan(*args):
        scans.append(args)
        return real_scan(*args)

    monkeypatch.setattr(measure_mod, "_validate_density", counting_scan)
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, measure={
        "kind": "gaussian_mixture", "weights": [1, 1], "means": [0.02, 0.98],
        "stddevs": [0.02, 0.02]}, **({"kappa": {"lo": 0.6, "hi": 0.9, "steps": 2}}
                                      if command == "sweep" else {}))
    assert main([command, "--scenario", str(path), *extra]) == 0
    assert len(scans) == 1


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
    def test_bundled_sweep_matches_reference_bytes(self, tmp_path, name):
        # the benchmark checks one of these files per run, from sweep_csv;
        # this runs all six through the command line, so a changed digit,
        # column, row order or solve tolerance fails here too
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--scenario", str(bundled_scenarios()[name]),
                     "--out", str(out), "--baseline"]) == 0
        assert out.read_bytes() == (REFERENCE_SWEEPS / f"{name}.csv").read_bytes()

    def test_scalar_scenario_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, kappa={"lo": 0.6, "hi": 0.9, "steps": 3})
        out = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 1
        _, err = capsys.readouterr()
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1

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

    def test_masses_that_round_negative_give_error_rows(self):
        # math.sqrt fails on a stake there; solve raises a DomainError, so
        # the row gets a status cell instead of ending the file
        from parieq.cli import sweep_csv
        from test_equilibrium import _rippled
        sc = load_scenario(bundled_scenarios()["example1"])
        text = sweep_csv(dataclasses.replace(sc, q=0.1, belief_measure=_rippled()),
                         1e-10, True)
        _, rows = parse_csv(text)
        statuses = [r["status"] for r in rows]
        assert len(rows) == 100 and statuses.count("ok") == 90
        assert set(statuses) == {"ok", "error: DomainError"}


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

    def test_takes_where_solve_fails_do_not_end_the_search(self, tmp_path, capsys):
        # solve raises "action boundaries out of order" at three grid takes
        # of this mixture (test_stackelberg.py); the grid's lanes finish them
        path = write_scenario(tmp_path, q=0.8, measure={
            "kind": "gaussian_mixture", "weights": [1, 1], "means": [0.7, 0.9],
            "stddevs": [0.05, 0.05]})
        assert main(["optimize-take", "--scenario", str(path)]) == 0
        stdout, err = capsys.readouterr()
        assert err == ""
        _, rows = parse_csv(stdout)
        assert len(rows) == 1 and 0.5 < float(rows[0]["kappa_star"]) < 1.0

    def test_unwritable_out_is_a_config_error_and_prints_nothing(self, tmp_path,
                                                                  capsys):
        path = write_scenario(tmp_path, q=0.9)
        out = tmp_path / "missing" / "profile.csv"
        assert main(["optimize-take", "--scenario", str(path),
                     "--out", str(out), "--grid", "32"]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"config error: cannot write {out}: ")
        assert len(err.splitlines()) == 1


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


# the parieq console script, run with the test-only packages unimportable
_WITHOUT_TEST_PACKAGES = """
import importlib.abc
import sys


class Unimportable(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis", "pytest"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Unimportable())
from parieq.cli import console_entry
console_entry()
"""


def test_solve_needs_only_numpy_at_run_time(tmp_path):
    path = write_scenario(tmp_path, metrics=list(METRICS), p_actual=0.6)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_TEST_PACKAGES, "solve",
                           "--scenario", str(path)],
                          capture_output=True, text=True,
                          cwd=Path(parieq.__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# schema=1")
