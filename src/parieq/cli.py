"""Command-line experiment harness.

Subcommands: solve (one CSV row to stdout), sweep (CSV file over a kappa
grid), optimize-take (revenue-maximizing kappa plus profile CSV), oracle
(finite-population cross-check). Exit codes: 0 success, 1 usage or config
error, 2 no equilibrium, 3 any other solver failure (such as quadrature).
"""

import argparse
import sys
from pathlib import Path

from .equilibrium import FP_TOL, solve
from .errors import ConfigError, NoEquilibriumError, ParieqError
from .metrics import METRICS
from .oracle import MIN_POPULATION, discretize, iterate_best_response
from .response import MarketParams
from .scenario import Scenario, load_scenario
from .stackelberg import MIN_GRID_POINTS, optimize_take

SCHEMA_LINE = "# schema=1"
BASELINE_W = 1e-10

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_EQUILIBRIUM = 2
EXIT_SOLVER = 3

_CORE_COLUMNS = ("name", "kappa", "q", "w", "p_star", "d1", "d2",
                 "a1", "a2", "residual")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _metric_values(sc: Scenario, params: MarketParams, eq) -> list[str]:
    return [_fmt(METRICS[name](eq, params, sc.belief_measure, sc.p_actual))
            for name in sc.metrics]


def _core_values(sc: Scenario, kappa: float, w: float, eq) -> list[str]:
    return [sc.name, _fmt(kappa), _fmt(sc.q), _fmt(w), _fmt(eq.p_star),
            _fmt(eq.d1_star), _fmt(eq.d2_star), _fmt(eq.atomic.a1),
            _fmt(eq.atomic.a2), _fmt(eq.residual)]


def _solve_scalar(sc: Scenario, command: str):
    """The market at the scenario's one kappa, and its equilibrium."""
    if sc.is_sweep:
        raise ConfigError(f"'{command}' needs a scalar kappa; use 'sweep' for grids")
    params = MarketParams(kappa=sc.kappa, q=sc.q, w=sc.w)
    return params, solve(params, sc.belief_measure)


def run_solve(sc: Scenario) -> int:
    params, eq = _solve_scalar(sc, "solve")
    print(SCHEMA_LINE)
    print(",".join(_CORE_COLUMNS + sc.metrics))
    print(",".join(_core_values(sc, sc.kappa, sc.w, eq)
                   + _metric_values(sc, params, eq)))
    return EXIT_OK


def sweep_csv(sc: Scenario, fp_tol: float, baseline: bool) -> str:
    """Render the sweep CSV; rows ordered by kappa ascending, then budget."""
    if not sc.is_sweep:
        raise ConfigError("'sweep' needs a kappa grid; use 'solve' for scalars")
    budgets = sorted({BASELINE_W, sc.w}) if baseline else [sc.w]
    header = ",".join(_CORE_COLUMNS[:4] + ("status",) + _CORE_COLUMNS[4:]
                      + sc.metrics)
    lines = [SCHEMA_LINE, header]
    n_tail = 6 + len(sc.metrics)
    for kappa in sc.kappa.kappas():
        for w in budgets:
            prefix = [sc.name, _fmt(kappa), _fmt(sc.q), _fmt(w)]
            try:
                params = MarketParams(kappa=kappa, q=sc.q, w=w)
                eq = solve(params, sc.belief_measure, fp_tol=fp_tol)
                cells = (_core_values(sc, kappa, w, eq)
                         + _metric_values(sc, params, eq))
                cells.insert(len(prefix), "ok")
            except NoEquilibriumError:
                cells = prefix + ["no_equilibrium"] + [""] * n_tail
            except ParieqError as exc:
                cells = prefix + [f"error: {exc.__class__.__name__}"] + [""] * n_tail
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_optimize_take(sc: Scenario, grid: int, out_path) -> int:
    opt = optimize_take(sc.belief_measure, sc.q, sc.w, grid_points=grid)
    if out_path is not None:  # before printing, so a failed write prints nothing
        lines = [SCHEMA_LINE, "name,kappa,revenue"]
        lines += [f"{sc.name},{_fmt(k)},{_fmt(r)}" for k, r in opt.profile]
        _write(out_path, "\n".join(lines) + "\n")
    print(SCHEMA_LINE)
    print("name,kappa_star,revenue_star")
    print(f"{sc.name},{_fmt(opt.kappa_star)},{_fmt(opt.revenue_star)}")
    return EXIT_OK


def run_oracle(sc: Scenario, n: int) -> int:
    params, eq = _solve_scalar(sc, "oracle")
    res = iterate_best_response(discretize(sc.belief_measure, n), params)
    print(f"p_approx={_fmt(res.p_approx)}")
    print(f"p_star={_fmt(eq.p_star)}")
    print(f"gap={_fmt(abs(res.p_approx - eq.p_star))}")
    print(f"converged={res.converged}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parieq",
        description="Equilibrium solver and experiment harness for "
                    "parimutuel wagering with one large bettor.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario .cfg path")

    p = sub.add_parser("solve", help="solve one scalar-kappa scenario")
    common(p)

    p = sub.add_parser("sweep", help="solve across the scenario's kappa grid")
    common(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--baseline", action="store_true",
                   help=f"also solve with the tiny budget w={BASELINE_W:g}")

    p = sub.add_parser("optimize-take", help="find the revenue-maximizing kappa")
    common(p)
    p.add_argument("--out", default=None, help="profile CSV path")
    p.add_argument("--grid", type=int, default=256,
                   help="kappa grid points (default %(default)s)")

    p = sub.add_parser("oracle", help="finite-population cross-check")
    common(p)
    p.add_argument("--n", type=int, default=2000,
                   help="population size (default %(default)s)")
    return parser


def _check_numbers(args) -> None:
    # the library would reject these too, but only mid-run: as solver
    # failures, or as one error row per kappa in a sweep file
    if args.command == "optimize-take" and args.grid < MIN_GRID_POINTS:
        raise ConfigError(f"--grid must be at least {MIN_GRID_POINTS}, got {args.grid}")
    if args.command == "oracle" and args.n < MIN_POPULATION:
        raise ConfigError(f"--n must be at least {MIN_POPULATION}, got {args.n}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        _check_numbers(args)
        sc = load_scenario(args.scenario)
        if args.command == "solve":
            return run_solve(sc)
        if args.command == "sweep":
            _write(args.out, sweep_csv(sc, FP_TOL, args.baseline))
            return EXIT_OK
        if args.command == "optimize-take":
            return run_optimize_take(sc, args.grid, args.out)
        if args.command == "oracle":
            return run_oracle(sc, args.n)
        raise AssertionError(args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoEquilibriumError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    except ParieqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_entry() -> None:
    sys.exit(main())
