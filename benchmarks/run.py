#!/usr/bin/env python3
"""parieq benchmark: one workload per invocation, closed loop, one client.

    python3 benchmarks/run.py --workload closed_form_sweep --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run repeats the workload's fixed batch of ops for about
``--seconds`` seconds, times set-up in fresh interpreters between the
batches, and prints the end-to-end metrics. Its times are scaled by a
yardstick timed around every segment of ops, which cancels the host's drifting
speed (see yardstick.py). With ``--trace 1`` it prints the per-layer metrics: the
batch runs untraced for half the time and traced for the other half, and the
traced batches must repeat their counts exactly. Every op's outputs are
checked after its batch, outside the timed region. The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs each workload in its own process and prints a table.
"""

import os

# one thread everywhere: the numeric pools must not start workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu narrows it

SETUP_REPS = 9
TRACE_SETUP_REPS = 3
COLD_START_REPS = 5
MIN_BATCHES = 4
MIN_TRACE_BATCHES = 2
TRACE_SLOWDOWN = 2.0  # traced batches take up to about twice as long
TAIL_BEYOND = 10
TAIL_WINDOW = 500  # op executions in one op_ms_tail window, at least
PHI_EVALS_BOUND = 2 + 200 + 16  # endpoints, bisection cap, neighbour scan

END_TO_END = {
    "run_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "measure.build_ms": ("ms", "lower"),
    "scenario.load_ms": ("ms", "lower"),
    "cli.cold_start_ms": ("ms", "lower"),
    "measure.mass_calls": ("count/solve", "lower"),
    "measure.mass_us.closed_form": ("us", "lower"),
    "measure.mass_us.quadrature": ("us", "lower"),
    "measure.self_ms": ("ms", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.density_evals": ("count", "lower"),
    "quadrature.self_ms": ("ms", "lower"),
    "equilibrium.solve_calls": ("count", "lower"),
    "equilibrium.solve_ms_p50": ("ms", "lower"),
    "equilibrium.phi_evals": ("count/solve", "lower"),
    "equilibrium.phi_self_ms": ("ms", "lower"),
    "equilibrium.pbar_self_ms": ("ms", "lower"),
    "equilibrium.self_ms": ("ms", "lower"),
    "response.calls": ("count", "lower"),
    "response.self_ms": ("ms", "lower"),
    "metrics.calls": ("count", "lower"),
    "metrics.self_ms": ("ms", "lower"),
    "stackelberg.solves_per_call": ("count/call", "lower"),
    "stackelberg.self_ms": ("ms", "lower"),
    "oracle.discretize_ms": ("ms", "lower"),
    "oracle.discretize_mass_calls": ("count/call", "lower"),
    "oracle.iterate_ms": ("ms", "lower"),
    "oracle.iterations": ("count/call", "lower"),
    "oracle.converged_ratio": ("ratio", "higher"),
    "oracle.gap_max": ("prob", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

if not (SRC / "parieq" / "__init__.py").is_file():
    print(f"benchmark: no parieq package under {SRC}; run from a full "
          "checkout of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import parieq.scenario as S  # noqa: E402
import workloads as W  # noqa: E402
import yardstick as Y  # noqa: E402
from parieq.cli import sweep_csv  # noqa: E402
from spans import MASS_CLOSED, MASS_QUAD, Tracer  # noqa: E402


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def summary(values) -> dict:
    """Median and quartiles, as statistics.quantiles gives them."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def tail(latencies) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def windowed_tail(per_batch) -> tuple[float, float, int, int]:
    """(median tail, its percentile, window size, window count).

    The run's op executions are cut into windows of whole batches with at
    least TAIL_WINDOW executions each, and each window's tail is taken. A
    window of a few hundred executions puts the tail near p98, at the slow
    ops; over a whole run of 26,400 executions it would sit at p99.97 and read
    whichever ops the host happened to stall. A run with fewer than
    TAIL_WINDOW executions is one window; batches left over after the last
    whole window count for op_ms_p50 only.
    """
    k = -(-TAIL_WINDOW // len(per_batch[0]))
    windows = [sum(per_batch[i:i + k], [])
               for i in range(0, len(per_batch) - k + 1, k)]
    windows = windows or [sum(per_batch, [])]
    tails = [tail(w) for w in windows]
    return (statistics.median(t for t, _ in tails), tails[0][1],
            len(windows[0]), len(windows))


# --------------------------------------------------------------------------
# batches
# --------------------------------------------------------------------------

class Batch:
    def __init__(self, wall, raw_wall, latencies, outputs, verdicts, log):
        self.wall = wall
        self.raw_wall = raw_wall
        self.latencies = latencies
        self.outputs = outputs
        self.verdicts = verdicts  # per op: (wrong, misses)
        self.log = log            # SpanLog of a traced batch, else None
        # (per-layer figures, exact counts) of a traced batch
        self.figures = layer_figures(log) if log is not None else None

    def problems(self, ops, which: int) -> list:
        return [(op.key, p) for op, v in zip(ops, self.verdicts) for p in v[which]]


def same(a, b) -> bool:
    """Exact equality of op outputs, arrays and dataclasses included."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    return not isinstance(a, Exception) and a == b


def run_batch(ops, traced: bool, first=None, segment: int = 0) -> Batch:
    """Run every op once; check the outputs, or match them to ``first``'s.

    The inputs repeat, so a later batch must reproduce the first batch's
    outputs exactly and then shares its verdicts. With ``segment`` > 0 the
    ops run in segments of that many, the yardstick runs before and after each
    segment, and the batch's wall time and latencies are scaled by it;
    ``raw_wall`` keeps the clock's reading.
    """
    gc.collect()
    tracer = Tracer() if traced else None
    clock = time.perf_counter
    latencies, outputs, walls, scales = [], [], [], []
    size = segment or len(ops)
    if tracer:
        tracer.install()
    try:
        before = Y.measure() if segment else None
        for first_op in range(0, len(ops), size):
            begin = clock()
            for i in range(first_op, min(first_op + size, len(ops))):
                start = clock()
                try:
                    out = tracer.run_op(i, ops[i].run) if tracer else ops[i].run()
                except Exception as exc:  # an op that raises is a failed op
                    traceback.print_exc(file=sys.stderr)
                    out = exc
                latencies.append(clock() - start)
                outputs.append(out)
            walls.append(clock() - begin)
            if segment:
                after = Y.measure()
                scales.append(2.0 * Y.NOMINAL_S / (before + after))
                before = after
    finally:
        if tracer:
            tracer.uninstall()
    raw_wall = sum(walls)
    if segment:
        wall = sum(w * f for w, f in zip(walls, scales))
        latencies = [x * scales[i // size] for i, x in enumerate(latencies)]
    else:
        wall = raw_wall
    if first is None:
        verdicts = [op.check(out) for op, out in zip(ops, outputs)]
    else:
        verdicts = [v if same(out, ref) else (["output differs from the first batch"], [])
                    for out, ref, v in zip(outputs, first.outputs, first.verdicts)]
    return Batch(wall, raw_wall, latencies, outputs, verdicts,
                 tracer.log() if tracer else None)


def batch_count(seconds: float, batch_s: float, least: int) -> int:
    """Batches that fill the time given at the workload's nominal batch time.

    The count depends on the arguments only, never on how fast this run
    happens to go, so every run of a workload repeats its batch equally often.
    """
    return max(least, round(seconds / batch_s))


def run_batches(ops, count: int, traced: bool, first=None,
                before=lambda i: None, segment: int = 0) -> list:
    """Run ``count`` batches, calling ``before(i)`` ahead of batch ``i``."""
    batches = []
    for i in range(count):
        before(i)
        batch = run_batch(ops, traced, first, segment)
        if batches:  # summarized already: keep the spans of the first only
            batch.log = None
        if first is None:
            first = batch
        else:  # matched already: keep the outputs of the first only
            batch.outputs = None
        batches.append(batch)
    return batches


def failed_ops(batches) -> int:
    return sum(bool(w or m) for b in batches for w, m in b.verdicts)


# --------------------------------------------------------------------------
# set-up, cold start and byte identity
# --------------------------------------------------------------------------

def time_setup(workload: str, seed: int, reps: int) -> tuple[list, list]:
    """Fresh interpreter to ready-to-run, timed until the child says so.

    Returns the times scaled by the yardstick runs around each rep, and the
    clock's readings.
    """
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(reps):
        before = Y.measure()
        begin = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - begin
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited {code} with {line!r}")
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * Y.NOMINAL_S / (before + Y.measure()))
    return scaled, raw


def time_cold_start(seed: int, reps: int) -> list[float]:
    """Fresh `python -m parieq solve` on a generated scalar scenario."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cold_start-seed{seed}.cfg"
    path.write_text(W.cold_start_scenario(seed))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "parieq", "solve", "--scenario", str(path)]
    times = []
    for _ in range(reps):
        begin = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - begin)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) != 3 or lines[0] != "# schema=1":
            raise RuntimeError(f"cold start failed: {proc.returncode} "
                               f"{proc.stdout!r} {proc.stderr!r}")
    return times


def byte_identity_problem(seed: int):
    """One sweep --baseline CSV against the bytes the seed commit wrote."""
    bundled = S.bundled_scenarios()
    name = sorted(bundled)[seed % len(bundled)]
    want = (W.REFERENCE_DIR / "sweep" / f"{name}.csv").read_bytes()
    got = sweep_csv(S.load_scenario(bundled[name]), W.FP_TOL, True).encode()
    return None if got == want else f"sweep CSV for {name} differs from reference"


# --------------------------------------------------------------------------
# per-layer metrics from spans
# --------------------------------------------------------------------------

def _ms(x) -> float:
    return float(x) * 1e3


def _mean(total, count) -> float:
    return float(total) / count if count else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_figures(log) -> tuple[dict, dict]:
    """(per-layer times and ratios, exact counts) for one traced batch."""
    solve = log.mask("equilibrium.solve")
    mass = log.mask("measure.mass")
    phi = log.mask("equilibrium.phi")
    quad = log.mask("quadrature")
    opt = log.mask("stackelberg.optimize_take")
    disc = log.mask("oracle.discretize")
    n_solve, n_opt, n_disc = int(solve.sum()), int(opt.sum()), int(disc.sum())
    in_solve = log.nearest(solve)

    def per_solve(inner):
        return np.bincount(in_solve[inner & (in_solve >= 0)], minlength=len(log))[solve]

    phi_per_solve = per_solve(phi)
    closed, quadm = log.mask(MASS_CLOSED), log.mask(MASS_QUAD)
    solves_in_opt = int((solve & (log.nearest(opt) >= 0)).sum())
    mass_in_disc = int((mass & (log.nearest(disc) >= 0)).sum())
    mass_in_solve = int((mass & (in_solve >= 0)).sum())
    density_evals = int(log.evals.sum())

    def self_ms(*prefixes):
        return _ms(log.self_time[log.mask(*prefixes)].sum())

    figures = {
        "measure.mass_calls": _mean(mass_in_solve, n_solve),
        "measure.mass_us.closed_form": _mean(log.duration[closed].sum() * 1e6,
                                             closed.sum()),
        "measure.mass_us.quadrature": _mean(log.duration[quadm].sum() * 1e6,
                                            quadm.sum()),
        "measure.self_ms": self_ms("measure"),
        "quadrature.calls": int(quad.sum()),
        "quadrature.density_evals": density_evals,
        "quadrature.self_ms": self_ms("quadrature"),
        "equilibrium.solve_calls": n_solve,
        "equilibrium.solve_ms_p50": _ms(_median(log.duration[solve])),
        "equilibrium.phi_evals": _mean(phi_per_solve.sum(), n_solve),
        "equilibrium.phi_self_ms": self_ms("equilibrium.phi"),
        "equilibrium.pbar_self_ms": self_ms("equilibrium.pbar"),
        "equilibrium.self_ms": self_ms("equilibrium"),
        "response.calls": int(log.mask("response").sum()),
        "response.self_ms": self_ms("response"),
        "metrics.calls": int(log.mask("metrics").sum()),
        "metrics.self_ms": self_ms("metrics"),
        "stackelberg.solves_per_call": _mean(solves_in_opt, n_opt),
        "stackelberg.self_ms": self_ms("stackelberg"),
        "oracle.discretize_ms": _ms(_median(log.duration[disc])),
        "oracle.discretize_mass_calls": _mean(mass_in_disc, n_disc),
        "oracle.iterate_ms": _ms(_median(log.duration[log.mask("oracle.iterate")])),
        "trace.spans": len(log),
    }
    counts = dict(zip(log.names, np.bincount(log.name_id,
                                             minlength=len(log.names)).tolist()))
    counts.update({"density_evals": density_evals,
                   "phi_per_solve": phi_per_solve.tolist(),
                   "pbar_per_solve": per_solve(log.mask("equilibrium.pbar")).tolist(),
                   "mass_in_solve": mass_in_solve})
    return figures, counts


def solves_by_op(log, ops) -> dict:
    """Solves made inside each optimize_take call, keyed by the op's key."""
    solve = log.mask("equilibrium.solve")
    inside = solve & (log.nearest(log.mask("stackelberg.optimize_take")) >= 0)
    per_op = np.bincount(log.op[inside], minlength=len(ops))
    return {op.key: int(n) for op, n in zip(ops, per_op) if n}


def setup_figures(log) -> dict:
    build = log.mask("measure.build")
    outer = build & (log.nearest(build) < 0)
    load = log.mask("scenario.load")
    outer_load = load & (log.nearest(load) < 0)
    return {"measure.build_ms": _ms(log.duration[outer].sum()),
            "scenario.load_ms": _ms(log.duration[outer_load].sum())}


# --------------------------------------------------------------------------
# provenance and output
# --------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, batches_run: int, samples: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_count": batches_run,
        "nproc": NPROC, "cpu_count": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": _git_commit(),
        "metrics": {name: summary(vals) for name, vals in samples.items()},
    }


def emit(args, correct, attempted, failed, values, units, prov) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    metrics = {n: {"value": values[n], "unit": units[n][0]} for n in units}
    prov = dict(prov, correct=correct, attempted=attempted, failed=failed,
                fail_ratio=failed / attempted, result=metrics)
    path.write_text(json.dumps(prov, indent=2) + "\n")
    for name in units:
        print(f"{args.workload:>18}  {name:<30} {values[name]:>14.6g} {units[name][0]}")
    print("provenance: " + json.dumps({k: v for k, v in prov.items()
                                       if k not in ("metrics", "result")}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def report_problems(ops, batches, extra) -> bool:
    """Print what failed; True when no output was wrong."""
    wrong = sorted({f"{k}: {p}" for b in batches for k, p in b.problems(ops, 0)})
    misses = sorted({f"{k}: {p}" for b in batches for k, p in b.problems(ops, 1)})
    for line in misses:
        print(f"accuracy miss (counted as failed): {line}")
    for line in wrong + extra:
        print(f"WRONG: {line}", file=sys.stderr)
    return not wrong and not extra


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------

def run_untraced(args, setup) -> None:
    ops = setup(args.seed)
    _, _, batch_s, segment = W.WORKLOADS[args.workload]
    count = batch_count(args.seconds, batch_s, MIN_BATCHES)
    # set-up reps are spread over the batches, so that the host's drift
    # reaches set-up and batches alike
    slots = [j * count // SETUP_REPS for j in range(SETUP_REPS)]
    setup_times, setup_raw = [], []

    def time_setup_reps(i):
        scaled, raw = time_setup(args.workload, args.seed, slots.count(i))
        setup_times.extend(scaled)
        setup_raw.extend(raw)

    batches = run_batches(ops, count, traced=False, before=time_setup_reps,
                          segment=segment)
    extra = [p for p in [byte_identity_problem(args.seed)] if p]
    correct = report_problems(ops, batches, extra)
    per_batch = [[x * 1e3 for x in b.latencies] for b in batches]
    latencies = sum(per_batch, [])
    tail_ms, pct, window, windows = windowed_tail(per_batch)
    attempted = len(ops) * len(batches)
    failed = failed_ops(batches)
    values = {
        "run_s": statistics.median(b.wall for b in batches),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": tail_ms,
        "ok_ratio": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"op_ms_tail is the median over {windows} window(s) of {window} op "
          f"executions of each window's p{pct:.4g} ({TAIL_BEYOND} beyond it); "
          f"op_ms_p50 is over all {len(latencies)}: {len(batches)} batches of "
          f"{len(ops)} ops; fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    samples = {"run_s": [b.wall for b in batches], "op_ms": latencies,
               "setup_s": setup_times,
               "run_s.unscaled": [b.raw_wall for b in batches],
               "setup_s.unscaled": setup_raw}
    emit(args, correct, attempted, failed, values, END_TO_END,
         provenance(args, len(batches), samples))


def run_traced(args, setup) -> None:
    ops = setup(args.seed)
    setup_logs = []
    for _ in range(TRACE_SETUP_REPS):
        tracer = Tracer()
        tracer.install()
        try:
            setup(args.seed)
        finally:
            tracer.uninstall()
        setup_logs.append(tracer.log())
    setup_runs = [setup_figures(log) for log in setup_logs]
    cold = time_cold_start(args.seed, COLD_START_REPS)
    batch_s = W.WORKLOADS[args.workload][2]
    plain = run_batches(ops, batch_count(args.seconds / 2, batch_s,
                                         MIN_TRACE_BATCHES), traced=False)
    # traced outputs must match the untraced ones exactly
    traced = run_batches(ops, batch_count(args.seconds / 2, batch_s * TRACE_SLOWDOWN,
                                          MIN_TRACE_BATCHES), traced=True,
                         first=plain[0])
    runs = [b.figures for b in traced]
    extra = []
    # self-check: counts repeat exactly; every solve evaluates phi within the
    # bisection's bounds and computes each pbar boundary once, so a traced
    # function that the solve path stops calling fails here instead of reading 0
    counts = runs[0][1]
    same_counts = all(c == counts for _, c in runs[1:])
    if not same_counts:
        extra.append("span counts differ between traced batches")
    phi_n, pbar_n = counts["phi_per_solve"], counts["pbar_per_solve"]
    if not phi_n:
        extra.append("no solve was traced")
    elif not (2 <= min(phi_n) and max(phi_n) <= PHI_EVALS_BOUND):
        extra.append(f"phi evaluations per solve span {min(phi_n)}..{max(phi_n)}, "
                     f"outside 2..{PHI_EVALS_BOUND}")
    if set(pbar_n) - {2}:
        extra.append(f"pbar computations per solve {sorted(set(pbar_n))}, not 2")
    correct = report_problems(ops, plain + traced, extra)
    values = {}
    for name in runs[0][0]:
        per_batch = [fig[name] for fig, _ in runs]
        values[name] = float(np.median(per_batch))
    for name in ("measure.build_ms", "scenario.load_ms"):
        values[name] = statistics.median(r[name] for r in setup_runs)
    values["cli.cold_start_ms"] = statistics.median(cold) * 1e3
    untraced_s = statistics.median(b.wall for b in plain)
    traced_s = statistics.median(b.wall for b in traced)
    values["trace.overhead_s"] = traced_s - untraced_s
    oracle = (W.oracle_layer_metrics(plain[0].outputs) if args.workload == "oracle_crosscheck"
              else {"oracle.iterations": 0.0, "oracle.converged_ratio": 0.0,
                    "oracle.gap_max": 0.0})
    values.update(oracle)
    by_op = solves_by_op(traced[0].log, ops)
    if by_op:
        print("solves per optimize_take call: "
              + ", ".join(f"{k} {n}" for k, n in by_op.items()))
    print(f"self-check: counts identical across {len(traced)} traced batches: "
          f"{'yes' if same_counts else 'no'}; phi evaluations per solve "
          f"{min(phi_n, default=0)}..{max(phi_n, default=0)} (bound {PHI_EVALS_BOUND}); "
          f"pbar computations per solve {sorted(set(pbar_n))}; "
          f"tracing overhead {traced_s - untraced_s:.4g} s on a {untraced_s:.4g} s batch")
    OUT.mkdir(exist_ok=True)
    traced[0].log.save(OUT / f"trace-{args.workload}-batch0.npz")
    setup_logs[0].save(OUT / f"trace-{args.workload}-setup.npz")
    attempted = len(ops) * (len(plain) + len(traced))
    failed = failed_ops(plain + traced)
    samples = {"run_s.untraced": [b.wall for b in plain],
               "run_s.traced": [b.wall for b in traced],
               "cli.cold_start_s": cold}
    emit(args, correct, attempted, failed, values, PER_LAYER,
         provenance(args, len(plain) + len(traced), samples))


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows, ok = {}, True
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        rows[name] = json.loads(lines[-1])
        ok = ok and rows[name]["correct"]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':<30}" + "".join(f"{n:>20}" for n in rows))
    for metric, (unit, _) in units.items():
        cells = "".join(f"{r['metrics'][metric]['value']:>20.6g}" for r in rows.values())
        print(f"{metric + ' [' + unit + ']':<30}{cells}")
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "metrics": {f"{w}.{m}": v for w, r in rows.items()
                                  for m, v in r["metrics"].items()}}))
    return 0


def declared_metrics_problem():
    """Metric names and units here must match BENCHMARK.json, when present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if theirs != ours:
            return f"BENCHMARK.json {key} differs from the metrics run.py reports"
    return None


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now, so that
    a segment and the yardstick runs around it share one vCPU."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def main() -> int:
    problem = declared_metrics_problem()
    if problem:
        print(f"benchmark: {problem}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload, print 'ready' and exit")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    setup = W.WORKLOADS[args.workload][0]
    if args.setup_only:
        setup(args.seed)
        print("ready", flush=True)
        return 0
    pin_to_one_cpu()
    if args.trace:
        run_traced(args, setup)
    else:
        run_untraced(args, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
