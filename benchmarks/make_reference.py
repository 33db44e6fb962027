#!/usr/bin/env python3
"""Write the reference values the benchmark checks outputs against.

    python3 benchmarks/make_reference.py

Run from the repository root at the commit whose outputs are the reference.
It records, for the default seed, each workload's op outputs into
``benchmarks/reference/<workload>.json`` and the bytes of every bundled
scenario's ``sweep --baseline`` CSV into ``benchmarks/reference/sweep/``.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as W  # noqa: E402
from parieq.cli import sweep_csv  # noqa: E402
from parieq.scenario import bundled_scenarios, load_scenario  # noqa: E402


def main() -> None:
    (W.REFERENCE_DIR / "sweep").mkdir(parents=True, exist_ok=True)
    for name, (setup, record, *_) in W.WORKLOADS.items():
        ops = setup(W.DEFAULT_SEED)
        ref = {op.key: record(op.run()) for op in ops}
        path = W.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"{path}: {len(ref)} ops")
    for name, path in bundled_scenarios().items():
        out = W.REFERENCE_DIR / "sweep" / f"{name}.csv"
        out.write_bytes(sweep_csv(load_scenario(path), W.FP_TOL, True).encode())
        print(out)


if __name__ == "__main__":
    main()
