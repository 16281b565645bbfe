"""Run one workload on several seeds and show how much each metric moves.

From the root of a checkout::

    python3 perfbench/spread.py --workload sweep_reference --runs 10

Runs ``run.py`` once per seed (``--seed0``, ``--seed0 + 1``, ...) and
prints, per metric, the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) /
median``, the bound from ``BENCHMARK.json`` and whether the spread
stays under a third of it.  Each run is untraced and lasts
``run_seconds`` from ``BENCHMARK.json``.  The bounds there were set
from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for k in range(args.runs):
        seed = args.seed0 + k
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: {wall:6.1f}s wall, attempted "
              f"{result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:36s} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {bound:>6} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
