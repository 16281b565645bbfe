"""flagsim's benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_reference --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric of ``BENCHMARK.json``
with no instrumentation; ``--trace 1`` runs the workload once plain and
once under the layer wrappers and reports every per-layer metric, the
tracing overhead among them, and writes the spans as Chrome
``trace_event`` JSON under ``.bench_out/``.  Every run prints an
environment fingerprint, one line per metric, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--tiny`` shrinks every workload for the self-test, and
``--plant`` injects a wrong output that the checks must catch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("sweep_reference", "fabric_vector", "serve_classroom")

#: Wrong outputs ``--plant`` can inject, by the workload that checks them.
PLANTS = {
    "flip_metric": ("sweep_reference", "fabric_vector"),
    "shift_soa_time": ("sweep_reference", "fabric_vector"),
    "drop_frame": ("serve_classroom",),
    "uncached_hit": ("serve_classroom",),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the self-test")
    p.add_argument("--plant", choices=sorted(PLANTS),
                   help="inject a wrong output the checks must catch")
    return p


def _declared(root: Path):
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found under the current "
              "directory; run from the root of a flagsim checkout",
              file=sys.stderr)
        return 2
    if args.plant and args.workload not in PLANTS[args.plant]:
        print(f"perfbench: --plant {args.plant} applies to "
              f"{PLANTS[args.plant]}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared(root)
    sys.path.insert(0, str(root / "src"))

    from harness import Context, Ledger, fingerprint, metric, result_line

    print("env " + json.dumps(fingerprint(root), sort_keys=True),
          flush=True)
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=work_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    ctx = Context(root=root, work=work, seed=args.seed,
                  seconds=args.seconds, tiny=args.tiny, plant=args.plant)
    ledger = Ledger()
    module = __import__(args.workload)
    try:
        if args.trace:
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            chrome = out / f"{args.workload}-seed{args.seed}.trace.json"
            figures = module.breakdown(ctx, ledger, chrome)
            print(f"chrome trace: {chrome.relative_to(root)}")
            declared = per_layer
            # A layer the workload never calls reads 0.
            missing = sorted(set(per_layer) - set(figures))
            if missing:
                print("not on this workload's path: " + ", ".join(missing))
            figures = {**dict.fromkeys(missing, 0.0), **figures}
        else:
            figures = module.measure(ctx, ledger)
            declared = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)
    undeclared = sorted(set(figures) - set(declared))
    absent = sorted(set(declared) - set(figures))
    if undeclared or absent:
        print(f"perfbench: metrics out of step with BENCHMARK.json: "
              f"undeclared {undeclared}, absent {absent}", file=sys.stderr)
        return 3
    for op, reason in sorted(ledger.failed_ops.items(), key=str)[:20]:
        print(f"FAILED {op}: {reason}")
    metrics = {name: metric(figures[name], unit)
               for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.4f} {m['unit']}")
    print(f"attempted {ledger.attempted} failed {ledger.failed}")
    print(result_line(ledger, metrics, correct=ledger.failed == 0),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
