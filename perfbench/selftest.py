"""Self-test of the benchmark's own checks, at the tiniest sizes.

From the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` on two seeds and requires
zero failed operations, ``correct`` and every metric above 0; runs the
traced mode once and requires the Chrome trace file; and plants each
wrong output the workload's checks must catch (a metric flipped in the
last place on the vector replay path, a time moved by a millionth on
the structure-of-arrays path, a dropped SSE frame, a warm reply served
uncached), requiring failed operations and ``correct: false``.  Last, it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``, where it
must exit non-zero without printing a result.  Exits 1 on the first
broken expectation.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PLANTS, WORKLOADS  # noqa: E402


def _run(root: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0.1",
         "--tiny", *args], cwd=root, capture_output=True, text=True,
        timeout=300)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, result


def _expect(ok: bool, what: str, proc=None) -> None:
    if ok:
        print(f"ok    {what}", flush=True)
        return
    print(f"FAIL  {what}", flush=True)
    if proc is not None:
        print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
    sys.exit(1)


def main() -> int:
    root = Path.cwd()
    for workload in WORKLOADS:
        for seed in (1, 2):
            proc, result = _run(root, "--workload", workload,
                                "--seed", str(seed))
            _expect(result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0
                    and all(m["value"] > 0
                            for m in result["metrics"].values()),
                    f"{workload} seed {seed}: checks pass, metrics > 0",
                    proc)
        proc, result = _run(root, "--workload", workload, "--seed", "3",
                            "--trace", "1")
        chrome = root / ".bench_out" / f"{workload}-seed3.trace.json"
        _expect(result is not None and result["failed"] == 0
                and "trace.overhead_pct" in result["metrics"]
                and json.loads(chrome.read_text())["traceEvents"],
                f"{workload} traced: per-layer metrics and Chrome trace",
                proc)
        for plant, workloads in sorted(PLANTS.items()):
            if workload not in workloads:
                continue
            proc, result = _run(root, "--workload", workload, "--seed", "1",
                                "--plant", plant)
            _expect(result is not None and result["failed"] > 0
                    and not result["correct"],
                    f"{workload} --plant {plant}: counted as failed", proc)

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        _expect(proc.returncode != 0 and "correct" not in proc.stdout,
                "without src/: non-zero exit, no result", proc)
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
