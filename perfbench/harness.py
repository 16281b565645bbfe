"""Plumbing shared by the perfbench workloads.

Nothing here knows a workload.  It holds the run context (seed, time
budget, scratch directory), the operation ledger that turns failed
output checks into failed operations, the timed-rounds loop, set-up
timing of fresh interpreters, peak-RSS reads, the environment
fingerprint, and the result line the benchmark prints last.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, List, Mapping,
                    Optional, Sequence)

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_STARTS = 9

#: A child that is not ready by then counts as a failed start.
SETUP_TIMEOUT_S = 60.0

#: Relative distance allowed between a structure-of-arrays vector time
#: and the reference engine's: a few thousand units in the last place
#: (see :func:`parity_tolerances`).
SOA_REL_TOL = 1e-12


@dataclass
class Context:
    """Everything one benchmark run is parameterized by."""

    root: Path
    work: Path
    seed: int
    seconds: float
    tiny: bool = False
    plant: Optional[str] = None

    def rng(self, *key: int):
        """A numpy Generator derived from the workload seed and ``key``."""
        import numpy as np
        return np.random.default_rng([self.seed, *key])

    def subdir(self, name: str) -> Path:
        """A fresh directory under the run's scratch area."""
        path = self.work / name
        path.mkdir(parents=True, exist_ok=False)
        return path

    def child_env(self) -> Dict[str, str]:
        """Environment for child interpreters: the checkout's ``src``."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        env["TMPDIR"] = str(self.work)
        return env


@dataclass
class Ledger:
    """Operations attempted, and the ones whose output checks failed.

    An operation is named by a hashable key.  A failing check marks its
    operation failed once, however many checks it fails, and keeps the
    reason so the run can say what went wrong.
    """

    attempted: int = 0
    failed_ops: Dict[Hashable, str] = field(default_factory=dict)

    def attempt(self, n: int = 1) -> None:
        """Count ``n`` more attempted operations."""
        self.attempted += n

    def check(self, ok: bool, op: Hashable, reason: str) -> bool:
        """Record one check on ``op``; returns ``ok``."""
        if not ok and op not in self.failed_ops:
            self.failed_ops[op] = reason
        return ok

    @property
    def failed(self) -> int:
        """Operations with at least one failed check."""
        return len(self.failed_ops)


def timed_rounds(ctx: Context, round_fn: Callable[[int], float],
                 *, min_rounds: int = 1) -> int:
    """Run whole rounds until their measured time reaches the budget.

    ``round_fn(r)`` runs round ``r`` and returns the seconds it spent
    measuring; time it spends checking outputs is its own and does not
    count.  A full collection before each round keeps a previous
    round's garbage from landing on the next one's clock.

    Returns:
        The number of rounds run.
    """
    measured = 0.0
    rounds = 0
    while rounds < min_rounds or measured < ctx.seconds:
        gc.collect()
        measured += round_fn(rounds)
        rounds += 1
    return rounds


def median(values: Sequence[float]) -> float:
    """The median, refusing an empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a process (this one by default), in MB.

    Read from ``VmHWM`` in ``/proc/<pid>/status``.
    """
    status = Path("/proc") / (str(pid) if pid is not None else "self") \
        / "status"
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {status}")


def dir_bytes(path: Path) -> int:
    """Bytes held by the regular files directly under ``path``."""
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def start_child(ctx: Context, argv: List[str], ready: str,
                ) -> tuple:
    """Start a fresh interpreter; block until it prints ``ready``.

    The child's stderr goes to a file in the scratch area, so a chatty
    child can never block on a full pipe.

    Returns:
        ``(process, seconds from spawn to the ready line, that line)``.

    Raises:
        RuntimeError: when the child exits or stays silent first.
    """
    err_path = ctx.work / f"child-{time.monotonic_ns()}.err"
    started = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=ctx.root,
                                env=ctx.child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                text=True)
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait(timeout=SETUP_TIMEOUT_S)
            raise RuntimeError(
                f"child {argv[:3]} exited {proc.returncode} before "
                f"{ready!r}: {err_path.read_text().strip()[-400:]}")
        if ready in line:
            return proc, time.perf_counter() - started, line
        if time.perf_counter() - started > SETUP_TIMEOUT_S:
            stop_child(proc)
            raise RuntimeError(f"child {argv[:3]} not ready in time")


def stop_child(proc: subprocess.Popen, *, timeout_s: float = 20.0) -> int:
    """Ask a child to stop (SIGTERM), kill it if it lingers, reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout_s)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def time_fresh_starts(ctx: Context, code: str, *,
                      starts: int = SETUP_STARTS) -> float:
    """Median seconds for ``python -c code`` to print ``ready``.

    Each start is a fresh interpreter that must finish its first
    operation (the ``code``) and exit 0.
    """
    samples = []
    for _ in range(starts):
        proc, elapsed, _ = start_child(ctx, ["-c", code], "ready")
        proc.communicate(timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up child exited {proc.returncode} after ready")
        samples.append(elapsed)
    return median(samples)


def fingerprint(root: Path) -> Dict[str, Any]:
    """Cores, versions, code identity and load at the start of a run."""
    import numpy as np

    sha = "none"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, text=True,
                capture_output=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


def trial_task(cell, seed: int, n_trials: int, trial: int, *,
               backend: str = "reference") -> Dict[str, Any]:
    """The executor task of one trial, built from the cell's public key.

    Checks build their own tasks rather than borrowing the executor's,
    so a change to the executor's layout shows as a mismatch.
    """
    task: Dict[str, Any] = {"cell": cell.key_dict(), "cell_key": cell.key(),
                            "seed": seed, "n_trials": n_trials,
                            "trial": trial, "observe": False}
    if backend != "reference":
        task["backend"] = backend
    return task


def parity_tolerances(cell) -> Dict[str, float]:
    """Per run label, how far a vector run's times may be from the
    reference engine's, relative to them.

    Replay-path runs must equal the reference bit for bit (0).
    Structure-of-arrays runs may differ by :data:`SOA_REL_TOL`: their
    times differ from the reference engine's in the last place on about
    one trial in 1500 (recorded in CHANGES.md), so a bit-for-bit check
    there would fail on some seeds and not others.
    """
    from repro.sim.vector.plan import build_cell_plan

    return {run.label: SOA_REL_TOL if run.path == "soa" else 0.0
            for run in build_cell_plan(cell.key_dict()).runs}


def vector_matches(vec, ref, rel_tol: float) -> bool:
    """Whether a vector run agrees with the reference engine's run.

    The verdict must be equal, and the true makespan and measured time
    within ``rel_tol`` (0: bit for bit).  Either run may be a mapping
    or an object with those attributes.
    """
    def get(run, name):
        return run[name] if isinstance(run, Mapping) else getattr(run, name)

    return (get(vec, "correct") == get(ref, "correct")
            and all(math.isclose(get(vec, f), get(ref, f), rel_tol=rel_tol,
                                 abs_tol=0.0)
                    for f in ("true_makespan", "measured_time")))


def metric(value: float, unit: str) -> Dict[str, Any]:
    """One metric entry of the result line."""
    return {"value": float(value), "unit": unit}


def result_line(ledger: Ledger, metrics: Dict[str, Dict[str, Any]],
                *, correct: bool) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps({"correct": correct, "attempted": ledger.attempted,
                       "failed": ledger.failed, "metrics": metrics})
