"""Workload ``fabric_vector``: the fabric on the vector engine.

``FabricCoordinator`` with two local worker processes runs whole-cell
vector leases.  Compute is split about evenly between contended cells
(scenario 4, the replay path) and contention-free cells (scenarios
1-3, the structure-of-arrays path): the contention-free cells carry
twice the trials, because a trial costs about a sixth as much there.
A round runs both sweeps in turn into a fresh ``ResultCache``: each
sweep's cold pass, then its warm passes, which read the cells back
without leasing anything.

This is the contrast case for the reference path: seeding runs once
per cell and no traces are made, so seeding and trace-export changes
should leave it unchanged.

Checks: sampled trials of every cell equal an in-process reference
``run_trial`` of the same task, bit for bit on the replay path and
within a relative 1e-12 on the structure-of-arrays path (see
``harness.parity_tolerances``); every run reproduces its
target (no flag here has overlapping layers); warm passes compute
nothing and return the cold records.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
import shutil
import time
from collections import defaultdict
from typing import Dict, List

from harness import SETUP_STARTS, Context, Ledger, dir_bytes, median, \
    parity_tolerances, peak_rss_mb, time_fresh_starts, timed_rounds, \
    trial_task, vector_matches
from layers import LayerTracer, per
import targets

FLAGS = ("mauritius", "poland")
REPLAY_SCENARIOS = (4,)
SOA_SCENARIOS = (1, 2, 3)
REPLAY_TRIALS = 600
SOA_TRIALS = 1200
WORKERS = 2
WARM_PASSES = 4
SAMPLED = 2  # trials per cell checked against the reference engine

#: ``--plant`` -> (sweep index, relative shift of one sampled measured
#: time): a last-place flip on the replay path (mauritius s4), which
#: must match bit for bit, and a larger shift on the structure-of-arrays
#: path (mauritius s1), which must match within ``SOA_REL_TOL``.
PLANTED = {"flip_metric": (0, 1e-12), "shift_soa_time": (1, 1e-6)}

_SETUP = """
from repro.fabric import FabricConfig, run_fabric_sweep
from repro.sweep import SweepSpec
run_fabric_sweep(SweepSpec.single("mauritius", 3, n_trials=1),
                 FabricConfig(workers={workers}), backend="vector")
print("ready", flush=True)
"""


def _specs(ctx: Context, r: int):
    from repro.sweep import SweepSpec
    replay, soa = ((3, 6) if ctx.tiny else (REPLAY_TRIALS, SOA_TRIALS))
    seed = int(ctx.rng(1, r).integers(0, 2**31 - 1))
    return [SweepSpec(flags=FLAGS, scenarios=REPLAY_SCENARIOS,
                      n_trials=replay, seed=seed),
            SweepSpec(flags=FLAGS, scenarios=SOA_SCENARIOS,
                      n_trials=soa, seed=seed)]


class _Run:
    """Measurements and checks accumulated over one run's rounds."""

    def __init__(self, ctx: Context, ledger: Ledger, tag: str, *,
                 in_process: bool = False) -> None:
        self.ctx = ctx
        self.ledger = ledger
        self.paused = contextlib.nullcontext
        self.tag = tag
        self.in_process = in_process
        self.cold_s: Dict[int, List[float]] = defaultdict(list)
        self.warm_s: Dict[int, List[float]] = defaultdict(list)
        self.timed_s: List[float] = []
        self.round_s: List[float] = []
        self.cache_bytes = 0
        self.cold_trials = 0
        self.decoded_cells = 0
        self.stats: List = []
        self.handoff_ms: List[float] = []
        self.payload_kb: List[float] = []
        self.local_trials = 0

    def round(self, r: int) -> float:
        from repro.fabric import FabricConfig, FabricCoordinator
        from repro.sweep import ResultCache

        specs = _specs(self.ctx, r)
        warm_passes = 1 if self.ctx.tiny else WARM_PASSES
        config = FabricConfig(workers=WORKERS)
        root = self.ctx.subdir(f"fabric-cache-{self.tag}-{r}")
        cache = ResultCache(root)
        cells = sum(spec.n_cells for spec in specs)
        trials = sum(spec.total_trials for spec in specs)
        cold = []
        cold_s = measured = 0.0
        for s, spec in enumerate(specs):
            # Each sweep's warm passes follow its own cold pass.
            self.ledger.attempt(spec.n_cells)
            t0 = time.perf_counter()
            coordinator = FabricCoordinator(spec, config, cache=cache,
                                            backend="vector")
            cold.append(coordinator.run())
            elapsed = time.perf_counter() - t0
            self.stats.append(coordinator.stats)
            self.cold_s[s].append(elapsed)
            cold_s += elapsed
            for w in range(warm_passes):
                self.ledger.attempt(spec.n_cells)
                t0 = time.perf_counter()
                result = FabricCoordinator(spec, config, cache=cache,
                                           backend="vector").run()
                warm_s = time.perf_counter() - t0
                self.warm_s[s].append(warm_s)
                measured += warm_s
                with self.paused():
                    self.check_warm((r, s, w), result, cold[s])
        measured += cold_s
        self.cold_trials += trials
        self.cache_bytes += dir_bytes(root)
        self.decoded_cells += cells * (1 + warm_passes)
        self.timed_s.append(measured)
        if self.in_process:
            local_s = self._local(specs)
            measured += local_s
            self.handoff_ms.append(1e3 * (cold_s * WORKERS - local_s)
                                   / cells)
        self.round_s.append(measured)
        with self.paused():
            self.check(r, specs, cold)
        shutil.rmtree(root)
        return self.timed_s[-1]

    def _local(self, specs) -> float:
        """The same cells through ``run_cell_tasks`` in this process."""
        from repro.sweep.executor import run_cell_tasks

        spent = 0.0
        for spec in specs:
            for cell in spec.cells():
                tasks = [trial_task(cell, spec.seed, spec.n_trials, t,
                                    backend="vector")
                         for t in range(spec.n_trials)]
                t0 = time.perf_counter()
                payloads = run_cell_tasks(tasks)
                elapsed = time.perf_counter() - t0
                spent += elapsed
                self.payload_kb.append(len(pickle.dumps(payloads)) / 1024)
                self.local_trials += spec.n_trials
        return spent

    def check_warm(self, op, result, cold) -> None:
        """A warm pass leases nothing and returns the cold records."""
        self.ledger.check(result.computed_trials == 0
                          and all(c.cached for c in result.cells), op,
                          "warm pass computed trials")
        self.ledger.check(
            [c.trials for c in result.cells]
            == [c.trials for c in cold.cells], op,
            "warm records differ from the cold pass")

    def check(self, r: int, specs, cold) -> None:
        from repro.sweep import run_trial

        check = self.ledger.check
        if self.ctx.plant in PLANTED:
            # Planted fault: one sampled trial of the first cell of a
            # sweep has a measured time moved in what the checks see.
            k, rel = PLANTED[self.ctx.plant]
            cell = cold[k].cells[0]
            t = self._sample(r, k, 0, len(cell.trials))[0]
            label, run = next(iter(cell.trials[t].runs.items()))
            cell.trials[t].runs[label] = dataclasses.replace(
                run, measured_time=run.measured_time * (1 + rel))
        for s, (spec, result) in enumerate(zip(specs, cold)):
            for i, cell in enumerate(result.cells):
                op = (r, s, i, "cold")
                check(not cell.cached and len(cell.trials) == spec.n_trials,
                      op, "cold pass read the cache or lost trials")
                check(all(run.correct for trial in cell.trials
                          for run in trial.runs.values()), op,
                      f"{cell.cell.describe()} missed its target")
                tolerance = parity_tolerances(cell.cell)
                for t in self._sample(r, s, i, spec.n_trials):
                    ref = run_trial(trial_task(cell.cell, spec.seed,
                                               spec.n_trials, t))
                    for label, run in cell.trials[t].runs.items():
                        check(vector_matches(run, ref["runs"][label],
                                             tolerance[label]), op,
                              f"{cell.cell.describe()} trial {t}: vector "
                              f"!= reference")

    def _sample(self, r: int, s: int, i: int, n: int) -> List[int]:
        return sorted(int(t) for t in self.ctx.rng(2, r, s, i).choice(
            n, size=min(SAMPLED, n), replace=False))


def measure(ctx: Context, ledger: Ledger) -> Dict[str, float]:
    """Untraced run: every end-to-end metric."""
    setup_s = time_fresh_starts(ctx, _SETUP.format(workers=WORKERS),
                                starts=2 if ctx.tiny else SETUP_STARTS)
    run = _Run(ctx, ledger, "e2e")
    timed_rounds(ctx, run.round)
    # A pass's rate from each sweep's median time, as in sweep_reference.
    per_pass = sum(spec.total_trials for spec in _specs(ctx, 0))
    return {
        "setup_s": setup_s,
        "trials_per_s": per_pass / sum(map(median, run.cold_s.values())),
        "warm_trials_per_s": per_pass / sum(map(median,
                                                run.warm_s.values())),
        "run_p50_ms": 1e3 * median(list(map(median,
                                            run.cold_s.values()))),
        "hit_p50_ms": 1e3 * median(list(map(median,
                                            run.warm_s.values()))),
        "peak_rss_mb": peak_rss_mb(),
        "cache_kb_per_trial": run.cache_bytes / 1024 / run.cold_trials,
    }


def breakdown(ctx: Context, ledger: Ledger, chrome_path) -> Dict[str, float]:
    """Traced run: layer self times, lease counts, hand-off cost."""
    half = Context(**{**ctx.__dict__, "seconds": ctx.seconds / 2})
    plain = _Run(ctx, ledger, "plain", in_process=True)
    rounds = timed_rounds(half, plain.round)
    traced = _Run(ctx, ledger, "traced", in_process=True)
    with LayerTracer() as tracer:
        traced.paused = tracer.paused
        targets.install(tracer, targets.REFERENCE + targets.VECTOR)
        for r in range(rounds):
            traced.round(r)
        tracer.write_chrome(chrome_path, process_name="fabric_vector")
    figures = targets.trial_layers(tracer, trials=traced.local_trials,
                                   cells=traced.decoded_cells)
    leases = sum(s.leases for s in plain.stats)
    passes = len(plain.round_s)
    figures.update({
        "sweep.cache.bytes_per_trial": per(plain.cache_bytes,
                                           plain.cold_trials),
        "fabric.handoff_ms_per_cell": median(plain.handoff_ms),
        "fabric.payload_kb_per_cell": median(plain.payload_kb),
        "fabric.leases": per(leases, passes),
        "fabric.hedges": per(sum(s.hedges for s in plain.stats), passes),
        "fabric.retries": per(sum(s.retries for s in plain.stats), passes),
        "fabric.duplicates": per(sum(s.duplicates for s in plain.stats),
                                 passes),
        "fabric.computed_cells_per_lease": per(
            sum(s.computed_cells for s in plain.stats), leases),
        "trace.overhead_pct": 100.0 * (
            median(traced.round_s) / median(plain.round_s) - 1.0),
    })
    return figures
