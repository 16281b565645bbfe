"""Workload ``sweep_reference``: deep cells through in-process ``run_sweep``.

This is how the paper's figures are regenerated: the reference event
loop over deep cells, every per-trial cost on the critical path
(seeding, team, flag compile, event loop, trace export, cache put and
get).  A round runs the four cells in turn into a fresh
``ResultCache``: each cell's cold pass, then its warm passes reading it
back.

Checks, none of them against stored output:

- warm passes compute nothing and return records equal to the cold
  pass's, traces included;
- every scenario-1 run, and every run on a flag without overlapping
  layers, reproduces its target image;
- on sampled trials, the trace's busy time over makespan stays at or
  below the analyzer's static speedup ceiling for the cell;
- on the same sampled trials, the vector engine's metrics equal the
  reference engine's bit for bit on the replay path, and within a
  relative 1e-12 on the structure-of-arrays path (see
  ``parity_tolerances``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import time
from collections import defaultdict
from typing import Dict, List

from harness import SETUP_STARTS, Context, Ledger, dir_bytes, median, \
    parity_tolerances, peak_rss_mb, time_fresh_starts, timed_rounds, \
    trial_task, vector_matches
from layers import LayerTracer, per
import targets

#: (flag, scenario) per cell: a layered flag (japan) and two without
#: overlapping layers, across all four scenarios.
CELLS = (("japan", 1), ("poland", 2), ("japan", 3), ("germany", 4))
TRIALS = 128
WARM_PASSES = 4
SAMPLED = 4  # trials per cell that get the engine and ceiling checks

#: ``--plant`` -> (cell index, relative shift of one sampled makespan):
#: a last-place flip on the replay path (germany s4), which must match
#: bit for bit, and a larger shift on the structure-of-arrays path
#: (japan s1), which must match within ``SOA_REL_TOL``.
PLANTED = {"flip_metric": (3, 1e-12), "shift_soa_time": (0, 1e-6)}

_SETUP = """
from repro.sweep import ResultCache, SweepSpec, validate_cells
cells = [c for flag, s in {cells!r}
         for c in SweepSpec.single(flag, s, n_trials={trials}).cells()]
validate_cells(cells)
print("ready", flush=True)
"""


def _sizes(ctx: Context):
    return (4, 1) if ctx.tiny else (TRIALS, WARM_PASSES)


def _specs(ctx: Context, r: int, n_trials: int):
    from repro.sweep import SweepSpec
    seed = int(ctx.rng(1, r).integers(0, 2**31 - 1))
    return [SweepSpec.single(flag, scenario, n_trials=n_trials, seed=seed)
            for flag, scenario in CELLS]


class _Run:
    """Measurements and checks accumulated over one run's rounds."""

    def __init__(self, ctx: Context, ledger: Ledger, tag: str) -> None:
        self.ctx = ctx
        self.tag = tag
        self.ledger = ledger
        self.paused = contextlib.nullcontext
        self.cold_s: Dict[int, List[float]] = defaultdict(list)
        self.warm_s: Dict[int, List[float]] = defaultdict(list)
        self.round_s: List[float] = []
        self.cache_bytes = 0
        self.cold_trials = 0
        self.cells = 0

    def round(self, r: int) -> float:
        from repro.sweep import ResultCache, run_sweep

        n_trials, warm_passes = _sizes(self.ctx)
        specs = _specs(self.ctx, r, n_trials)
        root = self.ctx.subdir(f"sweep-cache-{self.tag}-{r}")
        cache = ResultCache(root)
        cold = []
        measured = 0.0
        for i, spec in enumerate(specs):
            # Each cell's warm passes follow its own cold pass, so the
            # heap state a cold pass leaves behind varies per cell rather
            # than once per round.
            for w in range(1 + warm_passes):
                self.ledger.attempt()
                t0 = time.perf_counter()
                result = run_sweep(spec, cache=cache)
                elapsed = time.perf_counter() - t0
                measured += elapsed
                if w == 0:
                    self.cold_s[i].append(elapsed)
                    cold.append(result)
                    continue
                self.warm_s[i].append(elapsed)
                with self.paused():
                    self.check_warm((r, i, w), result, cold[i])
        self.cold_trials += n_trials * len(specs)
        self.cache_bytes += dir_bytes(root)
        self.cells += len(specs) * (1 + warm_passes)
        self.round_s.append(measured)
        with self.paused():
            self.check(r, specs, cold)
        shutil.rmtree(root)
        return measured

    def check_warm(self, op, result, cold) -> None:
        """A warm pass computes nothing and returns the cold records."""
        self.ledger.check(result.computed_trials == 0
                          and result.cells[0].cached, op,
                          "warm pass computed trials")
        self.ledger.check(result.cells[0].trials == cold.cells[0].trials,
                          op, "warm records differ from the cold pass")

    def check(self, r: int, specs, cold) -> None:
        from repro.analyze import analyze_scenario
        from repro.flags import get_flag
        from repro.sim.export import import_trace
        from repro.sim.vector import run_vector_cell

        check = self.ledger.check
        if self.ctx.plant in PLANTED:
            # Planted fault: one sampled trial of a cell has a makespan
            # moved in what the checks see.
            i, rel = PLANTED[self.ctx.plant]
            c0 = cold[i].cells[0]
            t = int(self.ctx.rng(2, r, i).choice(
                len(c0.trials), size=min(SAMPLED, len(c0.trials)),
                replace=False)[0])
            rec = c0.trials[t]
            label, run = next(iter(rec.runs.items()))
            rec.runs[label] = dataclasses.replace(
                run, true_makespan=run.true_makespan * (1 + rel))
        for i, (spec, result) in enumerate(zip(specs, cold)):
            op = (r, i, "cold")
            flag, scenario = CELLS[i]
            cell = result.cells[0]
            check(result.computed_trials == spec.n_trials
                  and not cell.cached, op, "cold pass read the cache")
            spec_flag = get_flag(flag)
            must_match = scenario == 1 or not spec_flag.is_layered()
            for trial in cell.trials:
                for run in trial.runs.values():
                    if must_match:
                        check(run.correct, op,
                              f"{flag} s{scenario} trial {trial.trial} "
                              f"missed its target")
            ceiling = analyze_scenario(spec_flag, scenario,
                                       team_size=spec.team_sizes[0]
                                       ).speedup_bound
            sample = sorted(int(t) for t in self.ctx.rng(2, r, i).choice(
                spec.n_trials, size=min(SAMPLED, spec.n_trials),
                replace=False))
            vector = run_vector_cell(
                [trial_task(spec.cells()[0], spec.seed, spec.n_trials, t,
                            backend="vector") for t in sample])
            tolerance = parity_tolerances(spec.cells()[0])
            for t, vec in zip(sample, vector):
                ref = cell.trials[t].runs
                for label, run in ref.items():
                    trace = import_trace(run.trace)
                    busy = sum(trace.busy_time(a) for a in trace.agents())
                    check(busy / trace.makespan() <= ceiling + 1e-9, op,
                          f"{flag} s{scenario} trial {t} beat the "
                          f"speedup ceiling {ceiling}")
                    check(vector_matches(vec["runs"][label], run,
                                         tolerance[label]), op,
                          f"{flag} s{scenario} trial {t}: vector != "
                          f"reference")


def measure(ctx: Context, ledger: Ledger) -> Dict[str, float]:
    """Untraced run: every end-to-end metric."""
    n_trials, _ = _sizes(ctx)
    setup_s = time_fresh_starts(
        ctx, _SETUP.format(cells=CELLS, trials=n_trials),
        starts=2 if ctx.tiny else SETUP_STARTS)
    run = _Run(ctx, ledger, "e2e")
    timed_rounds(ctx, run.round)
    # A pass's rate from each cell's median time: the four cells differ
    # in cost, and a median per cell discards a slow window of the host
    # without mixing cells.
    per_pass = n_trials * len(CELLS)
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
    """Traced run: per-layer self times against an untraced baseline."""
    half = Context(**{**ctx.__dict__, "seconds": ctx.seconds / 2})
    plain = _Run(ctx, ledger, "plain")
    rounds = timed_rounds(half, plain.round)
    traced = _Run(ctx, ledger, "traced")
    with LayerTracer() as tracer:
        traced.paused = tracer.paused
        targets.install(tracer, targets.REFERENCE)
        for r in range(rounds):
            traced.round(r)
        tracer.write_chrome(chrome_path, process_name="sweep_reference")
    figures = targets.trial_layers(tracer, trials=traced.cold_trials,
                                   cells=traced.cells)
    figures["sweep.cache.bytes_per_trial"] = per(traced.cache_bytes,
                                                 traced.cold_trials)
    figures["trace.overhead_pct"] = 100.0 * (
        median(traced.round_s) / median(plain.round_s) - 1.0)
    return figures
