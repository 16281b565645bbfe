"""Which layer functions the traced run wraps, and how it reads them.

Each entry is ``(binding, span name)``: the binding is the attribute
the callers read (``module:attr`` or ``module:Class.attr``) and the
span name is ``layer:function``.  The layer part is what per-layer
metrics sum over.
"""

from __future__ import annotations

from typing import Dict

from layers import LayerTracer, per

SEEDING = "sweep.seeding:trial_seed_sequences"
TEAM = "agents:make_team"
COMPILE = "flags:compile_flag"
RUN_SCENARIO = "schedule:run_scenario"
RUN_ACTIVITY = "schedule:run_core_activity"
EXPORT = "sim.export:export_trace"
PREFLIGHT = "analyze:check_cell"
CACHE_GET = "sweep.cache:get"
CACHE_PUT = "sweep.cache:put"
DECODE = "sweep.results:TrialRecord.from_payload"
VEC_PLAN = "sim.vector:build_cell_plan"
VEC_SOA = "sim.vector:run_soa_batch"
VEC_REPLAY = "sim.vector:run_replay_trial"

#: The reference trial path: run_trial and what it calls, plus the
#: sweep-level gate, cache and decode around it.
REFERENCE = (
    ("repro.sweep.executor:trial_seed_sequences", SEEDING),
    ("repro.agents:make_team", TEAM),
    ("repro.schedule.scenario:compile_flag", COMPILE),
    ("repro.schedule:run_scenario", RUN_SCENARIO),
    ("repro.schedule.scenario:run_scenario", RUN_SCENARIO),
    ("repro.schedule:run_core_activity", RUN_ACTIVITY),
    ("repro.sim.export:export_trace", EXPORT),
    ("repro.analyze.preflight:check_cell", PREFLIGHT),
    ("repro.sweep.cache:ResultCache.get", CACHE_GET),
    ("repro.sweep.cache:ResultCache.put", CACHE_PUT),
    ("repro.sweep.results:TrialRecord.from_payload", DECODE),
)

#: The vector engine's whole-cell batch path.
VECTOR = (
    ("repro.sim.vector.engine:trial_seed_sequences", SEEDING),
    ("repro.sim.vector.engine:make_team", TEAM),
    ("repro.sim.vector.plan:compile_flag", COMPILE),
    ("repro.sim.vector.engine:build_cell_plan", VEC_PLAN),
    ("repro.sim.vector.engine:run_soa_batch", VEC_SOA),
    ("repro.sim.vector.engine:run_replay_trial", VEC_REPLAY),
)


def install(tracer: LayerTracer, targets) -> None:
    """Wrap every binding in ``targets``.

    ``run_scenario`` also counts the engine events of each run, the
    vector paths count the runs they advance, and ``ResultCache.get``
    counts its hits.
    """
    counted = {
        RUN_SCENARIO: lambda result: tracer.count(
            "sim.engine.events", len(result.trace.events)),
        VEC_SOA: lambda result: tracer.count("sim.vector.soa_runs",
                                             len(result)),
        VEC_REPLAY: lambda result: tracer.count("sim.vector.replay_runs"),
        CACHE_GET: lambda result: tracer.count(
            "sweep.cache.hits", result is not None),
    }
    for binding, name in targets:
        tracer.wrap(binding, name, after=counted.get(name))


def trial_layers(tracer: LayerTracer, *, trials: int,
                 cells: int) -> Dict[str, float]:
    """Per-layer figures every workload reads the same way.

    ``trials`` and ``cells`` are the trials and cells the traced part
    computed; runs are the ``run_scenario`` calls the tracer saw.
    """
    runs = tracer.n_calls(RUN_SCENARIO)
    soa_runs = tracer.counts.get("sim.vector.soa_runs", 0)
    replay_runs = tracer.counts.get("sim.vector.replay_runs", 0)
    return {
        "sweep.seeding.ms_per_trial": per(tracer.self_ms(SEEDING), trials),
        "agents.team.ms_per_trial": per(tracer.self_ms(TEAM), trials),
        "flags.compile.ms_per_run": per(tracer.self_ms(COMPILE),
                                        runs + soa_runs + replay_runs),
        "schedule.run.ms_per_run": per(
            tracer.self_ms(RUN_SCENARIO, RUN_ACTIVITY), runs),
        "sim.engine.events_per_run": per(
            tracer.counts.get("sim.engine.events", 0), runs),
        "sim.export.ms_per_run": per(tracer.self_ms(EXPORT), runs),
        "analyze.preflight.ms_per_cell": per(
            tracer.self_ms(PREFLIGHT), tracer.n_calls(PREFLIGHT)),
        "sweep.cache.put_ms_per_cell": per(
            tracer.self_ms(CACHE_PUT), tracer.n_calls(CACHE_PUT)),
        "sweep.cache.get_ms_per_cell": per(
            tracer.self_ms(CACHE_GET), tracer.n_calls(CACHE_GET)),
        "sweep.cache.hits_per_lookup": per(
            tracer.counts.get("sweep.cache.hits", 0),
            tracer.n_calls(CACHE_GET)),
        "sweep.results.decode_ms_per_cell": per(tracer.self_ms(DECODE),
                                                cells),
        "sim.vector.plan_ms_per_cell": per(tracer.self_ms(VEC_PLAN),
                                           tracer.n_calls(VEC_PLAN)),
        "sim.vector.soa_ms_per_trial": per(tracer.self_ms(VEC_SOA),
                                           soa_runs),
        "sim.vector.replay_ms_per_trial": per(tracer.self_ms(VEC_REPLAY),
                                              replay_runs),
    }
