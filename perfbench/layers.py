"""Per-layer accounting for the traced pass, kept outside the program.

:func:`install` switches ``repro.obs`` on (phase metrics and spans, which
pool workers ship home) and wraps the public entry points of each layer in
timers.  The event-walk wrapper also opens a ``bench.event`` span, so the
executor overhead of event campaigns is read off the span tree like that
of vectorized ones.  :func:`snapshot` turns the timers, the obs
counters and the span tree into the raw per-layer figures.

Layers and what stands for them:

* vectorized engine -- ``engine`` spans (duration, trials, and the sample /
  execute / gather phase split the engine attaches), plus the ``compile``
  phase counter;
* executor -- ``ShardedVectorizedExecutor.run`` and
  ``ParallelMonteCarloExecutor.run``, and process-pool construction;
* event interpreter -- the serial event runner behind the executor;
* sweep + cache -- the ``repro_sweep_points_total`` counter and
  ``SweepCache.load`` / ``SweepCache.store``;
* optimizer -- ``optimize_period`` and the analytical waste grid;
* set-up -- ``RegimeSurface.load``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

TIMERS: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "seconds": 0.0})
EXTRA: Dict[str, float] = defaultdict(float)


def _timed(name: str, func: Callable, *, span: bool = False,
           after: Callable[[Any, tuple, dict], None] = None) -> Callable:
    from repro import obs

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        begin = time.perf_counter()
        try:
            if span:
                with obs.span(f"bench.{name}", category="bench"):
                    result = func(*args, **kwargs)
            else:
                result = func(*args, **kwargs)
        finally:
            timer = TIMERS[name]
            timer["calls"] += 1
            timer["seconds"] += time.perf_counter() - begin
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module attribute that holds ``original``
    (``from x import f`` copies the name into the importing module)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module_name: str, attr: str, name: str, **kwargs) -> None:
    module = sys.modules[module_name]
    original = getattr(module, attr)
    _replace_everywhere(original, _timed(name, original, **kwargs))


def _wrap_method(cls, attr: str, name: str, **kwargs) -> None:
    setattr(cls, attr, _timed(name, getattr(cls, attr), **kwargs))


def install() -> None:
    """Turn on ``repro.obs`` tracing and wrap every layer's entry points."""
    from repro import obs
    import repro.campaign.executor as executor_mod
    import repro.optimize.period  # noqa: F401 - loads the optimizer
    import repro.optimize.regime  # noqa: F401 - binds optimize_period
    import repro.optimize.refine  # noqa: F401
    import repro.service.tiers as tiers_mod
    import repro.core.analytical.grid  # noqa: F401
    import repro.campaign.sweep_runner  # noqa: F401
    from repro.campaign import (
        ParallelMonteCarloExecutor,
        ShardedVectorizedExecutor,
        SweepCache,
    )

    obs.configure(trace=True)
    obs.reset()

    def count_trials(result, args, kwargs):
        EXTRA["event.trials"] += kwargs.get("runs", 0)

    def count_evaluations(result, args, kwargs):
        EXTRA["optimize.evaluations"] += getattr(result, "evaluations", 0)

    _wrap_method(ShardedVectorizedExecutor, "run", "executor.vectorized")
    _wrap_method(ParallelMonteCarloExecutor, "run", "executor.event")
    _wrap_function("repro.campaign.executor", "run_monte_carlo", "event",
                   span=True, after=count_trials)
    _wrap_method(SweepCache, "load", "cache.read")
    _wrap_method(SweepCache, "store", "cache.write")
    _wrap_function("repro.optimize.period", "optimize_period", "optimize",
                   after=count_evaluations)
    _wrap_function("repro.core.analytical.grid", "waste_points",
                   "analytical.grid")

    load = tiers_mod.RegimeSurface.load.__func__
    tiers_mod.RegimeSurface.load = classmethod(
        _timed("setup.map_load", load)
    )

    base_pool = executor_mod.ProcessPoolExecutor

    class CountingPool(base_pool):
        def __init__(self, *args, **kwargs):
            TIMERS["executor.pool"]["calls"] += 1
            super().__init__(*args, **kwargs)

    executor_mod.ProcessPoolExecutor = CountingPool


def _family_total(name: str, **labels: str) -> float:
    from repro import obs

    total = 0.0
    family = obs.catalog.family(name)
    for key, value in family.values().items():
        if all(label in key for label in labels.values()):
            total += value
    return total


def _span_figures() -> Dict[str, float]:
    """Engine phases and executor overhead from the collected span tree."""
    from repro import obs

    records = obs.global_tracer().records()
    children: Dict[str, List[Any]] = defaultdict(list)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id].append(record)

    out: Dict[str, float] = defaultdict(float)
    for record in records:
        if record.name == "engine":
            out["engine.trials"] += record.args.get("trials", 0)
            out["engine.run_s"] += record.duration_us / 1e6
            for phase in ("sample", "execute", "gather"):
                out[f"engine.{phase}_s"] += record.args.get(f"{phase}_seconds", 0.0)

    def work_below(span_id: str) -> float:
        """Longest engine (or event-walk) interval under one campaign."""
        longest = 0.0
        stack = list(children.get(span_id, ()))
        while stack:
            node = stack.pop()
            if node.name in ("engine", "bench.event"):
                longest = max(longest, node.duration_us / 1e6)
            else:
                stack.extend(children.get(node.span_id, ()))
        return longest

    for record in records:
        if record.name == "campaign":
            wall = record.duration_us / 1e6
            out["executor.overhead_s"] += max(wall - work_below(record.span_id), 0.0)
    return out


def snapshot() -> Dict[str, float]:
    """Raw per-layer figures accumulated since :func:`install`."""
    spans = _span_figures()
    compile_s = _family_total("repro_engine_phase_seconds_total", phase="compile")
    engine_wall = spans["engine.run_s"] + compile_s
    phases = (compile_s + spans["engine.sample_s"] + spans["engine.execute_s"]
              + spans["engine.gather_s"])
    vec, evt = TIMERS["executor.vectorized"], TIMERS["executor.event"]
    event = TIMERS["event"]
    trials = EXTRA["event.trials"]
    return {
        "engine.trials": spans["engine.trials"],
        "engine.wall_s": engine_wall,
        "engine.compile_s": compile_s,
        "engine.sample_s": spans["engine.sample_s"],
        "engine.execute_s": spans["engine.execute_s"],
        "engine.gather_s": spans["engine.gather_s"],
        "engine.unattributed_s": engine_wall - phases,
        "executor.campaigns": vec["calls"] + evt["calls"],
        "executor.shards": _family_total("repro_campaign_shards_total"),
        "executor.pool_starts": TIMERS["executor.pool"]["calls"],
        "executor.wall_s": vec["seconds"] + evt["seconds"],
        "executor.overhead_s": spans["executor.overhead_s"],
        "event.trials": trials,
        "event.wall_s": event["seconds"],
        "event.trial_us": event["seconds"] / trials * 1e6 if trials else 0.0,
        "sweep.points": _family_total("repro_sweep_points_total"),
        "cache.reads": TIMERS["cache.read"]["calls"],
        "cache.read_s": TIMERS["cache.read"]["seconds"],
        "cache.writes": TIMERS["cache.write"]["calls"],
        "cache.write_s": TIMERS["cache.write"]["seconds"],
        "optimize.calls": TIMERS["optimize"]["calls"],
        "optimize.evaluations": EXTRA["optimize.evaluations"],
        "optimize.s": TIMERS["optimize"]["seconds"],
        "analytical.grid_s": TIMERS["analytical.grid"]["seconds"],
        "setup.map_load_s": TIMERS["setup.map_load"]["seconds"],
    }
