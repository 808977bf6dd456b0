"""Spans around the program's layer entry points, and the per-layer
metrics computed from them.

The traced run patches the public entry points of each layer from the
outside (:func:`instrument`) and restores them afterwards; the
untraced run never sees a wrapper.  Each span is kept in memory with
its name, start, end, parent and run id, and the counts a layer's
returned results carry (``SimCounters``, ``FSModelResult`` tiers,
``JobOutcome`` tiers and attempts) ride on the span as attributes.

Times come from ``time.perf_counter()``, which is ``CLOCK_MONOTONIC``
on Linux and therefore comparable between the benchmark's processes.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

#: Span-name prefix → layer.  Spans of the benchmark's own code
#: (``bench.*``) belong to no layer.
LAYERS = ("frontend", "model", "costmodels", "sim", "engine", "analysis")


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str | None:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder for one process of one run."""

    def __init__(self, run: str, parent: str | None = None) -> None:
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[str | None] = [parent]
        self._prefix = f"{os.getpid()}:"

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = Span(f"{self._prefix}{len(self.spans)}", name, time.perf_counter(), 0.0,
                  self._stack[-1], self.run, attrs)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()


# -- what each wrapped entry point records ---------------------------------


def _digest(nest) -> str:
    from repro.engine import nest_digest

    return nest_digest(nest)


def _call_key(kind: str, nest, threads, chunk, extra=None) -> list:
    if chunk is None:
        chunk = nest.schedule.chunk
    return [kind, _digest(nest), threads, chunk, extra]


def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _analyze_attrs(args, kwargs, result) -> dict:
    nest, threads = args[0], _arg(args, kwargs, 1, "num_threads")
    return {
        "key": _call_key("analyze", nest, threads, _arg(args, kwargs, 2, "chunk"),
                         _arg(args, kwargs, 3, "max_chunk_runs")),
        "engine": result.engine,
        "fidelity": result.fidelity,
        "accesses": result.accesses,
        "runs_simulated": result.runs_simulated,
        "runs_extrapolated": result.runs_extrapolated,
    }


def _predict_attrs(args, kwargs, result, self) -> dict:
    nest, threads = args[0], _arg(args, kwargs, 1, "num_threads")
    return {"key": _call_key("predict", nest, threads, _arg(args, kwargs, 2, "chunk"),
                             self.n_runs)}


def _sim_attrs(args, kwargs, result) -> dict:
    nest, threads = args[0], _arg(args, kwargs, 1, "num_threads")
    c = result.counters
    return {
        "key": _call_key("sim", nest, threads, _arg(args, kwargs, 2, "chunk")),
        "accesses": c.accesses,
        "hits": c.load_hits + c.store_hits,
        "coherence_events": c.coherence_events,
    }


def _engine_attrs(outcomes, workers: int) -> dict:
    executed = [o for o in outcomes if not o.from_cache]
    tiers = Counter(o.cache_tier for o in outcomes if o.from_cache)
    return {
        "workers": workers,
        "jobs": len(outcomes),
        "executed": len(executed),
        "exec_s": sum(o.duration_s for o in executed),
        "mem": tiers["mem"],
        "disk": tiers["disk"],
        "dedupe": tiers["dedupe"],
        "retries": sum(max(o.attempts - 1, 0) for o in executed),
        "failed": sum(not o.ok for o in outcomes),
    }


def _wrap_method(tracer: Tracer, func, name: str, attrs):
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        with tracer.span(name) as sp:
            result = func(self, *args, **kwargs)
        # The benchmark's own bookkeeping (nest digests, counter reads)
        # runs after the layer's span, in a span of its own, so that it
        # counts as unattributed time, not as this or an enclosing
        # layer's self time.
        with tracer.span("bench.attrs"):
            sp.attrs.update(attrs(self, args, kwargs, result))
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block.

    ``FalseSharingPredictor.predict`` calls ``FalseSharingModel.analyze``
    for its prefix, so a predict span has an analyze child.  Worker
    processes forked by the engine inherit the wrappers, but their spans
    stay in the worker and are not reported.
    """
    import repro.frontend
    from repro.analysis.experiments import ExperimentSuite
    from repro.costmodels import TotalCostModel
    from repro.engine import Engine
    from repro.model import FalseSharingModel, FalseSharingPredictor
    from repro.sim import MulticoreSimulator

    patches = [
        (FalseSharingModel, "analyze", "model.analyze",
         lambda self, a, k, r: _analyze_attrs(a, k, r)),
        (FalseSharingPredictor, "predict", "model.predict",
         lambda self, a, k, r: _predict_attrs(a, k, r, self)),
        (TotalCostModel, "breakdown", "costmodels.breakdown", lambda self, a, k, r: {}),
        (MulticoreSimulator, "run", "sim.run", lambda self, a, k, r: _sim_attrs(a, k, r)),
        (Engine, "run", "engine.run", lambda self, a, k, r: _engine_attrs(r, self.jobs)),
        (ExperimentSuite, "run_driver", "analysis.run_driver",
         lambda self, a, k, r: {"driver": a[0] if a else k.get("name")}),
    ]
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in patches]
    parse = repro.frontend.parse_c_source

    @functools.wraps(parse)
    def traced_parse(*args, **kwargs):
        with tracer.span("frontend.parse_c_source") as sp:
            kernels = parse(*args, **kwargs)
        sp.attrs["kernels"] = len(kernels)
        return kernels

    try:
        for cls, attr, name, attrs in patches:
            setattr(cls, attr, _wrap_method(tracer, getattr(cls, attr), name, attrs))
        repro.frontend.parse_c_source = traced_parse
        yield tracer
    finally:
        for cls, attr, original in saved:
            setattr(cls, attr, original)
        repro.frontend.parse_c_source = parse


# -- per-layer metrics -----------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.id, [])]
        out[sp.id] = sp.duration - _union([k for k in kids if k[1] > k[0]])
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _dup_frac(keys: list) -> float:
    return _frac(len(keys) - len({tuple(k) for k in keys}), len(keys))


#: Units of the per-layer metrics, in reporting order.
LAYER_UNITS = {
    "frontend.calls": "count", "frontend.busy_s": "s", "frontend.self_s": "s",
    "frontend.kernels": "count",
    "model.analyze.calls": "count", "model.analyze.busy_s": "s",
    "model.predict.calls": "count", "model.predict.busy_s": "s",
    "model.self_s": "s", "model.maccess_per_s": "M/s", "model.steady_frac": "ratio",
    "model.tier.reference": "count", "model.tier.fast": "count", "model.tier.jit": "count",
    "costmodels.calls": "count", "costmodels.busy_s": "s", "costmodels.self_s": "s",
    "sim.calls": "count", "sim.busy_s": "s", "sim.self_s": "s", "sim.accesses": "count",
    "sim.maccess_per_s": "M/s", "sim.coherence_events": "count", "sim.hit_frac": "ratio",
    "engine.batches": "count", "engine.jobs": "count", "engine.busy_s": "s",
    "engine.self_s": "s", "engine.exec_s": "s", "engine.wait_s": "s",
    "engine.worker_util": "ratio", "engine.hit_frac": "ratio", "engine.mem_frac": "ratio",
    "engine.disk_frac": "ratio", "engine.dedupe_frac": "ratio", "engine.retries": "count",
    "engine.failed": "count",
    "analysis.calls": "count", "analysis.busy_s": "s", "analysis.self_s": "s",
    "analysis.sim_calls": "count", "analysis.dup_sim_frac": "ratio",
    "analysis.model_calls": "count", "analysis.dup_model_frac": "ratio",
    "obs.trace_overhead_frac": "ratio", "obs.unattributed_s": "s",
}


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric of one traced batch (see README.md)."""
    by_id = {sp.id: sp for sp in spans}
    own = self_times(spans)

    def parent_layer(sp: Span) -> str | None:
        parent = by_id.get(sp.parent) if sp.parent else None
        return parent.layer if parent else None

    def under(sp: Span, layer: str) -> bool:
        while sp.parent in by_id:
            sp = by_id[sp.parent]
            if sp.layer == layer:
                return True
        return False

    def named(name: str) -> list[Span]:
        return [sp for sp in spans if sp.name == name]

    def busy(group: list[Span], layer: str) -> float:
        return sum(sp.duration for sp in group if parent_layer(sp) != layer)

    def self_of(layer: str) -> float:
        return sum(own[sp.id] for sp in spans if sp.layer == layer)

    m: dict[str, float] = {}
    frontend = [sp for sp in spans if sp.layer == "frontend"]
    m["frontend.calls"] = len(frontend)
    m["frontend.busy_s"] = busy(frontend, "frontend")
    m["frontend.self_s"] = self_of("frontend")
    m["frontend.kernels"] = sum(sp.attrs.get("kernels", 0) for sp in frontend)

    analyze, predict = named("model.analyze"), named("model.predict")
    m["model.analyze.calls"] = len(analyze)
    m["model.analyze.busy_s"] = busy(analyze, "model")
    m["model.predict.calls"] = len(predict)
    m["model.predict.busy_s"] = busy(predict, "model")
    m["model.self_s"] = self_of("model")
    model_busy = m["model.analyze.busy_s"] + m["model.predict.busy_s"]
    m["model.maccess_per_s"] = _frac(sum(sp.attrs["accesses"] for sp in analyze) / 1e6,
                                     model_busy)
    walked = sum(sp.attrs["runs_simulated"] + sp.attrs["runs_extrapolated"] for sp in analyze)
    m["model.steady_frac"] = _frac(sum(sp.attrs["runs_extrapolated"] for sp in analyze), walked)
    tiers = Counter(sp.attrs["engine"] for sp in analyze)
    for tier in ("reference", "fast", "jit"):
        m[f"model.tier.{tier}"] = tiers[tier]

    costs = named("costmodels.breakdown")
    m["costmodels.calls"] = len(costs)
    m["costmodels.busy_s"] = busy(costs, "costmodels")
    m["costmodels.self_s"] = self_of("costmodels")

    sims = named("sim.run")
    accesses = sum(sp.attrs["accesses"] for sp in sims)
    m["sim.calls"] = len(sims)
    m["sim.busy_s"] = busy(sims, "sim")
    m["sim.self_s"] = self_of("sim")
    m["sim.accesses"] = accesses
    m["sim.maccess_per_s"] = _frac(accesses / 1e6, m["sim.busy_s"])
    m["sim.coherence_events"] = sum(sp.attrs["coherence_events"] for sp in sims)
    m["sim.hit_frac"] = _frac(sum(sp.attrs["hits"] for sp in sims), accesses)

    runs = named("engine.run")
    jobs = sum(sp.attrs["jobs"] for sp in runs)
    exec_s = sum(sp.attrs["exec_s"] for sp in runs)
    workers = max((sp.attrs["workers"] for sp in runs), default=1)
    m["engine.batches"] = len(runs)
    m["engine.jobs"] = jobs
    m["engine.busy_s"] = busy(runs, "engine")
    m["engine.self_s"] = self_of("engine")
    m["engine.exec_s"] = exec_s
    m["engine.wait_s"] = m["engine.busy_s"] - exec_s / workers
    m["engine.worker_util"] = _frac(exec_s, m["engine.busy_s"] * workers)
    m["engine.hit_frac"] = _frac(sum(sp.attrs["mem"] + sp.attrs["disk"] for sp in runs), jobs)
    for tier in ("mem", "disk", "dedupe"):
        m[f"engine.{tier}_frac"] = _frac(sum(sp.attrs[tier] for sp in runs), jobs)
    m["engine.retries"] = sum(sp.attrs["retries"] for sp in runs)
    m["engine.failed"] = sum(sp.attrs["failed"] for sp in runs)

    drivers = named("analysis.run_driver")
    in_analysis_sims = [sp.attrs["key"] for sp in sims if under(sp, "analysis")]
    in_analysis_models = [
        sp.attrs["key"] for sp in analyze + predict
        if parent_layer(sp) != "model" and under(sp, "analysis")
    ]
    m["analysis.calls"] = len(drivers)
    m["analysis.busy_s"] = busy(drivers, "analysis")
    m["analysis.self_s"] = self_of("analysis")
    m["analysis.sim_calls"] = len(in_analysis_sims)
    m["analysis.dup_sim_frac"] = _dup_frac(in_analysis_sims)
    m["analysis.model_calls"] = len(in_analysis_models)
    m["analysis.dup_model_frac"] = _dup_frac(in_analysis_models)

    m["obs.trace_overhead_frac"] = _frac(traced_wall, untraced_wall) - 1.0
    m["obs.unattributed_s"] = sum(own[sp.id] for sp in spans if sp.layer is None)
    return m


def self_shares(metrics: dict) -> dict[str, float]:
    """Each layer's share of the summed layer self time."""
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values())
    return {layer: _frac(value, total) for layer, value in selfs.items()}


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(sp) for sp in spans]
