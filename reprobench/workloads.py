"""The four workloads: set-up, the timed batch, and its output checks.

Each workload is driven from one process.  ``sweep-engine`` hands its
points to a 2-worker engine pool and ``paper-runner`` runs its two
driver pairs in two spawned worker processes (the spawn start method
also starts multiprocessing's resource tracker, which the batch stops
again); nothing else starts a process.  No module under ``repro`` is imported at module level, so the
set-up probe can time the imports.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import signal
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reprobench import cells as C
from reprobench import checks
from reprobench.tracing import Tracer, instrument

#: Worker processes of the engine pool (sweep-engine) and driver
#: workers (paper-runner): the 2 cores of the reference box.
WORKERS = 2
#: sweep-engine points re-evaluated serially, uncached, per run.
SWEEP_CHECK_POINTS = 4

WHY = {
    "paper-sim": "simulator cells of Tables I-III and Fig. 2: sim does nearly all the work, "
                 "model none",
    "paper-model": "model cells of Tables I-VI and Fig. 6 (analyze and predict, Eq. 5 fold): "
                   "model dominates, sim absent",
    "sweep-engine": "C kernels parsed and swept twice through a 2-worker cached engine: "
                    "frontend and engine do a real share",
    "paper-runner": "both Table+Fig driver pairs at full scale: the reproduction itself, the "
                    "only workload that runs analysis",
}


@dataclass
class Cell:
    """One timed unit of a batch and what its checks found."""

    key: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Batch:
    """One timed batch: its wall time, cells, and what the run reports
    beside the metrics."""

    wall_s: float
    cells: list[Cell]
    spans: list = field(default_factory=list)
    #: peak RSS of this process plus its workers, MiB, taken when the
    #: timed batch ends and before the output checks run (a check may
    #: itself run a model call that is larger than any the batch made)
    peak_rss_mb: float = 0.0
    info: dict = field(default_factory=dict)


def _failed(key: str, seconds: float, exc: BaseException) -> Cell:
    return Cell(key, seconds, [f"{key}: raised {type(exc).__name__}: {exc}\n"
                               + traceback.format_exc()])


def _maybe(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _instrumented(tracer: Tracer | None):
    return instrument(tracer) if tracer is not None else contextlib.nullcontext()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- set-up ------------------------------------------------------------------


@dataclass
class Context:
    """What a workload's set-up built: the program objects, reused by
    every batch of the run."""

    machine: object = None
    sim: object = None
    model: object = None
    total_model: object = None
    suite: object = None
    #: EXPERIMENTS.md sections and recorded results the checks compare to
    sections: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)


def _warm_kernel():
    from repro.kernels import heat_diffusion

    return heat_diffusion(rows=6, cols=66)


def setup(workload: str, seed: int, seconds: float) -> Context:
    """Imports, kernel construction and first-call warm-up for one
    workload: everything a user pays once before the first real call.

    The set-up probe times exactly this function in a fresh process.
    """
    from repro.costmodels import TotalCostModel
    from repro.machine import paper_machine
    from repro.model import FalseSharingModel
    from repro.model.jitdetect import jit_available, warmup_jit
    from repro.sim import MulticoreSimulator

    ctx = Context(machine=paper_machine())
    warm = _warm_kernel()
    if workload == "paper-sim":
        ctx.sim = MulticoreSimulator(ctx.machine)
        for cell in C.draw_sim_cells(seed, seconds):
            C.kernel(cell.kernel, cell.threads)
        ctx.sim.run(warm.nest, 2, chunk=1)
    elif workload == "paper-model":
        from repro.model import FalseSharingPredictor

        ctx.model = FalseSharingModel(ctx.machine)
        ctx.total_model = TotalCostModel(ctx.machine)
        for row in C.draw_model_rows(seed, seconds):
            C.kernel(row.kernel, row.threads)
        if jit_available():
            warmup_jit()
        ctx.model.analyze(warm.nest, 2, chunk=1)
        FalseSharingPredictor(ctx.model, n_runs=4).predict(warm.nest, 2, chunk=1)
    elif workload == "sweep-engine":
        from repro.frontend import parse_c_source
        from repro.model.whatif import evaluate_point

        import repro.engine  # noqa: F401  (engine import is part of set-up)

        nest = parse_c_source(warm.source)[0].nest
        evaluate_point(ctx.machine, nest, 2, 1)
        if jit_available():
            warmup_jit()
    elif workload == "paper-runner":
        from repro.analysis.experiments import ExperimentSuite

        ctx.suite = ExperimentSuite(scale="full")
        for name in ("heat", "dft"):
            C.kernel(name, 0)
        if jit_available():
            warmup_jit()
        ctx.suite.sim.run(warm.nest, 2, chunk=1)
        ctx.suite.model.analyze(warm.nest, 2, chunk=1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


# -- paper-sim ---------------------------------------------------------------


def run_paper_sim(ctx: Context, seed: int, seconds: float, tracer: Tracer | None) -> Batch:
    plan = C.draw_sim_cells(seed, seconds)
    nests = [C.kernel(cell.kernel, cell.threads).nest for cell in plan]
    out: list[Cell] = []
    results = []
    t0 = time.perf_counter()
    with _instrumented(tracer), _maybe(tracer, "bench.batch"):
        for cell, nest in zip(plan, nests):
            t = time.perf_counter()
            try:
                results.append(ctx.sim.run(nest, cell.threads, chunk=cell.chunk))
                out.append(Cell(cell.key, time.perf_counter() - t))
            except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                results.append(None)
                out.append(_failed(cell.key, time.perf_counter() - t, exc))
    wall = time.perf_counter() - t0
    rss = _self_rss_mb()
    for cell, result, timed in zip(plan, results, out):
        if result is not None:
            timed.problems += checks.check_sim_cell(cell, result, ctx.sections, ctx.expected)
    return Batch(wall, out, peak_rss_mb=rss, info={
        "accesses": sum(c.accesses for c in plan),
        "access_budget": C.sim_budget(seconds),
    })


# -- paper-model -------------------------------------------------------------


def _model_row(ctx: Context, row) -> tuple[list[Cell], list]:
    """Run one row's model calls (one cell each); the Eq. 5 fold runs
    inside the row's last cell.  Returns the cells and the outputs (the
    model results, then the fold), or no outputs if a call raised."""
    from repro.model import (
        FalseSharingPredictor,
        fs_overhead_percent,
        ols_fit,
        predicted_fs_percent,
    )
    import numpy as np

    k = C.kernel(row.kernel, row.threads)
    T = row.threads
    if row.kind == "fig6":
        chunks = (k.fs_chunk,)
    else:
        chunks = (k.fs_chunk, k.nfs_chunk)
    out: list[Cell] = []
    results = []
    predictor = FalseSharingPredictor(ctx.model, n_runs=k.pred_chunk_runs)
    for i, chunk in enumerate(chunks):
        key = checks.model_key(row.kernel, T, chunk, row.kind)
        t = time.perf_counter()
        try:
            if row.kind == "analyze":
                r = ctx.model.analyze(k.nest, T, chunk=chunk)
            elif row.kind == "predict":
                r = predictor.predict(k.nest, T, chunk=chunk)
            else:
                runs = C.full_scale().fig6_runs
                r = ctx.model.analyze(k.nest, T, chunk=chunk, max_chunk_runs=runs,
                                      record_series=True)
            results.append(r)
            fold = None
            if row.kind == "fig6":
                x = np.arange(1, len(r.per_chunk_run) + 1, dtype=np.float64)
                fold = ols_fit(x, r.per_chunk_run.astype(np.float64))
            elif i == len(chunks) - 1 and row.kind == "analyze":
                fold = fs_overhead_percent(results[0], results[1], ctx.machine,
                                           k.reference_nest, ctx.total_model).percent
            elif i == len(chunks) - 1:
                ref = ctx.total_model.breakdown(k.reference_nest, num_threads=T,
                                                fs_cases=0.0).total
                fold = predicted_fs_percent(results[0].predicted_fs_cases,
                                            results[1].predicted_fs_cases,
                                            results[0].prefix_result, ctx.machine, ref)
            out.append(Cell(key, time.perf_counter() - t))
            if fold is not None:
                results.append(fold)
        except Exception as exc:  # noqa: BLE001 - counted as a failed cell
            out.append(_failed(key, time.perf_counter() - t, exc))
            return out, []
    return out, results


def _check_model_row(ctx: Context, row, outputs: list, row_cells: list[Cell]) -> None:
    if not outputs:
        return
    k = C.kernel(row.kernel, row.threads)
    if row.kind == "fig6":
        result, fit = outputs
        row_cells[0].problems += checks.check_model_call(row, k.fs_chunk, result,
                                                         ctx.sections, ctx.expected)
        row_cells[0].problems += checks.check_fig6(result.per_chunk_run, fit, ctx.sections)
        return
    for cell, chunk, result in zip(row_cells, (k.fs_chunk, k.nfs_chunk), outputs):
        cell.problems += checks.check_model_call(row, chunk, result, ctx.sections,
                                                 ctx.expected)
    row_cells[-1].problems += checks.check_model_fold(row, outputs[2], ctx.sections)


def _mix(results) -> dict:
    """Resolved detector engine and fidelity counts of model results."""
    from collections import Counter

    prefixes = [getattr(r, "prefix_result", r) for r in results]
    return {
        "engine": dict(Counter(r.engine for r in prefixes)),
        "fidelity": dict(Counter(r.fidelity for r in prefixes)),
    }


def run_paper_model(ctx: Context, seed: int, seconds: float, tracer: Tracer | None) -> Batch:
    plan = C.draw_model_rows(seed, seconds)
    t0 = time.perf_counter()
    with _instrumented(tracer), _maybe(tracer, "bench.batch"):
        rows = [_model_row(ctx, row) for row in plan]
    wall = time.perf_counter() - t0
    rss = _self_rss_mb()
    out: list[Cell] = []
    model_results = []
    for row, (row_cells, outputs) in zip(plan, rows):
        _check_model_row(ctx, row, outputs, row_cells)
        out += row_cells
        model_results += [o for o in outputs if hasattr(o, "fidelity")
                          or hasattr(o, "prefix_result")]
    return Batch(wall, out, peak_rss_mb=rss, info={"detector_mix": _mix(model_results)})


# -- sweep-engine ------------------------------------------------------------


def run_sweep_engine(ctx: Context, seed: int, seconds: float, tracer: Tracer | None,
                     scratch: Path) -> Batch:
    import repro.frontend
    from repro.engine import ResultStore, make_engine
    from repro.model.whatif import WhatIfSweep

    plan = C.draw_sweep_list(seed, seconds)
    texts = {entry: entry.source() for entry in plan}
    sweeps = {exact: WhatIfSweep(ctx.machine, use_predictor=not exact)
              for exact in (False, True)}
    cache_dir = scratch / f"cache-{seed}-{time.monotonic_ns()}"
    engine = make_engine(jobs=WORKERS, use_cache=True, store=ResultStore(cache_dir))
    out: list[Cell] = []
    outputs = []
    try:
        t0 = time.perf_counter()
        with _instrumented(tracer), _maybe(tracer, "bench.batch"):
            for entry in plan:
                t = time.perf_counter()
                try:
                    nest = repro.frontend.parse_c_source(texts[entry], filename=entry.key)[0].nest
                    result = sweeps[entry.exact].sweep(nest, C.SWEEP_THREADS, C.SWEEP_CHUNKS,
                                                       engine=engine)
                    outputs.append((entry, nest, result))
                    out.append(Cell(entry.key, time.perf_counter() - t))
                except Exception as exc:  # noqa: BLE001 - counted as a failed cell
                    outputs.append((entry, None, None))
                    out.append(_failed(entry.key, time.perf_counter() - t, exc))
        wall = time.perf_counter() - t0
    finally:
        engine.close()
        # Every engine batch runs on a pool of its own that is shut down
        # without waiting; join all of its workers, so that each one has
        # ended and is counted in the children's peak RSS.
        for proc in multiprocessing.active_children():
            proc.join(timeout=30)
        shutil.rmtree(cache_dir, ignore_errors=True)
    rss = _self_rss_mb() + WORKERS * _children_rss_mb()
    _check_sweeps(ctx, seed, outputs, out)
    # One cell per source: its first sweep (a cache write) plus its
    # repeat (a cache read), so the cell median never falls on the
    # boundary between the two.
    per_source: dict[str, Cell] = {}
    for cell in out:
        merged = per_source.setdefault(cell.key, Cell(cell.key, 0.0))
        merged.seconds += cell.seconds
        merged.problems += cell.problems
    reuse = {"mem_hits": 0, "disk_hits": 0, "deduped": 0, "computed": 0}
    fidelity: dict[str, int] = {}
    for _, _, result in outputs:
        if result is None:
            continue
        for tier in reuse:
            reuse[tier] += getattr(result.reuse, tier)
        for p in result.points:
            fidelity[p.fidelity] = fidelity.get(p.fidelity, 0) + 1
    return Batch(wall, list(per_source.values()), peak_rss_mb=rss,
                 info={"reuse": reuse, "detector_mix": {"point_fidelity": fidelity}})


def _check_sweeps(ctx: Context, seed: int, outputs: list, out: list[Cell]) -> None:
    """Repeats equal their first sweep; a seeded sample of points
    equals a serial, uncached ``evaluate_point``."""
    from repro.model.whatif import evaluate_point

    first: dict = {}
    for (entry, nest, result), cell in zip(outputs, out):
        if result is None:
            continue
        if entry not in first:
            first[entry] = (nest, result, cell)
        elif result.points != first[entry][1].points:
            cell.problems.append(f"{entry.key}: repeat sweep differs from its first sweep")
    rng = random.Random(f"reprobench:sweep-check:{seed}")
    picks = rng.sample(sorted(first, key=lambda e: e.key), min(SWEEP_CHECK_POINTS, len(first)))
    for entry in picks:
        nest, result, cell = first[entry]
        point = rng.choice(result.points)
        want = evaluate_point(ctx.machine, nest, point.threads, point.chunk,
                              use_predictor=not entry.exact)
        if point != want:
            cell.problems.append(f"{entry.key} t{point.threads}c{point.chunk}: engine point "
                                 f"{point} != serial {want}")


# -- paper-runner ------------------------------------------------------------


def runner_worker(conn, order: tuple[str, ...], traced: bool, run: str,
                  parent_span: str | None) -> None:
    """One driver pair in a spawned process: set up, report ready, wait
    for the go signal, run both drivers, send back results and spans."""
    suite = setup("paper-runner", 0, 0).suite
    conn.send("ready")
    conn.recv()
    tracer = Tracer(run, parent_span) if traced else None
    done = []
    with _instrumented(tracer), _maybe(tracer, "bench.worker"):
        for name in order:
            t = time.perf_counter()
            try:
                result = suite.run_driver(name)
                done.append((name, time.perf_counter() - t, result, None))
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                done.append((name, time.perf_counter() - t, None,
                             f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
    conn.send({
        "done": done,
        "spans": tracer.spans if tracer is not None else [],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    conn.close()


def fs_pct_abs_err(results) -> float:
    """Mean |modeled - measured| FS % over every driver row (Eq. 5)."""
    errors = []
    for res in results:
        measured = res.columns.index(
            "measured FS %" if "measured FS %" in res.columns else "measured %")
        modeled = res.columns.index(
            "modeled FS %" if "modeled FS %" in res.columns else "modeled %")
        errors += [abs(row[modeled] - row[measured]) for row in res.rows]
    return sum(errors) / len(errors)


def _stop_resource_tracker(timeout: float = 30.0) -> None:
    """End the resource tracker that spawning the driver workers started
    and wait for it.  Left alone, it outlives this process for a moment.

    Closing our end of its pipe makes it exit once no other process holds
    that end; the workers that did are joined by then.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
        deadline = time.monotonic() + timeout
        with contextlib.suppress(ChildProcessError):  # already reaped
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    return
                time.sleep(0.01)


def run_paper_runner(ctx: Context, seed: int, tracer: Tracer | None) -> Batch:
    orders = C.draw_runner_orders(seed)
    spawn = multiprocessing.get_context("spawn")
    procs, conns = [], []
    replies = []
    batch_span = None
    try:
        with _maybe(tracer, "bench.batch") as batch_span:
            parent_id = batch_span.id if batch_span is not None else None
            for order in orders:
                ours, theirs = spawn.Pipe()
                proc = spawn.Process(
                    target=runner_worker,
                    args=(theirs, order, tracer is not None,
                          tracer.run if tracer else "", parent_id),
                )
                proc.start()
                theirs.close()
                procs.append(proc)
                conns.append(ours)
            for conn in conns:
                if conn.recv() != "ready":
                    raise RuntimeError("runner worker did not report ready")
            if batch_span is not None:
                batch_span.start = time.perf_counter()
            t0 = time.perf_counter()
            for conn in conns:
                conn.send("go")
            replies = [conn.recv() for conn in conns]
            wall = time.perf_counter() - t0
    finally:
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
        for conn in conns:
            conn.close()
        _stop_resource_tracker()
    rss = _self_rss_mb() + sum(r["rss_mb"] for r in replies)
    out: list[Cell] = []
    results = []
    spans = list(tracer.spans) if tracer is not None else []
    for reply in replies:
        spans += reply["spans"]
        for name, secs, result, error in reply["done"]:
            cell = Cell(name, secs)
            if error is not None:
                cell.problems.append(f"{name}: {error}")
            else:
                cell.problems += checks.check_runner_result(result, ctx.sections)
                results.append(result)
            out.append(cell)
    info = {"orders": [list(o) for o in orders]}
    if len(results) == len(out):
        info["fs_pct_abs_err"] = fs_pct_abs_err(results)
    return Batch(wall, out, spans=spans, peak_rss_mb=rss, info=info)


def run_batch(workload: str, ctx: Context, seed: int, seconds: float,
              tracer: Tracer | None, scratch: Path) -> Batch:
    if workload == "paper-sim":
        batch = run_paper_sim(ctx, seed, seconds, tracer)
    elif workload == "paper-model":
        batch = run_paper_model(ctx, seed, seconds, tracer)
    elif workload == "sweep-engine":
        batch = run_sweep_engine(ctx, seed, seconds, tracer, scratch)
    elif workload == "paper-runner":
        return run_paper_runner(ctx, seed, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tracer is not None:
        batch.spans = list(tracer.spans)
    return batch
