"""The MESI simulator's exact steady-state exit (:mod:`repro.sim.steady`).

A run that qualifies skips verified repeats of a chunk run and accounts
for them in closed form.  That must not move a single event count or
cycle: every test here compares ``MulticoreSimulator.run`` with the same
run made to walk every block, which is the same walk with the exit's
planner returning ``None``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import FULL_SCALE
from repro.costmodels.processor import ProcessorModel
from repro.kernels.dft import build_dft_nest
from repro.kernels.heat import build_heat_nest
from repro.kernels.linreg import build_linreg_nest
from repro.machine import CacheLevel, CoherenceCosts, paper_machine
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, get_tracer
from repro.sim import MulticoreSimulator, steady
from repro.sim.walk import Walk


def _observe(result) -> dict:
    return {
        "counters": dataclasses.asdict(result.counters),
        "steps": result.steps,
        "cycles": float(result.cycles).hex(),
        "per_thread_cycles": [float(c).hex() for c in result.per_thread_cycles],
    }


def _traced_run(sim, nest, threads, chunk, max_steps=None):
    """``sim.run`` and the attributes of its ``sim.run`` span."""
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        result = sim.run(nest, threads, chunk=chunk, max_steps=max_steps)
        (event,) = [e for e in tracer.events() if e.name == "sim.run"]
    finally:
        tracer.disable()
        tracer.reset()
    return result, event.args


def _walked(sim, nest, threads, chunk, max_steps=None):
    """The same run with the steady-state exit turned away."""
    with mock.patch.object(steady, "plan", return_value=None):
        return sim.run(nest, threads, chunk=chunk, max_steps=max_steps)


def _tiny_l2(machine):
    # 64 lines in 16 sets of 4 ways: small kernels evict.
    return dataclasses.replace(
        machine,
        l2=CacheLevel(64 * 64, line_size=64, associativity=4, latency_cycles=12),
    )


MACHINES = {
    "paper": paper_machine,
    "tiny-l2": lambda: _tiny_l2(paper_machine()),
    # Two cores per socket: coherence misses cost by thread pair.
    "numa": lambda: dataclasses.replace(
        paper_machine(),
        cores_per_socket=2,
        coherence=CoherenceCosts(cross_socket_factor=1.7),
    ),
}


KERNELS = {
    # rows, columns: the parallel trip is columns - 2
    "heat": lambda runs, width: build_heat_nest(4, runs * width + 2),
    # samples, frequencies: the parallel trip is the frequency count
    "dft": lambda runs, width: build_dft_nest(3, runs * width),
    # tasks, points per task: the parallel trip is the task count
    "linreg": lambda runs, width: build_linreg_nest(runs * width, 4),
}


@st.composite
def configs(draw):
    kernel = draw(st.sampled_from(sorted(KERNELS)))
    threads = draw(st.sampled_from([1, 2, 3, 4, 8]))
    chunk = draw(st.sampled_from([1, 2, 4]))
    # Whole chunk runs per execution, so most draws have a shift
    # profile; an extra iteration now and then leaves a ragged run.
    runs = draw(st.integers(4, 24))
    ragged = draw(st.booleans()) and draw(st.booleans())
    nest = KERNELS[kernel](runs, threads * chunk)
    if ragged:
        nest = KERNELS[kernel](runs, threads * chunk + 1)
    machine = draw(st.sampled_from(["paper", "tiny-l2", "numa"]))
    opts = draw(st.sampled_from([
        {}, {"prefetcher": False}, {"block_steps": 16},
        {"fully_associative": True}, {"thread_placement": "scatter"},
    ]))
    max_steps = draw(st.one_of(st.none(), st.integers(0, 400)))
    return nest, threads, chunk, machine, opts, max_steps


class TestExactness:
    @given(configs())
    @settings(max_examples=80, deadline=None)
    def test_run_matches_the_walk(self, config):
        nest, threads, chunk, machine, opts, max_steps = config
        sim = MulticoreSimulator(MACHINES[machine](), **opts)
        fast = sim.run(nest, threads, chunk=chunk, max_steps=max_steps)
        slow = _walked(sim, nest, threads, chunk, max_steps)
        assert _observe(fast) == _observe(slow)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_exit_fires_and_matches(self, kernel, threads):
        """Forty runs of a footprint far below the cache: the exit must
        fire, and still agree bit for bit."""
        sim = MulticoreSimulator(paper_machine())
        nest = KERNELS[kernel](40, threads)
        result, attrs = _traced_run(sim, nest, threads, 1)
        assert attrs["runs_extrapolated"] > 0
        assert _observe(result) == _observe(_walked(sim, nest, threads, 1))

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_cycles_add_in_the_walks_order(self, kernel):
        """The paper kernels' per-step costs are short binary fractions,
        so any order of adding them gives the same float.  A cost with
        a full mantissa makes the order of the additions show."""
        sim = MulticoreSimulator(paper_machine())
        nest = KERNELS[kernel](40, 4)
        with mock.patch.object(
            ProcessorModel, "cycles_per_iter", return_value=4.75 + 1 / 3
        ):
            result, attrs = _traced_run(sim, nest, 4, 1)
            walked = _walked(sim, nest, 4, 1)
        assert attrs["runs_extrapolated"] > 0
        assert _observe(result) == _observe(walked)

    def test_cut_inside_a_skippable_span(self):
        sim = MulticoreSimulator(paper_machine())
        nest = KERNELS["heat"](40, 4)  # two executions of 40 one-step runs
        cut = 40 + 20
        result, attrs = _traced_run(sim, nest, 4, 1, max_steps=cut)
        assert result.steps == cut
        assert attrs["runs_extrapolated"] > 0
        assert _observe(result) == _observe(_walked(sim, nest, 4, 1, cut))

    def test_evicting_run_takes_the_walk(self):
        """The same kernel on a 64-line L2 evicts, so it must not plan."""
        sim = MulticoreSimulator(_tiny_l2(paper_machine()))
        nest = KERNELS["heat"](40, 4)
        result, attrs = _traced_run(sim, nest, 4, 1)
        assert result.counters.evictions > 0
        assert attrs["runs_extrapolated"] == 0
        assert attrs["runs_walked"] == 2 * 40


class TestBoundedArrays:
    """Every array the exit builds stays below the size from which NumPy
    asks for huge pages (module docs of :mod:`repro.sim.steady`)."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_one_step_blocks_and_one_period_chunks(self, kernel):
        """The bounded passes over the trace and the skipped periods,
        at their shortest, must add up to one pass exactly."""
        sim = MulticoreSimulator(paper_machine())
        nest = KERNELS[kernel](40, 4)
        with mock.patch.object(steady, "BLOCK_BYTES", 1):
            result, attrs = _traced_run(sim, nest, 4, 1)
        assert attrs["runs_extrapolated"] > 0
        assert _observe(result) == _observe(_walked(sim, nest, 4, 1))

    def test_full_size_trace_stays_below_huge_pages(self):
        """linreg/T8/c4 stacks 4.5 MB per 4096-step block."""
        held = []
        get = steady._Trace.get

        def spy(trace, start, stop):
            rows = get(trace, start, stop)
            held.append(max([rows.nbytes] + [b.nbytes for b in trace.blocks]))
            return rows

        with mock.patch.object(steady._Trace, "get", spy):
            _, attrs = _traced_run(
                MulticoreSimulator(paper_machine()), FULL_SCALE.linreg(8).nest, 8, 4
            )
        assert attrs["runs_extrapolated"] > 0
        assert max(held) < steady.HUGE_PAGE_ARRAY_BYTES


class TestObservability:
    def test_span_and_counter_account_every_run(self):
        sim = MulticoreSimulator(paper_machine())
        nest = KERNELS["dft"](40, 4)
        runs = get_registry().counter("sim_chunk_runs_total")
        walked0 = runs.labels(outcome="walked").value
        skipped0 = runs.labels(outcome="extrapolated").value
        _, attrs = _traced_run(sim, nest, 4, 1)
        assert attrs["runs_walked"] + attrs["runs_extrapolated"] == 3 * 40
        assert runs.labels(outcome="walked").value - walked0 == attrs["runs_walked"]
        assert (
            runs.labels(outcome="extrapolated").value - skipped0
            == attrs["runs_extrapolated"]
        )


def _plans(kernel, threads, chunk) -> bool:
    machine = paper_machine()
    scale = {"heat": FULL_SCALE.heat, "dft": FULL_SCALE.dft}
    inst = scale[kernel]() if kernel in scale else FULL_SCALE.linreg(threads)
    gen = OwnershipListGenerator(
        inst.nest.with_chunk(chunk), threads, line_size=machine.line_size,
        block_steps=4096,
    )
    sim = MulticoreSimulator(machine)
    walk = Walk(machine, sim.costs, gen, 1.0, False, True, "contiguous")
    return steady.plan(gen, walk, gen.enum.max_steps, 4096) is not None


class TestPaperCells:
    """Which full-size cells of Tables I-III the exit covers."""

    @pytest.mark.parametrize(
        "kernel,threads,chunk", [("dft", 8, 1), ("heat", 32, 1), ("linreg", 8, 4)]
    )
    def test_fires(self, kernel, threads, chunk):
        scale = {"heat": FULL_SCALE.heat, "dft": FULL_SCALE.dft}
        inst = scale[kernel]() if kernel in scale else FULL_SCALE.linreg(threads)
        _, attrs = _traced_run(
            MulticoreSimulator(paper_machine()), inst.nest, threads, chunk
        )
        assert attrs["runs_extrapolated"] > attrs["runs_walked"]

    @pytest.mark.parametrize(
        "kernel,threads,chunk,why",
        [
            ("heat", 8, 1, "evicts"),
            ("heat", 40, 1, "ragged last chunk run"),
            ("linreg", 48, 10, "no shift profile"),
            ("linreg", 8, 12, "a one-period window of 4.75 MB"),
        ],
    )
    def test_does_not_fire(self, kernel, threads, chunk, why):
        assert not _plans(kernel, threads, chunk), why
