"""The multicore execution substrate — the reproduction's "testbed".

:class:`MulticoreSimulator` executes a parallel loop nest's memory trace
through per-core MESI caches with per-access timing, producing the
``T_fs_measure`` / ``T_nfs_measure`` numbers of the paper's Eq. (5) left
side.  It deliberately shares *inputs* with the analytic side — the same
IR, the same static schedule, the same :class:`MachineConfig` — but none
of its *mechanism*: the model counts FS cases analytically over
fully-associative cache states; the simulator runs every access through
set-associative caches, a MESI directory and a cost table.  Agreement
between the two is therefore evidence the model works, not an identity.

Timing model
------------
Per-thread cycle accumulators advance access by access; the compute cost
of each innermost iteration comes from the shared
:class:`~repro.costmodels.ProcessorModel`, and loop/parallel overheads
from :class:`~repro.costmodels.ParallelModel`.  The loop's wall-clock
cycles are the slowest thread's total plus the runtime overheads —
threads synchronize only at worksharing boundaries, as in OpenMP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.costmodels.parallel import ParallelModel
from repro.costmodels.processor import ProcessorModel
from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace
from repro.ir.validate import validate_nest
from repro.machine import MachineConfig
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.sim import steady
from repro.sim.timing import AccessCosts
from repro.sim.walk import EVENTS, Walk
from repro.util import get_logger

logger = get_logger(__name__)


@dataclass
class SimCounters:
    """Event counts accumulated over a simulated execution."""

    loads: int = 0
    stores: int = 0
    load_hits: int = 0
    store_hits: int = 0
    load_prefetched: int = 0
    load_shared_fills: int = 0
    load_cold: int = 0
    load_remote_modified: int = 0
    store_upgrades: int = 0
    store_miss_clean: int = 0
    store_miss_remote_modified: int = 0
    invalidations: int = 0
    downgrades: int = 0
    evictions: int = 0
    tlb_misses: int = 0

    @property
    def coherence_events(self) -> int:
        """Accesses that found the line dirty in a remote cache —
        the simulator-side analogue of the model's FS cases."""
        return self.load_remote_modified + self.store_miss_remote_modified

    @property
    def accesses(self) -> int:
        return self.loads + self.stores


@dataclass
class SimResult:
    """Outcome of one simulated execution of a parallel nest."""

    nest_name: str
    num_threads: int
    chunk: int
    cycles: float
    per_thread_cycles: np.ndarray
    compute_cycles_per_iter: float
    steps: int
    counters: SimCounters
    elapsed_seconds: float
    freq_ghz: float = 2.2

    @property
    def seconds(self) -> float:
        """Simulated wall-clock time of the loop."""
        return self.cycles / (self.freq_ghz * 1e9)

    @property
    def memory_cycles(self) -> float:
        """The slowest thread's cycle total: its memory-access costs plus
        the per-step compute and loop overhead (runtime overheads such
        as startup and barriers excluded, unlike :attr:`cycles`)."""
        return float(self.per_thread_cycles.max()) if len(self.per_thread_cycles) else 0.0


class MulticoreSimulator:
    """Cycle-approximate multicore cache/coherence simulator.

    Parameters
    ----------
    machine:
        Machine description (cache geometry, penalties, overheads).
    block_steps:
        Lockstep steps fetched per trace block.
    fully_associative:
        Force fully-associative private caches (for the associativity
        ablation; default uses the machine's set-associative geometry).
    """

    def __init__(
        self,
        machine: MachineConfig,
        block_steps: int = 4096,
        fully_associative: bool = False,
        prefetcher: bool = True,
        thread_placement: str = "contiguous",
    ) -> None:
        self.machine = machine
        self.block_steps = block_steps
        self.fully_associative = fully_associative
        #: Thread-to-socket pinning policy; coherence penalties between
        #: threads on different sockets scale by
        #: ``machine.coherence.cross_socket_factor`` (1.0 by default).
        self.thread_placement = thread_placement
        #: Per-(thread, reference) constant-stride prefetcher.  Modern
        #: cores hide constant-stride load streams almost entirely; a
        #: coherence miss (dirty remote copy) cannot be hidden because
        #: any prefetched copy is invalidated before use — which is
        #: precisely why false sharing survives prefetching on real
        #: hardware while plain streaming misses do not.
        self.prefetcher = prefetcher
        self.costs = AccessCosts.from_machine(machine)
        self._processor = ProcessorModel(machine)
        self._parallel = ParallelModel(machine)

    def run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        chunk: int | None = None,
        space: AddressSpace | None = None,
        max_steps: int | None = None,
    ) -> SimResult:
        """Simulate the nest and return timing plus event counts."""
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive, got {num_threads}")
        if chunk is not None:
            nest = nest.with_chunk(chunk)
        validate_nest(nest)

        with span("sim.run", kernel=nest.name, threads=num_threads) as sp:
            result, walked, extrapolated = self._run(nest, num_threads, space, max_steps)
            sp.set(
                chunk=result.chunk,
                accesses=result.counters.accesses,
                coherence_events=result.counters.coherence_events,
                runs_walked=walked,
                runs_extrapolated=extrapolated,
            )
        return result

    def _run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        space: AddressSpace | None,
        max_steps: int | None,
    ) -> tuple[SimResult, int, int]:
        """The result, and the chunk runs walked and extrapolated."""
        t0 = time.perf_counter()
        gen = OwnershipListGenerator(
            nest,
            num_threads,
            line_size=self.machine.line_size,
            space=space,
            block_steps=self.block_steps,
        )
        compute = self._processor.cycles_per_iter(nest)
        loop_oh = self._parallel.loop_overhead_per_iter(nest)
        counters, cycles, total_steps, extrapolated = self._simulate(
            gen, compute + loop_oh, max_steps
        )
        spr = max(gen.iteration_space.steps_per_chunk_run, 1)
        walked = -(-total_steps // spr) - extrapolated

        par_oh = self.machine.overheads
        trips = nest.trip_counts()
        d = nest.parallel_depth()
        outer_runs = 1
        for tr in trips[:d]:
            outer_runs *= max(tr, 1)
        est = self._parallel.estimate(nest, num_threads)
        wall = (
            max(cycles)
            + par_oh.parallel_startup_cycles
            + est.dispatch_cycles / num_threads
            + par_oh.barrier_cycles_per_thread * outer_runs
        )
        elapsed = time.perf_counter() - t0
        registry = get_registry()
        if elapsed > 0:
            registry.gauge(
                "sim_accesses_per_sec",
                "simulated accesses processed per second by the last run",
            ).labels(kernel=nest.name, threads=num_threads).set(
                counters.accesses / elapsed
            )
        registry.counter(
            "sim_coherence_events",
            "accesses that found the line dirty in a remote cache",
        ).labels(kernel=nest.name, threads=num_threads).inc(
            counters.coherence_events
        )
        registry.histogram(
            "sim_run_seconds", "wall time of MulticoreSimulator.run"
        ).labels(kernel=nest.name).observe(elapsed)
        runs = registry.counter(
            "sim_chunk_runs_total",
            "chunk runs the simulator walked or accounted by steady-state extrapolation",
        )
        runs.labels(outcome="walked").inc(walked)
        runs.labels(outcome="extrapolated").inc(extrapolated)
        result = SimResult(
            nest_name=nest.name,
            num_threads=num_threads,
            chunk=gen.iteration_space.chunk,
            cycles=wall,
            per_thread_cycles=np.asarray(cycles),
            compute_cycles_per_iter=compute,
            steps=total_steps,
            counters=counters,
            elapsed_seconds=elapsed,
            freq_ghz=self.machine.freq_ghz,
        )
        logger.debug(
            "sim %s T=%d chunk=%d: %.0f cycles, %d coherence events (%.3fs)",
            nest.name, num_threads, result.chunk, wall,
            counters.coherence_events, elapsed,
        )
        return result, walked, extrapolated

    def _simulate(
        self,
        gen: OwnershipListGenerator,
        per_step_cycles: float,
        max_steps: int | None,
    ) -> tuple[SimCounters, list[float], int, int]:
        """Walk the trace: ``(counters, per-thread cycles, steps, chunk
        runs extrapolated)``.

        A run that qualifies for the exact steady-state exit
        (:mod:`repro.sim.steady`) skips verified repeats of a chunk run;
        every other run walks all of its blocks.  All run state lives in
        one :class:`~repro.sim.walk.Walk`, so one simulator can serve
        concurrent runs.
        """
        walk = Walk(
            self.machine, self.costs, gen, per_step_cycles,
            self.fully_associative, self.prefetcher, self.thread_placement,
        )
        enum = gen.enum
        limit = enum.max_steps if max_steps is None else min(max_steps, enum.max_steps)
        plan = steady.plan(gen, walk, limit, self.block_steps)
        if plan is None:
            for block in gen.blocks(max_steps):
                walk.advance(block.lines, block.start_step)
            extrapolated = 0
        else:
            plan.run()
            extrapolated = plan.runs_extrapolated

        n_refs = len(walk.writes)
        n_stores = sum(walk.writes)
        loads = walk.thread_steps * (n_refs - n_stores)
        stores = walk.thread_steps * n_stores
        events = dict(zip(EVENTS, walk.counts))
        counters = SimCounters(
            loads=loads,
            stores=stores,
            load_hits=loads - events["load_prefetched"] - events["load_shared_fills"]
            - events["load_cold"] - events["load_remote_modified"],
            store_hits=stores - events["store_upgrades"] - events["store_miss_clean"]
            - events["store_miss_remote_modified"],
            **events,
        )
        return counters, walk.cycles, walk.total_steps, extrapolated
