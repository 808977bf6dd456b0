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
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.costmodels.parallel import ParallelModel
from repro.costmodels.processor import ProcessorModel
from repro.ir.loops import ParallelLoopNest
from repro.ir.refs import AddressSpace
from repro.ir.validate import validate_nest
from repro.machine import MachineConfig
from repro.machine.topology import pair_penalty_factory
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.sim.cache import E, M, PrivateCache, S
from repro.sim.timing import AccessCosts
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
            result = self._run(nest, num_threads, space, max_steps)
            sp.set(
                chunk=result.chunk,
                accesses=result.counters.accesses,
                coherence_events=result.counters.coherence_events,
            )
        return result

    def _run(
        self,
        nest: ParallelLoopNest,
        num_threads: int,
        space: AddressSpace | None,
        max_steps: int | None,
    ) -> SimResult:
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
        counters, cycles, total_steps = self._simulate(
            gen, num_threads, compute + loop_oh, max_steps
        )

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
        return result

    def _simulate(
        self,
        gen: OwnershipListGenerator,
        num_threads: int,
        per_step_cycles: float,
        max_steps: int | None,
    ) -> tuple[SimCounters, list[float], int]:
        """The lockstep MESI loop: ``(counters, per-thread cycles, steps)``.

        One flat loop over (step, thread, reference) with every MESI
        transition inlined.  Each thread's private cache is the three
        maps of a :class:`PrivateCache`, worked on directly; its TLB is
        an LRU ``OrderedDict`` of pages; the directory is two bitmask
        maps, ``holders`` (threads caching the line) and ``writers``
        (threads that may hold it dirty).  All run state is local, so
        one simulator can serve concurrent runs.
        """
        machine = self.machine
        c = self.costs
        penalty = pair_penalty_factory(
            num_threads,
            machine.cores_per_socket,
            self.thread_placement,
            machine.coherence.cross_socket_factor,
        )
        # Coherence-miss cost by (requester, dirty owner): a socket hop
        # scales it by the cross-socket factor.
        load_rm = [
            [int(c.load_remote_modified * penalty(t, o)) for o in range(num_threads)]
            for t in range(num_threads)
        ]
        store_rm = [
            [
                int(c.store_miss_remote_modified * penalty(t, o))
                for o in range(num_threads)
            ]
            for t in range(num_threads)
        ]
        load_hit, store_hit = c.load_hit, c.store_hit
        load_prefetched, load_shared_fill = c.load_prefetched, c.load_shared_fill
        load_cold, store_upgrade = c.load_cold, c.store_upgrade
        store_miss_clean = c.store_miss_clean

        l2 = machine.l2
        caches = [
            PrivateCache(l2.num_lines, 0 if self.fully_associative else l2.associativity)
            for _ in range(num_threads)
        ]
        ways = caches[0].ways
        set_mask = caches[0].num_sets - 1
        states = [cache.states for cache in caches]
        tlb_entries = machine.tlb_entries
        tlb_miss_cycles = machine.tlb_miss_cycles
        lines_per_page = machine.page_size // machine.line_size
        # Per thread: its cache maps, its TLB (an LRU of pages: the
        # paper models the TLB as another cache level, the simulator
        # gives each core one), its directory bit and the inverse, and
        # its coherence-miss costs by dirty owner.
        per_thread = [
            (cache.states, cache.stamps, cache.sets, OrderedDict(),
             1 << t, ~(1 << t), load_rm[t], store_rm[t])
            for t, cache in enumerate(caches)
        ]
        # The directory: per line, bitmasks of the threads caching it
        # and of those that may hold it dirty.  ``holders`` keeps a key
        # for every line ever filled, so it also answers "is the line in
        # L3?" (a clean fill) versus a first touch (DRAM).
        holders: dict[int, int] = {}
        writers: dict[int, int] = {}
        # The line each thread touched last through the full path, and
        # whether it holds it in M: a re-touch needs no state change.
        mru_line: list[int | None] = [None] * num_threads
        mru_mod: list[bool] = [False] * num_threads
        # The page each thread touched last: already MRU in its TLB.
        last_page: list[int | None] = [None] * num_threads
        cycles = [0.0] * num_threads
        # One stamp clock for every cache: stamps still grow within each.
        clock = 0
        n_prefetched = n_shared_fills = n_cold = n_load_remote_modified = 0
        n_upgrades = n_store_miss_clean = n_store_remote_modified = 0
        n_invalidations = n_downgrades = n_evictions = n_tlb_misses = 0
        total_steps = thread_steps = 0

        writes = tuple(bool(w) for w in gen.write_mask)
        n_refs = len(writes)
        # Stride-prefetcher state per (thread, reference), carried
        # across blocks by the pre-pass.
        use_pf = self.prefetcher
        pf_last = [np.full(n_refs, -1, dtype=np.int64) for _ in range(num_threads)]
        pf_delta = [np.zeros(n_refs, dtype=np.int64) for _ in range(num_threads)]

        steps_per_run = max(gen.iteration_space.steps_per_chunk_run, 1)
        progress = get_registry().gauge(
            "sim_progress_chunk_runs",
            "chunk runs completed by the in-flight simulation",
        ).labels(kernel=gen.nest.name, threads=num_threads)
        for block in gen.blocks(max_steps):
            with span("sim.block", start_step=block.start_step) as block_span:
                if use_pf:
                    for t, mat in enumerate(block.lines):
                        _tag_prefetched(mat, pf_last[t], pf_delta[t])
                rows = [mat.tolist() for mat in block.lines]
                lengths = [len(r) for r in rows]
                n_steps = max(lengths, default=0)
                total_steps += n_steps
                thread_steps += sum(lengths)
                for s in range(n_steps):
                    for t in range(num_threads):
                        if s >= lengths[t]:
                            continue
                        (cs, cst, csets, tlb, bit, nbit,
                         load_rm_t, store_rm_t) = per_thread[t]
                        mru_l = mru_line[t]
                        mru_m = mru_mod[t]
                        page_t = last_page[t]
                        cost = per_step_cycles
                        for line, w in zip(rows[t][s], writes):
                            if line >= _TAG_MIN:
                                line -= _PREFETCHED
                                predicted = True
                            else:
                                predicted = False
                            # MRU fast path: re-touch with sufficient state.
                            if line == mru_l and (mru_m or not w):
                                cost += store_hit if w else load_hit
                                continue
                            page = line // lines_per_page
                            if page != page_t:
                                if page in tlb:
                                    tlb.move_to_end(page)
                                else:
                                    n_tlb_misses += 1
                                    cost += tlb_miss_cycles
                                    tlb[page] = None
                                    if len(tlb) > tlb_entries:
                                        tlb.popitem(last=False)
                                page_t = page
                            st = cs.get(line)
                            if st is not None:
                                if not w:
                                    cst[line] = clock
                                    clock += 1
                                    mru_l = line
                                    mru_m = st == M
                                    cost += load_hit
                                    continue
                                if st != S:
                                    if st == E:
                                        writers[line] = writers.get(line, 0) | bit
                                        cs[line] = M
                                    cst[line] = clock
                                    clock += 1
                                    mru_l = line
                                    mru_m = True
                                    cost += store_hit
                                    continue
                            mru_l = line
                            if w:
                                if st is None:
                                    fw = writers.get(line, 0) & nbit
                                    if fw:
                                        cost += store_rm_t[fw.bit_length() - 1]
                                        n_store_remote_modified += 1
                                    else:
                                        cost += store_miss_clean
                                        n_store_miss_clean += 1
                                    mask = fw | (holders.get(line, 0) & nbit)
                                else:  # S: upgrade
                                    cost += store_upgrade
                                    n_upgrades += 1
                                    mask = holders.get(line, 0) & nbit
                                # Invalidate every remote copy.
                                while mask:
                                    low = mask & -mask
                                    o = low.bit_length() - 1
                                    so = states[o]
                                    if so.pop(line, None) is not None:
                                        n_invalidations += 1
                                        del caches[o].stamps[line]
                                        caches[o].sets[line & set_mask].discard(line)
                                    if mru_line[o] == line:
                                        mru_line[o] = None
                                    mask ^= low
                                holders[line] = bit
                                writers[line] = bit
                                mru_m = True
                                new_state = M
                            else:
                                h = holders.get(line)
                                if h is None:  # first fill anywhere: DRAM
                                    h = fw = mask = 0
                                    new_state = E
                                    if predicted:
                                        cost += load_prefetched
                                        n_prefetched += 1
                                    else:
                                        cost += load_cold
                                        n_cold += 1
                                else:
                                    fw = writers.get(line, 0) & nbit
                                    if fw:
                                        cost += load_rm_t[fw.bit_length() - 1]
                                        n_load_remote_modified += 1
                                        writers[line] = 0
                                        mask = fw
                                        new_state = S
                                    else:
                                        mask = h & nbit
                                        new_state = S if mask else E
                                        if predicted:
                                            cost += load_prefetched
                                            n_prefetched += 1
                                        else:
                                            cost += load_shared_fill
                                            n_shared_fills += 1
                                # Remote M/E copies drop to S (an exclusive
                                # clean holder loses E); only a dirty
                                # owner's downgrade counts.
                                while mask:
                                    low = mask & -mask
                                    o = low.bit_length() - 1
                                    so = states[o]
                                    if so.get(line, S) != S:
                                        so[line] = S
                                        if fw:
                                            n_downgrades += 1
                                    if mru_line[o] == line:
                                        mru_mod[o] = False
                                    mask ^= low
                                holders[line] = h | bit
                                mru_m = False
                            cs[line] = new_state
                            cst[line] = clock
                            clock += 1
                            if st is not None:  # upgrade: no fill, no eviction
                                continue
                            members = csets[line & set_mask]
                            members.add(line)
                            if len(members) > ways:
                                # The LRU member; never ``line``, whose
                                # stamp is the newest.
                                victim = min(members, key=cst.__getitem__)
                                members.remove(victim)
                                del cs[victim]
                                del cst[victim]
                                holders[victim] = holders.get(victim, 0) & nbit
                                writers[victim] = writers.get(victim, 0) & nbit
                                n_evictions += 1
                        mru_line[t] = mru_l
                        mru_mod[t] = mru_m
                        last_page[t] = page_t
                        cycles[t] += cost
                # block ends; state persists across blocks
                block_span.set(steps=n_steps)
            progress.set(total_steps // steps_per_run)
            logger.debug(
                "sim %s: %d chunk runs done (%d steps)",
                gen.nest.name, total_steps // steps_per_run, total_steps,
            )

        n_stores = sum(writes)
        loads = thread_steps * (n_refs - n_stores)
        stores = thread_steps * n_stores
        counters = SimCounters(
            loads=loads,
            stores=stores,
            load_hits=loads - n_prefetched - n_shared_fills - n_cold
            - n_load_remote_modified,
            store_hits=stores - n_upgrades - n_store_miss_clean
            - n_store_remote_modified,
            load_prefetched=n_prefetched,
            load_shared_fills=n_shared_fills,
            load_cold=n_cold,
            load_remote_modified=n_load_remote_modified,
            store_upgrades=n_upgrades,
            store_miss_clean=n_store_miss_clean,
            store_miss_remote_modified=n_store_remote_modified,
            invalidations=n_invalidations,
            downgrades=n_downgrades,
            evictions=n_evictions,
            tlb_misses=n_tlb_misses,
        )
        return counters, cycles, total_steps


#: Added to a line id the stride prefetcher predicts.  Line ids of int64
#: byte addresses lie in [-2**57, 2**57), so a tagged id (>= _TAG_MIN)
#: never collides with an untagged one and still fits in int64.
_PREFETCHED = 1 << 59
_TAG_MIN = 1 << 58


def _tag_prefetched(mat: np.ndarray, last: np.ndarray, delta: np.ndarray) -> None:
    """Tag, in place, the accesses of one thread's block that the
    stride prefetcher predicts.

    ``mat`` is the thread's ``[steps, refs]`` line ids; ``last`` and
    ``delta`` hold, per reference, the previous line and the last
    non-zero line stride, and are carried from block to block.  An
    access is predicted when its stride is non-zero and equals the last
    non-zero stride of the same reference.  Zero strides (sub-line
    progress) do not disturb a learned stride — real stride prefetchers
    track byte strides below line granularity.  The prediction depends
    on the thread's own stream only, so it is computed ahead of the
    lockstep loop.
    """
    n, refs = mat.shape
    if not n:
        return
    d = np.diff(mat, axis=0, prepend=last[None, :])
    moved = d != 0
    cols = np.arange(refs)
    # Per step and reference: the last step at or before it that moved.
    seen = np.maximum.accumulate(
        np.where(moved, np.arange(n)[:, None], -1), axis=0
    )
    before = np.empty_like(seen)
    before[0] = -1
    before[1:] = seen[:-1]
    prev = np.where(before >= 0, d[np.maximum(before, 0), cols], delta)
    predicted = moved & (d == prev)
    last[:] = mat[-1]
    delta[:] = np.where(seen[-1] >= 0, d[np.maximum(seen[-1], 0), cols], delta)
    mat[predicted] += _PREFETCHED
