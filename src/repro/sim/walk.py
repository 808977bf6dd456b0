"""The lockstep MESI walk: the simulator's run state and its kernel.

A :class:`Walk` holds everything one simulation carries from access to
access — the per-thread private caches, TLBs, stride-prefetcher state
and MRU line, the coherence directory, the event counts and the
per-thread cycle sums — and advances it over blocks of per-thread line
ids with :meth:`Walk.advance`, one flat loop over (step, thread,
reference) with every MESI transition inlined.  Any split of a trace
into blocks gives the same state, so callers may cut it anywhere.

The state is also *readable and settable line by line*
(:meth:`Walk.line_states`, :meth:`Walk.set_lines`), which is what the
steady-state exit (:mod:`repro.sim.steady`) needs to compare two chunk
runs and to jump over repeats of one.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.machine import MachineConfig
from repro.machine.topology import pair_penalty_factory
from repro.model.ownership import OwnershipListGenerator
from repro.obs import get_registry, span
from repro.sim.cache import E, M, PrivateCache, S
from repro.sim.timing import AccessCosts
from repro.util import get_logger

logger = get_logger(__name__)

#: The walk's event counts, in the order of :attr:`Walk.counts`.
EVENTS = (
    "load_prefetched",
    "load_shared_fills",
    "load_cold",
    "load_remote_modified",
    "store_upgrades",
    "store_miss_clean",
    "store_miss_remote_modified",
    "invalidations",
    "downgrades",
    "evictions",
    "tlb_misses",
)
TLB_MISSES = EVENTS.index("tlb_misses")

#: Added to a line id the stride prefetcher predicts.  Line ids of int64
#: byte addresses lie in [-2**57, 2**57), so a tagged id (>= _TAG_MIN)
#: never collides with an untagged one and still fits in int64.
_PREFETCHED = 1 << 59
_TAG_MIN = 1 << 58


def untag(mat: np.ndarray) -> np.ndarray:
    """Line ids of a tagged block with the prefetch tags removed."""
    return np.where(mat >= _TAG_MIN, mat - _PREFETCHED, mat)


class Walk:
    """Run state of one simulation and the kernel that advances it.

    Parameters
    ----------
    machine / costs:
        Cache geometry, TLB and penalties, and the per-outcome costs.
    gen:
        The trace's generator: thread count, references and their write
        mask, and the names progress is reported under.
    per_step_cycles:
        Compute plus loop-overhead cycles of one innermost iteration.
    fully_associative / prefetcher / thread_placement:
        As on :class:`~repro.sim.MulticoreSimulator`.
    """

    def __init__(
        self,
        machine: MachineConfig,
        costs: AccessCosts,
        gen: OwnershipListGenerator,
        per_step_cycles: float,
        fully_associative: bool,
        prefetcher: bool,
        thread_placement: str,
    ) -> None:
        c = costs
        num_threads = gen.num_threads
        penalty = pair_penalty_factory(
            num_threads,
            machine.cores_per_socket,
            thread_placement,
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
        self.costs = c
        self.num_threads = num_threads
        self.writes = writes = tuple(bool(w) for w in gen.write_mask)
        self.per_step_cycles = per_step_cycles
        l2 = machine.l2
        self.caches = [
            PrivateCache(l2.num_lines, 0 if fully_associative else l2.associativity)
            for _ in range(num_threads)
        ]
        self.ways = self.caches[0].ways
        self.set_mask = self.caches[0].num_sets - 1
        self.states = [cache.states for cache in self.caches]
        self.tlb_entries = machine.tlb_entries
        self.tlb_miss_cycles = machine.tlb_miss_cycles
        self.lines_per_page = machine.page_size // machine.line_size
        # Per thread: its TLB (an LRU of pages: the paper models the TLB
        # as another cache level, the simulator gives each core one).
        self.tlbs: list[OrderedDict] = [OrderedDict() for _ in range(num_threads)]
        # Per thread: its cache maps, its TLB, its directory bit and the
        # inverse, and its coherence-miss costs by dirty owner.
        self.per_thread = [
            (cache.states, cache.stamps, cache.sets, self.tlbs[t],
             1 << t, ~(1 << t), load_rm[t], store_rm[t])
            for t, cache in enumerate(self.caches)
        ]
        # The directory: per line, bitmasks of the threads caching it
        # and of those that may hold it dirty.  ``holders`` keeps a key
        # for every line ever filled, so it also answers "is the line in
        # L3?" (a clean fill) versus a first touch (DRAM).
        self.holders: dict[int, int] = {}
        self.writers: dict[int, int] = {}
        # The line each thread touched last through the full path, and
        # whether it holds it in M: a re-touch needs no state change.
        self.mru_line: list[int | None] = [None] * num_threads
        self.mru_mod: list[bool] = [False] * num_threads
        # The page each thread touched last: already MRU in its TLB.
        self.last_page: list[int | None] = [None] * num_threads
        self.cycles = [0.0] * num_threads
        # One stamp clock for every cache: stamps still grow within each.
        self.clock = 0
        self.counts = [0] * len(EVENTS)
        self.total_steps = 0
        self.thread_steps = 0
        # Stride-prefetcher state per (thread, reference), carried
        # across blocks.
        self.prefetcher = prefetcher
        # One row per thread: rows of a block's per-thread matrices, or
        # the columns of a block stacked ``[steps, threads, refs]``.
        self.pf_last = np.full((num_threads, len(writes)), -1, dtype=np.int64)
        self.pf_delta = np.zeros((num_threads, len(writes)), dtype=np.int64)
        self._name = gen.nest.name
        self._steps_per_run = max(gen.iteration_space.steps_per_chunk_run, 1)
        self._progress = get_registry().gauge(
            "sim_progress_chunk_runs",
            "chunk runs completed by the in-flight simulation",
        ).labels(kernel=self._name, threads=num_threads)

    # -- the kernel ---------------------------------------------------------------

    def tag(self, lines: tuple[np.ndarray, ...]) -> None:
        """Tag, in place, the accesses of a block the prefetcher predicts."""
        if self.prefetcher:
            for t, mat in enumerate(lines):
                _tag_prefetched(mat, self.pf_last[t], self.pf_delta[t])

    def advance(
        self,
        lines: tuple[np.ndarray, ...],
        start_step: int,
        tagged: bool = False,
        tape: "CostTape | None" = None,
    ) -> int:
        """Walk one block of per-thread line ids; returns its steps.

        ``tagged`` says :meth:`tag` already ran over the block.  With a
        ``tape``, every cycle the walk charges goes through it, so the
        block's per-access costs are recorded (see :class:`CostTape`).
        """
        with span("sim.block", start_step=start_step) as block_span:
            if not tagged:
                self.tag(lines)
            n_steps = self._kernel(lines, tape)
            block_span.set(steps=n_steps)
        runs = self.total_steps // self._steps_per_run
        self._progress.set(runs)
        logger.debug(
            "sim %s: %d chunk runs done (%d steps)", self._name, runs, self.total_steps
        )
        return n_steps

    def _kernel(self, lines: tuple[np.ndarray, ...], tape: "CostTape | None") -> int:
        c = self.costs
        load_hit, store_hit = c.load_hit, c.store_hit
        load_prefetched, load_shared_fill = c.load_prefetched, c.load_shared_fill
        load_cold, store_upgrade = c.load_cold, c.store_upgrade
        store_miss_clean = c.store_miss_clean
        num_threads = self.num_threads
        writes = self.writes
        caches = self.caches
        states = self.states
        per_thread = self.per_thread
        holders = self.holders
        writers = self.writers
        mru_line = self.mru_line
        mru_mod = self.mru_mod
        last_page = self.last_page
        cycles = self.cycles
        ways = self.ways
        set_mask = self.set_mask
        tlb_entries = self.tlb_entries
        lines_per_page = self.lines_per_page
        if tape is None:
            per_step_cycles = self.per_step_cycles
            tlb_miss_cycles = self.tlb_miss_cycles
        else:
            per_step_cycles = tape
            tlb_miss_cycles = _TLB_MISS
        clock = self.clock
        (n_prefetched, n_shared_fills, n_cold, n_load_remote_modified,
         n_upgrades, n_store_miss_clean, n_store_remote_modified,
         n_invalidations, n_downgrades, n_evictions, n_tlb_misses) = self.counts

        rows = [mat.tolist() for mat in lines]
        lengths = [len(r) for r in rows]
        n_steps = max(lengths, default=0)
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
                                if mask & (mask - 1):
                                    # Two or more other holders
                                    # are all in S already: E
                                    # and M are exclusive.
                                    mask = 0
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

        self.clock = clock
        self.counts = [
            n_prefetched, n_shared_fills, n_cold, n_load_remote_modified,
            n_upgrades, n_store_miss_clean, n_store_remote_modified,
            n_invalidations, n_downgrades, n_evictions, n_tlb_misses,
        ]
        self.total_steps += n_steps
        self.thread_steps += sum(lengths)
        return n_steps

    # -- line-level state ------------------------------------------------------------

    def line_states(self, lines: list[int]) -> list[tuple | None]:
        """Everything the walk knows about each line, or ``None`` if no
        thread ever filled it: the holders bitmask, the writers bitmask
        and the holders' MESI state (two or more holders are all in S:
        E and M are exclusive, and ``holders`` is exact)."""
        holders, writers, states = self.holders, self.writers, self.states
        out: list[tuple | None] = []
        for line in lines:
            h = holders.get(line)
            if h is None:
                out.append(None)
            elif h & (h - 1):
                out.append((h, writers.get(line, 0), S))
            else:
                held = states[h.bit_length() - 1][line] if h else None
                out.append((h, writers.get(line, 0), held))
        return out

    def set_lines(self, lines: list[int], states: list[tuple]) -> None:
        """Give each line a :meth:`line_states` entry of another line.

        Threads that hold a line but not in its new state drop it, the
        others hold it in that state, and new holders give it a fresh
        stamp.  Only exact where nothing can evict: stamps then never
        decide anything.
        """
        holders, writers = self.holders, self.writers
        caches, set_mask = self.caches, self.set_mask
        clock = self.clock
        for line, (h, w, held) in zip(lines, states):
            old = holders.get(line, 0)
            holders[line] = h
            writers[line] = w
            gone = old & ~h
            while gone:
                low = gone & -gone
                cache = caches[low.bit_length() - 1]
                del cache.states[line]
                del cache.stamps[line]
                cache.sets[line & set_mask].discard(line)
                gone ^= low
            # Holders that stay may change state only where the old or
            # the new holders are one thread: two or more are all in S.
            stay = old & h if not (old & (old - 1) and h & (h - 1)) else 0
            while stay:
                low = stay & -stay
                caches[low.bit_length() - 1].states[line] = held
                stay ^= low
            came = h & ~old
            while came:
                low = came & -came
                cache = caches[low.bit_length() - 1]
                cache.states[line] = held
                cache.stamps[line] = clock
                clock += 1
                cache.sets[line & set_mask].add(line)
                came ^= low
        self.clock = clock


#: What the walk charges for a TLB miss while a :class:`CostTape` records.
_TLB_MISS = object()


class CostTape:
    """Records a walk's per-access costs in place of its cycle float.

    Passed to :meth:`Walk.advance`, the tape stands in for the per-step
    cycle count: the kernel's ``cost += ...`` lands in
    :meth:`__iadd__`, and ``cycles[t] += cost`` in :meth:`__radd__`,
    which adds the step's costs to the float in the walk's own order, so
    the cycle sums come out bit-identical.  :attr:`costs` collects each
    access's cost (TLB misses excluded) in walk order: step, thread,
    reference.  The kernel is the same code with or without a tape.
    """

    __slots__ = ("per_step_cycles", "tlb_miss_cycles", "step", "costs")

    def __init__(self, per_step_cycles: float, tlb_miss_cycles: float) -> None:
        self.per_step_cycles = per_step_cycles
        self.tlb_miss_cycles = tlb_miss_cycles
        self.step: list = []
        self.costs: list = []

    def __iadd__(self, charge):
        self.step.append(charge)
        return self

    def __radd__(self, total: float) -> float:
        cost = self.per_step_cycles
        for charge in self.step:
            if charge is _TLB_MISS:
                cost += self.tlb_miss_cycles
            else:
                cost += charge
                self.costs.append(charge)
        self.step.clear()
        return total + cost


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
