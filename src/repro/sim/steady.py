"""Exact steady-state exit for the MESI simulator.

Section III-E (Fig. 6) observes that after a short warm-up each chunk
run repeats the previous one shifted through memory.
:mod:`repro.model.steadystate` turns that into an early exit for the
model; this module does the same for the simulator's walk
(:class:`~repro.sim.walk.Walk`), so the measured side of Eq. (5) stops
walking runs whose outcome is already known.

Eligibility, decided before walking (:func:`plan`):

- :func:`~repro.model.steadystate.compute_shift_profile` gives a
  profile: full chunk runs and one line shift per array and period.  A
  loop of one execution whose last chunk run is ragged also qualifies:
  its whole runs repeat, and the ragged run is walked;
- an execution holds at least five periods: the first check follows two
  walked periods and the next one is walked on the cost tape, so fewer
  would skip at most one period, for more than it costs;
- no cache eviction can happen: per thread, the distinct lines that map
  to any one set number at most ``ways``.  Set index and LRU stamps
  then never decide anything, so the shift needs no set isomorphism;
- no TLB eviction can happen: distinct pages per thread fit the TLB.
  A TLB miss is then a thread's first touch of a page, which depends on
  its own trace only, so TLB state stays out of the comparison below
  and skipped misses are counted from the trace.

The pre-scan streams the trace block by block and keeps only per-thread
sorted distinct lines and per-set counts.

Every array the exit builds stays below 4 MiB, the size from which NumPy
asks the kernel for transparent huge pages.  Where the kernel grants
them on request only, whether it does depends on the host's free memory
and on when khugepaged runs, so the resident set would vary from one
run to the next.  The plain walk's per-thread blocks stay below that
size; the exit's stacked trace holds ``threads`` times as much per step,
so it fetches shorter blocks, a one-period window must fit, and the
closed-form accounting goes a bounded number of periods at a time.

Within each execution of the parallel loop, :class:`SteadyWalk` walks
one-period windows and, at a boundary ``b`` after the window
``[b-P, b)``, checks that the next periods repeat that window:

- every thread's MRU line (renamed by one period) and its M flag equal
  their values at ``b-P``;
- the trace of the next period, prefetch tags included, is the window's
  trace shifted by one period, and every access of both lies in the
  array its reference names, so a line's shift is its array's;
- every line the span touches has, at ``b``, the
  :meth:`~repro.sim.walk.Walk.line_states` entry its one-period-earlier
  counterpart had at ``b-P``, checked in order of the period that first
  touches it.  Only lines the span touches count: heat rows are not a
  whole number of lines long, so lines straddling two rows sit at fixed
  positions, and a span reaching them stops short;
- the trace of every later period is the window's, shifted.

The prefetcher needs no state comparison: its tags depend only on each
thread's own stream, :class:`_Trace` tags the whole trace in order,
skipped periods included, and the check compares the tags themselves.

The check yields the longest verified span of ``k`` periods.  Each of
them then repeats its predecessor, by induction over the periods: a
line's next state depends only on its own state, the threads' MRU lines
and the access, and nothing evicts.  The first period is walked with a
:class:`~repro.sim.walk.CostTape` to record its per-access costs; the
other ``k-1`` are accounted in closed form (:meth:`SteadyWalk._skip`).
"""

from __future__ import annotations

import numpy as np

from repro.model.ownership import OwnershipListGenerator
from repro.model.steadystate import ShiftProfile, compute_shift_profile, shift_profile
from repro.sim.walk import TLB_MISSES, CostTape, Walk, _tag_prefetched, untag

#: NumPy advises huge pages for arrays of this many bytes or more; a
#: one-period window of the stacked trace must stay below it.
HUGE_PAGE_ARRAY_BYTES = 1 << 22
#: Most bytes of a trace block, and of the arrays of one group of
#: periods accounted in closed form: half the above, which leaves room
#: for the arrays a row longer that are built from them.
BLOCK_BYTES = HUGE_PAGE_ARRAY_BYTES // 2


def plan(
    gen: OwnershipListGenerator, walk: Walk, limit: int, block_steps: int
) -> "SteadyWalk | None":
    """The steady-state walk of the first ``limit`` steps, or ``None``
    when the run does not qualify (see the module docs)."""
    T = walk.num_threads
    space = gen.iteration_space
    profile = compute_shift_profile(gen, T)
    if profile is None and space.outer_total == 1 and space.chunk > 0:
        # One execution whose last chunk run is ragged: the whole runs
        # before it still repeat.
        profile = shift_profile(gen, T, space.parallel_trip // (T * space.chunk))
    # The first check follows two walked periods and the period after it
    # is walked on the cost tape, so fewer than five periods per
    # execution would skip at most one, for more than it costs.
    if profile is None or profile.runs_per_exec < 5 * profile.period_runs:
        return None
    window_steps = profile.period_runs * space.steps_per_chunk_run
    if window_steps * 8 * T * len(gen.refs) >= HUGE_PAGE_ARRAY_BYTES:
        return None
    arrays = np.array(
        [profile.array_names.index(ref.array.name) for ref in gen.refs],
        dtype=np.int64,
    )
    if not _cannot_evict(gen, walk, limit, block_steps):
        return None
    return SteadyWalk(gen, walk, profile, arrays, limit, block_steps)


def _cannot_evict(
    gen: OwnershipListGenerator, walk: Walk, limit: int, block_steps: int
) -> bool:
    """Whether the first ``limit`` steps stay within every thread's
    cache sets and TLB."""
    num_sets = walk.set_mask + 1
    seen = [np.empty(0, dtype=np.int64) for _ in range(walk.num_threads)]
    per_set = [np.zeros(num_sets, dtype=np.int64) for _ in range(walk.num_threads)]
    for start in range(0, limit, block_steps):
        block = gen.block(start, min(start + block_steps, limit))
        for t, mat in enumerate(block.lines):
            new = _distinct(mat)
            new = new[~np.isin(new, seen[t], assume_unique=True)]
            if not new.size:
                continue
            seen[t] = np.sort(np.concatenate((seen[t], new)))
            per_set[t] += np.bincount(new & walk.set_mask, minlength=num_sets)
            if per_set[t].max() > walk.ways:
                return False
    return all(
        _distinct(lines // walk.lines_per_page).size <= walk.tlb_entries
        for lines in seen
    )


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``: ``np.unique`` without its
    masked-array test, whose first use imports ``numpy.ma``."""
    s = np.sort(a, axis=None)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


class _Trace:
    """The run's trace, stacked ``[steps, threads, refs]`` and tagged by
    the prefetcher, generated ahead in blocks in step order.

    Requests start at non-decreasing steps and never past what is
    generated; blocks that end before a request's start are dropped.
    Tags depend on each thread's own stream only, so tagging the whole
    trace in order, walked or skipped, is what the walk would do.
    """

    def __init__(
        self, gen: OwnershipListGenerator, walk: Walk, limit: int, block_steps: int
    ) -> None:
        self.gen = gen
        self.walk = walk
        self.limit = limit
        self.block_steps = block_steps
        #: consecutive blocks, the first starting at ``start``
        self.blocks: list[np.ndarray] = []
        self.start = 0
        self.end = 0

    def get(self, start: int, stop: int) -> np.ndarray:
        """Rows of steps ``[start, stop)``: a view where one block holds
        them, else a copy of exactly those rows."""
        walk, blocks = self.walk, self.blocks
        while blocks and self.start + len(blocks[0]) <= start:
            self.start += len(blocks.pop(0))
        while self.end < stop:
            s1 = min(self.end + self.block_steps, self.limit)
            block = np.stack(self.gen.block(self.end, s1).lines, axis=1)
            if walk.prefetcher:
                _tag_prefetched(
                    block.reshape(len(block), -1),
                    walk.pf_last.reshape(-1),
                    walk.pf_delta.reshape(-1),
                )
            blocks.append(block)
            self.end = s1
        parts, at = [], self.start
        for block in blocks:
            lo, hi = max(start - at, 0), min(stop - at, len(block))
            if lo < hi:
                parts.append(block[lo:hi])
            at += len(block)
            if at >= stop:
                break
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SteadyWalk:
    """Drives a :class:`~repro.sim.walk.Walk` execution by execution,
    skipping verified repeats of a one-period window (module docs)."""

    def __init__(
        self,
        gen: OwnershipListGenerator,
        walk: Walk,
        profile: ShiftProfile,
        arrays: np.ndarray,
        limit: int,
        block_steps: int,
    ) -> None:
        self.gen = gen
        self.walk = walk
        self.profile = profile
        self.arrays = arrays
        self.limit = limit
        #: steps per block: a stacked block holds ``threads`` per-thread
        #: blocks, so it is held to BLOCK_BYTES (module docs)
        self.block_steps = max(
            1, min(block_steps, BLOCK_BYTES // (8 * walk.num_threads * len(walk.writes)))
        )
        self.spr = gen.iteration_space.steps_per_chunk_run
        #: where the whole chunk runs end: a ragged last run follows
        self.full_end = min(limit, profile.execs * profile.runs_per_exec * self.spr)
        self.trace = _Trace(gen, walk, self.full_end, self.block_steps)
        #: window length in chunk runs: one shift period
        self.period = profile.period_runs
        #: per reference, the line shift of one period
        self.shift = np.asarray(profile.line_shifts, dtype=np.int64)[arrays]
        self._back = profile.renamer_arrays(-1)
        #: chunk runs accounted in closed form
        self.runs_extrapolated = 0

    def run(self) -> None:
        """Walk every execution up to the step limit."""
        E = self.profile.runs_per_exec
        spr = self.spr
        for o in range(self.profile.execs):
            base = o * E * spr
            if base >= self.limit:
                break
            r = self._execution(base, min(E, (self.limit - base) // spr))
            self._walk(base + r * spr, min(base + E * spr, self.full_end))
        # A ragged last run, where threads run out of work at different
        # steps, is walked thread by thread.
        for s0 in range(self.full_end, self.limit, self.block_steps):
            s1 = min(s0 + self.block_steps, self.limit)
            self.walk.advance(self.gen.block(s0, s1).lines, s0)

    def _advance(self, rows: np.ndarray, start: int, tape: CostTape | None = None) -> None:
        self.walk.advance(rows.transpose(1, 0, 2), start, tagged=True, tape=tape)

    def _walk(self, start: int, stop: int) -> None:
        for s0 in range(start, stop, self.block_steps):
            s1 = min(s0 + self.block_steps, stop)
            self._advance(self.trace.get(s0, s1), s0)

    def _execution(self, base: int, full: int) -> int:
        """Walk, check and skip within the ``full`` whole chunk runs of
        the execution starting at step ``base``; returns the runs done.

        Checks start at the boundary after two windows and back off
        exponentially while they fail, so a run that never repeats pays
        for O(log runs) of them.
        """
        P, spr = self.period, self.spr
        r = 0
        gap = 1
        b = 2 * P
        pending = None  # the window [r, r + P) a failed check fetched
        while b + 2 * P <= full:
            if pending is not None:
                self._advance(pending, base + r * spr)
                r += P
                pending = None
            self._walk(base + r * spr, base + (b - P) * spr)
            r = b - P
            window = self.trace.get(base + r * spr, base + b * spr)
            before = self._snapshot(window)
            self._advance(window, base + r * spr)
            r = b
            k, pending = self._check(base, b, full, window, before)
            if k >= 2:
                self._skip(base, b, k, pending)
                return b + k * P
            gap *= 2
            b += gap * P
        if pending is not None:
            self._advance(pending, base + r * spr)
            r += P
        return r

    def _snapshot(self, window: np.ndarray) -> tuple:
        """What the check at the window's end compares with: the state,
        before the window is walked, of the lines it touches, and every
        thread's MRU line and flag."""
        walk = self.walk
        ids = _distinct(untag(window))
        states = dict(zip(ids.tolist(), walk.line_states(ids.tolist())))
        return ids, states, list(walk.mru_line), list(walk.mru_mod)

    def _check(
        self,
        base: int,
        b: int,
        full: int,
        window: np.ndarray,
        before: tuple,
    ) -> tuple[int, np.ndarray]:
        """Periods from boundary ``b`` that verifiably repeat ``window``,
        and the next window's rows (walked next either way)."""
        walk, P, spr = self.walk, self.period, self.spr
        w = P * spr
        ids, states, mru, mru_mod = before
        start = base + b * spr
        nxt = self.trace.get(start, start + w)
        for t in range(walk.num_threads):
            line = walk.mru_line[t]
            if line is not None:
                line = int(self._back(np.array([line]))[0])
            if line != mru[t] or walk.mru_mod[t] != mru_mod[t]:
                return 0, nxt
        # The trace, tags included, repeats shifted by one period in the
        # next window: tested first, as the prefetcher's warm-up fails it.
        if not np.array_equal(nxt, window + self.shift):
            return 0, nxt
        # A line's shift is its array's: every access of both windows
        # must lie in the array its reference names.
        for rows in (window, nxt):
            if (self.profile.classify_arrays(untag(rows)) != self.arrays).any():
                return 0, nxt
        # The state: if the trace repeats, period j touches the window's
        # lines shifted by j + 1 periods.  Check them in order of the
        # period that first touches them, against their counterparts
        # one period earlier.
        k = (full - b) // P
        step = self.profile.renamer_arrays(1)(ids) - ids
        back = (ids + step * np.arange(k)[:, None]).ravel()
        ahead, first = np.unique(back + np.tile(step, k), return_index=True)
        back = back[first]
        periods = first // ids.size
        order = np.argsort(periods, kind="stable")
        ahead, back, periods = ahead[order], back[order], periods[order]
        lo, size = 0, 64  # growing slices: an early mismatch costs little
        while lo < ahead.size:
            hi = lo + size
            now = walk.line_states(ahead[lo:hi].tolist())
            ys = back[lo:hi].tolist()
            for i, (x, y, live) in enumerate(zip(now, ys, walk.line_states(ys))):
                if x != states.get(y, live):
                    k = int(periods[lo + i])
                    break
            else:
                lo, size = hi, 4 * size
                continue
            break
        # The rest of the trace: period j is the window shifted by j + 1
        # periods.
        per_chunk = max(1, self.block_steps // w)
        for j0 in range(1, k, per_chunk):
            j1 = min(k, j0 + per_chunk)
            n = j1 - j0
            rows = self.trace.get(start + j0 * w, start + j1 * w)
            shifts = np.arange(j0 + 1, j1 + 1)[:, None, None, None] * self.shift
            same = rows.reshape(n, *window.shape) == window + shifts
            same = same.reshape(n, -1).all(axis=1)
            if not same.all():
                return j0 + int(np.argmin(same)), nxt
        return k, nxt

    def _skip(self, base: int, b: int, k: int, nxt: np.ndarray) -> None:
        """Walk the verified window ``nxt`` on a cost tape, then account
        for the ``k - 1`` periods after it in closed form."""
        walk, P, spr = self.walk, self.period, self.spr
        T = walk.num_threads
        w = P * spr
        counts = list(walk.counts)
        tape = CostTape(walk.per_step_cycles, walk.tlb_miss_cycles)
        self._advance(nxt, base + b * spr, tape)
        n = k - 1
        # Counters grow by n times the window's change; TLB misses are
        # counted from the trace below.
        change = [now - was for now, was in zip(walk.counts, counts)]
        change[TLB_MISSES] = 0
        walk.counts = [c + n * d for c, d in zip(walk.counts, change)]
        walk.total_steps += n * w
        walk.thread_steps += n * w * T
        own = untag(nxt)
        ids = _distinct(own)
        step_of = self.profile.shift_of_arrays
        step = step_of(ids)
        moving, step = ids[step != 0], step[step != 0]
        states = walk.line_states(moving.tolist())
        ahead = self.profile.renamer_arrays(n)
        for t in range(T):
            if walk.mru_line[t] is not None:
                walk.mru_line[t] = int(ahead(np.array([walk.mru_line[t]]))[0])
        # Cycles, in the walk's own float order: per step, the step's
        # cost, then per access a TLB miss and the access cost; then the
        # step onto the thread's sum.  Without TLB misses every period
        # repeats the window's step costs.
        costs = np.asarray(tape.costs).reshape(nxt.shape).tolist()
        base_cost = []
        for row in costs:
            step_costs = []
            for charges in row:
                cost = walk.per_step_cycles
                for charge in charges:
                    cost += charge
                step_costs.append(cost)
            base_cost.append(step_costs)
        base_cost = np.asarray(base_cost, dtype=np.float64)
        # A TLB miss is a thread's first touch of a page: per thread and
        # page, the earliest access of the span to any of its lines.
        # Keys tell (thread, line) and (thread, page) pairs apart; an
        # access's position counts its thread's accesses before it.
        lpp, refs = walk.lines_per_page, own.shape[2]
        keys, first = np.unique(
            (own * T + np.arange(T)[:, None]).ravel(), return_index=True
        )
        lines, thread = keys // T, keys % T
        local = first // (T * refs) * refs + first % refs
        line_step = step_of(lines)
        cycles = np.asarray(walk.cycles, dtype=np.float64)
        # A bounded group of periods at a time (module docs).  Each
        # group's lines overwrite the earlier groups' and its TLB misses
        # come after theirs, so the groups add up to one pass.
        per = max(1, BLOCK_BYTES // (8 * max(w * T, moving.size, keys.size)))
        for j0 in range(0, n, per):
            j1 = min(n, j0 + per)
            # Each line the span touches takes the state of its
            # counterpart in the walked window; the last touch wins.
            targets = (moving + step * np.arange(j0 + 1, j1 + 1)[:, None]).ravel()
            _, first_rev = np.unique(targets[::-1], return_index=True)
            last = targets.size - 1 - first_rev
            walk.set_lines(
                targets[last].tolist(), [states[i] for i in (last % moving.size).tolist()]
            )
            period = np.arange(j0, j1)[:, None]
            pages = (lines + (period + 1) * line_step) // lpp
            at = (local + period * w * refs).ravel()
            order = np.argsort(at, kind="stable")
            found_keys, first = np.unique(
                (pages * T + thread).ravel()[order], return_index=True
            )
            at = at[order][first]
            known = np.sort(np.concatenate([
                np.fromiter(tlb, dtype=np.int64, count=len(tlb)) * T + t
                for t, tlb in enumerate(walk.tlbs)
            ]))
            found = np.minimum(np.searchsorted(known, found_keys), max(known.size - 1, 0))
            fresh = (
                known[found] != found_keys if known.size
                else np.ones(found_keys.size, dtype=bool)
            )
            found_keys, at = found_keys[fresh], at[fresh]
            order = np.argsort(at, kind="stable")
            misses: dict[tuple[int, int], set[int]] = {}
            for key, pos in zip(found_keys[order].tolist(), at[order].tolist()):
                walk.tlbs[key % T][key // T] = None
                misses.setdefault((pos // refs, key % T), set()).add(pos % refs)
            walk.counts[TLB_MISSES] += found_keys.size
            steps = np.tile(base_cost, (j1 - j0, 1))
            for (row, t), cols in misses.items():
                cost = walk.per_step_cycles
                for col, charge in enumerate(costs[row % w][t]):
                    if col in cols:
                        cost += walk.tlb_miss_cycles
                    cost += charge
                steps[row - j0 * w, t] = cost
            cycles = np.add.accumulate(np.vstack([cycles, steps]), axis=0)[-1]
        last = own[-1, :, -1]
        walk.last_page = ((last + n * step_of(last)) // lpp).tolist()
        walk.cycles = cycles.tolist()
        self.runs_extrapolated += n * P
