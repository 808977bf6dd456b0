"""Unit tests for the multicore MESI simulator."""

import pytest

from repro.machine import paper_machine
from repro.sim import AccessCosts, MulticoreSimulator
from tests.conftest import make_copy_nest, make_nested_nest


@pytest.fixture(scope="module")
def machine():
    return paper_machine()


@pytest.fixture(scope="module")
def sim(machine):
    return MulticoreSimulator(machine)


class TestAccessCosts:
    def test_derivation(self, machine):
        c = AccessCosts.from_machine(machine)
        assert c.load_hit == machine.l1.latency_cycles
        assert c.load_remote_modified == machine.coherence.remote_fetch_cycles
        assert c.load_cold == machine.mem_latency_cycles
        # Marginal coherence cost of a dirty store miss = invalidate cost.
        assert (
            c.store_miss_remote_modified - c.store_miss_clean
            == machine.coherence.invalidate_cycles
        )


class TestBasicExecution:
    def test_all_accesses_counted(self, sim):
        nest = make_copy_nest(n=64)
        r = sim.run(nest, 2, chunk=1)
        # 64 iterations x (1 load + 1 store)
        assert r.counters.loads == 64
        assert r.counters.stores == 64
        assert r.steps == 32

    def test_fs_config_slower_than_aligned(self, sim):
        nest = make_copy_nest(n=512)
        t_fs = sim.run(nest, 4, chunk=1).cycles
        t_nfs = sim.run(nest, 4, chunk=8).cycles
        assert t_fs > t_nfs

    def test_coherence_events_only_with_sharing(self, sim):
        nest = make_copy_nest(n=512)
        r_fs = sim.run(nest, 4, chunk=1)
        r_nfs = sim.run(nest, 4, chunk=8)
        assert r_fs.counters.coherence_events > 0
        assert r_nfs.counters.coherence_events == 0

    def test_single_thread_no_coherence(self, sim):
        r = sim.run(make_copy_nest(n=256), 1, chunk=1)
        assert r.counters.coherence_events == 0
        assert r.counters.invalidations == 0

    def test_seconds_conversion(self, sim, machine):
        r = sim.run(make_copy_nest(n=64), 2, chunk=1)
        assert r.seconds == pytest.approx(
            r.cycles / (machine.freq_ghz * 1e9)
        )

    def test_rejects_bad_threads(self, sim):
        with pytest.raises(ValueError):
            sim.run(make_copy_nest(), 0)

    def test_per_thread_cycles_balanced(self, sim):
        r = sim.run(make_copy_nest(n=512), 4, chunk=1)
        per = r.per_thread_cycles
        assert per.max() < per.min() * 1.5  # balanced workload


class TestMESIBehaviour:
    def test_cold_misses_once_per_line(self, sim):
        nest = make_copy_nest(n=64)  # 8 lines per array
        r = sim.run(nest, 1, chunk=1)
        # Sequential: a and b each 8 lines; loads cold-miss at most 8 + prefetch
        assert r.counters.load_cold <= 8
        assert r.counters.load_cold >= 2  # at least stream heads

    def test_writes_invalidate_readers(self, sim):
        nest = make_nested_nest(rows=4, cols=32, chunk=1)
        r = sim.run(nest, 4)
        assert r.counters.invalidations > 0

    def test_prefetcher_reduces_time(self, machine):
        nest = make_copy_nest(n=4096, chunk=8)
        with_pf = MulticoreSimulator(machine, prefetcher=True).run(nest, 2)
        without = MulticoreSimulator(machine, prefetcher=False).run(nest, 2)
        assert with_pf.cycles < without.cycles
        assert with_pf.counters.load_prefetched > 0
        assert without.counters.load_prefetched == 0

    def test_fully_associative_mode(self, machine):
        nest = make_copy_nest(n=256)
        fa = MulticoreSimulator(machine, fully_associative=True).run(nest, 2)
        sa = MulticoreSimulator(machine, fully_associative=False).run(nest, 2)
        # Tiny working set: identical behaviour either way.
        assert fa.counters.coherence_events == sa.counters.coherence_events


class TestTimingComposition:
    def test_wall_clock_includes_startup(self, sim, machine):
        r = sim.run(make_copy_nest(n=64), 2, chunk=1)
        assert r.cycles > machine.overheads.parallel_startup_cycles

    def test_more_threads_less_wall_time_for_clean_loop(self, sim):
        nest = make_copy_nest(n=8192, chunk=8)
        t2 = sim.run(nest, 2).cycles
        t8 = sim.run(nest, 8).cycles
        assert t8 < t2


class TestTLBSimulation:
    def test_tiny_tlb_thrashes(self):
        """A TLB smaller than the page working set must keep missing."""
        from repro.machine import tiny_machine
        from tests.conftest import make_copy_nest

        machine = tiny_machine(num_cores=2, cache_lines=64)  # 8 TLB entries
        sim = MulticoreSimulator(machine)
        # 64 KB arrays: 16 pages each, 32 pages total >> 8 entries,
        # but sequential access touches each page once per pass.
        nest = make_copy_nest(n=8192, chunk=8)
        r = sim.run(nest, 2)
        assert r.counters.tlb_misses >= 16

    def test_large_tlb_quiet(self, sim):
        from tests.conftest import make_copy_nest

        r = sim.run(make_copy_nest(n=512, chunk=8), 2)
        # 2 arrays x 4 KiB: two pages per thread's view.
        assert r.counters.tlb_misses <= 8


class TestSharedInstance:
    def test_concurrent_runs_match_serial(self):
        """One simulator serving several threads at once must price each
        coherence miss with its own run's socket map."""
        import dataclasses
        import sys
        import threading

        from repro.kernels.heat import build_heat_nest
        from repro.machine import CoherenceCosts

        machine = dataclasses.replace(
            paper_machine(),
            cores_per_socket=2,
            coherence=CoherenceCosts(cross_socket_factor=1.7),
        )
        # Scatter placement: the socket maps of T=3, 4 and 8 disagree on
        # shared thread pairs (threads 0 and 2 share a socket below 8).
        sim = MulticoreSimulator(machine, thread_placement="scatter")
        nest = build_heat_nest(4, 1026)
        counts = (3, 4, 8)

        def observe(threads):
            r = sim.run(nest, threads, chunk=1)
            return r.counters, r.cycles, r.per_thread_cycles.tolist()

        serial = {t: observe(t) for t in counts}
        assert serial[4][0].coherence_events > 0
        start = threading.Barrier(len(counts))
        seen: dict[int, list] = {t: [] for t in counts}
        errors: list[BaseException] = []

        def worker(threads):
            start.wait()
            try:
                for _ in range(2):
                    seen[threads].append(observe(threads))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(t,)) for t in counts]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not errors
        for threads, runs in seen.items():
            assert runs == [serial[threads]] * 2


class TestPrefetchPrepass:
    def test_matches_scalar_stride_prefetcher(self):
        """The per-block numpy pre-pass tags exactly the accesses a
        per-access stride prefetcher predicts, with state carried across
        blocks of any size."""
        import numpy as np

        from repro.sim.executor import _PREFETCHED, _TAG_MIN, _tag_prefetched

        rng = np.random.default_rng(7)
        steps, refs = 400, 3
        # Constant strides, zero strides (sub-line progress) and jumps.
        moves = rng.choice([0, 0, 1, 1, 1, 1, 2, -3, 50], size=(steps, refs))
        lines = np.cumsum(moves, axis=0) + 1000

        last, delta = [-1] * refs, [0] * refs
        expected = np.zeros((steps, refs), dtype=bool)
        for s in range(steps):
            for k in range(refs):
                d = int(lines[s, k]) - last[k]
                if d:
                    expected[s, k] = d == delta[k]
                    delta[k] = d
                last[k] = int(lines[s, k])

        pf_last = np.full(refs, -1, dtype=np.int64)
        pf_delta = np.zeros(refs, dtype=np.int64)
        got = []
        cuts = (0, 1, 1, 64, 65, 250, steps)
        for lo, hi in zip(cuts, cuts[1:]):
            mat = lines[lo:hi].astype(np.int64)
            _tag_prefetched(mat, pf_last, pf_delta)
            tagged = mat >= _TAG_MIN
            assert (np.where(tagged, mat - _PREFETCHED, mat) == lines[lo:hi]).all()
            got.append(tagged)
        assert expected.any() and (np.vstack(got) == expected).all()


class TestBlockSpan:
    def test_span_recorded_when_block_raises(self, machine, monkeypatch):
        from repro.model.ownership import OwnershipBlock, OwnershipListGenerator
        from repro.obs import get_tracer

        class BrokenLines:
            def tolist(self):
                raise RuntimeError("block failed")

        def blocks(self, max_steps=None):
            yield OwnershipBlock(start_step=0, lines=(BrokenLines(),))

        monkeypatch.setattr(OwnershipListGenerator, "blocks", blocks)
        sim = MulticoreSimulator(machine, prefetcher=False)
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            with pytest.raises(RuntimeError, match="block failed"):
                sim.run(make_copy_nest(n=64), 1, chunk=1)
            names = [e.name for e in tracer.events()]
        finally:
            tracer.disable()
            tracer.reset()
        assert names.count("sim.block") == 1
        assert names.count("sim.run") == 1
