"""Golden pin for the MESI simulator: exact counters and cycle floats.

The simulator is the measured side of the paper's Eq. (5), so a speed
change to it must not move a single event count or cycle.  This test
runs a grid of small configurations that reach every branch of the
MESI loop and compares each result with ``sim_golden.json``:

- the four zoo kernels at tiny sizes, T in {1, 2, 3, 4, 8}, with chunks
  where T does not divide the trip count;
- prefetcher on and off, and fully-associative private caches;
- a tiny 4-way L2 and a 4-entry TLB, so evictions and TLB capacity
  misses happen;
- a cross-socket factor of 1.7 with 2 cores per socket, under both
  thread placements;
- 64-step trace blocks, so prefetcher, TLB and MRU state cross block
  boundaries.

All 15 counters, ``steps``, ``cycles`` (via ``float.hex``) and
``per_thread_cycles`` must match exactly.  Regenerate the fixture only
for an intended change of simulator semantics::

    PYTHONPATH=src python -m tests.test_sim_golden --record
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.kernels.dft import build_dft_nest
from repro.kernels.heat import build_heat_nest
from repro.kernels.linreg import build_linreg_nest
from repro.kernels.transpose import build_transpose_nest
from repro.machine import CacheLevel, CoherenceCosts, paper_machine
from repro.sim import MulticoreSimulator

FIXTURE = Path(__file__).with_name("sim_golden.json")

KERNELS = {
    "heat": lambda: build_heat_nest(4, 514),
    "dft": lambda: build_dft_nest(3, 200),
    "linreg": lambda: build_linreg_nest(50, 6),
    "transpose": lambda: build_transpose_nest(6, 300),
}


def _machines():
    paper = paper_machine()
    return {
        "paper": paper,
        # 16 lines in 4 sets of 4 ways, 4 TLB entries: capacity pressure.
        "tiny": dataclasses.replace(
            paper,
            l2=CacheLevel(16 * 64, line_size=64, associativity=4,
                          latency_cycles=12),
            tlb_entries=4,
        ),
        "numa": dataclasses.replace(
            paper,
            cores_per_socket=2,
            coherence=CoherenceCosts(cross_socket_factor=1.7),
        ),
    }


#: (machine, simulator options) variants run at T in {2, 3, 4}.
VARIANTS = {
    "paper-nopf": ("paper", {"prefetcher": False}),
    "paper-fa": ("paper", {"fully_associative": True}),
    "paper-blk64": ("paper", {"block_steps": 64}),
    "tiny": ("tiny", {}),
    "tiny-nopf": ("tiny", {"prefetcher": False}),
    "tiny-fa": ("tiny", {"fully_associative": True}),
    "tiny-blk64": ("tiny", {"block_steps": 64}),
    "numa-contig": ("numa", {}),
    "numa-scatter": ("numa", {"thread_placement": "scatter"}),
}


def _cases() -> list[tuple[str, str, dict, str, int, int]]:
    """(case id, machine, options, kernel, threads, chunk) for the grid."""
    cases = []
    for kernel in KERNELS:
        for threads in (1, 2, 3, 4, 8):
            for chunk in (1, 5):
                cases.append((
                    f"{kernel}-paper-T{threads}-c{chunk}",
                    "paper", {}, kernel, threads, chunk,
                ))
        for name, (machine, opts) in VARIANTS.items():
            for threads in (2, 3, 4):
                for chunk in (1, 5):
                    cases.append((
                        f"{kernel}-{name}-T{threads}-c{chunk}",
                        machine, opts, kernel, threads, chunk,
                    ))
        for placement in ("contiguous", "scatter"):
            cases.append((
                f"{kernel}-numa-{placement}-T8-c3",
                "numa", {"thread_placement": placement}, kernel, 8, 3,
            ))
    return cases


CASES = _cases()


def _observe(machine, opts, kernel, threads, chunk) -> dict:
    sim = MulticoreSimulator(_machines()[machine], **opts)
    r = sim.run(KERNELS[kernel](), threads, chunk=chunk)
    return {
        "counters": dataclasses.asdict(r.counters),
        "steps": r.steps,
        "cycles": float(r.cycles).hex(),
        "per_thread_cycles": [float(c).hex() for c in r.per_thread_cycles],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_grid(golden):
    assert sorted(golden) == sorted(c[0] for c in CASES)


def test_fixture_reaches_capacity_and_coherence_paths(golden):
    """The grid is only a pin if it exercises the rare transitions."""
    totals: dict[str, int] = {}
    for entry in golden.values():
        for name, value in entry["counters"].items():
            totals[name] = totals.get(name, 0) + value
    assert all(v > 0 for v in totals.values()), totals
    tiny = [e for k, e in golden.items() if "-tiny" in k]
    assert all(e["counters"]["evictions"] > 0 for e in tiny)


@pytest.mark.parametrize(
    "case_id,machine,opts,kernel,threads,chunk", CASES, ids=[c[0] for c in CASES]
)
def test_sim_matches_golden(golden, case_id, machine, opts, kernel, threads, chunk):
    assert _observe(machine, opts, kernel, threads, chunk) == golden[case_id]


def _record() -> None:
    out = {c[0]: _observe(*c[1:]) for c in CASES}
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.test_sim_golden --record")
    _record()
