"""Seeded cell lists for the four workloads.

Everything here is pure: it builds kernel descriptions and draws from
them, and runs no simulator or model.  The same ``(workload, seed,
seconds)`` always gives the same list, because every draw uses a
``random.Random`` seeded from a string (hashed with SHA-512, not the
per-process ``hash()`` salt).

Work per run is fixed by ``--seconds`` through the nominal rates below,
never by a clock: a faster program then finishes the same work sooner
instead of doing more of it, so ``wall_s`` compares like with like
across commits.  The rates were set once so that a default run takes
0.5-1.3x ``--seconds`` on a 2-core x86 box, depending on the workload
and how busy the host is; they are not re-measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

#: Seed for routine runs and for the figures quoted in README.md.
DEFAULT_SEED = 1
#: Seed kept back for confirming a later performance claim on inputs
#: that were not used while the change was written.
HELDOUT_SEED = 2

WORKLOADS = ("paper-sim", "paper-model", "sweep-engine", "paper-runner")

#: paper-sim: simulated accesses per nominal second of run time.
SIM_ACCESSES_PER_SECOND = 600_000
#: paper-sim strata and their share of the access budget.  Heat and dft
#: cells split by chunk (FS or non-FS), linreg cells by size: at least
#: ``LINREG_LARGE_ACCESSES`` accesses (T <= 8: Table III and Fig. 2, the
#: large working sets) or fewer (T >= 16).  Within a stratum all cells
#: but linreg-small's have the same access count, so every run has the
#: same mix.  At 15 s the heat and dft FS strata take 6 of their 8
#: cells each and every other stratum one cell: the FS cells (1-2 s
#: each) then make up most of the run, which puts the median cell among
#: them, where neighbouring cells differ little, instead of between
#: cells of unlike cost.
SIM_STRATA = (
    ("heat-fs", 0.25), ("heat-nfs", 0.05), ("dft-fs", 0.27), ("dft-nfs", 0.05),
    ("linreg-large", 0.36), ("linreg-small", 0.02),
)
LINREG_LARGE_ACCESSES = 2_000_000
#: paper-model: (kernel, threads, kind) rows per nominal second.  At the
#: default 15 s every row runs and the seed only sets the order, which
#: keeps the per-cell median free of draw-to-draw mix changes.
MODEL_ROWS_PER_SECOND = 3.2
#: sweep-engine: distinct kernel sources per nominal second (each is
#: swept twice, so the list holds twice as many entries).
SWEEP_SOURCES_PER_SECOND = 32 / 15
SWEEP_THREADS = (2, 4, 8, 16)
SWEEP_CHUNKS = (1, 2, 4, 8, 16)
SWEEP_FAMILIES = ("heat", "dft", "linreg", "transpose")
#: sweep-engine: the family swept in exact mode (see draw_sweep_list).
EXACT_FAMILY = "linreg"

#: Experiment labels of the model tables per kernel: (Eq. 5 table,
#: prediction table).
OVERHEAD_TABLE = {"heat": "Table I", "dft": "Table II", "linreg": "Table III"}
PREDICTION_TABLE = {"heat": "Table IV", "dft": "Table V", "linreg": "Table VI"}
#: paper-runner driver pairs; the second driver of each pair repeats
#: every simulator and model call of the first.
RUNNER_PAIRS = (("run_table1", "run_fig8"), ("run_table2", "run_fig9"))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"reprobench:{workload}:{seed}")


@lru_cache(maxsize=1)
def full_scale():
    """The paper-scale kernel factories and sweeps the drivers use."""
    from repro.analysis.experiments import FULL_SCALE

    return FULL_SCALE


@lru_cache(maxsize=None)
def kernel(name: str, threads: int):
    """The full-size :class:`~repro.kernels.KernelInstance` of a paper
    kernel bound for ``threads`` (only linreg depends on it)."""
    scale = full_scale()
    if name == "heat":
        return scale.heat()
    if name == "dft":
        return scale.dft()
    if name == "linreg":
        return scale.linreg(threads)
    raise ValueError(f"unknown paper kernel {name!r}")


def nest_accesses(nest) -> int:
    """Memory accesses one execution of ``nest`` performs."""
    return nest.total_iterations() * len(nest.innermost_accesses())


# -- paper-sim -------------------------------------------------------------


@dataclass(frozen=True)
class SimCell:
    """One ``MulticoreSimulator.run`` call and the EXPERIMENTS.md
    cells it reproduces: ``(experiment, first column, column)``."""

    kernel: str
    threads: int
    chunk: int
    accesses: int
    rows: tuple[tuple[str, str, str], ...]

    @property
    def key(self) -> str:
        return f"{self.kernel}/T{self.threads}/c{self.chunk}"


@lru_cache(maxsize=1)
def sim_population() -> tuple[SimCell, ...]:
    """Every distinct simulator configuration behind Tables I-III and
    Fig. 2, in a fixed order."""
    scale = full_scale()
    rows: dict[tuple[str, int, int], list[tuple[str, str, str]]] = {}
    for name in ("heat", "dft", "linreg"):
        for T in scale.threads:
            k = kernel(name, T)
            for chunk, column in ((k.fs_chunk, "T_fs (ms)"), (k.nfs_chunk, "T_nfs (ms)")):
                rows.setdefault((name, T, chunk), []).append(
                    (OVERHEAD_TABLE[name], str(T), column)
                )
    for chunk in scale.fig2_chunks:
        rows.setdefault(("linreg", scale.fig2_threads, chunk), []).append(
            ("Fig. 2", str(chunk), "time (ms)")
        )
    return tuple(
        SimCell(name, T, chunk, nest_accesses(kernel(name, T).nest), tuple(refs))
        for (name, T, chunk), refs in rows.items()
    )


def sim_budget(seconds: float) -> int:
    return int(seconds * SIM_ACCESSES_PER_SECOND)


def _in_stratum(cell: SimCell, stratum: str) -> bool:
    kernel_name, group = stratum.split("-")
    if cell.kernel != kernel_name:
        return False
    if group in ("fs", "nfs"):
        return (cell.chunk == kernel(kernel_name, cell.threads).fs_chunk) == (group == "fs")
    return (cell.accesses >= LINREG_LARGE_ACCESSES) == (group == "large")


def draw_sim_cells(seed: int, seconds: float) -> list[SimCell]:
    """A stratified draw without replacement that stops at the access
    budget.

    Each stratum gets its share of the budget, so every seed runs the
    same mix and about the same number of accesses.  A stratum whose
    cells are all the same size (heat and dft) takes as many as fit by
    systematic sampling over its cells in thread order (a seeded start,
    then every ``len / k``-th cell): per-access cost grows with the
    thread count, so every seed gets the same spread of thread counts.
    The linreg strata, whose cell sizes differ, take cells in seeded
    order whenever they still fit (first fit).  A stratum whose every
    cell is larger than its share runs one smallest cell, so a short
    smoke run still touches every stratum.
    """
    rng = _rng("paper-sim", seed)
    budget = sim_budget(seconds)
    chosen: list[SimCell] = []
    for stratum, share in SIM_STRATA:
        members = sorted((c for c in sim_population() if _in_stratum(c, stratum)),
                         key=lambda c: (c.threads, c.chunk))
        remaining = int(budget * share)
        if len({c.accesses for c in members}) == 1:
            k = max(1, min(len(members), remaining // members[0].accesses))
            step = len(members) / k
            start = rng.random() * step
            chosen += [members[int(start + i * step)] for i in range(k)]
            continue
        smallest = min(c.accesses for c in members)
        taken = 0
        for cell in rng.sample(members, len(members)):
            if cell.accesses <= remaining or (not taken and cell.accesses == smallest):
                chosen.append(cell)
                remaining -= cell.accesses
                taken += 1
    rng.shuffle(chosen)
    return chosen


# -- paper-model -----------------------------------------------------------


@dataclass(frozen=True)
class ModelRow:
    """One (kernel, threads) row of Tables I-VI evaluated one way.

    ``kind`` is ``"analyze"`` (the full loop, both chunks, then the Eq. 5
    fold), ``"predict"`` (prefix plus regression, both chunks, then the
    predicted Eq. 5 fold) or ``"fig6"`` (the Fig. 6 prefix series).
    Each model call of a row is one cell.
    """

    kernel: str
    threads: int
    kind: str

    @property
    def key(self) -> str:
        return f"{self.kernel}/T{self.threads}/{self.kind}"


def model_rows_per_stratum(seconds: float) -> int:
    per_stratum = round(seconds * MODEL_ROWS_PER_SECOND / 6)
    return max(1, min(len(full_scale().threads), per_stratum))


def draw_model_rows(seed: int, seconds: float) -> list[ModelRow]:
    """The same number of thread counts from each (kernel, kind)
    stratum, plus the Fig. 6 series, in seeded order."""
    rng = _rng("paper-model", seed)
    threads = full_scale().threads
    k = model_rows_per_stratum(seconds)
    rows = [ModelRow("heat", full_scale().fig2_threads, "fig6")]
    for name in ("heat", "dft", "linreg"):
        for kind in ("analyze", "predict"):
            rows += [ModelRow(name, T, kind) for T in sorted(rng.sample(threads, k))]
    rng.shuffle(rows)
    return rows


# -- sweep-engine ----------------------------------------------------------


@dataclass(frozen=True)
class SweepSource:
    """One generated C kernel and how it is swept."""

    family: str
    sizes: tuple[int, int]
    exact: bool

    @property
    def key(self) -> str:
        mode = "exact" if self.exact else "predict"
        return f"{self.family}/{self.sizes[0]}x{self.sizes[1]}/{mode}"

    def source(self) -> str:
        from repro import kernels

        make = {
            "heat": kernels.heat_source,
            "dft": kernels.dft_source,
            "linreg": kernels.linreg_source,
            "transpose": kernels.transpose_source,
        }[self.family]
        return make(*self.sizes)


#: Per family: the parallel-dimension choices and the total iteration
#: count they share, so that a seeded size changes the shape of the
#: kernel but not its iteration count.  Every parallel trip count is at
#: least 256 = 16 threads x chunk 16, so every point of the sweep grid
#: is feasible for every source.
_SWEEP_SHAPES = {
    # heat_source(rows, cols): the parallel loop runs over cols - 2.
    "heat": ((258, 386, 514, 642, 770, 1026, 1282, 1538, 2050, 2562, 3074, 4098), 16_384),
    # dft_source(samples, freqs): parallel over freqs.
    "dft": ((256, 320, 384, 448, 512, 640, 768, 1024, 1280, 1536, 2048, 2560), 8_192),
    # linreg_source(tasks, ppt): parallel over tasks, ppt = 24576 / tasks.
    # An exact sweep costs within 1.4x across these choices.
    "linreg": (tuple(range(256, 448, 16)), 24_576),
    # transpose_source(rows, cols): parallel over cols.
    "transpose": ((256, 384, 512, 640, 768, 1024, 1280, 1536, 2048, 2560, 3072, 4096), 16_384),
}


def _sizes(family: str, parallel: int) -> tuple[int, int]:
    total = _SWEEP_SHAPES[family][1]
    if family == "heat":
        return (2 + total // (parallel - 2), parallel)
    if family == "linreg":
        return (parallel, total // parallel)
    return (total // parallel, parallel)


def sweep_sources_per_family(seconds: float) -> int:
    per_family = round(seconds * SWEEP_SOURCES_PER_SECOND / len(SWEEP_FAMILIES))
    return max(1, min(len(_SWEEP_SHAPES["heat"][0]), per_family))


def draw_sweep_list(seed: int, seconds: float) -> list[SweepSource]:
    """Distinct sources, each listed twice, in seeded order.

    Every family gets the same number of sources, with sizes drawn
    without replacement.  The linreg sources, a quarter of the list, are
    swept in exact mode and the rest with the predictor.  An exact sweep
    costs 4-8x a heat, dft or transpose predictor sweep, and a linreg
    predictor sweep (it walks whole tasks) sits between the two; with
    linreg swept exactly the sources form two cost groups of fixed size
    on every seed, three quarters predictor and one quarter exact, so
    the cell median and tail fall inside the predictor group instead of
    on a boundary between groups.
    """
    rng = _rng("sweep-engine", seed)
    n = sweep_sources_per_family(seconds)
    sources = [
        SweepSource(family, _sizes(family, parallel), family == EXACT_FAMILY)
        for family in SWEEP_FAMILIES
        for parallel in rng.sample(_SWEEP_SHAPES[family][0], n)
    ]
    entries = sources + sources
    rng.shuffle(entries)
    return entries


# -- paper-runner ----------------------------------------------------------


def draw_runner_orders(seed: int) -> tuple[tuple[str, str], ...]:
    """Both driver pairs, each in a seeded order (table first or figure
    first); whichever runs second repeats the first one's cells."""
    rng = _rng("paper-runner", seed)
    return tuple(
        pair if rng.random() < 0.5 else (pair[1], pair[0]) for pair in RUNNER_PAIRS
    )


def draw(workload: str, seed: int, seconds: float) -> list:
    """The cell list of ``workload`` (a list of plans, one per cell
    group)."""
    if workload == "paper-sim":
        return draw_sim_cells(seed, seconds)
    if workload == "paper-model":
        return draw_model_rows(seed, seconds)
    if workload == "sweep-engine":
        return draw_sweep_list(seed, seconds)
    if workload == "paper-runner":
        return list(draw_runner_orders(seed))
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
