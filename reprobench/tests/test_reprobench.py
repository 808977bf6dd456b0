"""Tests of the benchmark itself: seeded cell lists, generated kernels,
the EXPERIMENTS.md reader, span arithmetic and a minimum-size run.

    PYTHONPATH=src python -m pytest -q reprobench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reprobench import cells as C
from reprobench import checks
from reprobench.run import percentile, tail_percentile
from reprobench.tracing import Span, self_times

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "reprobench" / "run.py"
SECONDS = (1, 15, 40)


def _keys(workload: str, seed: int, seconds: float) -> list:
    return [getattr(item, "key", item) for item in C.draw(workload, seed, seconds)]


@pytest.mark.parametrize("workload", C.WORKLOADS)
@pytest.mark.parametrize("seconds", SECONDS)
def test_same_seed_gives_identical_cell_list(workload, seconds):
    assert _keys(workload, 7, seconds) == _keys(workload, 7, seconds)


@pytest.mark.parametrize("workload", ["paper-sim", "paper-model", "sweep-engine"])
def test_different_seeds_give_different_lists(workload):
    lists = [_keys(workload, seed, 15) for seed in range(1, 6)]
    assert all(a != b for i, a in enumerate(lists) for b in lists[i + 1:])


def test_heldout_seed_draws_the_other_runner_order():
    default = C.draw_runner_orders(C.DEFAULT_SEED)
    heldout = C.draw_runner_orders(C.HELDOUT_SEED)
    for pair, a, b in zip(C.RUNNER_PAIRS, default, heldout):
        assert sorted(a) == sorted(b) == sorted(pair)
        assert a != b


@pytest.mark.parametrize("seconds", SECONDS)
def test_sim_draw_stays_within_the_access_budget(seconds):
    budget = C.sim_budget(seconds)
    for seed in range(1, 11):
        cells = C.draw_sim_cells(seed, seconds)
        assert len({c.key for c in cells}) == len(cells)
        for stratum, share in C.SIM_STRATA:
            drawn = [c for c in cells if C._in_stratum(c, stratum)]
            assert drawn, stratum
            if len(drawn) > 1:
                assert sum(c.accesses for c in drawn) <= budget * share


def test_sim_population_matches_the_paper_configurations():
    population = C.sim_population()
    # 3 kernels x 8 thread counts x 2 chunks, plus the 11 Fig. 2 chunks
    # that Table III does not already run at T=8.
    assert len(population) == 3 * 8 * 2 + 11
    for cell in population:
        assert sum(C._in_stratum(cell, stratum) for stratum, _ in C.SIM_STRATA) == 1
    assert sum(c.accesses for c in population) > 50 * C.sim_budget(1)


def test_model_draw_is_stratified():
    rows = C.draw_model_rows(3, 15)
    k = C.model_rows_per_stratum(15)
    for name in ("heat", "dft", "linreg"):
        for kind in ("analyze", "predict"):
            assert sum(r.kernel == name and r.kind == kind for r in rows) == k
    assert sum(r.kind == "fig6" for r in rows) == 1


def test_sweep_list_repeats_each_source_twice_with_a_quarter_exact():
    for seed in range(1, 11):
        entries = C.draw_sweep_list(seed, 15)
        sources = set(entries)
        assert all(entries.count(s) == 2 for s in sources)
        assert sum(s.exact for s in sources) == len(sources) // 4
        assert all(s.exact == (s.family == C.EXACT_FAMILY) for s in sources)
        assert {s.family for s in sources} == set(C.SWEEP_FAMILIES)


def test_every_generated_sweep_kernel_parses():
    from repro.frontend import parse_c_source

    grid = [(t, c) for t in C.SWEEP_THREADS for c in C.SWEEP_CHUNKS]
    seen = {s for seed in range(1, 21) for s in C.draw_sweep_list(seed, 15)}
    seen |= {C.SweepSource(f, C._sizes(f, p), False)
             for f, (options, _) in C._SWEEP_SHAPES.items() for p in options}
    for source in seen:
        kernels = parse_c_source(source.source(), filename=source.key)
        assert len(kernels) == 1, source.key
        nest = kernels[0].nest
        trip = nest.trip_counts()[nest.parallel_depth()]
        assert all(t * c <= trip for t, c in grid), source.key


def test_experiments_reader_finds_every_row():
    sections = checks.read_experiments(ROOT / "EXPERIMENTS.md")
    threads = [str(t) for t in C.full_scale().threads]
    for cell in C.sim_population():
        for experiment, first, column in cell.rows:
            assert sections[experiment].cell(first, column) is not None, (cell.key, experiment)
    for name in ("heat", "dft", "linreg"):
        k = C.kernel(name, 2)
        overhead = sections[C.OVERHEAD_TABLE[name]]
        prediction = sections[C.PREDICTION_TABLE[name]]
        assert [row[0] for row in overhead.rows] == threads
        assert [row[0] for row in prediction.rows] == threads
        for T in threads:
            assert overhead.cell(T, "modeled FS %") is not None
            for chunk in (k.fs_chunk, k.nfs_chunk):
                assert prediction.cell(T, f"pred FS cases (chunk={chunk})") is not None
                assert prediction.cell(T, f"model FS cases (chunk={chunk})") is not None
    assert [row[0] for row in sections["Fig. 2"].rows] == [
        str(c) for c in C.full_scale().fig2_chunks]
    assert len(sections["Fig. 6"].rows) == C.full_scale().fig6_runs
    assert any(n.startswith("OLS fit:") for n in sections["Fig. 6"].notes)


def test_expected_results_cover_every_cell():
    expected = checks.load_expected()
    assert {c.key for c in C.sim_population()} <= set(expected["sim"])
    for name in ("heat", "dft", "linreg"):
        for T in C.full_scale().threads:
            k = C.kernel(name, T)
            for chunk in (k.fs_chunk, k.nfs_chunk):
                for kind in ("analyze", "predict"):
                    assert checks.model_key(name, T, chunk, kind) in expected["model"]


def test_percentiles():
    values = sorted(float(i) for i in range(32))
    assert percentile(values, 50) == 16.0
    assert tail_percentile(32) == 65 and percentile(values, 65) == 20.0
    assert tail_percentile(85) == 85
    assert tail_percentile(14) == 50


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("a", "bench.batch", 0.0, 10.0, None, "r"),
        Span("b", "sim.run", 1.0, 4.0, "a", "r"),
        Span("c", "model.analyze", 3.0, 6.0, "a", "r"),
        Span("d", "model.analyze", 3.5, 4.5, "c", "r"),
    ]
    own = self_times(spans)
    assert own == {"a": 5.0, "b": 3.0, "c": 2.0, "d": 1.0}


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("paper-sim", 0), ("paper-model", 0), ("sweep-engine", 0), ("paper-model", 1),
    ("sweep-engine", 1),
])
def test_minimum_size_run_passes_its_checks(workload, trace):
    proc = _run(str(RUN), "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


@pytest.mark.slow
def test_paper_runner_passes_its_checks():
    proc = _run(str(RUN), "--workload", "paper-runner", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "reprobench", tmp_path / "reprobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("reprobench/run.py", "--workload", "paper-sim", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
