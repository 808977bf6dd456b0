"""Tests for the experiment suite's cell table.

Every driver reads simulator, analyze and predict results through
:class:`~repro.analysis.experiments.ExperimentSuite`'s cell table, keyed
by (kind, nest digest, threads, chunk[, n_runs]).  The properties pinned
here: sharing cells never changes a table, each distinct cell is
computed once per suite, the key tells apart nests that only share a
name, engine workers reuse one suite per knob set, and thread-parallel
engine runs agree with serial ones.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro.analysis.experiments as experiments
from repro.analysis.experiments import (
    DRIVER_ORDER,
    SUPPLEMENTARY_DRIVERS,
    ExperimentSuite,
    cell_counts,
    run_experiment_job,
)
from repro.analysis.report import ExperimentResult
from repro.engine import ShardedEngine
from repro.kernels import heat_diffusion, linear_regression
from repro.machine import paper_machine
from repro.transform import PaddingAdvisor

ALL_DRIVERS = DRIVER_ORDER + SUPPLEMENTARY_DRIVERS


@pytest.fixture(scope="module")
def shared_suite_markdown() -> dict[str, str]:
    """Every driver's markdown from one suite, in runner order."""
    suite = ExperimentSuite(scale="tiny")
    return {name: suite.run_driver(name).to_markdown() for name in ALL_DRIVERS}


def _delta(before: dict, after: dict) -> dict:
    return {
        kind: {out: after[kind][out] - before[kind][out] for out in after[kind]}
        for kind in after
    }


class _Counting:
    """Wraps a bound method and records the kwargs of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls: list[dict] = []

    def __call__(self, *args, **kwargs):
        self.calls.append(kwargs)
        return self.fn(*args, **kwargs)


class TestSharedCellsAreExact:
    def test_one_suite_matches_fresh_suite_per_driver(
        self, shared_suite_markdown
    ):
        for name in ALL_DRIVERS:
            fresh = ExperimentSuite(scale="tiny").run_driver(name).to_markdown()
            assert shared_suite_markdown[name] == fresh, name

    def test_fig8_after_table1_adds_only_predictor_work(self):
        suite = ExperimentSuite(scale="tiny")
        sim = suite.sim.run = _Counting(suite.sim.run)
        analyze = suite.model.analyze = _Counting(suite.model.analyze)
        n = len(suite.scale.threads)

        suite.run_table1()
        assert len(sim.calls) == 2 * n
        assert len(analyze.calls) == 2 * n

        before = cell_counts()
        suite.run_fig8()
        assert len(sim.calls) == 2 * n
        # Fig. 8's new analyses are the predictor's sampled prefixes.
        added = analyze.calls[2 * n:]
        assert len(added) == 2 * n
        assert all("max_chunk_runs" in kwargs for kwargs in added)
        delta = _delta(before, cell_counts())
        assert delta["sim"] == {"computed": 0, "reused": 2 * n}
        assert delta["analyze"] == {"computed": 0, "reused": 2 * n}
        assert delta["predict"] == {"computed": 2 * n, "reused": 0}


class TestConcurrentCells:
    def test_threads_compute_each_cell_once(self):
        suite = ExperimentSuite(scale="tiny")
        sim = suite.sim.run = _Counting(suite.sim.run)
        nests = [heat_diffusion(rows=6, cols=66 + 64 * i).nest for i in range(2)]
        results: list[list] = [[] for _ in range(8)]

        def worker(i: int) -> None:
            for _ in range(5):
                for nest in nests:
                    results[i].append(suite.simulate(nest, 2, 1))

        before = cell_counts()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(sim.calls) == len(nests)
        assert all(r[j] is results[0][j] for r in results for j in range(10))
        assert _delta(before, cell_counts())["sim"] == {
            "computed": 2, "reused": 8 * 5 * 2 - 2,
        }


class TestCellKey:
    def test_same_name_other_params_are_separate_cells(self):
        suite = ExperimentSuite(scale="tiny")
        small = heat_diffusion(rows=6, cols=258).nest
        large = heat_diffusion(rows=6, cols=1026).nest
        assert small.name == large.name
        before = cell_counts()
        a = suite.simulate(small, 2, 1)
        b = suite.simulate(large, 2, 1)
        assert a.counters.accesses != b.counters.accesses
        assert suite.simulate(small, 2, 1) is a
        assert _delta(before, cell_counts())["sim"] == {
            "computed": 2, "reused": 1,
        }

    def test_padded_nest_is_not_the_original_cell(self):
        suite = ExperimentSuite(scale="tiny")
        k = linear_regression(4, tasks=96, total_points=480)
        advice = PaddingAdvisor(suite.machine).advise(k.nest, 4)[0]
        assert advice.nest_after.name == k.nest.name
        before = suite.simulate(k.nest, 4, 1)
        after = suite.simulate(advice.nest_after, 4, 1)
        assert after is not before
        assert after.cycles < before.cycles

    def test_predict_cells_key_on_sample_size(self):
        suite = ExperimentSuite(scale="tiny")
        nest = heat_diffusion(rows=6, cols=258).nest
        few = suite.predict(nest, 2, 1, 2)
        many = suite.predict(nest, 2, 1, 4)
        assert (few.sampled_runs, many.sampled_runs) == (2, 4)
        assert suite.predict(nest, 2, 1, 2) is few


class TestJobSuiteReuse:
    @staticmethod
    def _stub_drivers(monkeypatch) -> list[ExperimentSuite]:
        """Record the suite each job runs on, without running a driver."""
        seen: list[ExperimentSuite] = []

        def run_driver(self, name):
            seen.append(self)
            return ExperimentResult(name, "stub", ("x",))

        monkeypatch.setattr(ExperimentSuite, "run_driver", run_driver)
        monkeypatch.setattr(experiments, "_job_suite", None)
        return seen

    @staticmethod
    def _job(driver="run_fig6", **suite_kwargs):
        return ExperimentSuite(**suite_kwargs).experiment_jobs([driver])[0]

    def test_same_key_reuses_the_suite(self, monkeypatch):
        seen = self._stub_drivers(monkeypatch)
        run_experiment_job(self._job("run_table1", scale="tiny"))
        run_experiment_job(self._job("run_fig8", scale="tiny"))
        assert seen[0] is seen[1]

    @pytest.mark.parametrize(
        "other",
        [
            {"machine": paper_machine(num_cores=16)},
            {"scale": "full"},
            {"detector_engine": "reference"},
            {"steady_state": False},
            {"sim_jobs": 2},
        ],
        ids=["machine", "scale", "engine", "steady_state", "sim_jobs"],
    )
    def test_other_knobs_build_a_new_suite(self, monkeypatch, other):
        seen = self._stub_drivers(monkeypatch)
        run_experiment_job(self._job(scale="tiny"))
        run_experiment_job(self._job(**{"scale": "tiny", **other}))
        assert seen[0] is not seen[1]
        for knob, value in other.items():
            if knob == "scale":
                assert seen[1].scale.name == value
            elif knob == "machine":
                assert seen[1].machine == value
            else:
                assert getattr(seen[1], knob) == value

    def test_threaded_shards_match_serial(
        self, monkeypatch, shared_suite_markdown
    ):
        monkeypatch.setattr(experiments, "_job_suite", None)
        engine = ShardedEngine(shards=2, use_cache=False, inline=True)
        jobs = ExperimentSuite(scale="tiny").experiment_jobs(ALL_DRIVERS)
        docs = engine.run_strict(jobs)
        for name, doc in zip(ALL_DRIVERS, docs):
            res = ExperimentResult.from_dict(doc)
            assert res.to_markdown() == shared_suite_markdown[name], name


class TestObservedRunner:
    def test_profile_trace_and_metrics(self, tmp_path, monkeypatch, capsys):
        from repro.analysis import runner

        trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.json"
        # The trace comes from the flag, the metrics from the environment.
        monkeypatch.setenv("REPRO_METRICS", str(metrics))
        rc = runner.main([
            str(tmp_path / "EXP.md"), "--scale", "tiny", "--no-cache",
            "--profile", str(trace),
        ])
        assert rc == 0
        names = {
            e["name"] for e in json.loads(trace.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "sim.run" in names
        counters = json.loads(metrics.read_text())["counters"]
        for kind in ("sim", "analyze", "predict"):
            for outcome in ("computed", "reused"):
                key = f'analysis_cells_total{{kind="{kind}",outcome="{outcome}"}}'
                assert counters[key] > 0, key
        out = capsys.readouterr().out
        cells = counters['analysis_cells_total{kind="sim",outcome="computed"}']
        assert f"[runner] cells: sim {int(cells)} computed" in out

    def test_experiments_subcommand_accepts_obs_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "experiments", "--profile", "t.json", "--metrics-out", "m.json",
        ])
        assert (args.profile, args.metrics_out) == ("t.json", "m.json")
