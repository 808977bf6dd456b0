"""Supplementary experiments — beyond the paper's tables and figures.

These exercise the reproduction's extensions end to end and land in a
separate EXPERIMENTS.md section:

* **victim identification** — the paper's motivating use case: name the
  data structure causing the FS, with hot-line and thread-adjacency
  evidence;
* **baseline comparison** — compile-time model vs the runtime/trace
  detector family (agreement and per-analysis work);
* **mitigation summary** — model-recommended chunk and padding fixes,
  validated on the simulator.
"""

from __future__ import annotations

import time

from repro.analysis.report import ExperimentResult
from repro.baselines import RuntimeFSDetector
from repro.kernels import transpose
from repro.model import diagnose
from repro.transform import ChunkSizeOptimizer, PaddingAdvisor


class SupplementaryMixin:
    """Extra drivers mixed into :class:`~repro.analysis.experiments.ExperimentSuite`.

    They read simulator, analyze and predict results through the suite's
    cell table (``simulate``/``analyze``/``predict``), like the paper's
    drivers.
    """

    def run_supp_victims(self) -> ExperimentResult:
        """Victim data structures per kernel (the paper's motivation)."""
        T = self.scale.fig2_threads
        res = ExperimentResult(
            "Supp. victims",
            f"victim identification per kernel (T={T}, FS chunk)",
            ("kernel", "victim array", "share of FS cases",
             "lines involved", "adjacent-thread share"),
        )
        t0 = time.perf_counter()
        for name, k in (
            ("heat", self.scale.heat()),
            ("dft", self.scale.dft()),
            ("linreg", self.scale.linreg(T)),
            ("transpose (control)", transpose(rows=8, cols=512)),
        ):
            r = self.analyze(k.nest, T, k.fs_chunk)
            if r.fs_cases == 0:
                # The negative control: no FS, no victim — by design.
                res.add_row(name, "(none)", "0 cases", 0, "-")
                continue
            d = diagnose(r)
            victim = r.victim_arrays()[0]
            res.add_row(
                name,
                victim.name,
                f"{100.0 * victim.fs_cases / max(r.fs_cases, 1):.0f}%",
                victim.lines,
                f"{100.0 * d.adjacency_share:.0f}%",
            )
        res.elapsed_seconds = time.perf_counter() - t0
        return res

    def run_supp_baseline(self) -> ExperimentResult:
        """Compile-time model vs runtime trace detection."""
        T = self.scale.fig2_threads
        runtime = RuntimeFSDetector(self.machine)
        res = ExperimentResult(
            "Supp. baseline",
            f"compile-time vs runtime FS detection (T={T}, FS chunk)",
            ("kernel", "runtime events", "model cases", "predicted cases",
             "runtime accesses", "predictor accesses"),
        )
        t0 = time.perf_counter()
        for name, k in (
            ("heat", self.scale.heat()),
            ("linreg", self.scale.linreg(T)),
        ):
            rt = runtime.run(k.nest, T, chunk=k.fs_chunk)
            m = self.analyze(k.nest, T, k.fs_chunk)
            pred = self.predict(k.nest, T, k.fs_chunk, k.pred_chunk_runs)
            res.add_row(
                name,
                rt.stats.false_sharing_events,
                m.fs_cases,
                int(pred.predicted_fs_cases),
                rt.stats.accesses,
                pred.prefix_result.accesses,
            )
        res.elapsed_seconds = time.perf_counter() - t0
        return res

    def run_supp_mitigation(self) -> ExperimentResult:
        """Model-guided fixes, validated on the simulator."""
        T = self.scale.fig2_threads
        res = ExperimentResult(
            "Supp. mitigation",
            f"model-recommended fixes for linreg (T={T})",
            ("fix", "parameter", "sim time before (ms)",
             "sim time after (ms)", "speedup"),
        )
        t0 = time.perf_counter()
        k = self.scale.linreg(T)
        before = self.simulate(k.nest, T, 1)

        rec = ChunkSizeOptimizer(
            self.machine, use_predictor=True, predictor_runs=5
        ).recommend(k.nest, T, candidates=(1, 2, 4, 8, 10))
        after_chunk = self.simulate(k.nest, T, rec.best_chunk)
        res.add_row(
            "schedule chunk", f"static,{rec.best_chunk}",
            before.seconds * 1e3, after_chunk.seconds * 1e3,
            f"{before.cycles / after_chunk.cycles:.2f}x",
        )

        advices = PaddingAdvisor(self.machine).advise(k.nest, T)
        if advices:
            adv = advices[0]
            after_pad = self.simulate(adv.nest_after, T, 1)
            res.add_row(
                "struct padding",
                f"{adv.element_bytes}->{adv.padded_bytes} B",
                before.seconds * 1e3, after_pad.seconds * 1e3,
                f"{before.cycles / after_pad.cycles:.2f}x",
            )
        res.elapsed_seconds = time.perf_counter() - t0
        return res

    def run_supplementary(self) -> list[ExperimentResult]:
        return [
            self.run_supp_victims(),
            self.run_supp_baseline(),
            self.run_supp_mitigation(),
        ]
