"""Re-record ``expected_results.json``: the full ``SimCounters`` and
cycles of every paper-sim cell and the FS read/write split of every
paper-model call, at the current commit.

    python3 reprobench/record_expected.py [--only sim|model]

This runs the whole simulator population (about 100 M accesses, a few
minutes) and is needed only when a change is *meant* to alter simulated
or modeled results; a speed-only change must leave the file untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    parser = argparse.ArgumentParser(prog="reprobench/record_expected.py")
    parser.add_argument("--only", choices=("sim", "model"))
    args = parser.parse_args(argv)

    from repro.machine import paper_machine
    from repro.model import FalseSharingModel, FalseSharingPredictor
    from repro.sim import MulticoreSimulator

    from reprobench import cells as C
    from reprobench import checks

    path = checks.EXPECTED_PATH
    doc = checks.load_expected(path) if path.exists() else {"sim": {}, "model": {}}
    machine = paper_machine()
    if args.only != "model":
        sim = MulticoreSimulator(machine)
        for cell in C.sim_population():
            t0 = time.perf_counter()
            k = C.kernel(cell.kernel, cell.threads)
            doc["sim"][cell.key] = checks.sim_record(sim.run(k.nest, cell.threads,
                                                             chunk=cell.chunk))
            print(f"sim {cell.key}: {time.perf_counter() - t0:.1f}s", flush=True)
    if args.only != "sim":
        model = FalseSharingModel(machine)
        for name in ("heat", "dft", "linreg"):
            for T in C.full_scale().threads:
                k = C.kernel(name, T)
                predictor = FalseSharingPredictor(model, n_runs=k.pred_chunk_runs)
                for chunk in (k.fs_chunk, k.nfs_chunk):
                    doc["model"][checks.model_key(name, T, chunk, "analyze")] = (
                        checks.model_record(model.analyze(k.nest, T, chunk=chunk)))
                    doc["model"][checks.model_key(name, T, chunk, "predict")] = (
                        checks.predict_record(predictor.predict(k.nest, T, chunk=chunk)))
        T = C.full_scale().fig2_threads
        k = C.kernel("heat", T)
        doc["model"][checks.model_key("heat", T, k.fs_chunk, "fig6")] = checks.model_record(
            model.analyze(k.nest, T, chunk=k.fs_chunk,
                          max_chunk_runs=C.full_scale().fig6_runs, record_series=True))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
