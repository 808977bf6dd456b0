"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 reprobench/run.py --workload paper-sim --seed 1 --seconds 15 --trace 0

``--trace 0`` times the batch untraced and prints the end-to-end
metrics; ``--trace 1`` runs the batch untraced and then traced and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(box, cells, problems, spans) is written under ``.reprobench-out/``.

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".reprobench-out"
#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
DEFAULT_SECONDS = 15

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    from reprobench.cells import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(prog="reprobench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="nominal run length; fixes how much work the batch does")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the value with ``pct``% of the cells
    below it (``sorted_values[floor(pct/100 * n)]``)."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, math.floor(pct / 100 * n))]


def tail_percentile(n: int) -> int:
    """The highest multiple-of-5 percentile with at least ten cells
    above it, never below the median (too few cells for a tail)."""
    pct = 95
    while pct > 50 and n - 1 - math.floor(pct / 100 * n) < 10:
        pct -= 5
    return pct


def _setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def box(args) -> dict:
    """The machine and program a result was measured on."""
    import numpy

    from repro.model.jitdetect import jit_available

    return {
        "nproc": os.cpu_count(),
        "jit_available": jit_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_digest": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _span_mix(spans) -> dict | None:
    from collections import Counter

    analyze = [sp for sp in spans if sp.name == "model.analyze"]
    if not analyze:
        return None
    return {
        "engine": dict(Counter(sp.attrs["engine"] for sp in analyze)),
        "fidelity": dict(Counter(sp.attrs["fidelity"] for sp in analyze)),
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "EXPERIMENTS.md"
    ).is_file():
        print(f"reprobench: no program under {ROOT} (need src/repro and EXPERIMENTS.md)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    OUT.mkdir(exist_ok=True)
    # Keep every cache the program might open inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "repro-cache")
    args = _parse(sys.argv[1:] if argv is None else argv)

    from reprobench import checks, tracing
    from reprobench import workloads as W

    if args.setup_probe:
        t0 = time.perf_counter()
        W.setup(args.workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    if args.workload == "paper-runner":
        ctx = W.Context()  # the drivers run, and set up, in worker processes
    else:
        ctx = W.setup(args.workload, args.seed, args.seconds)
    ctx.sections = checks.read_experiments(ROOT / "EXPERIMENTS.md")
    ctx.expected = checks.load_expected()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    batch = W.run_batch(args.workload, ctx, args.seed, args.seconds, None, OUT)
    batches = [batch]
    times = sorted(c.seconds for c in batch.cells)
    tail = tail_percentile(len(times))
    record: dict = {"why": W.WHY[args.workload]}
    if args.trace == 0:
        setup = _setup_samples(args)
        values = {
            "wall_s": batch.wall_s,
            "cell_p50_s": percentile(times, 50),
            "cell_tail_s": percentile(times, tail),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": batch.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        record["setup_samples_s"] = setup
    else:
        tracer = tracing.Tracer(run=f"{stem}-{os.getpid()}")
        traced = W.run_batch(args.workload, ctx, args.seed, args.seconds, tracer, OUT)
        batches.append(traced)
        values = tracing.layer_metrics(traced.spans, traced.wall_s, batch.wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        record["self_shares"] = tracing.self_shares(values)
        record["span_detector_mix"] = _span_mix(traced.spans)
        record["traced_wall_s"] = traced.wall_s
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.spans_to_json(traced.spans), fh)

    cells = [c for b in batches for c in b.cells]
    failed = sum(1 for c in cells if c.problems)
    # Model results seen in this process; paper-runner's live in its
    # workers, so only its traced run (span_detector_mix) shows them.
    record["detector_mix"] = batch.info.get("detector_mix")
    record.update({
        "box": box(args),
        "untraced_wall_s": batch.wall_s,
        "cells": len(batch.cells),
        "tail_percentile": tail,
        "cells_beyond_tail": len(times) - 1 - math.floor(tail / 100 * len(times)),
        "failed_frac": failed / len(cells),
        "info": batch.info,
        "cell_seconds": [[c.key, c.seconds] for c in batch.cells],
        "problems": [p for c in cells for p in c.problems],
        "metrics": metrics,
    })
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# box: {json.dumps(record['box'])}")
    print(f"# {args.workload}: {len(batch.cells)} cells, cell_tail_s = p{tail} "
          f"({record['cells_beyond_tail']} cells beyond it), failed_frac = "
          f"{record['failed_frac']:.4g}, detector mix "
          f"{json.dumps(record.get('span_detector_mix') or record['detector_mix'])}")
    if "fs_pct_abs_err" in batch.info:
        print(f"# fs_pct_abs_err = {batch.info['fs_pct_abs_err']!r} % (Eq. 5, driver rows)")
    if args.trace:
        print(f"# self-time shares: {json.dumps(record['self_shares'])}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(cells), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
