"""End-to-end benchmark of the reproduction itself: ``BENCH_runner.json``.

Runs ``python -m repro.analysis.runner`` with ``--no-cache`` at
``--jobs 1`` and at ``--jobs 2``, each in a fresh process, and records
per mode:

* ``wall_s`` — end-to-end wall time of the runner process;
* ``peak_rss_mb`` — peak resident set of the largest process (the
  runner or one of its engine workers);
* ``identical`` — whether the regenerated document is byte-identical to
  the committed EXPERIMENTS.md;
* ``drivers_s`` — per-driver seconds, as the runner prints them.  These
  depend on run order: drivers share experiment cells, and a shared
  cell's cost is charged to the first driver that reads it (Figs. 8/9
  show 0 s serially because Tables I/II computed their cells).  Use
  ``cells`` and ``spans`` to attribute cost;
* ``cells`` — experiment cells computed/reused per kind, read from the
  run's ``--metrics-out`` snapshot (``analysis_cells_total``);
* ``spans`` — per-span count, total and self seconds, read from the
  ``--profile`` trace of a second, traced run of the same mode.

Cells and spans recorded inside engine worker processes stay in those
processes, so at ``--jobs 2`` the cell counts are ``null`` and the span
breakdown holds only the parent's engine spans.  The box (core count,
whether numba is present) is recorded with the numbers.

Exits 1 unless every run reproduces EXPERIMENTS.md byte for byte.

Run (3–4 minutes per mode on a 2-core box without numba)::

    PYTHONPATH=src python benchmarks/bench_runner.py --out BENCH_runner.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from repro.obs.export import load_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
DRIVER_LINE = re.compile(r"^\[runner\] (run_\w+)\s.*\((\d+(?:\.\d+)?)s\)$")


def _box() -> dict:
    import numpy

    from repro.model.jitdetect import jit_available

    return {
        "nproc": os.cpu_count(),
        "numba": jit_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run(args: list[str], log: Path, cache_dir: Path) -> tuple[float, float]:
    """Run the runner with ``args``; return (wall seconds, peak RSS MB)."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_METRICS", None)
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.analysis.runner", *args],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        # wait4 reports the peak RSS of the child and of every
        # descendant it reaped (its engine workers).
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(
            f"runner {' '.join(args)} exited {proc.returncode}:\n"
            + log.read_text(encoding="utf-8")[-2000:]
        )
    return wall, usage.ru_maxrss / 1024


def span_breakdown(trace_path: Path) -> dict[str, dict]:
    """Per span name: count, total seconds and self seconds (total minus
    the time covered by child spans on the same thread)."""
    by_thread: dict[tuple, list[dict]] = defaultdict(list)
    for e in load_chrome_trace(trace_path):
        by_thread[(e.get("pid"), e.get("tid"))].append(e)
    out: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for spans in by_thread.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[float, str]] = []  # (end, name)
        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                stack.pop()
            row = out[e["name"]]
            row["count"] += 1
            row["total_s"] += e["dur"] / 1e6
            row["self_s"] += e["dur"] / 1e6
            if stack:
                out[stack[-1][1]]["self_s"] -= e["dur"] / 1e6
            stack.append((e["ts"] + e["dur"], e["name"]))
    return {
        name: {k: round(v, 3) if isinstance(v, float) else v
               for k, v in row.items()}
        for name, row in sorted(out.items(), key=lambda kv: -kv[1]["self_s"])
    }


def _cells(metrics_path: Path) -> dict | None:
    counters = json.loads(metrics_path.read_text())["counters"]
    cells: dict[str, dict[str, int]] = defaultdict(dict)
    pattern = re.compile(r'analysis_cells_total\{kind="(\w+)",outcome="(\w+)"\}')
    for key, value in counters.items():
        m = pattern.fullmatch(key)
        if m:
            cells[m.group(1)][m.group(2)] = int(value)
    return dict(cells) or None


def measure(jobs: int, work: Path) -> dict:
    """One mode: an untraced run for time and cells, a traced one for spans."""
    base = ["--jobs", str(jobs), "--no-cache"]
    doc = work / f"EXP-j{jobs}.md"
    metrics = work / f"metrics-j{jobs}.json"
    log = work / f"runner-j{jobs}.log"
    wall, rss = _run([str(doc), *base, "--metrics-out", str(metrics)],
                     log, work / "cache")
    trace = work / f"trace-j{jobs}.json"
    _run([str(work / f"EXP-j{jobs}-traced.md"), *base, "--profile", str(trace)],
         work / f"runner-j{jobs}-traced.log", work / "cache")
    drivers = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        m = DRIVER_LINE.match(line)
        if m:
            drivers[m.group(1)] = float(m.group(2))
    committed = ROOT / "EXPERIMENTS.md"
    return {
        "jobs": jobs,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(rss, 1),
        "identical": doc.read_bytes() == committed.read_bytes(),
        "drivers_s": drivers,
        "cells": _cells(metrics) if jobs == 1 else None,
        "spans": span_breakdown(trace),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_runner.json")
    args = parser.parse_args(argv)
    report = {"box": _box(), "runs": []}
    with tempfile.TemporaryDirectory(prefix="bench-runner-") as tmp:
        for jobs in (1, 2):
            row = measure(jobs, Path(tmp))
            report["runs"].append(row)
            print(f"--jobs {jobs}: {row['wall_s']} s, {row['peak_rss_mb']} MB, "
                  f"identical={row['identical']}, cells={row['cells']}")
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not all(r["identical"] for r in report["runs"]):
        print("EXPERIMENTS.md was not reproduced byte-for-byte", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
