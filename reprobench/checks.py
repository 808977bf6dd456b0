"""Output checks: the committed EXPERIMENTS.md and the expected results
recorded in ``expected_results.json``.

Every check returns a list of problems (empty when the output is
right), so a workload can count a failed cell and keep going.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected_results.json"


@dataclass(frozen=True)
class Section:
    """One ``### <experiment>: <title>`` block of EXPERIMENTS.md."""

    experiment: str
    markdown: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    notes: tuple[str, ...]

    def cell(self, first: str, column: str) -> str | None:
        """The cell in ``column`` of the row whose first cell is ``first``."""
        idx = self.columns.index(column)
        for row in self.rows:
            if row[0] == first:
                return row[idx]
        return None


def _split_row(line: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in line.strip().strip("|").split("|"))


def read_experiments(path: Path) -> dict[str, Section]:
    """Parse every table section of an EXPERIMENTS.md document.

    A section's ``markdown`` is the exact text that
    ``ExperimentResult.to_markdown()`` produced for it: the lines from
    its heading up to the ``**Paper:**`` line or the next heading,
    without trailing blank lines.
    """
    sections: dict[str, Section] = {}
    lines = path.read_text(encoding="utf-8").split("\n")
    i = 0
    while i < len(lines):
        if not lines[i].startswith("### "):
            i += 1
            continue
        j = i + 1
        while j < len(lines) and not lines[j].startswith(("### ", "## ", "**Paper:**")):
            j += 1
        block = lines[i:j]
        while block and not block[-1].strip():
            block.pop()
        experiment = block[0][4:].split(": ", 1)[0]
        table = [ln for ln in block if ln.startswith("|")]
        sections[experiment] = Section(
            experiment=experiment,
            markdown="\n".join(block),
            columns=_split_row(table[0]),
            rows=tuple(_split_row(ln) for ln in table[2:]),
            notes=tuple(ln[1:-1] for ln in block if ln.startswith("*") and ln.endswith("*")),
        )
        i = j
    return sections


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cmp(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def sim_record(result) -> dict:
    """The recorded form of a ``SimResult``: every counter plus cycles."""
    return {"cycles": result.cycles, **asdict(result.counters)}


def model_record(result) -> dict:
    """The recorded form of an ``FSModelResult``: the FS case split."""
    return {
        "fs_cases": result.fs_cases,
        "fs_read_cases": result.fs_read_cases,
        "fs_write_cases": result.fs_write_cases,
    }


def predict_record(prediction) -> dict:
    return {
        "predicted_fs_cases": prediction.predicted_fs_cases,
        **model_record(prediction.prefix_result),
    }


def check_sim_cell(cell, result, sections: dict[str, Section], expected: dict) -> list[str]:
    """Simulated ms against EXPERIMENTS.md; counters against the record."""
    from repro.analysis.report import format_cell

    problems: list[str] = []
    ms = format_cell(result.seconds * 1e3)
    for experiment, first, column in cell.rows:
        _cmp(problems, f"{cell.key} {experiment} row {first} {column}", ms,
             sections[experiment].cell(first, column))
    want = expected["sim"].get(cell.key)
    if want is None:
        problems.append(f"{cell.key}: no expected counters recorded")
    else:
        _cmp(problems, f"{cell.key} counters", sim_record(result), want)
    return problems


def model_key(kernel: str, threads: int, chunk: int, kind: str) -> str:
    return f"{kernel}/T{threads}/c{chunk}/{kind}"


def check_model_call(row, chunk: int, result, sections, expected) -> list[str]:
    """FS cases of one analyze or predict call against its prediction
    table column and the recorded read/write split."""
    from repro.analysis.report import format_cell

    from reprobench.cells import PREDICTION_TABLE

    problems: list[str] = []
    key = model_key(row.kernel, row.threads, chunk, row.kind)
    table = sections[PREDICTION_TABLE[row.kernel]]
    if row.kind == "analyze":
        record = model_record(result)
        column, got = f"model FS cases (chunk={chunk})", format_cell(result.fs_cases)
    elif row.kind == "predict":
        record = predict_record(result)
        column = f"pred FS cases (chunk={chunk})"
        got = format_cell(int(result.predicted_fs_cases))
    else:
        record, column = model_record(result), None
    if column is not None:
        _cmp(problems, f"{key} {table.experiment} {column}", got,
             table.cell(str(row.threads), column))
    want = expected["model"].get(key)
    if want is None:
        problems.append(f"{key}: no expected FS split recorded")
    else:
        _cmp(problems, f"{key} FS split", record, want)
    return problems


def check_model_fold(row, percent: float, sections) -> list[str]:
    """The Eq. 5 percentage of a full row against Tables I-VI."""
    from repro.analysis.report import format_cell

    from reprobench.cells import OVERHEAD_TABLE, PREDICTION_TABLE

    problems: list[str] = []
    got = format_cell(round(percent, 1))
    first = str(row.threads)
    if row.kind == "analyze":
        targets = ((OVERHEAD_TABLE[row.kernel], "modeled FS %"),
                   (PREDICTION_TABLE[row.kernel], "model FS %"))
    else:
        targets = ((PREDICTION_TABLE[row.kernel], "pred FS %"),)
    for experiment, column in targets:
        _cmp(problems, f"{row.key} {experiment} {column}", got,
             sections[experiment].cell(first, column))
    return problems


def check_fig6(series, fit, sections) -> list[str]:
    """The Fig. 6 cumulative series and its OLS fit note."""
    from repro.analysis.report import format_cell

    problems: list[str] = []
    fig6 = sections["Fig. 6"]
    got = tuple((str(i), format_cell(int(y))) for i, y in enumerate(series.tolist(), start=1))
    _cmp(problems, "Fig. 6 series", got, fig6.rows)
    head = f"OLS fit: y = {fit.a:.1f}x + {fit.b:.1f}, R^2 = {fit.r2:.6f}"
    if not any(note.startswith(head) for note in fig6.notes):
        problems.append(f"Fig. 6 fit: {head!r} not in {fig6.notes!r}")
    return problems


def check_runner_result(result, sections) -> list[str]:
    """A driver's ``to_markdown()`` must equal its EXPERIMENTS.md
    section byte for byte."""
    section = sections.get(result.experiment)
    if section is None:
        return [f"{result.experiment}: no section in EXPERIMENTS.md"]
    if result.to_markdown() != section.markdown:
        return [f"{result.experiment}: to_markdown() differs from EXPERIMENTS.md"]
    return []
