"""The hand-joined CSV rows that manifest.write_csv_atomic replaced, kept as
the reference it is checked against: evaluation.csv's cells went through
_fmt, and ablation.csv's and sensitivity.csv's through f-strings with !r on
each number. Rows were joined by commas, with no quoting, one "\\n" after
each line."""

from __future__ import annotations

from typing import Sequence


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def fmt_row(values: Sequence) -> str:
    """A row of evaluation.csv, as emit_report joined it."""
    return ",".join(_fmt(v) for v in values)


def repr_row(values: Sequence) -> str:
    """A row of ablation.csv or sensitivity.csv: text as is, numbers by !r."""
    return ",".join(v if isinstance(v, str) else f"{v!r}" for v in values)


def csv_text(header: Sequence[str], rows: Sequence[Sequence], row=fmt_row) -> str:
    return "".join(f"{line}\n" for line in [",".join(header), *map(row, rows)])
