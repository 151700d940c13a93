"""Deterministic report serialization: JSON payloads and CSV tables.

Numbers are written with 12 significant digits, files use UTF-8 with LF
line endings, and repeated runs with identical inputs produce identical
bytes. Key order in JSON follows insertion order, which the callers keep
deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_number", "dumps", "write_report_files"]

INDENT = 2  # spaces per nesting level of report.json


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number in report: {v!r}")
    return f"{v:.12g}"


def dumps(obj) -> str:
    """Serialize to JSON with 12-significant-digit numbers, indented by
    :data:`INDENT` spaces per level; strings are escaped by :mod:`json`
    and keep their non-ASCII characters."""

    def render(o, depth: int) -> str:
        pad = " " * (INDENT * depth)
        pad_in = " " * (INDENT * (depth + 1))
        if o is None:
            return "null"
        if isinstance(o, (int, float, np.integer, np.floating, np.bool_)):  # bool is an int
            return format_number(o)
        if isinstance(o, str):
            return json.dumps(o, ensure_ascii=False)
        if isinstance(o, Mapping):
            if not o:
                return "{}"
            parts = [
                f"{pad_in}{json.dumps(str(k), ensure_ascii=False)}: {render(v, depth + 1)}"
                for k, v in o.items()
            ]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            parts = [f"{pad_in}{render(v, depth + 1)}" for v in o]
            return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(o).__name__} in a report")

    return render(obj, 0) + "\n"


def write_report_files(
    out_dir: str | Path,
    payload: Mapping,
    tables: Mapping[str, tuple[Sequence[str], Sequence[Sequence]]],
) -> list[Path]:
    """Write report.json plus one CSV per table; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_bytes(dumps(payload).encode("utf-8"))
    written.append(report_path)
    for name, (columns, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow(
                [
                    cell if isinstance(cell, str) else format_number(cell)
                    for cell in row
                ]
            )
        path = out / f"{name}.csv"
        path.write_bytes(buf.getvalue().encode("utf-8"))
        written.append(path)
    return written
