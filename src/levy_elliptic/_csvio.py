"""The one CSV writer of the package.

Numbers use 17 significant digits so files round-trip doubles exactly, and
a cell holding a comma, a quote or a newline is quoted, as the csv module's
minimal quoting does, so every row parses to the header's width.  Rows are
formatted and written BLOCK_ROWS at a time, so the text of a file is never
held whole and an array column is listed one block's slice at a time.
"""

from __future__ import annotations

import csv

import numpy as np

# Rows formatted and written at a time; the bytes do not depend on it.
BLOCK_ROWS = 1 << 12


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _quoted(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(col) -> tuple[str, object]:
    """(conversion, values) of a column for the row format: a column of only
    floats or only ints keeps its numbers, a numeric array stays an array;
    any other column becomes cells."""
    if isinstance(col, np.ndarray):
        kind, values = col.dtype.kind, col
        if kind not in ("f", "i", "u"):
            values = col.tolist()
    else:
        values = list(col)
        types = set(map(type, values))
        kind = "f" if types == {float} else "i" if types == {int} else "O"
    if kind == "f":
        return "%.17g", values
    if kind in ("i", "u"):
        return "%d", values
    return "%s", [_quoted(_cell(v)) for v in values]


def write_csv(path, header, columns) -> None:
    """Write one header row and the rows zipped from equal-length ``columns``.

    Each row is formatted by one %-format built from the columns' types."""
    specs = [_column(col) for col in columns]
    values = [cells for _, cells in specs]
    if len(specs) == 1 and specs[0][0] == "%s":
        values = [[cell or '""' for cell in values[0]]]  # csv quotes an empty record
    row = ",".join(conversion for conversion, _ in specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, min(map(len, values), default=0), BLOCK_ROWS):
            block = [v[start : start + BLOCK_ROWS] for v in values]
            block = [v.tolist() if isinstance(v, np.ndarray) else v for v in block]
            fh.write("".join([row % cells for cells in zip(*block)]))
