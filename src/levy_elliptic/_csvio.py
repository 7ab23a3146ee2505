"""The one CSV writer of the package.

Every column is read through ``np.asarray``: a float dtype prints each value
with 17 significant digits, so files round-trip doubles exactly, and an
integer dtype prints it as %d.  Any other column becomes text cells: a bool
dtype reads true and false, and every other column prints its items
themselves with ``str`` (not numpy's string dtype, which drops trailing
NULs).  A cell holding a comma, a quote or a newline is quoted, as the csv
module's minimal quoting does, so every row parses to the header's width.
Rows are formatted and written BLOCK_ROWS at a time, so the text of a file
is never held whole and a column is listed one block's slice at a time.
"""

from __future__ import annotations

import csv

import numpy as np

# Rows formatted and written at a time; the bytes do not depend on it.
BLOCK_ROWS = 1 << 12


def _quoted(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(col) -> tuple[str, np.ndarray]:
    """(conversion, values) of a column for the row format, values an array:
    the column's numbers for a float or integer dtype, else its text cells."""
    values = np.asarray(col)
    kind = values.dtype.kind
    if kind == "f":
        return "%.17g", values
    if kind in ("i", "u"):
        return "%d", values
    if kind == "b":
        return "%s", np.where(values, "true", "false")
    return "%s", np.array([_quoted(str(v)) for v in col], dtype=object)


def write_csv(path, header, columns) -> None:
    """Write one header row and the rows zipped from equal-length ``columns``.

    Each row is formatted by one %-format built from the columns' dtypes."""
    specs = [_column(col) for col in columns]
    row = ",".join(conversion for conversion, _ in specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, min((len(v) for _, v in specs), default=0), BLOCK_ROWS):
            block = [v[start : start + BLOCK_ROWS].tolist() for _, v in specs]
            fh.write("".join([row % cells for cells in zip(*block)]))
