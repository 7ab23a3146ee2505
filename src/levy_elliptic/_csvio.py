"""The one CSV writer of the package.

Numbers use 17 significant digits so files round-trip doubles exactly, and
a cell holding a comma or a quote is quoted, so every row parses to the
header's width.
"""

from __future__ import annotations

import csv

import numpy as np


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, columns) -> None:
    """Write one header row and the rows zipped from equal-length ``columns``."""
    cells = [
        list(map(_cell, col.tolist() if isinstance(col, np.ndarray) else col))
        for col in columns
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))
