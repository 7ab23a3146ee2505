"""The package's one CSV writer: formatting, quoting and exact round trips."""

import csv
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levy_elliptic import _csvio
from levy_elliptic._csvio import write_csv


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_cells_format_as_documented(tmp_path):
    path = tmp_path / "t.csv"
    # A text cell keeps a trailing NUL, which numpy's string dtype would drop.
    columns = [[True, False], np.array([3, -4]), np.array([0.1, -0.0]), ["a", "b\x00"]]
    write_csv(path, ["b", "i", "f", "s"], columns)
    assert path.read_bytes() == b"b,i,f,s\ntrue,3,0.10000000000000001,a\nfalse,-4,-0,b\x00\n"


def test_header_only_when_there_are_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["y_1", "z"], [np.zeros(0), np.zeros(0)])
    assert path.read_bytes() == b"y_1,z\n"


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=30))
def test_float_column_reads_back_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, ["v"], [np.array(values, dtype=float)])
    rows = read_rows(path)
    assert rows[0] == ["v"] and len(rows) == len(values) + 1
    for (cell,), x in zip(rows[1:], values):
        y = float(cell)
        assert math.isnan(y) if math.isnan(x) else bits(y) == bits(x)


# A bare carriage return is left out: with "\n" as line terminator the stdlib
# writer of Python 3.11 does not quote it, so it would not read back.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))


@settings(deadline=None)
@given(st.lists(st.tuples(TEXT, st.floats(allow_nan=False)), min_size=1, max_size=10))
def test_text_cells_with_commas_and_quotes_read_back_unchanged(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    names = [name + ',"' for name, _ in rows]
    write_csv(path, ["name", "value"], [names, [v for _, v in rows]])
    back = read_rows(path)
    assert back[0] == ["name", "value"]
    assert [r[0] for r in back[1:]] == names
    assert [float(r[1]) for r in back[1:]] == [v for _, v in rows]


def reference_csv(path, header, columns) -> None:
    """The cell-by-cell writer that the column formats replace."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g") if isinstance(value, float) else str(value)

    cells = [list(map(cell, col.tolist() if isinstance(col, np.ndarray) else col)) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
COLUMNS = [
    lambda n, data: np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float),
    lambda n, data: np.array(data.draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n)), dtype=np.int64),
    lambda n, data: range(n),
    lambda n, data: data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    lambda n, data: np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
    lambda n, data: data.draw(st.lists(TEXT, min_size=n, max_size=n)),
    lambda n, data: [np.float64(v) for v in data.draw(st.lists(FLOATS, min_size=n, max_size=n))],
]
TEXT_COLUMN = 5


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_bytes_match_the_cell_by_cell_writer(tmp_path_factory, data):
    n = data.draw(st.integers(0, 7))
    kinds = data.draw(st.lists(st.sampled_from(range(len(COLUMNS))), min_size=1, max_size=5))
    # A lone text column is left out: the csv module writes its empty cell as "".
    assume(kinds != [TEXT_COLUMN])
    columns = [COLUMNS[k](n, data) for k in kinds]
    block = data.draw(st.sampled_from([1, 2, 3, _csvio.BLOCK_ROWS]))
    assert_bytes_match(tmp_path_factory.mktemp("csv"), columns, block)


def assert_bytes_match(folder, columns, block):
    header = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csvio, "BLOCK_ROWS", block)
        write_csv(folder / "new.csv", header, columns)
    reference_csv(folder / "old.csv", header, columns)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("blocks, extra", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_rows_on_and_just_past_a_block_edge(tmp_path, block, blocks, extra):
    # Whole blocks, then one row more; every other text cell is empty.
    n = blocks * block + extra
    floats = np.linspace(-1.0, 1.0, n) / 3.0
    text = ["" if i % 2 else f"r{i}," for i in range(n)]
    for j, columns in enumerate([[floats, np.arange(n), text], [floats]]):
        folder = tmp_path / str(j)
        folder.mkdir()
        assert_bytes_match(folder, columns, block)
