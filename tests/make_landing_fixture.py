"""Regenerate ``tests/data/landing_fixture.json`` and ``checkpoint_table.pkl``.

The two files pin what the *row-at-a-time* load (the ``insert_rows`` that
preceded the columnar landing path, commit ``84a552f``) built from a fixed
set of rows: region boundaries, every column's codec, packed words and
null mask, every synopsis, the version stamps and the tail — and one
table's checkpoint blob in the encoding of that commit.  Regenerate them
only from a checkout whose behaviour is the reference, by putting *that*
checkout first on the path::

    PYTHONPATH=/path/to/reference/src python tests/make_landing_fixture.py

``tests/test_landing.py`` replays both.
"""

from __future__ import annotations

import datetime
import json
import pickle
import zlib
from decimal import Decimal
from pathlib import Path

import numpy as np

from repro.durability.checkpoint import _table_state
from repro.storage import ColumnTable, TableSchema
from repro.types import BOOLEAN, DATE, DOUBLE, INTEGER, char_type, decimal_type, varchar_type

HERE = Path(__file__).parent
REGION_ROWS = 8
TAIL_BEFORE = 3
#: Batch sizes whose last row lands just under, on and just over one, two
#: and three region boundaries, given TAIL_BEFORE rows already in the tail.
BATCH_SIZES = (1, 4, 5, 6, 12, 13, 14, 20, 21, 22)
BATCH_TXID = 7

SCHEMA = TableSchema(
    "landing",
    (
        ("id", INTEGER),
        ("amount", decimal_type(10, 2)),
        ("day", DATE),
        ("state", varchar_type(6)),
        ("ratio", DOUBLE),
        ("flag", BOOLEAN),
        ("code", char_type(4)),
        ("empty", varchar_type(3)),
        ("nothing", INTEGER),
    ),
)


def row(i: int) -> tuple:
    """Row *i*: every column mixes values with NULLs except ``empty``
    (always the empty string) and ``nothing`` (always NULL)."""
    return (
        i * 37 % 101 - 20,
        None if i % 5 == 2 else Decimal(i * 113 % 1000) / 8,
        None if i % 7 == 3 else datetime.date(2016, 1, 1) + datetime.timedelta(days=i * 3 % 40),
        None if i % 4 == 1 else ("ca", "ny", "tx ", "")[i % 4] + "x" * (i % 3),
        None if i % 6 == 4 else (i * 0.125 if i % 9 else float("inf")),
        None if i % 3 == 0 else bool(i % 2),
        None if i % 8 == 5 else "c%d" % (i % 3),
        "",
        None,
    )


def fresh_table() -> ColumnTable:
    table = ColumnTable(SCHEMA, region_rows=REGION_ROWS, synopsis_stride=4)
    table.insert_rows([row(i) for i in range(TAIL_BEFORE)])
    return table


def _plain(value):
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


def _array(array) -> list:
    return None if array is None else [_plain(v) for v in array.tolist()]


def digest(table: ColumnTable) -> dict:
    """Everything a load decides, as plain JSON."""
    regions = []
    for region in table.regions:
        columns = {}
        for name, column in region.columns.items():
            synopsis = region.synopses[name]
            stored = column.raw if column.packed is None else column.packed.words
            columns[name] = {
                "codec": type(column.codec).__name__,
                "nbytes": column.nbytes(),
                "width": None if column.packed is None else column.packed.width,
                "stored_crc": zlib.crc32(stored.tobytes()),
                "nulls": _array(column.nulls),
                "values": _array(column.decode()[0]),
                "raw_nbytes": region.column_raw_nbytes[name],
                "synopsis": [
                    _array(synopsis.mins), _array(synopsis.maxs),
                    _array(synopsis.null_counts), _array(synopsis.row_counts),
                ],
            }
        regions.append(
            {
                "n_rows": region.n_rows,
                "xmin": _array(region.xmin),
                "xmax": _array(region.xmax),
                "xmin_hi": region.xmin_hi,
                "raw_nbytes": region.raw_nbytes,
                "columns": columns,
            }
        )
    tail = table.capture()
    return {
        "regions": regions,
        "tail_rows": table.tail_rows,
        "tail": {
            name: [_array(vector.values), _array(vector.nulls)]
            for name, vector in tail.tail.items()
        },
        "tail_live": _array(tail.tail_mask),
        "tail_xmin": [int(x) for x in table._tail_xmin[: table.tail_rows]],
        "tail_xmax": [int(x) for x in table._tail_xmax[: table.tail_rows]],
    }


def main() -> None:
    fixture = {}
    for n in BATCH_SIZES:
        table = fresh_table()
        table.insert_rows([row(TAIL_BEFORE + i) for i in range(n)], txid=BATCH_TXID)
        fixture[str(n)] = digest(table)
    (HERE / "data" / "landing_fixture.json").write_text(
        json.dumps(fixture, sort_keys=True, separators=(",", ":")) + "\n"
    )
    table = fresh_table()
    table.insert_rows([row(TAIL_BEFORE + i) for i in range(9)], txid=BATCH_TXID)
    mask = [False] * table.n_rows_physical()
    mask[2] = mask[-1] = True  # one region row, one tail row
    table.apply_deletes(np.array(mask), txid=BATCH_TXID + 1)
    (HERE / "data" / "checkpoint_table.pkl").write_bytes(
        pickle.dumps(_table_state("PUBLIC", table))
    )


if __name__ == "__main__":
    main()
