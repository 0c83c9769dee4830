"""Row-organised baseline table with secondary B-tree indexes.

This is the comparison system for the paper's claim (II.B.7) that
column-organised processing is "typically 10 to 50 times faster than the
same workloads run on row-organized tables with secondary indexing".  Rows
are stored as Python lists (physical values); point and small-range queries
may use B-tree indexes, everything else scans row-at-a-time — exactly the
access pattern profile of a classic row store.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstraintViolationError, NotNullViolationError, SQLError
from repro.storage.btree import BTree
from repro.storage.column import to_physical_scalar
from repro.storage.table import TableSchema
from repro.types.datatypes import TypeKind


class RowTable:
    """A row-store table: list-of-rows plus optional secondary indexes.

    PRIMARY KEY / UNIQUE and NOT NULL columns are enforced as
    :class:`~repro.storage.table.ColumnTable` enforces them: a statement's
    rows land all or nothing, and the error raised is that of the lowest
    offending row (within a row: column order, then the unique columns).
    """

    def __init__(
        self,
        schema: TableSchema,
        unique_columns: tuple[str, ...] = (),
        not_null_columns: tuple[str, ...] = (),
    ):
        self.schema = schema
        self._rows: list[list] = []
        self._deleted: set[int] = set()
        self.indexes: dict[str, BTree] = {}
        self.unique_columns = tuple(unique_columns)
        self.not_null_columns = tuple(not_null_columns)

    # -- DML -----------------------------------------------------------------

    def insert_rows(self, rows) -> int:
        """Append boundary-value rows, maintaining any indexes."""
        physical = []
        for row in rows:
            if len(row) != len(self.schema):
                raise SQLError(
                    "row has %d values, table %s has %d columns"
                    % (len(row), self.schema.name, len(self.schema))
                )
            physical.append(self._physical(row))
        self._check_unique(physical)
        for values in physical:
            row_id = len(self._rows)
            self._rows.append(values)
            for column, index in self.indexes.items():
                key = values[self.schema.column_index(column)]
                if key is not None:
                    index.insert(key, row_id)
        return len(physical)

    def update_rows(self, changes) -> int:
        """Replace columns of live rows: *changes* is ``[(row id, {column:
        boundary value})]``.  Every new row is converted and checked before
        any is written, the rows being replaced no longer counting against
        a unique column."""
        names = self.schema.column_names
        new = []
        for row_id, values in changes:
            row = list(self.fetch(row_id))
            for name, value in values.items():
                row[names.index(name)] = value
            new.append(self._physical(row, {names.index(name) for name in values}))
        self._check_unique(new, {row_id for row_id, _ in changes})
        for (row_id, _), values in zip(changes, new):
            old = self._rows[row_id]
            for column, index in self.indexes.items():
                at = self.schema.column_index(column)
                if old[at] is not None:
                    index.remove(old[at], row_id)
                if values[at] is not None:
                    index.insert(values[at], row_id)
            self._rows[row_id] = values
        return len(new)

    def _physical(self, row, converted=None) -> list:
        """*row* in physical form, the columns at positions *converted*
        (None: every column) converted from boundary values; raises the
        row's first conversion or NOT NULL error, in column order."""
        out = list(row)
        for at, (name, dt) in enumerate(self.schema.columns):
            value = row[at]
            if value is None:
                if name in self.not_null_columns:
                    raise NotNullViolationError("column %s does not accept NULL" % name)
            elif converted is None or at in converted:
                out[at] = to_physical_scalar(value, dt)
        return out

    def _check_unique(self, rows, replaced=frozenset()) -> None:
        """Raise for the first of *rows* that repeats a unique value of a
        live row (other than those *replaced*) or of an earlier one."""
        columns = [self.schema.column_index(c) for c in self.unique_columns]
        if not columns:
            return
        seen = [
            {
                row[at] for row_id, row in self.scan()
                if row_id not in replaced and row[at] is not None
            }
            for at in columns
        ]
        for row in rows:
            for at, values in zip(columns, seen):
                value = row[at]
                if value is None:
                    continue
                if value in values:
                    raise ConstraintViolationError(
                        "duplicate value %r for unique column %s"
                        % (value, self.schema.columns[at][0])
                    )
                values.add(value)

    def delete_ids(self, row_ids) -> int:
        """Tombstone rows by id, maintaining indexes."""
        deleted = 0
        for row_id in row_ids:
            if row_id in self._deleted or not 0 <= row_id < len(self._rows):
                continue
            self._deleted.add(row_id)
            for column, index in self.indexes.items():
                key = self._rows[row_id][self.schema.column_index(column)]
                if key is not None:
                    index.remove(key, row_id)
            deleted += 1
        return deleted

    def update_row(self, row_id: int, values: dict[str, object]) -> None:
        """In-place update of one row (row stores update in place, unlike
        the column store's delete+insert)."""
        self.update_rows([(row_id, values)])

    def truncate(self) -> None:
        self._rows = []
        self._deleted = set()
        for column in list(self.indexes):
            self.indexes[column] = BTree()

    # -- indexes -----------------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Build a secondary B-tree index over one column."""
        if column in self.indexes:
            raise SQLError("index on %s already exists" % column)
        idx = self.schema.column_index(column)
        tree = BTree()
        for row_id, row in enumerate(self._rows):
            if row_id in self._deleted:
                continue
            if row[idx] is not None:
                tree.insert(row[idx], row_id)
        self.indexes[column] = tree

    # -- access paths ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._rows) - len(self._deleted)

    def scan(self):
        """Yield (row_id, row) for live rows — the row-at-a-time path."""
        deleted = self._deleted
        for row_id, row in enumerate(self._rows):
            if row_id not in deleted:
                yield row_id, row

    def fetch(self, row_id: int) -> list:
        if row_id in self._deleted or not 0 <= row_id < len(self._rows):
            raise SQLError("no such row id %d" % row_id)
        return self._rows[row_id]

    def index_lookup(self, column: str, value) -> list[int]:
        """Exact-match row ids via the secondary index."""
        physical = to_physical_scalar(value, self.schema.column_type(column))
        return [r for r in self.indexes[column].search(physical) if r not in self._deleted]

    def index_range(self, column: str, lo=None, hi=None, **bounds) -> list[int]:
        """Range row ids via the secondary index."""
        dt = self.schema.column_type(column)
        lo_p = None if lo is None else to_physical_scalar(lo, dt)
        hi_p = None if hi is None else to_physical_scalar(hi, dt)
        found = self.indexes[column].range_search(lo_p, hi_p, **bounds)
        return [r for r in found if r not in self._deleted]

    def nbytes(self) -> int:
        """Approximate row-store footprint (row headers + values)."""
        total = 0
        for row_id, row in enumerate(self._rows):
            if row_id in self._deleted:
                continue
            total += 16  # row header / slot overhead
            for (name, dt), value in zip(self.schema.columns, row):
                if value is None:
                    total += 1
                elif isinstance(value, str):
                    total += len(value) + 2
                elif dt.kind is TypeKind.SMALLINT:
                    total += 2
                else:
                    total += 8
        return total
