"""Result sets returned by statement execution."""

from __future__ import annotations

import numpy as np

from repro.storage.column import ColumnVector, to_boundary
from repro.types.values import format_value


class Result:
    """The outcome of one statement.

    For queries, ``columns`` name the columns and ``rows`` hold boundary
    Python values.  A query the engine answered carries its final batch's
    physical vectors in ``vectors``, one :class:`ColumnVector` per column,
    and builds ``rows`` from them on first read, then keeps them: a shard
    answering the MPP coordinator is read as vectors and never builds rows.
    Answers that start out as rows (EXPLAIN, VALUES, a row-store engine,
    procedures) pass ``rows`` and no vectors.  For DML/DDL, ``rowcount``
    and ``message`` describe the effect.  ``lineage`` is what a read's
    planning resolved names against
    (:class:`repro.sql.planner.PlanLineage`, sealed): what the serving
    result cache keeps the answer under; ``filters`` what a row of each
    table it read had to pass to reach this answer
    (:meth:`repro.sql.planner.PlannedQuery.read_filters`); ``plan`` where
    a SELECT's plan came from, as EXPLAIN prints it (``cached`` or ``fresh
    (<why>)``; None for any other statement).
    """

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = -1,
        message: str = "",
        dtypes: list | None = None,
        vectors: list[ColumnVector] | None = None,
        lineage=None,
        filters: dict | None = None,
    ):
        self.columns = [] if columns is None else columns
        self._rows = [] if rows is None and vectors is None else rows
        self.rowcount = rowcount
        self.message = message
        self.dtypes = [] if dtypes is None else dtypes  # DataType per column
        self.vectors = vectors
        self.lineage = lineage
        self.filters = filters
        self.plan = None

    @property
    def rows(self) -> list[tuple]:
        rows = self._rows
        if rows is None:
            columns = [
                to_boundary(v.values, v.nulls, dtype)
                for v, dtype in zip(self.vectors, self.dtypes)
            ]
            rows = self._rows = list(zip(*columns))
        return rows

    def __repr__(self) -> str:
        return "Result(columns=%r, rows=%r, rowcount=%r, message=%r)" % (
            self.columns, self.rows, self.rowcount, self.message,
        )

    @property
    def tables(self) -> frozenset | None:
        """The base tables a read read — what the serving result cache
        invalidates the answer on; None when it is not a read or read
        something commits do not announce (a session temp table, a
        federation nickname, a statement-scoped relation)."""
        lineage = self.lineage
        return None if lineage is None else lineage.tables

    @property
    def is_query(self) -> bool:
        return bool(self.columns)

    def scalar(self):
        """First column of the first row (or None for empty results)."""
        return self.rows[0][0] if self.rows else None

    def column(self, name: str) -> list:
        index = self.columns.index(name.upper())
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, max_rows: int = 20) -> str:
        """Render like a CLP client would."""
        if not self.is_query:
            return self.message or ("%d row(s) affected" % self.rowcount)
        shown = self.rows[:max_rows]
        cells = [[format_value(v) for v in row] for row in shown]
        widths = [
            max([len(c)] + [len(row[i]) for row in cells])
            for i, c in enumerate(self.columns)
        ]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(self.rows) > max_rows:
            lines.append("... (%d rows total)" % len(self.rows))
        return "\n".join(lines)


def result_from_batch(batch, names: list[str], keys: list[str], dtypes) -> Result:
    """An engine batch as a query result: its vectors, rows built on read."""
    vectors = []
    for key, dtype in zip(keys, dtypes):
        vector = batch.columns.get(key)
        if vector is None:  # an empty batch carries no columns
            vector = ColumnVector(dtype, np.empty(0, dtype=dtype.numpy_dtype))
        vectors.append(vector)
    return Result(
        columns=[n.upper() for n in names],
        rowcount=batch.n if batch.columns else 0,
        dtypes=list(dtypes),
        vectors=vectors,
    )
