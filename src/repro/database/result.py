"""Result sets returned by statement execution."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.column import ColumnVector, to_boundary
from repro.types.values import format_value


@dataclass
class Result:
    """The outcome of one statement.

    For queries, ``columns`` and ``rows`` are populated (rows hold boundary
    Python values).  For DML/DDL, ``rowcount`` and ``message`` describe the
    effect.  A shard answering the MPP coordinator fills ``vectors`` (one
    physical :class:`ColumnVector` per column) instead of ``rows``.
    ``lineage`` is what a read's planning resolved names against
    (:class:`repro.sql.planner.PlanLineage`, sealed): what the serving
    result cache keeps the answer under; ``filters`` what a row of each
    table it read had to pass to reach this answer
    (:meth:`repro.sql.planner.PlannedQuery.read_filters`).
    """

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = -1
    message: str = ""
    dtypes: list = field(default_factory=list)  # DataType per column (queries)
    vectors: list | None = None  # physical columns, in place of rows
    lineage: object | None = field(default=None, repr=False, compare=False)
    filters: dict | None = field(default=None, repr=False, compare=False)

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
        if not self.rows:
            return None
        return self.rows[0][0]

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
    """Convert an engine batch into a boundary-value result set."""
    columns = []
    for key, dtype in zip(keys, dtypes):
        vector = batch.columns.get(key)
        if vector is None:
            columns.append([])
        else:
            columns.append(to_boundary(vector.values, vector.nulls, dtype))
    n = batch.n if batch.columns else 0
    rows = [tuple(col[i] for col in columns) for i in range(n)]
    return Result(
        columns=[n.upper() for n in names],
        rows=rows,
        rowcount=len(rows),
        dtypes=list(dtypes),
    )


def vectors_from_batch(batch, names: list[str], keys: list[str], dtypes) -> Result:
    """The engine batch itself as a result: physical vectors, no rows."""
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
