"""IdaDataFrame: the R/Python push-down API (paper II.C.4, Fig. 3).

The object looks like a dataframe but every statistic compiles to SQL and
executes inside the database — nothing is pulled client-side except final
results.  ``register_udx`` is the user-defined-extension (UDX) hook: a
Python scalar function installed into a dialect's function registry.
"""

from __future__ import annotations

from repro.errors import AnalyticsError
from repro.sql.functions import FunctionRegistry, simple


class IdaDataFrame:
    """A view over one table whose methods run as in-database SQL."""

    def __init__(self, session, table_name: str):
        self.session = session
        self.table = table_name.upper()
        # Validate eagerly so typos fail fast like ida.data.frame() does.
        self.session.execute("SELECT COUNT(*) FROM %s" % self.table)

    # -- pushed-down statistics -------------------------------------------------

    def count(self) -> int:
        return self.session.execute("SELECT COUNT(*) FROM %s" % self.table).scalar()

    def mean(self, column: str) -> float:
        value = self.session.execute(
            "SELECT AVG(%s) FROM %s" % (column, self.table)
        ).scalar()
        return float(value) if value is not None else None

    def min(self, column: str):
        return self.session.execute(
            "SELECT MIN(%s) FROM %s" % (column, self.table)
        ).scalar()

    def max(self, column: str):
        return self.session.execute(
            "SELECT MAX(%s) FROM %s" % (column, self.table)
        ).scalar()

    def std(self, column: str) -> float:
        value = self.session.execute(
            "SELECT STDDEV_SAMP(%s) FROM %s" % (column, self.table)
        ).scalar()
        return float(value) if value is not None else None

    def median(self, column: str) -> float:
        value = self.session.execute(
            "SELECT MEDIAN(%s) FROM %s" % (column, self.table)
        ).scalar()
        return float(value) if value is not None else None

    def cov(self, x: str, y: str) -> float:
        value = self.session.execute(
            "SELECT COVAR_POP(%s, %s) FROM %s" % (x, y, self.table)
        ).scalar()
        return float(value) if value is not None else None

    def corr(self, x: str, y: str) -> float:
        row = self.session.execute(
            "SELECT COVAR_POP(%s, %s), STDDEV_POP(%s), STDDEV_POP(%s) FROM %s"
            % (x, y, x, y, self.table)
        ).rows[0]
        cov, sx, sy = (float(v) for v in row)
        if sx == 0 or sy == 0:
            raise AnalyticsError("correlation undefined for a constant column")
        return cov / (sx * sy)

    def value_counts(self, column: str) -> dict:
        rows = self.session.execute(
            "SELECT %s, COUNT(*) FROM %s GROUP BY %s" % (column, self.table, column)
        ).rows
        return {k: v for k, v in rows}

    def describe(self, column: str) -> dict:
        row = self.session.execute(
            "SELECT COUNT(%s), AVG(%s), MIN(%s), MAX(%s), STDDEV_SAMP(%s)"
            " FROM %s" % (column, column, column, column, column, self.table)
        ).rows[0]
        return {
            "count": row[0],
            "mean": float(row[1]) if row[1] is not None else None,
            "min": row[2],
            "max": row[3],
            "std": float(row[4]) if row[4] is not None else None,
        }

    def head(self, n: int = 5) -> list[tuple]:
        return self.session.execute(
            "SELECT * FROM %s FETCH FIRST %d ROWS ONLY" % (self.table, n)
        ).rows


def register_udx(
    registry: FunctionRegistry,
    name: str,
    fn,
    arity: int,
    return_type,
) -> None:
    """Install a user-defined scalar extension (UDX) into a registry.

    ``fn(*args)`` receives physical values (None for NULL) and returns a
    physical value or None.
    """

    def impl(values, dtypes):
        return fn(*values)

    registry.register(name, simple(name.upper(), arity, arity, return_type, impl))
