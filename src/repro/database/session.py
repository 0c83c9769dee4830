"""Sessions: the connection-scoped state.

Each session carries its **dialect variable** (paper II.C.2: "a session
variable is leveraged allowing individual sessions to decide the dialect to
use when compiling SQL"), its declared temporary tables, a bounded
query-history ring with per-statement stats, and Oracle-style sequence
CURRVAL state lives on the shared catalog sequences.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import SQLError
from repro.sql.dialects import Dialect, get_dialect
from repro.storage.table import ColumnTable, TableSchema

#: Statements kept in a session's query-history ring.
HISTORY_LIMIT = 128


@dataclass
class StatementStats:
    """Per-statement execution record kept in the session history."""

    index: int              # database-wide statement number
    statement: str          # AST node class name (Select, Insert, ...)
    sql: str | None         # original text when executed from SQL
    rowcount: int           # rows returned (queries) or affected (DML)
    wall_seconds: float
    sim_seconds: float | None = None


class Session:
    """One client connection to a :class:`~repro.database.database.Database`."""

    def __init__(self, database, dialect: str = "db2"):
        self.database = database
        self.dialect: Dialect = get_dialect(dialect)
        self._temp_tables: dict[str, ColumnTable] = {}
        self.current_schema: str | None = None
        self.variables: dict[str, str] = {}
        self.history: deque[StatementStats] = deque(maxlen=HISTORY_LIMIT)

    # -- dialect ---------------------------------------------------------------

    def set_dialect(self, name: str) -> None:
        self.dialect = get_dialect(name)

    # -- temporary tables --------------------------------------------------------

    def declare_temp_table(self, schema: TableSchema, **kwargs) -> ColumnTable:
        key = schema.name.upper()
        if key in self._temp_tables:
            raise SQLError("temporary table %s already declared" % key)
        table = ColumnTable(schema, **kwargs)
        self._temp_tables[key] = table
        return table

    def get_temp_table(self, name: str) -> ColumnTable | None:
        return self._temp_tables.get(name.upper())

    def drop_temp_table(self, name: str) -> bool:
        return self._temp_tables.pop(name.upper(), None) is not None

    def temp_table_names(self) -> list[str]:
        return sorted(self._temp_tables)

    def shadows(self, names) -> bool:
        """Whether a declared temp table hides one of these (uppercase)
        catalog names from this session's unqualified references."""
        temps = self._temp_tables
        return bool(temps) and not temps.keys().isdisjoint(names)

    # -- execution -----------------------------------------------------------------

    def execute(self, sql: str):
        """Run one statement and return its :class:`Result`."""
        return self.database.execute(sql, session=self)

    def execute_script(self, sql: str) -> list:
        """Run a ';'-separated script, returning one Result per statement."""
        return self.database.execute_script(sql, session=self)

    def query(self, sql: str) -> list[tuple]:
        """Run a query and return its rows."""
        return self.execute(sql).rows

    # -- query history -----------------------------------------------------------

    def record_statement(
        self, statement: str, result, wall_seconds: float,
        sim_seconds: float | None = None, sql: str | None = None,
        index: int | None = None,
    ) -> None:
        """Called by the database after every statement it runs for us.

        ``statement`` is the statement class (``Select``, ``Insert``...; an
        execution served from the plan cache never built an AST to name it
        by).  ``index`` is the statement's own database-wide number,
        captured under the statement lock — concurrent sessions must not
        re-read the shared counter here.
        """
        rowcount = result.rowcount
        if rowcount < 0 and result.is_query:
            rowcount = len(result.rows)
        self.history.append(
            StatementStats(
                index=index if index is not None else self.database.statement_count,
                statement=statement,
                sql=sql,
                rowcount=rowcount,
                wall_seconds=wall_seconds,
                sim_seconds=sim_seconds,
            )
        )

    def query_history(self) -> list[StatementStats]:
        """The most recent statements (oldest first), with their stats."""
        return list(self.history)

    def close(self) -> None:
        self._temp_tables.clear()
        self.history.clear()
