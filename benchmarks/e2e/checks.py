"""Answer checking outside the timing, at reduced scale.

Every distinct read of a workload (same seed, same generators, smaller
sizes) is answered by the system under test and by the row-at-a-time
oracle ``repro.baselines.rowdb.RowDatabase``; rows are compared with the
normalisation of ``tests/test_differential.py``.  On top of that each
workload asserts its own invariant:

* ``serve``   — every result-cache hit equals a fresh ``Session.execute``;
* ``cluster`` — every read equals a single-node ``Database`` with the rows;
* ``etl``     — after ``reopen(clean=False)`` no acknowledged commit is
  lost and every table reads as it did before the crash.
"""

from __future__ import annotations

import math
import re

from repro.baselines.rowdb import RowDatabase
from repro.database import Database
from repro.errors import ReproError
from repro.workloads import tpcds

from workloads import WORKLOADS, load


#: ``... ORDER BY <output columns> FETCH FIRST n ROWS ONLY`` at the end of a
#: statement: the one shape of top-n query the workloads generate.
TOP_N = re.compile(r"\s+ORDER BY (.+?)\s+FETCH FIRST (\d+) ROWS ONLY$")


def values(rows) -> list[tuple]:
    """Rows in their order, values by their ``str`` as tests/test_differential.py
    does, except that floats stay floats: two-phase AVG on a cluster divides
    the gathered SUM by the gathered COUNT and differs from a single engine in
    the last unit, which is arithmetic order, not a wrong answer, so
    :func:`same_rows` compares floats with a tolerance."""
    return [tuple(v if isinstance(v, float) else str(v) for v in row) for row in rows]


def normalise(rows) -> list[tuple]:
    """Rows as an order-free multiset."""
    return sorted(values(rows), key=_sort_key)


def _sort_key(row: tuple) -> tuple:
    # Six digits, so that a last-unit difference cannot reorder two rows.
    return tuple("%.6g" % v if isinstance(v, float) else v for v in row)


def same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def same_rows(a: list[tuple], b: list[tuple]) -> bool:
    return len(a) == len(b) and all(
        len(x) == len(y) and all(map(same_value, x, y)) for x, y in zip(a, b)
    )


def order_positions(order_by: str, columns) -> list[int] | None:
    """Output positions of the ORDER BY items (ordinals, aliases or column
    names, direction dropped); None if an item is none of those."""
    names = [c.upper() for c in columns]
    positions = []
    for item in order_by.split(","):
        word = item.split()[0].upper()
        if word.isdigit():
            positions.append(int(word) - 1)
        elif word in names:
            positions.append(names.index(word))
        else:
            return None
    return positions


def same_answer(sql: str, got, oracle) -> bool:
    """Does ``got`` (the system under test's result of ``sql``) answer it as
    ``oracle`` does?

    A top-n query whose sort key has ties at the cut has several right
    answers (which of the tied rows make it is not defined), and engines
    that gather rows in different orders pick different ones.  So for
    ``ORDER BY .. FETCH FIRST n`` the oracle answers the query *without* the
    cut, and ``got`` must have the first n sort keys of that answer, in
    order, and consist of rows of it."""
    top_n = TOP_N.search(sql)
    keys = top_n and order_positions(top_n.group(1), got.columns)
    if not keys:
        return same_rows(normalise(got.rows), normalise(oracle.execute(sql).rows))
    full = oracle.execute(sql[: top_n.start()] + " ORDER BY " + top_n.group(1)).rows
    n = min(int(top_n.group(2)), len(full))

    def sort_keys(rows):
        return [tuple(row[k] for k in keys) for row in values(rows)]

    if len(got.rows) != n or not same_rows(sort_keys(got.rows), sort_keys(full[:n])):
        return False
    pool = normalise(full)
    for row in normalise(got.rows):  # each row of got uses up one row of full
        match = next((i for i, r in enumerate(pool) if same_rows([row], [r])), None)
        if match is None:
            return False
        del pool[match]
    return True


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _against_oracles(wl, tally: Tally) -> None:
    oracles = {"rowdb": RowDatabase()}
    if wl.name == "cluster":
        oracles["single-node"] = Database().connect()
    for system in oracles.values():
        load(system, wl.ddl, wl.tables)
        tpcds.flush_tables(system)
    for sql in wl.distinct_reads():
        got = wl.execute(("select", sql))
        for label, system in oracles.items():
            tally.expect(
                same_answer(sql, got, system),
                "%s differs from %s: %s" % (wl.name, label, sql),
            )


def _serve_hits_equal_fresh(wl, tally: Tally) -> None:
    stats = wl.gateway.result_cache.stats
    wl.begin_pass()
    for op in wl.ops:
        hits = stats.hits
        result = wl.execute(op)
        if stats.hits > hits:
            fresh = wl.session.execute(op[1])
            tally.expect(
                result.rows == fresh.rows and result.columns == fresh.columns,
                "serve hit differs from a fresh execute: %s" % op[1],
            )


def _etl_survives_crash(wl, tally: Tally) -> None:
    for op in wl.ops:
        try:
            wl.execute(op)
            ok = True
        except ReproError:
            ok = False
        tally.expect(ok, "etl op raised: %s" % (op[1] or "checkpoint"))
    outcome = wl.after_run()
    tally.expect(outcome["commits_lost"] == 0, "etl lost acknowledged commits")
    tally.expect(
        not outcome["tables_changed"],
        "etl tables changed across the crash: %s" % outcome["tables_changed"],
    )


def check(name: str, seed: int, scale: str = "check") -> Tally:
    """The check phase for one workload; returns what was compared."""
    wl = WORKLOADS[name](seed, scale)
    wl.build()
    tally = Tally()
    try:
        _against_oracles(wl, tally)
        if name == "serve":
            _serve_hits_equal_fresh(wl, tally)
        if name == "etl":
            _etl_survives_crash(wl, tally)
    finally:
        wl.close()
    return tally
