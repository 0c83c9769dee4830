"""A small DataFrame API over RDDs of row dicts (Spark SQL flavour)."""

from __future__ import annotations

from repro.errors import SparkJobError
from repro.spark.rdd import RDD


class SparkDataFrame:
    """Rows are dicts; transformations stay lazy through the backing RDD."""

    def __init__(self, rdd: RDD, columns: list[str]):
        self.rdd = rdd
        self.columns = list(columns)

    # -- transformations --------------------------------------------------------

    def select(self, *names: str) -> "SparkDataFrame":
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise SparkJobError("unknown columns %s" % missing)
        wanted = list(names)
        return SparkDataFrame(
            self.rdd.map(lambda row, w=wanted: {k: row[k] for k in w}), wanted
        )

    def with_column(self, name: str, fn) -> "SparkDataFrame":
        def add(row, name=name, fn=fn):
            out = dict(row)
            out[name] = fn(row)
            return out

        columns = self.columns + ([name] if name not in self.columns else [])
        return SparkDataFrame(self.rdd.map(add), columns)

    def where(self, fn) -> "SparkDataFrame":
        return SparkDataFrame(self.rdd.filter(fn), self.columns)

    filter = where

    def join(self, other: "SparkDataFrame", on: str) -> "SparkDataFrame":
        left = self.rdd.map(lambda row, k=on: (row[k], row))
        right = other.rdd.map(lambda row, k=on: (row[k], row))

        def merge(kv):
            _, (l, r) = kv
            merged = dict(r)
            merged.update(l)
            return merged

        columns = self.columns + [c for c in other.columns if c not in self.columns]
        return SparkDataFrame(left.join(right).map(merge), columns)

    def group_by(self, *keys: str) -> "GroupedFrame":
        return GroupedFrame(self, list(keys))

    # -- actions -----------------------------------------------------------------

    def collect(self) -> list[dict]:
        return self.rdd.collect()

    def count(self) -> int:
        return self.rdd.count()

    def take(self, n: int) -> list[dict]:
        return self.rdd.take(n)


class GroupedFrame:
    """Result of ``group_by``: supports agg with named reducers."""

    _AGGS = {"sum", "count", "min", "max", "avg"}

    def __init__(self, frame: SparkDataFrame, keys: list[str]):
        self.frame = frame
        self.keys = keys

    def agg(self, **aggregates: str) -> SparkDataFrame:
        """e.g. ``g.agg(total="sum:amount", n="count")``."""
        specs = []
        for alias, spec in aggregates.items():
            if ":" in spec:
                func, column = spec.split(":", 1)
            else:
                func, column = spec, None
            func = func.lower()
            if func not in self._AGGS:
                raise SparkJobError("unknown aggregate %r" % func)
            specs.append((alias, func, column))
        keys = self.keys

        def to_state(row):
            key = tuple(row[k] for k in keys)
            state = []
            for _, func, column in specs:
                value = row[column] if column else None
                if func == "count":
                    state.append(1)
                elif func == "avg":
                    state.append((value if value is not None else 0.0,
                                  0 if value is None else 1))
                else:
                    state.append(value)
            return (key, state)

        def combine(a, b):
            out = []
            for (alias, func, column), x, y in zip(specs, a, b):
                if func == "count":
                    out.append(x + y)
                elif func == "sum":
                    out.append((x or 0) + (y or 0))
                elif func == "min":
                    out.append(x if (y is None or (x is not None and x <= y)) else y)
                elif func == "max":
                    out.append(x if (y is None or (x is not None and x >= y)) else y)
                else:  # avg: (sum, count)
                    out.append((x[0] + y[0], x[1] + y[1]))
            return out

        def finalise(kv):
            key, state = kv
            row = dict(zip(keys, key))
            for (alias, func, _), value in zip(specs, state):
                if func == "avg":
                    total, count = value
                    row[alias] = total / count if count else None
                else:
                    row[alias] = value
            return row

        rdd = self.frame.rdd.map(to_state).reduce_by_key(combine).map(finalise)
        return SparkDataFrame(rdd, keys + [alias for alias, _, _ in specs])
