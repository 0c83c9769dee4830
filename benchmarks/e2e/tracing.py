"""Outside-in span recorder for the e2e benchmark.

Nothing under ``src/`` knows about this tracer.  :class:`SpanRecorder`
swaps timing wrappers over a fixed table of public callables
(:data:`TARGETS`), runs one traced pass, and swaps the originals back.
Each span records name, start, end, the span that caused it and the index
of the benchmark op it belongs to.  A layer's *self* time is the span's
busy time minus the part its child spans cover.

Operator ``execute`` generators are timed per ``next()`` (as
``repro.monitor.instrument.InstrumentedOp`` does), so a pipelined parent
is never charged for time spent in its consumer.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

# Span record layout (a list, mutated in place while the span is open).
NAME, PARENT, OP, START, END, BUSY, CHILD, TAG = range(8)


def _db_name(database) -> str:
    return database.name


def _invoke(fn, *args):
    return fn(*args)


#: (module, dotted attribute, kind, tag) — kind is "fn" (module-level
#: function, rebound in every ``repro`` module that imported it by name),
#: "method", "outer" (a recursive method: only the outermost activation
#: opens a span) or "gen" (generator method).  ``tag`` labels a span with a
#: property of ``self`` (which engine a Database span ran on).
TARGETS = [
    ("repro.sql.parser", "parse_statement", "fn", None),
    ("repro.serving.normalize", "statement_key", "fn", None),
    ("repro.sql.planner", "SelectPlanner.plan", "method", None),
    ("repro.sql.planner", "PlannedQuery.run", "method", None),
    ("repro.engine.operators", "TableScanOp.execute", "gen", None),
    ("repro.engine.operators", "FilterOp.execute", "gen", None),
    ("repro.engine.operators", "ProjectOp.execute", "gen", None),
    ("repro.engine.join", "HashJoinOp.execute", "gen", None),
    ("repro.engine.aggregate", "GroupByOp.execute", "gen", None),
    ("repro.engine.sort", "SortOp.execute", "gen", None),
    ("repro.database.result", "result_from_batch", "fn", None),
    ("repro.database.database", "Database.execute", "method", _db_name),
    ("repro.database.database", "Database.execute_ast", "method", _db_name),
    ("repro.database.database", "Database.checkpoint", "method", _db_name),
    ("repro.database.database", "Database.reopen", "method", _db_name),
    ("repro.database.database", "Database.evaluate_rows", "method", None),
    ("repro.mvcc.txn", "TxnManager.begin", "method", None),
    ("repro.mvcc.txn", "TxnManager.snapshot", "method", None),
    ("repro.mvcc.txn", "Transaction.commit", "method", None),
    ("repro.durability.manager", "DurabilityManager.commit", "method", None),
    ("repro.durability.manager", "DurabilityManager.flush", "method", None),
    ("repro.durability.manager", "DurabilityManager.checkpoint", "method", None),
    ("repro.durability.manager", "DurabilityManager.recover", "method", None),
    ("repro.durability.wal", "WriteAheadLog.append", "method", None),
    ("repro.durability.wal", "WriteAheadLog.flush", "method", None),
    ("repro.storage.table", "ColumnTable.insert_rows", "method", None),
    ("repro.storage.table", "ColumnTable.flush", "method", None),
    ("repro.storage.table", "ColumnTable.capture", "method", None),
    ("repro.storage.table", "ColumnTable.column_vector", "method", None),
    ("repro.storage.table", "ColumnTable.visible_mask", "method", None),
    ("repro.storage.table", "ColumnTable.apply_deletes", "method", None),
    # Small steps of the write path, wrapped so that the statement span's
    # unexplained remainder (trace.coverage) stays small on ``etl``.
    ("repro.sql.binder", "ExpressionBinder.bind", "outer", None),
    ("repro.engine.expression", "Batch.filter", "method", None),
    ("repro.engine.expression", "selection_mask", "fn", None),
    ("repro.storage.column", "to_boundary_scalar", "fn", None),
    ("repro.durability.manager", "DurabilityManager.log_op", "method", None),
    ("repro.durability.manager", "DurabilityManager.log_insert", "method", None),
    ("repro.durability.manager", "DurabilityManager.log_delete", "method", None),
    ("repro.database.session", "Session.record_statement", "method", None),
    ("repro.catalog.catalog", "Catalog.create_table", "method", None),
    ("repro.catalog.catalog", "Catalog.drop", "method", None),
    ("repro.bufferpool.pool", "BufferPool.invalidate_table", "method", None),
    ("repro.serving.gateway", "ServingGateway.execute", "method", None),
    ("repro.serving.cache", "ResultCache.fetch", "method", None),
    ("repro.serving.admission", "LiveAdmission.acquire", "method", None),
    ("repro.cluster.mpp", "Cluster.execute", "method", None),
]


def resolve(module_name: str, dotted: str):
    """``(owner, attribute name, callable)`` for one target; raises
    AttributeError/ImportError when a public name has moved."""
    owner = importlib.import_module(module_name)
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def resolve_all() -> None:
    """Resolve every wrapper target; the smoke run calls this so a renamed
    public function fails loudly instead of yielding a silent zero."""
    for module_name, dotted, _kind, _tag in TARGETS:
        _owner, _leaf, fn = resolve(module_name, dotted)
        if not callable(fn):
            raise TypeError("%s.%s is not callable" % (module_name, dotted))


class SpanRecorder:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # index of the benchmark op being executed
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple] = []
        self._root = self._wrap_call("op", _invoke, None)

    # -- wrapper factories ---------------------------------------------------

    def _open(self, name, tag, start):
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(
            [name, stack[-1] if stack else -1, self.op, start, 0.0, 0.0, 0.0, tag]
        )
        stack.append(sid)
        return sid

    def _wrap_call(self, name, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            # The clock is read first, so opening the span is charged to
            # this span and not to its parent's self time.
            start = clock()
            sid = self._open(name, tagger(args[0]) if tagger else None, start)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record = spans[sid]
                end = clock()
                record[END], record[BUSY] = end, end - start
                if stack:
                    spans[stack[-1]][CHILD] += end - start

        traced.__wrapped__ = fn
        return traced

    def _wrap_outermost(self, name, fn):
        traced = self._wrap_call(name, fn, None)
        depth = [0]

        def outermost(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] = 0

        outermost.__wrapped__ = fn
        return outermost

    def _wrap_generator(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(op):
            if threading.get_ident() != self._thread:
                return fn(op)
            return pump(fn(op))

        def pump(inner):
            # Runs at the first next(): the parent is whoever pulls first.
            start = clock()
            sid = self._open(name, None, start)
            record = spans[sid]
            while True:
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    end = clock()
                    record[END] = end
                    record[BUSY] += end - start
                    if stack:
                        spans[stack[-1]][CHILD] += end - start
                yield batch
                start = clock()
                stack.append(sid)

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for module_name, dotted, kind, tagger in TARGETS:
            owner, leaf, fn = resolve(module_name, dotted)
            name = dotted
            if kind == "gen":
                wrapper = self._wrap_generator(name, fn)
            elif kind == "outer":
                wrapper = self._wrap_outermost(name, fn)
            else:
                wrapper = self._wrap_call(name, fn, tagger)
            if kind == "fn":
                # ``from x import f`` copies the binding: rebind every
                # loaded repro module that holds the original.
                for mod_name, module in list(sys.modules.items()):
                    if module is None or not mod_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, fn))
            else:
                setattr(owner, leaf, wrapper)
                self._undo.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- harness-side spans ----------------------------------------------------

    def root(self, op_index: int, fn, *args):
        """Run one benchmark op under a root span named ``op``."""
        self.op = op_index
        try:
            return self._root(fn, *args)
        finally:
            self.op = -1

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": s[NAME],
                            "parent": s[PARENT],
                            "op": s[OP],
                            "start_us": round(s[START] * 1e6, 1),
                            "end_us": round(s[END] * 1e6, 1),
                            "busy_us": round(s[BUSY] * 1e6, 1),
                            "self_us": round((s[BUSY] - s[CHILD]) * 1e6, 1),
                            "tag": s[TAG],
                        }
                    )
                )
                handle.write("\n")


class SpanIndex:
    """Per-op aggregates over a finished recording."""

    def __init__(self, spans: list[list]):
        self.spans = spans

    def self_by_op(self, *names) -> dict[int, float]:
        """op -> summed self seconds of spans with one of *names*."""
        wanted = set(names)
        out: dict[int, float] = {}
        for s in self.spans:
            if s[NAME] in wanted and s[OP] >= 0:
                out[s[OP]] = out.get(s[OP], 0.0) + (s[BUSY] - s[CHILD])
        return out

    def outer_by_op(self, *names, tag_prefix: str | None = None) -> dict[int, float]:
        """op -> summed busy seconds of the outermost spans named *names*
        (a span nested under another of the same set is not counted
        twice).  ``tag_prefix`` keeps only spans whose tag starts so."""
        wanted = set(names)
        spans = self.spans
        out: dict[int, float] = {}
        for s in spans:
            if s[NAME] not in wanted or s[OP] < 0:
                continue
            if tag_prefix is not None and not str(s[TAG]).startswith(tag_prefix):
                continue
            parent = s[PARENT]
            nested = False
            while parent >= 0:
                p = spans[parent]
                if p[NAME] in wanted and (
                    tag_prefix is None or str(p[TAG]).startswith(tag_prefix)
                ):
                    nested = True
                    break
                parent = p[PARENT]
            if not nested:
                out[s[OP]] = out.get(s[OP], 0.0) + s[BUSY]
        return out

    def coverage(self) -> float:
        """Share of the statement entry spans (the first wrapped call under
        each ``op`` root) that their own child spans cover."""
        total = covered = 0.0
        for s in self.spans:
            if s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == "op":
                total += s[BUSY]
                covered += s[CHILD]
        return covered / total if total else 0.0
