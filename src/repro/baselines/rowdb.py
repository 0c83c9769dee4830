"""A row-store SQL database: the baseline engine behind the appliance.

Reuses the SQL front end (parser + binder) but executes everything through
the row-at-a-time engine (:mod:`repro.engine.row_engine`) over
:class:`~repro.storage.rowtable.RowTable` storage with secondary B-tree
indexes — i.e. "row-organized tables with secondary indexing" from the
paper's 10-50x claim (II.B.7).  The supported SQL surface covers the shapes
the workload generators emit: filtered scans, star joins, GROUP BY
aggregation, ORDER BY / FETCH FIRST, and the full DML/DDL statement mix.
"""

from __future__ import annotations

from repro.database.database import insert_targets, schema_rows
from repro.database.result import Result
from repro.engine.aggregate import AggregateSpec
from repro.engine.expression import ColumnRef, Expr
from repro.engine.operators import SimplePredicate
from repro.engine.row_engine import (
    RowFilter,
    RowGroupBy,
    RowHashJoin,
    RowLimit,
    RowOperator,
    RowProject,
    RowScan,
    RowSort,
    RowSource,
)
from repro.engine.sort import SortKey
from repro.errors import (
    DuplicateObjectError,
    SQLError,
    UnknownObjectError,
    UnsupportedFeatureError,
)
from repro.sql import ast
from repro.sql.binder import ExpressionBinder, Scope, ScopeColumn
from repro.sql.dialects import get_dialect, resolve_type
from repro.sql.parser import parse_statement
from repro.sql.planner import _conjuncts, _default_name, _simple_predicate, expand_stars
from repro.storage.column import to_boundary_scalar
from repro.storage.rowtable import RowTable
from repro.storage.table import TableSchema


class _RenamingScan(RowOperator):
    """Wrap a RowScan, renaming bare column names to qualified keys."""

    def __init__(self, scan: RowScan, alias: str):
        self.scan = scan
        self.alias = alias

    def rows(self):
        prefix = self.alias + "."
        for row in self.scan.rows():
            yield {prefix + k: v for k, v in row.items()}


class RowDatabase:
    """A miniature row-store DBMS sharing the dialect-aware SQL front end."""

    def __init__(self, dialect: str = "db2", auto_index_keys: bool = True):
        self.dialect = get_dialect(dialect)
        self.tables: dict[str, RowTable] = {}
        self.auto_index_keys = auto_index_keys
        self.statement_count = 0
        self.rows_examined = 0

    # -- catalogue ---------------------------------------------------------------

    def table(self, name: str) -> RowTable:
        table = self.tables.get(name.upper())
        if table is None:
            raise UnknownObjectError("no table %s" % name.upper())
        return table

    def create_index(self, table: str, column: str) -> None:
        self.table(table).create_index(column.upper())

    # -- execution ------------------------------------------------------------------

    def execute(self, sql: str) -> Result:
        self.statement_count += 1
        node = parse_statement(sql)
        if isinstance(node, ast.Select):
            return self._execute_select(node)
        if isinstance(node, ast.Insert):
            return self._execute_insert(node)
        if isinstance(node, ast.Update):
            return self._execute_update(node)
        if isinstance(node, ast.Delete):
            return self._execute_delete(node)
        if isinstance(node, ast.CreateTable):
            return self._execute_create(node)
        if isinstance(node, ast.DropTable):
            return self._execute_drop(node)
        if isinstance(node, ast.TruncateTable):
            self.table(node.name.name).truncate()
            return Result(message="truncated")
        if isinstance(node, ast.ExplainStatement):
            return Result(columns=["PLAN"], rows=[("row-store plan",)], rowcount=1)
        raise UnsupportedFeatureError(
            "row database does not support %s" % type(node).__name__
        )

    # -- DDL / DML ---------------------------------------------------------------------

    def _execute_create(self, node: ast.CreateTable) -> Result:
        name = node.name.name.upper()
        if name in self.tables:
            raise DuplicateObjectError("table %s exists" % name)
        columns = tuple(
            (c.name.upper(), resolve_type(c.type_name, c.length, c.precision, c.scale))
            for c in node.columns
        )
        table = RowTable(
            TableSchema(name, columns),
            unique_columns=tuple(
                c.name.upper() for c in node.columns if c.primary_key or c.unique
            ),
            not_null_columns=tuple(c.name.upper() for c in node.columns if c.not_null),
        )
        self.tables[name] = table
        if self.auto_index_keys:
            for column in table.unique_columns:
                table.create_index(column)
        return Result(message="table %s created" % name)

    def _execute_drop(self, node: ast.DropTable) -> Result:
        name = node.name.name.upper()
        if name not in self.tables:
            if node.if_exists:
                return Result(message="did not exist")
            raise UnknownObjectError("no table %s" % name)
        del self.tables[name]
        return Result(message="table %s dropped" % name)

    def _binder_for_constants(self) -> ExpressionBinder:
        return ExpressionBinder(Scope([]), self.dialect, None)

    def _execute_insert(self, node: ast.Insert) -> Result:
        table = self.table(node.table.name)
        targets = insert_targets(node, table.schema)
        binder = self._binder_for_constants()
        if node.rows is None:
            raw_rows = self._execute_select(node.select).rows
        else:
            raw_rows = []
            for ast_row in node.rows:
                row = []
                for expr_node in ast_row:
                    expr = binder.bind(expr_node)
                    row.append(to_boundary_scalar(expr.eval_row({}), expr.dtype))
                raw_rows.append(tuple(row))
        rows = schema_rows(raw_rows, targets, table.schema.column_names)
        return Result(rowcount=table.insert_rows(rows))

    def _match_ids(self, table: RowTable, alias: str, where) -> list[int]:
        scope, binder = self._table_scope(table, alias)
        pushed, residual = self._split_where(where, scope, binder, alias)
        names = table.schema.column_names
        matched = []
        prefix = alias + "."
        for row_id, raw in table.scan():
            row = {prefix + n: v for n, v in zip(names, raw)}
            keep = True
            for pred in pushed:
                if not pred.eval_row_value(row[prefix + pred.column]):
                    keep = False
                    break
            if keep and residual is not None and not residual.eval_row(row):
                keep = False
            if keep:
                matched.append(row_id)
            self.rows_examined += 1
        return matched

    def _execute_update(self, node: ast.Update) -> Result:
        table = self.table(node.table.name)
        alias = (node.table.alias or node.table.name).upper()
        scope, binder = self._table_scope(table, alias)
        ids = self._match_ids(table, alias, node.where)
        for column, _ in node.assignments:
            table.schema.column_index(column.upper())  # BindError if it lacks one
        assignments = [
            (c.upper(), binder.bind(e)) for c, e in node.assignments
        ]
        names = table.schema.column_names
        prefix = alias + "."
        changes = []
        for row_id in ids:
            row = {prefix + n: v for n, v in zip(names, table.fetch(row_id))}
            updates = {}
            for cname, expr in assignments:
                value = expr.eval_row(row)
                updates[cname] = (
                    None if value is None else to_boundary_scalar(value, expr.dtype)
                )
            changes.append((row_id, updates))
        return Result(rowcount=table.update_rows(changes))

    def _execute_delete(self, node: ast.Delete) -> Result:
        table = self.table(node.table.name)
        alias = (node.table.alias or node.table.name).upper()
        ids = self._match_ids(table, alias, node.where)
        return Result(rowcount=table.delete_ids(ids))

    # -- SELECT ---------------------------------------------------------------------------

    def _table_scope(self, table: RowTable, alias: str):
        columns = [
            ScopeColumn("%s.%s" % (alias, n.upper()), n.upper(), alias, dt)
            for n, dt in table.schema.columns
        ]
        scope = Scope(columns)
        binder = ExpressionBinder(scope, self.dialect, None)
        return scope, binder

    def _split_where(self, where, scope, binder, *aliases_with_index):
        pushed: list[SimplePredicate] = []
        residual_parts: list[Expr] = []
        equi_edges = []
        for conjunct in _conjuncts(where):
            simple = _simple_predicate(conjunct, scope, binder, self.dialect)
            if simple is not None:
                column, pred = simple
                pushed.append((column.qualifier, pred))
                continue
            bound = binder.bind(conjunct)
            edge = self._equi(bound)
            if edge is not None:
                equi_edges.append(edge)
            else:
                residual_parts.append(bound)
        residual = None
        if residual_parts:
            from repro.engine.expression import Logical

            residual = (
                residual_parts[0]
                if len(residual_parts) == 1
                else Logical("AND", residual_parts)
            )
        if aliases_with_index:
            # single-table mode: flatten pushed list
            flat = [p for _, p in pushed]
            return flat, residual
        return pushed, equi_edges, residual

    @staticmethod
    def _equi(bound):
        from repro.engine.expression import Compare

        if (
            isinstance(bound, Compare)
            and bound.op == "="
            and isinstance(bound.left, ColumnRef)
            and isinstance(bound.right, ColumnRef)
            and bound.left.name.split(".")[0] != bound.right.name.split(".")[0]
        ):
            return (bound.left.name, bound.right.name)
        return None

    def _execute_select(self, node: ast.Select) -> Result:
        if node.set_op is not None or node.connect_by:
            raise UnsupportedFeatureError("row database supports plain SELECT blocks")
        if node.ctes:
            return self._execute_with_ctes(node)
        refs = []
        for item in node.from_items:
            refs.extend(self._flatten_from(item))
        if not refs:
            raise UnsupportedFeatureError("row database requires a FROM clause")
        join_conditions = [cond for _, cond in refs if cond is not None]
        scope_columns = []
        alias_tables = {}
        for (ref, _) in refs:
            alias = (ref.alias or ref.name).upper()
            table = self.table(ref.name)
            alias_tables[alias] = table
            scope_columns.extend(
                ScopeColumn("%s.%s" % (alias, n.upper()), n.upper(), alias, dt)
                for n, dt in table.schema.columns
            )
        scope = Scope(scope_columns)
        binder = ExpressionBinder(scope, self.dialect, None)
        pushed_pairs, equi_edges, residual = self._split_where(node.where, scope, binder)
        residual_parts = [] if residual is None else [residual]
        for cond in join_conditions:
            for conjunct in _conjuncts(cond):
                bound = binder.bind(conjunct)
                edge = self._equi(bound)
                if edge is not None:
                    equi_edges.append(edge)
                else:
                    residual_parts.append(bound)
        if residual_parts:
            from repro.engine.expression import Logical

            residual = (
                residual_parts[0]
                if len(residual_parts) == 1
                else Logical("AND", residual_parts)
            )
        # Build scan per alias with its pushed predicates.
        pushed_by_alias: dict[str, list[SimplePredicate]] = {}
        for qualifier, pred in pushed_pairs:
            pushed_by_alias.setdefault(qualifier, []).append(pred)
        operators: dict[str, RowOperator] = {}
        scans: dict[str, RowScan] = {}
        for alias, table in alias_tables.items():
            scan = RowScan(table, pushed=pushed_by_alias.get(alias, []))
            scans[alias] = scan
            operators[alias] = _RenamingScan(scan, alias)
        # Join chain (hash joins in edge order; cross join if unconnected).
        op, joined = self._join_chain(operators, equi_edges)
        if residual is not None:
            op = RowFilter(op, residual)
        # Aggregation and output.
        out_binder = ExpressionBinder(scope, self.dialect, None, allow_aggregates=True)
        items = expand_stars(node.items, scope)
        bound_items = []
        for index, item in enumerate(items):
            expr = out_binder.bind(item.expr)
            bound_items.append(((item.alias or _default_name(item.expr, index)).upper(), expr))
        group_exprs = [out_binder.bind(g) if not isinstance(g, ast.NumberLit)
                       else bound_items[int(g.text) - 1][1]
                       for g in node.group_by]
        having = out_binder.bind(node.having) if node.having is not None else None
        if out_binder.aggregates or group_exprs:
            op, bound_items, having = self._apply_grouping(
                op, bound_items, group_exprs, out_binder, having
            )
        if having is not None:
            op = RowFilter(op, having)
        keys = ["__C%d" % i for i in range(len(bound_items))]
        op = RowProject(op, [(k, e) for k, (_, e) in zip(keys, bound_items)])
        if node.distinct:
            op = _RowDistinct(op, keys)
        if node.order_by:
            op = RowSort(op, self._order_keys(node, bound_items, keys))
        from repro.sql.planner import _const_int

        limit = _const_int(node.limit)
        offset = _const_int(node.offset) or 0
        if limit is not None or offset:
            op = RowLimit(op, limit, offset)
        rows = op.run()
        for scan in scans.values():
            self.rows_examined += scan.rows_examined
        names = [n for n, _ in bound_items]
        dtypes = [e.dtype for _, e in bound_items]
        out_rows = [
            tuple(
                to_boundary_scalar(row[k], dt) if row[k] is not None else None
                for k, dt in zip(keys, dtypes)
            )
            for row in rows
        ]
        return Result(columns=names, rows=out_rows, rowcount=len(out_rows), dtypes=dtypes)

    def _execute_with_ctes(self, node: ast.Select) -> Result:
        """WITH support by materialising each CTE as a temporary table."""
        created = []
        try:
            for name, cte_select, column_names in node.ctes:
                result = self._execute_select(cte_select)
                names = column_names or result.columns
                columns = tuple(
                    (n.upper(), dt) for n, dt in zip(names, result.dtypes)
                )
                table = RowTable(TableSchema(name.upper(), columns))
                table.insert_rows([list(r) for r in result.rows])
                if name.upper() in self.tables:
                    raise DuplicateObjectError("CTE name %s collides" % name)
                self.tables[name.upper()] = table
                created.append(name.upper())
            body = ast.Select(
                items=node.items,
                distinct=node.distinct,
                from_items=node.from_items,
                where=node.where,
                group_by=node.group_by,
                having=node.having,
                order_by=node.order_by,
                limit=node.limit,
                limit_syntax=node.limit_syntax,
                offset=node.offset,
            )
            return self._execute_select(body)
        finally:
            for name in created:
                self.tables.pop(name, None)

    def _flatten_from(self, item):
        if isinstance(item, ast.TableRef):
            return [(item, None)]
        if isinstance(item, ast.Join):
            if item.kind != "inner" or item.using is not None:
                raise UnsupportedFeatureError("row database joins are inner ON joins")
            right = self._flatten_from(item.right)
            if len(right) != 1:
                raise UnsupportedFeatureError("row database joins must be left-deep")
            return self._flatten_from(item.left) + [(right[0][0], item.condition)]
        raise UnsupportedFeatureError("unsupported FROM item in row database")

    def _join_chain(self, operators: dict[str, RowOperator], edges):
        aliases = list(operators)
        current_alias = aliases[0]
        op = operators[current_alias]
        joined = {current_alias}
        remaining = set(aliases[1:])
        pending = list(edges)
        while remaining:
            progressed = False
            for edge in list(pending):
                left_alias = edge[0].split(".")[0]
                right_alias = edge[1].split(".")[0]
                if left_alias in joined and right_alias in remaining:
                    op = RowHashJoin(op, operators[right_alias], edge[0], edge[1])
                    joined.add(right_alias)
                    remaining.discard(right_alias)
                    pending.remove(edge)
                    progressed = True
                elif right_alias in joined and left_alias in remaining:
                    op = RowHashJoin(op, operators[left_alias], edge[1], edge[0])
                    joined.add(left_alias)
                    remaining.discard(left_alias)
                    pending.remove(edge)
                    progressed = True
            if not progressed:
                raise UnsupportedFeatureError("row database requires connected joins")
        # Leftover (redundant) equality edges act as filters.
        if pending:
            from repro.engine.expression import Compare, Logical

            conditions = [
                Compare("=", ColumnRef(a), ColumnRef(b)) for a, b in pending
            ]
            condition = conditions[0] if len(conditions) == 1 else Logical("AND", conditions)
            op = RowFilter(op, condition)
        return op, joined

    def _apply_grouping(self, op, bound_items, group_exprs, binder, having):
        from repro.sql.planner import _expr_signature, _rewrite_groups

        keys = [("__KEY%d" % i, expr) for i, expr in enumerate(group_exprs)]
        group_op = RowGroupBy(op, keys=keys, aggregates=binder.aggregates)
        signatures = {
            _expr_signature(expr): ("__KEY%d" % i, expr.dtype)
            for i, expr in enumerate(group_exprs)
        }
        agg_aliases = {s.alias for s in binder.aggregates}
        new_items = [
            (name, _rewrite_groups(expr, signatures, agg_aliases))
            for name, expr in bound_items
        ]
        if having is not None:
            having = _rewrite_groups(having, signatures, agg_aliases)
        return group_op, new_items, having

    def _order_keys(self, node, bound_items, keys):
        order = []
        names = [n for n, _ in bound_items]
        for item in node.order_by:
            if isinstance(item.expr, ast.NumberLit):
                index = int(item.expr.text) - 1
                expr = ColumnRef(keys[index], bound_items[index][1].dtype)
            elif (
                isinstance(item.expr, ast.Identifier)
                and len(item.expr.parts) == 1
                and item.expr.parts[0].upper() in names
            ):
                index = names.index(item.expr.parts[0].upper())
                expr = ColumnRef(keys[index], bound_items[index][1].dtype)
            else:
                raise UnsupportedFeatureError(
                    "row database ORDER BY needs ordinals or output names"
                )
            order.append(SortKey(expr, item.ascending, item.nulls_first))
        return order


class _RowDistinct(RowOperator):
    def __init__(self, child: RowOperator, keys: list[str]):
        self.child = child
        self.keys = keys

    def rows(self):
        seen = set()
        for row in self.child.rows():
            key = tuple(row[k] for k in self.keys)
            if key not in seen:
                seen.add(key)
                yield row
