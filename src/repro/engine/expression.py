"""Vectorised expression evaluation with SQL three-valued logic.

Expressions evaluate in two modes:

* :meth:`Expr.eval` — over a :class:`Batch` (column vectors), returning a
  :class:`~repro.storage.column.ColumnVector`; this is the columnar engine's
  path and is fully vectorised with numpy.
* :meth:`Expr.eval_row` — over a single row dict of physical values; this is
  the row-at-a-time baseline engine's path.

BOOLEAN results use three-valued logic: the value array holds 0/1 and the
null mask marks UNKNOWN.  A WHERE clause keeps a row only when the result
is 1 and not null.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DivisionByZeroError, NumericOverflowError, TypeCheckError
from repro.storage.column import ColumnVector
from repro.types.datatypes import BOOLEAN, DOUBLE, DataType, TypeKind, promote
from repro.types.values import INT_RANGES
from repro.verify import sanitizer


@dataclass
class Batch:
    """A horizontal slice of rows as named column vectors."""

    columns: dict[str, ColumnVector]
    n: int

    @classmethod
    def from_columns(cls, columns: dict[str, ColumnVector]) -> "Batch":
        if sanitizer.ENABLED:
            sanitizer.check_vectors(columns)
        sizes = {len(v) for v in columns.values()}
        if len(sizes) > 1:
            raise ValueError("ragged batch: column lengths %s" % sizes)
        n = sizes.pop() if sizes else 0
        return cls(columns=columns, n=n)

    def filter(self, mask: np.ndarray) -> "Batch":
        """Keep rows where mask is True: the mask becomes row ids once and
        each column is gathered at them; a mask that keeps every row
        returns this batch (whose vectors nobody writes into)."""
        return self if mask.all() else self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Batch":
        return Batch(
            columns={k: v.take(indices) for k, v in self.columns.items()},
            n=int(indices.size),
        )

    @classmethod
    def concat(cls, batches: list["Batch"]) -> "Batch":
        if not batches:
            return cls(columns={}, n=0)
        if len(batches) == 1:
            return batches[0]
        names = batches[0].columns.keys()
        merged = {
            name: ColumnVector.concat([b.columns[name] for b in batches])
            for name in names
        }
        return cls(columns=merged, n=sum(b.n for b in batches))


class Expr:
    """Base class: a typed expression evaluable per-batch or per-row."""

    dtype: DataType = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        raise NotImplementedError

    def eval_row(self, row: dict):
        raise NotImplementedError

    def references(self) -> set[str]:
        """Column names this expression reads."""
        return set()


@dataclass
class ColumnRef(Expr):
    name: str
    dtype: DataType = DOUBLE

    def eval(self, batch: Batch) -> ColumnVector:
        try:
            return batch.columns[self.name]
        except KeyError:
            raise TypeCheckError("column %r not in batch" % self.name) from None

    def eval_row(self, row: dict):
        return row[self.name]

    def references(self) -> set[str]:
        return {self.name}


@dataclass
class Literal(Expr):
    """A constant, stored in physical form."""

    value: object
    dtype: DataType = DOUBLE

    def eval(self, batch: Batch) -> ColumnVector:
        n = batch.n
        np_dtype = self.dtype.numpy_dtype
        nulls = np.ones(n, dtype=bool) if self.value is None else None
        if np_dtype == object:
            # A string constant is a one-entry dictionary, not n objects.
            return ColumnVector.coded(
                self.dtype,
                np.zeros(n, dtype=np.int64),
                _dictionary(["" if self.value is None else self.value]),
                nulls,
            )
        values = np.full(n, 0 if self.value is None else self.value, dtype=np_dtype)
        return ColumnVector(self.dtype, values, nulls)

    def eval_row(self, row: dict):
        return self.value


def _dictionary(entries) -> np.ndarray:
    """A read-only object array over ``entries`` for a coded vector."""
    table = np.empty(len(entries), dtype=object)
    table[:] = entries
    table.flags.writeable = False
    return table


def _null_union(*vectors: ColumnVector) -> np.ndarray | None:
    masks = [v.nulls for v in vectors if v.nulls is not None]
    if not masks:
        return None
    out = masks[0].copy()
    for m in masks[1:]:
        out |= m
    return out


_ARITH_RESULT_CHECKED = {"+", "-", "*", "/", "%", "||"}


@dataclass
class Arith(Expr):
    """Binary arithmetic (+ - * / %) and string concatenation (||)."""

    op: str
    left: Expr
    right: Expr
    dtype: DataType = DOUBLE

    def __post_init__(self):
        if self.op not in _ARITH_RESULT_CHECKED:
            raise TypeCheckError("unknown arithmetic operator %r" % self.op)

    def eval(self, batch: Batch) -> ColumnVector:
        lv = self.left.eval(batch)
        rv = self.right.eval(batch)
        nulls = _null_union(lv, rv)
        values = self._compute(lv.values, rv.values, nulls)
        return ColumnVector(self.dtype, values, nulls)

    def _compute(self, lv: np.ndarray, rv: np.ndarray, nulls) -> np.ndarray:
        if self.op == "||":
            out = np.empty(lv.size, dtype=object)
            for i in range(lv.size):
                out[i] = "%s%s" % (lv[i], rv[i])
            return out
        target = self.dtype.numpy_dtype
        lv = lv.astype(target, copy=False)
        rv = rv.astype(target, copy=False)
        if self.op == "+":
            return lv + rv
        if self.op == "-":
            return lv - rv
        if self.op == "*":
            return lv * rv
        live = np.ones(lv.shape, dtype=bool) if nulls is None else ~nulls
        if self.op == "/":
            if np.any((rv == 0) & live):
                raise DivisionByZeroError()
            safe = np.where(rv == 0, 1, rv)
            if target == np.int64:
                # SQL integer division truncates toward zero.
                result = np.trunc(lv / safe).astype(np.int64)
            else:
                result = lv / safe
            return result
        # modulo
        if np.any((rv == 0) & live):
            raise DivisionByZeroError()
        safe = np.where(rv == 0, 1, rv)
        result = lv - np.trunc(lv / safe) * safe  # sign follows the dividend
        return result.astype(target, copy=False)

    def eval_row(self, row: dict):
        lv = self.left.eval_row(row)
        rv = self.right.eval_row(row)
        if lv is None or rv is None:
            return None
        if self.op == "||":
            return "%s%s" % (lv, rv)
        if self.op == "+":
            result = lv + rv
        elif self.op == "-":
            result = lv - rv
        elif self.op == "*":
            result = lv * rv
        elif self.op == "/":
            if rv == 0:
                raise DivisionByZeroError()
            if self.dtype.numpy_dtype == np.int64:
                result = int(lv / rv) if rv != 0 else 0
            else:
                result = lv / rv
        else:  # %
            if rv == 0:
                raise DivisionByZeroError()
            result = lv - int(lv / rv) * rv
        if self.dtype.numpy_dtype == np.int64:
            return int(result)
        return result

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()


_COMPARE_OPS = {"=", "<>", "<", "<=", ">", ">="}


@dataclass
class Compare(Expr):
    op: str
    left: Expr
    right: Expr
    dtype: DataType = BOOLEAN

    def __post_init__(self):
        if self.op not in _COMPARE_OPS:
            raise TypeCheckError("unknown comparison operator %r" % self.op)
        self.dtype = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        lv = self.left.eval(batch)
        rv = self.right.eval(batch)
        nulls = _null_union(lv, rv)
        left, right = _align_for_compare(lv, rv)
        if self.op == "=":
            result = left == right
        elif self.op == "<>":
            result = left != right
        elif self.op == "<":
            result = left < right
        elif self.op == "<=":
            result = left <= right
        elif self.op == ">":
            result = left > right
        else:
            result = left >= right
        return ColumnVector(BOOLEAN, np.asarray(result, dtype=np.int64), nulls)

    def eval_row(self, row: dict):
        lv = self.left.eval_row(row)
        rv = self.right.eval_row(row)
        if lv is None or rv is None:
            return None
        if self.op == "=":
            return int(lv == rv)
        if self.op == "<>":
            return int(lv != rv)
        if self.op == "<":
            return int(lv < rv)
        if self.op == "<=":
            return int(lv <= rv)
        if self.op == ">":
            return int(lv > rv)
        return int(lv >= rv)

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()


def _align_for_compare(lv: ColumnVector, rv: ColumnVector):
    """Bring two physical arrays to a comparable representation."""
    left, right = lv.values, rv.values
    if left.dtype == object or right.dtype == object:
        return left, right
    if left.dtype != right.dtype:
        left = left.astype(np.float64, copy=False)
        right = right.astype(np.float64, copy=False)
    # Exact numerics with different scales were aligned by the planner via
    # Cast; here dtypes already agree.
    return left, right


@dataclass
class Logical(Expr):
    """AND / OR with three-valued logic."""

    op: str
    operands: list[Expr]
    dtype: DataType = BOOLEAN

    def __post_init__(self):
        if self.op not in ("AND", "OR"):
            raise TypeCheckError("unknown logical operator %r" % self.op)
        self.dtype = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        first = self.operands[0].eval(batch)
        null = first.null_mask().copy()
        true = first.values.astype(bool) & ~null
        for operand in self.operands[1:]:
            other = operand.eval(batch)
            on = other.null_mask()
            ot = other.values.astype(bool) & ~on
            if self.op == "AND":
                # TRUE iff both TRUE; FALSE dominates NULL.
                new_true = true & ot
                known_false = (~true & ~null) | (~ot & ~on)
                null = ~new_true & ~known_false
                true = new_true
            else:
                # TRUE dominates NULL; FALSE iff both FALSE.
                new_true = true | ot
                known_false = (~true & ~null) & (~ot & ~on)
                null = ~new_true & ~known_false
                true = new_true
        return ColumnVector(BOOLEAN, true.astype(np.int64), null if null.any() else None)

    def eval_row(self, row: dict):
        if self.op == "AND":
            saw_null = False
            for operand in self.operands:
                v = operand.eval_row(row)
                if v is None:
                    saw_null = True
                elif not v:
                    return 0
            return None if saw_null else 1
        saw_null = False
        for operand in self.operands:
            v = operand.eval_row(row)
            if v is None:
                saw_null = True
            elif v:
                return 1
        return None if saw_null else 0

    def references(self) -> set[str]:
        out = set()
        for operand in self.operands:
            out |= operand.references()
        return out


@dataclass
class Not(Expr):
    child: Expr
    dtype: DataType = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        v = self.child.eval(batch)
        values = (v.values == 0).astype(np.int64)
        return ColumnVector(BOOLEAN, values, v.nulls)

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        if v is None:
            return None
        return int(not v)

    def references(self) -> set[str]:
        return self.child.references()


@dataclass
class IsNull(Expr):
    child: Expr
    negated: bool = False
    dtype: DataType = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        v = self.child.eval(batch)
        mask = v.null_mask()
        result = (~mask if self.negated else mask).astype(np.int64)
        return ColumnVector(BOOLEAN, result, None)

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        is_null = v is None
        return int(is_null != self.negated)

    def references(self) -> set[str]:
        return self.child.references()


@dataclass
class Between(Expr):
    child: Expr
    low: Expr
    high: Expr
    negated: bool = False
    dtype: DataType = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        inner = Logical(
            "AND",
            [Compare(">=", self.child, self.low), Compare("<=", self.child, self.high)],
        )
        result = inner.eval(batch)
        if self.negated:
            return Not(_Materialised(result)).eval(batch)
        return result

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        lo = self.low.eval_row(row)
        hi = self.high.eval_row(row)
        if v is None or lo is None or hi is None:
            return None
        result = int(lo <= v <= hi)
        return int(not result) if self.negated else result

    def references(self) -> set[str]:
        return self.child.references() | self.low.references() | self.high.references()


@dataclass
class InList(Expr):
    child: Expr
    values: list[object]  # physical constants
    negated: bool = False
    dtype: DataType = BOOLEAN

    def eval(self, batch: Batch) -> ColumnVector:
        v = self.child.eval(batch)
        candidates = [x for x in self.values if x is not None]
        has_null_item = len(candidates) != len(self.values)
        matched = np.isin(v.values, candidates)
        nulls = v.null_mask().copy()
        if has_null_item:
            # x IN (.., NULL) is NULL when unmatched.
            nulls |= ~matched
        if self.negated:
            result = (~matched).astype(np.int64)
        else:
            result = matched.astype(np.int64)
        return ColumnVector(BOOLEAN, result, nulls if nulls.any() else None)

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        if v is None:
            return None
        candidates = [x for x in self.values if x is not None]
        has_null_item = len(candidates) != len(self.values)
        matched = v in candidates
        if not matched and has_null_item:
            return None
        return int(matched != self.negated)

    def references(self) -> set[str]:
        return self.child.references()


@dataclass
class Like(Expr):
    child: Expr
    pattern: str
    negated: bool = False
    escape: str | None = None
    dtype: DataType = BOOLEAN

    def __post_init__(self):
        self._regex = re.compile(_like_to_regex(self.pattern, self.escape), re.S)

    def eval(self, batch: Batch) -> ColumnVector:
        v = self.child.eval(batch)
        out = np.zeros(v.values.size, dtype=np.int64)
        regex = self._regex
        for i, s in enumerate(v.values.tolist()):
            out[i] = 1 if regex.match(str(s)) else 0
        if self.negated:
            out = 1 - out
        return ColumnVector(BOOLEAN, out, v.nulls)

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        if v is None:
            return None
        matched = bool(self._regex.match(str(v)))
        return int(matched != self.negated)

    def references(self) -> set[str]:
        return self.child.references()


def _like_to_regex(pattern: str, escape: str | None) -> str:
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape and ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out) + r"\Z"


@dataclass
class Cast(Expr):
    child: Expr
    dtype: DataType = DOUBLE
    scale_shift: int = 0  # decimal rescaling: multiply by 10**shift

    def __post_init__(self):
        # A DECIMAL -> DECIMAL cast built without a shift (COALESCE / CASE
        # arms brought to one type) rescales by the two declared scales.
        kinds = (self.dtype.kind, self.child.dtype.kind)
        if not self.scale_shift and kinds == (TypeKind.DECIMAL, TypeKind.DECIMAL):
            self.scale_shift = self.dtype.scale - self.child.dtype.scale

    def eval(self, batch: Batch) -> ColumnVector:
        v = self.child.eval(batch)
        if v.codes is not None:
            return _cast_coded(v, self.dtype)
        values = _cast_physical(
            v.values, v.dtype, self.dtype, self.scale_shift, v.nulls
        )
        return ColumnVector(self.dtype, values, v.nulls)

    def eval_row(self, row: dict):
        v = self.child.eval_row(row)
        if v is None:
            return None
        return _cast_physical_scalar(v, self.child.dtype, self.dtype, self.scale_shift)

    def references(self) -> set[str]:
        return self.child.references()


def _cast_physical(values, from_dt, to_dt, scale_shift, nulls):
    from repro.storage.column import to_boundary_scalar, to_physical_scalar

    target = to_dt.numpy_dtype
    if from_dt.kind is TypeKind.DECIMAL and to_dt.kind is TypeKind.DECIMAL:
        if scale_shift >= 0:
            return values * (10 ** scale_shift)
        # Fewer digits truncate toward zero, as DB2's CAST does.
        floor, rest = np.divmod(values, 10 ** (-scale_shift))
        return floor + ((rest != 0) & (values < 0))
    if values.dtype != object:
        if from_dt.is_numeric:
            out = _cast_numeric(values, from_dt, to_dt, nulls)
            if out is not None:
                if nulls is not None:
                    out[nulls] = 0  # the physical filler under NULL
                return out
        elif to_dt.kind is TypeKind.DECIMAL:
            scaled = np.asarray(values, dtype=np.float64) * (10 ** to_dt.scale)
            return np.round(scaled).astype(np.int64)
        elif target != object:
            return values.astype(target)
    # Boundary path (strings <-> anything, and a numeric cast the arrays
    # cannot take): each distinct raw value goes through the scalar
    # conversion once, in first-appearance order so the error of the first
    # bad row is the one raised, then rows gather.
    live = values if nulls is None else values[~nulls]
    raws = live.tolist()
    # Floats are keyed by bit pattern: -0.0 == 0.0 but they print apart.
    keys = live.view(np.int64).tolist() if live.dtype == np.float64 else raws
    converted = dict(zip(keys, raws))
    for key, raw in converted.items():
        converted[key] = to_physical_scalar(to_boundary_scalar(raw, from_dt), to_dt)
    gathered = np.fromiter(map(converted.__getitem__, keys), target, len(keys))
    if nulls is None:
        return gathered
    out = np.full(values.size, "" if target == object else 0, dtype=target)
    out[~nulls] = gathered
    return out


_INT64_MAX = np.iinfo(np.int64).max


def _within(values, low, high) -> bool:
    return not values.size or (low <= values.min() and values.max() <= high)


def _cast_numeric(values, from_dt, to_dt, nulls):
    """Numeric ``values`` cast to ``to_dt`` in whole-array passes, or None
    when there is no such form — a non-numeric target, DOUBLE -> DECIMAL
    (the scalar cast rounds the value's repr) — or when a live value would
    not convert (NaN, out of range): the boundary path then raises the
    scalar cast's error for the first bad row."""
    live = values if nulls is None else values[~nulls]
    if to_dt.is_approximate:
        if from_dt.kind is TypeKind.DECIMAL:
            return values.astype(np.float64) / (10 ** from_dt.scale)
        if from_dt.is_approximate and np.isnan(live).any():
            return None  # NaN is not a SQL number
        return values.astype(np.float64)
    if to_dt.kind is TypeKind.DECIMAL:
        factor = 10 ** to_dt.scale
        if (not from_dt.is_integer or factor > _INT64_MAX
                or not _within(live, -(2**63 // factor), _INT64_MAX // factor)):
            return None
        return values * factor
    if not to_dt.is_integer:
        return None
    low, high = INT_RANGES[to_dt.kind]
    if from_dt.is_approximate:
        truncated = np.trunc(values if nulls is None else np.where(nulls, 0.0, values))
        kept = truncated if nulls is None else truncated[~nulls]
        # float64 holds both bounds exactly (-2**k and 2**k); NaN fails both
        if not ((kept >= float(low)) & (kept < float(high + 1))).all():
            return None
        return truncated.astype(np.int64)
    if from_dt.kind is TypeKind.DECIMAL:
        # Descale half away from zero, as cast_value's ROUND_HALF_UP does.
        unit = 10 ** from_dt.scale
        if unit > _INT64_MAX:
            return None
        floor, rest = np.divmod(values, unit)
        out = floor + ((2 * rest > unit) | ((2 * rest == unit) & (values >= 0)))
    else:
        out = values.astype(np.int64)
    return out if _within(out if nulls is None else out[~nulls], low, high) else None


def _cast_coded(v: ColumnVector, to_dt) -> ColumnVector:
    """Cast a dictionary-coded vector one dictionary entry at a time.

    Every entry a live row references is converted once, in the order rows
    first reference them — so the first bad row decides the error, and an
    entry only NULL slots (or no row) point at is never converted.  A
    string target keeps the codes over the converted dictionary; any other
    target gathers its rows from the converted table.
    """
    from repro.storage.column import to_boundary_scalar, to_physical_scalar

    codes, dictionary = v.codes, v.dictionary
    live = codes if v.nulls is None else codes[~v.nulls]
    first = np.full(dictionary.size, live.size, dtype=np.int64)
    np.minimum.at(first, live, np.arange(live.size))
    referenced = np.flatnonzero(first < live.size)
    referenced = referenced[np.argsort(first[referenced])]
    target = to_dt.numpy_dtype
    table = np.full(dictionary.size, "" if target == object else 0, dtype=target)
    for code, raw in zip(referenced.tolist(), dictionary[referenced].tolist()):
        table[code] = to_physical_scalar(to_boundary_scalar(raw, v.dtype), to_dt)
    if target == object:
        table.flags.writeable = False
        return ColumnVector.coded(to_dt, codes, table, v.nulls)
    values = table[codes]
    if v.nulls is not None:
        values[v.nulls] = 0
    return ColumnVector(to_dt, values, v.nulls)


def _cast_physical_scalar(value, from_dt, to_dt, scale_shift):
    from repro.storage.column import to_boundary_scalar, to_physical_scalar

    if from_dt.kind is TypeKind.DECIMAL and to_dt.kind is TypeKind.DECIMAL:
        if scale_shift >= 0:
            return value * (10 ** scale_shift)
        unit = 10 ** (-scale_shift)
        return value // unit if value >= 0 else -(-value // unit)
    boundary = to_boundary_scalar(value, from_dt)
    return to_physical_scalar(boundary, to_dt)


@dataclass
class CaseExpr(Expr):
    """Searched CASE: WHEN <cond> THEN <value> ... ELSE <value> END."""

    whens: list[tuple[Expr, Expr]]
    default: Expr | None
    dtype: DataType = DOUBLE

    def eval(self, batch: Batch) -> ColumnVector:
        n = batch.n
        np_dtype = self.dtype.numpy_dtype
        # A string CASE stays coded: ``values`` holds positions into the
        # branch dictionaries laid end to end (a plain branch brings the
        # rows it decides as its own dictionary).
        coded = np_dtype == object
        values = np.zeros(n, dtype=np.int64 if coded else np_dtype)
        dictionaries = [_dictionary([""])] if coded else None  # undecided rows
        nulls = np.ones(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)

        def decide(rows, rv):
            """Take the rows at ids ``rows`` from the branch vector ``rv``."""
            if not coded:
                values[rows] = rv.values[rows]
            else:
                offset = sum(d.size for d in dictionaries)
                if rv.codes is not None:
                    values[rows] = rv.codes[rows] + offset
                    dictionaries.append(rv.dictionary)
                else:
                    dictionaries.append(rv.values[rows])
                    values[rows] = np.arange(offset, offset + rows.size)
            nulls[rows] = False if rv.nulls is None else rv.nulls[rows]
            decided[rows] = True

        for cond, result in self.whens:
            cv = cond.eval(batch)
            fire = cv.values.astype(bool) & ~decided
            if cv.nulls is not None:
                fire &= ~cv.nulls
            rows = np.flatnonzero(fire)
            if rows.size:
                decide(rows, result.eval(batch))
        if self.default is not None:
            rows = np.flatnonzero(~decided)
            if rows.size:
                decide(rows, self.default.eval(batch))
        nulls = nulls if nulls.any() else None
        if not coded:
            return ColumnVector(self.dtype, values, nulls)
        dictionary = np.concatenate(dictionaries)
        dictionary.flags.writeable = False
        return ColumnVector.coded(self.dtype, values, dictionary, nulls)

    def eval_row(self, row: dict):
        for cond, result in self.whens:
            c = cond.eval_row(row)
            if c:
                return result.eval_row(row)
        if self.default is not None:
            return self.default.eval_row(row)
        return None

    def references(self) -> set[str]:
        out = set()
        for cond, result in self.whens:
            out |= cond.references() | result.references()
        if self.default is not None:
            out |= self.default.references()
        return out


@dataclass
class FuncCall(Expr):
    """A scalar function call.

    ``vector_fn(args: list[ColumnVector], batch) -> ColumnVector`` and
    ``scalar_fn(args: list[physical|None]) -> physical|None`` come from the
    SQL function registry (:mod:`repro.sql.functions`).
    """

    name: str
    args: list[Expr]
    vector_fn: object = None
    scalar_fn: object = None
    dtype: DataType = DOUBLE

    def eval(self, batch: Batch) -> ColumnVector:
        arg_vectors = [a.eval(batch) for a in self.args]
        if self.vector_fn is not None:
            return self.vector_fn(arg_vectors, batch, self.dtype)
        # Fall back to row-wise application of the scalar function.
        n = batch.n
        np_dtype = self.dtype.numpy_dtype
        filler = "" if np_dtype == object else 0
        values = np.full(n, filler, dtype=np_dtype)
        nulls = np.zeros(n, dtype=bool)
        masks = [v.null_mask() for v in arg_vectors]
        lists = [v.values.tolist() for v in arg_vectors]
        for i in range(n):
            args = [
                None if masks[j][i] else lists[j][i] for j in range(len(arg_vectors))
            ]
            result = self.scalar_fn(args)
            if result is None:
                nulls[i] = True
                continue
            try:
                values[i] = result
            except OverflowError:
                raise NumericOverflowError(
                    "%s result out of range for %s" % (self.name, self.dtype)
                ) from None
        return ColumnVector(self.dtype, values, nulls if nulls.any() else None)

    def eval_row(self, row: dict):
        args = [a.eval_row(row) for a in self.args]
        return self.scalar_fn(args)

    def references(self) -> set[str]:
        out = set()
        for a in self.args:
            out |= a.references()
        return out


@dataclass
class _Materialised(Expr):
    """Wrap an already-computed vector as an expression (internal)."""

    vector: ColumnVector
    dtype: DataType = BOOLEAN

    def __post_init__(self):
        self.dtype = self.vector.dtype

    def eval(self, batch: Batch) -> ColumnVector:
        return self.vector


def selection_mask(predicate: Expr, batch: Batch) -> np.ndarray:
    """Evaluate a predicate and return the rows it keeps (TRUE only)."""
    result = predicate.eval(batch)
    return result.values.astype(bool) & ~result.null_mask()


def make_arith(op: str, left: Expr, right: Expr) -> Arith:
    """Build an Arith node with SQL result typing (scale alignment for
    exact numerics is the planner's job; here we derive the output type)."""
    if op == "||":
        from repro.types.datatypes import varchar_type

        return Arith(op, left, right, varchar_type())
    result = promote(left.dtype, right.dtype)
    if op == "/" and result.kind is TypeKind.DECIMAL:
        result = DOUBLE
    if result.kind is TypeKind.DECIMAL:
        left, right, result = _align_decimals(op, left, right, result)
    elif result.is_approximate:
        # Mixed decimal/approximate arithmetic: descale the decimal side.
        if left.dtype.kind is TypeKind.DECIMAL:
            left = Cast(left, result)
        if right.dtype.kind is TypeKind.DECIMAL:
            right = Cast(right, result)
    return Arith(op, left, right, result)


def _align_decimals(op, left, right, result):
    """Rescale decimal operands so int64 arithmetic is exact."""
    from repro.types.datatypes import decimal_type

    def scale_of(e: Expr) -> int:
        return e.dtype.scale if e.dtype.kind is TypeKind.DECIMAL else 0

    ls, rs = scale_of(left), scale_of(right)
    if op in ("+", "-", "%"):
        target = max(ls, rs)
        if ls < target:
            left = Cast(left, decimal_type(31, target), scale_shift=target - ls)
        if rs < target:
            right = Cast(right, decimal_type(31, target), scale_shift=target - rs)
        return left, right, decimal_type(31, target)
    if op == "*":
        return left, right, decimal_type(31, min(31, ls + rs))
    return left, right, result
