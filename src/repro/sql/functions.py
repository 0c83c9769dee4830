"""Scalar-function registry: infrastructure plus the ANSI core set.

Each function is registered as a *builder*: given bound argument
expressions it validates arity, derives the result type, and returns an
engine expression (usually a :class:`~repro.engine.expression.FuncCall`
with a scalar implementation over physical values, sometimes a rewrite to
other expression nodes — e.g. ``NVL`` becomes ``COALESCE`` which becomes a
CASE-like evaluation).

Scalar implementations receive *physical* values (dates as day numbers,
decimals as scaled integers, strings as str) together with the argument
types captured at bind time, and return a physical value or None.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

from repro.engine.expression import Cast, Expr, FuncCall, Literal
from repro.errors import NumericOverflowError, TypeCheckError
from repro.storage.column import to_boundary_scalar, to_physical_scalar
from repro.types.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    TIME,
    TIMESTAMP,
    DataType,
    TypeKind,
    promote,
    varchar_type,
)
from repro.types.values import days_to_date, date_to_days
from repro.util.rng import derive_rng


@dataclass
class BuildContext:
    """What a function builder may consult."""

    dialect: object  # repro.sql.dialects.Dialect
    database: object | None = None  # for CURRENT_DATE etc.


class FunctionRegistry:
    """name -> builder(args: list[Expr], ctx) -> Expr."""

    def __init__(self, parent: "FunctionRegistry | None" = None):
        self._builders: dict[str, object] = {}
        self._parent = parent

    def register(self, name: str, builder) -> None:
        self._builders[name.upper()] = builder

    def lookup(self, name: str):
        key = name.upper()
        if key in self._builders:
            return self._builders[key]
        if self._parent is not None:
            return self._parent.lookup(key)
        return None

    def names(self) -> set[str]:
        own = set(self._builders)
        if self._parent is not None:
            own |= self._parent.names()
        return own


def check_arity(name: str, args: list, low: int, high: int | None) -> None:
    n = len(args)
    if n < low or (high is not None and n > high):
        expected = str(low) if high == low else "%d..%s" % (low, high or "n")
        raise TypeCheckError(
            "function %s expects %s arguments, got %d" % (name, expected, n)
        )


def _numeric_value(value, dt: DataType):
    """Physical numeric -> Python float/int honouring decimal scale."""
    if value is None:
        return None
    if dt.kind is TypeKind.DECIMAL:
        return value / (10 ** dt.scale)
    return value


def _abs(values, dtypes):
    """``|a|``; an exact result past int64 (``ABS(-2**63)``) is 22003."""
    if values[0] is None:
        return None
    result = abs(values[0])
    if isinstance(result, int) and result > 2**63 - 1:
        raise NumericOverflowError("ABS result out of range for %s" % dtypes[0])
    return result


def _nullif(values, dtypes):
    """``a``, or NULL when ``a = b``.  A physical DECIMAL is a scaled
    integer, so exact numerics compare at the larger of the two scales."""
    a, b = values
    if a is None or b is None:
        return a
    da, db = dtypes
    if TypeKind.DECIMAL not in (da.kind, db.kind):
        same = a == b
    elif da.is_approximate or db.is_approximate:
        same = _numeric_value(a, da) == _numeric_value(b, db)
    else:
        scale = max(da.scale, db.scale)
        same = a * 10 ** (scale - da.scale) == b * 10 ** (scale - db.scale)
    return None if same else a


def simple(name: str, low: int, high: int | None, out_type, impl):
    """Builder factory for a plain scalar function.

    ``out_type`` is a DataType or callable(arg_dtypes)->DataType;
    ``impl(values, dtypes)`` gets physical values and returns physical.
    """

    def build(args: list[Expr], ctx: BuildContext) -> Expr:
        check_arity(name, args, low, high)
        dtypes = [a.dtype for a in args]
        dtype = out_type(dtypes) if callable(out_type) else out_type

        def scalar_fn(values, dtypes=dtypes):
            return impl(values, dtypes)

        return FuncCall(name=name, args=args, scalar_fn=scalar_fn, dtype=dtype)

    return build


def numeric_unary(name: str, fn, domain_check=None):
    """Unary math function returning DOUBLE."""

    def impl(values, dtypes):
        x = _numeric_value(values[0], dtypes[0])
        if x is None:
            return None
        if domain_check is not None and not domain_check(x):
            raise TypeCheckError("%s: argument %r out of domain" % (name, x))
        return float(fn(x))

    return simple(name, 1, 1, DOUBLE, impl)


def string_fn(name: str, low: int, high: int | None, impl, out_type=None):
    return simple(name, low, high, out_type or varchar_type(), impl)


# --------------------------------------------------------------------------
# ANSI core implementations
# --------------------------------------------------------------------------


def _t_arg0(dtypes):
    return dtypes[0]


def _t_promote_all(dtypes):
    out = dtypes[0]
    for dt in dtypes[1:]:
        out = promote(out, dt)
    return out


def _substr(values, dtypes):
    s, start = values[0], values[1]
    length = values[2] if len(values) > 2 else None
    if s is None or start is None:
        return None
    s = str(s)
    start = int(start)
    if start > 0:
        begin = start - 1
    elif start < 0:
        begin = len(s) + start
    else:
        begin = 0
    if begin < 0:
        begin = 0
    if length is None:
        return s[begin:]
    if length < 0:
        return None
    return s[begin : begin + int(length)]


def _instr(values, dtypes):
    s, sub = values[0], values[1]
    start = int(values[2]) if len(values) > 2 and values[2] is not None else 1
    nth = int(values[3]) if len(values) > 3 and values[3] is not None else 1
    if s is None or sub is None:
        return None
    s, sub = str(s), str(sub)
    pos = start - 1
    for _ in range(nth):
        found = s.find(sub, max(pos, 0))
        if found < 0:
            return 0
        pos = found + 1
    return pos


def _pad(values, dtypes, left: bool):
    s, width = values[0], values[1]
    fill = values[2] if len(values) > 2 and values[2] is not None else " "
    if s is None or width is None:
        return None
    s = str(s)
    width = int(width)
    if width <= len(s):
        return s[:width]
    pad_len = width - len(s)
    padding = (str(fill) * pad_len)[:pad_len]
    return padding + s if left else s + padding


def _round_half_up(x: float, digits: int) -> float:
    factor = 10.0 ** digits
    scaled = x * factor
    if scaled >= 0:
        return math.floor(scaled + 0.5) / factor
    return -math.floor(-scaled + 0.5) / factor


def register_ansi(registry: FunctionRegistry) -> None:
    """Register the ANSI / shared core functions."""
    r = registry.register

    # -- string functions --
    upper = string_fn("UPPER", 1, 1, lambda v, d: None if v[0] is None else str(v[0]).upper())
    lower = string_fn("LOWER", 1, 1, lambda v, d: None if v[0] is None else str(v[0]).lower())
    r("UPPER", upper)
    r("UCASE", upper)  # DB2 spelling
    r("LOWER", lower)
    r("LCASE", lower)
    r("LENGTH", simple("LENGTH", 1, 1, BIGINT, lambda v, d: None if v[0] is None else len(str(v[0]))))
    r("CHAR_LENGTH", simple("CHAR_LENGTH", 1, 1, BIGINT, lambda v, d: None if v[0] is None else len(str(v[0]))))
    r("SUBSTR", string_fn("SUBSTR", 2, 3, _substr))
    r("SUBSTRING", string_fn("SUBSTRING", 2, 3, _substr))
    r("TRIM", string_fn("TRIM", 1, 1, lambda v, d: None if v[0] is None else str(v[0]).strip()))
    r("LTRIM", string_fn("LTRIM", 1, 2, lambda v, d: None if v[0] is None else str(v[0]).lstrip(str(v[1]) if len(v) > 1 and v[1] is not None else None)))
    r("RTRIM", string_fn("RTRIM", 1, 2, lambda v, d: None if v[0] is None else str(v[0]).rstrip(str(v[1]) if len(v) > 1 and v[1] is not None else None)))
    r("REPLACE", string_fn("REPLACE", 3, 3, lambda v, d: None if any(x is None for x in v) else str(v[0]).replace(str(v[1]), str(v[2]))))
    r("TRANSLATE", string_fn("TRANSLATE", 3, 3, _translate))
    r("LPAD", string_fn("LPAD", 2, 3, lambda v, d: _pad(v, d, left=True)))
    r("RPAD", string_fn("RPAD", 2, 3, lambda v, d: _pad(v, d, left=False)))
    r("INSTR", simple("INSTR", 2, 4, BIGINT, _instr))
    r("LOCATE", simple("LOCATE", 2, 3, BIGINT, lambda v, d: _instr([v[1], v[0]] + list(v[2:]), d)))
    r("POSSTR", simple("POSSTR", 2, 2, BIGINT, lambda v, d: _instr([v[0], v[1]], d)))
    r("CONCAT", string_fn("CONCAT", 2, None, lambda v, d: None if any(x is None for x in v) else "".join(str(x) for x in v)))
    r("REPEAT", string_fn("REPEAT", 2, 2, lambda v, d: None if any(x is None for x in v) else str(v[0]) * int(v[1])))
    r("REVERSE", string_fn("REVERSE", 1, 1, lambda v, d: None if v[0] is None else str(v[0])[::-1]))
    r("ASCII", simple("ASCII", 1, 1, BIGINT, lambda v, d: None if v[0] is None or not str(v[0]) else ord(str(v[0])[0])))
    r("CHR", string_fn("CHR", 1, 1, lambda v, d: None if v[0] is None else chr(int(v[0]))))

    # -- null handling --
    r("COALESCE", _build_coalesce)
    r("VALUE", _build_coalesce)  # DB2 alias
    r("IFNULL", _build_coalesce)
    r("NULLIF", simple("NULLIF", 2, 2, _t_arg0, _nullif))

    # -- numeric functions --
    r("ABS", simple("ABS", 1, 1, _t_arg0, _abs))
    r("MOD", simple("MOD", 2, 2, _t_promote_all, _mod))
    r("SIGN", simple("SIGN", 1, 1, INTEGER, lambda v, d: None if v[0] is None else (0 if _numeric_value(v[0], d[0]) == 0 else (1 if _numeric_value(v[0], d[0]) > 0 else -1))))
    r("FLOOR", simple("FLOOR", 1, 1, DOUBLE, lambda v, d: None if v[0] is None else float(math.floor(_numeric_value(v[0], d[0])))))
    r("CEIL", simple("CEIL", 1, 1, DOUBLE, lambda v, d: None if v[0] is None else float(math.ceil(_numeric_value(v[0], d[0])))))
    r("CEILING", simple("CEILING", 1, 1, DOUBLE, lambda v, d: None if v[0] is None else float(math.ceil(_numeric_value(v[0], d[0])))))
    r("ROUND", simple("ROUND", 1, 2, DOUBLE, _round))
    r("TRUNC", _build_trunc)
    r("TRUNCATE", _build_trunc)
    r("SQRT", numeric_unary("SQRT", math.sqrt, domain_check=lambda x: x >= 0))
    r("EXP", numeric_unary("EXP", math.exp))
    r("LN", numeric_unary("LN", math.log, domain_check=lambda x: x > 0))
    r("LOG", numeric_unary("LOG", math.log, domain_check=lambda x: x > 0))
    r("LOG10", numeric_unary("LOG10", math.log10, domain_check=lambda x: x > 0))
    r("POWER", simple("POWER", 2, 2, DOUBLE, _power))
    r("SIN", numeric_unary("SIN", math.sin))
    r("COS", numeric_unary("COS", math.cos))
    r("TAN", numeric_unary("TAN", math.tan))
    r("RAND", _build_rand)

    # -- temporal functions --
    r("YEAR", simple("YEAR", 1, 1, INTEGER, _temporal_field("year")))
    r("MONTH", simple("MONTH", 1, 1, INTEGER, _temporal_field("month")))
    r("DAY", simple("DAY", 1, 1, INTEGER, _temporal_field("day")))
    r("DAYOFWEEK", simple("DAYOFWEEK", 1, 1, INTEGER, _temporal_field("dow")))
    r("DAYOFYEAR", simple("DAYOFYEAR", 1, 1, INTEGER, _temporal_field("doy")))
    r("WEEK", simple("WEEK", 1, 1, INTEGER, _temporal_field("week")))
    r("QUARTER", simple("QUARTER", 1, 1, INTEGER, _temporal_field("quarter")))
    r("HOUR", simple("HOUR", 1, 1, INTEGER, _temporal_field("hour")))
    r("MINUTE", simple("MINUTE", 1, 1, INTEGER, _temporal_field("minute")))
    r("SECOND", simple("SECOND", 1, 1, INTEGER, _temporal_field("second")))
    r("DAYS", simple("DAYS", 1, 1, BIGINT, _days_fn))
    r("DATE", _build_date_fn)
    r("ADD_MONTHS", simple("ADD_MONTHS", 2, 2, DATE, _add_months))
    r("MONTHS_BETWEEN", simple("MONTHS_BETWEEN", 2, 2, DOUBLE, _months_between))
    r("LAST_DAY", simple("LAST_DAY", 1, 1, DATE, _last_day))
    r("CURRENT_DATE", _build_current_date)
    r("SYSDATE", _build_current_date)
    r("TODAY", _build_current_date)
    r("CURRENT_TIMESTAMP", _build_current_timestamp)
    r("CURRENT_TIME", _build_current_time)

    # -- misc --
    r("GREATEST", simple("GREATEST", 2, None, _t_promote_all, lambda v, d: None if any(x is None for x in v) else max(v)))
    r("LEAST", simple("LEAST", 2, None, _t_promote_all, lambda v, d: None if any(x is None for x in v) else min(v)))


def _build_rand(args: list[Expr], ctx: BuildContext) -> Expr:
    """RAND([seed]): every stream comes from :func:`derive_rng`.

    With a seed argument, the call owns a stream derived from that seed, so
    ``RAND(7)`` yields the same value sequence in any run.  Without one the
    stream is *session-seeded*: derived from the engine's statement counter
    plus a per-bind instance index, so results are reproducible for a given
    statement sequence (and distinct for each RAND() in a statement) while
    still varying statement to statement, as users expect of RAND().
    """
    check_arity("RAND", args, 0, 1)
    if args:
        state: dict = {}

        def seeded(values, dtypes=None):
            if values[0] is None:
                return None
            rng = state.get("rng")
            if rng is None:
                rng = state["rng"] = derive_rng(int(values[0]), "sql", "RAND")
            return float(rng.random())

        return FuncCall(name="RAND", args=args, scalar_fn=seeded, dtype=DOUBLE)
    db = ctx.database
    statement = getattr(db, "statement_count", 0) if db is not None else 0
    instance = getattr(db, "_rand_instance", 0) if db is not None else 0
    if db is not None:
        db._rand_instance = instance + 1
    rng = derive_rng(statement, "sql", "RAND", instance)

    def unseeded(values, dtypes=None):
        return float(rng.random())

    return FuncCall(name="RAND", args=[], scalar_fn=unseeded, dtype=DOUBLE)


def _translate(values, dtypes):
    if any(x is None for x in values):
        return None
    s, to_chars, from_chars = str(values[0]), str(values[1]), str(values[2])
    table = {}
    for i, ch in enumerate(from_chars):
        table[ord(ch)] = to_chars[i] if i < len(to_chars) else None
    return s.translate(table)


def _mod(values, dtypes):
    if values[0] is None or values[1] is None:
        return None
    a = _numeric_value(values[0], dtypes[0])
    b = _numeric_value(values[1], dtypes[1])
    if b == 0:
        from repro.errors import DivisionByZeroError

        raise DivisionByZeroError()
    result = a - int(a / b) * b  # sign follows the dividend (SQL MOD)
    out_dt = _t_promote_all(dtypes)
    if out_dt.kind is TypeKind.DECIMAL:
        return int(round(result * (10 ** out_dt.scale)))
    if out_dt.is_integer:
        return int(result)
    return result


def _round(values, dtypes):
    if values[0] is None:
        return None
    x = _numeric_value(values[0], dtypes[0])
    digits = int(values[1]) if len(values) > 1 and values[1] is not None else 0
    return _round_half_up(float(x), digits)


def _build_trunc(args, ctx):
    """TRUNC over numbers (toward zero) or dates (to month/year)."""
    check_arity("TRUNC", args, 1, 2)
    if args[0].dtype.kind in (TypeKind.DATE, TypeKind.TIMESTAMP):

        def scalar_fn(values, fmt_dtype=args[0].dtype):
            if values[0] is None:
                return None
            if fmt_dtype.kind is TypeKind.TIMESTAMP:
                d = (datetime.datetime(1970, 1, 1) + datetime.timedelta(microseconds=int(values[0]))).date()
            else:
                d = days_to_date(int(values[0]))
            fmt = str(values[1]).upper() if len(values) > 1 and values[1] is not None else "DD"
            if fmt in ("MM", "MONTH", "MON"):
                d = d.replace(day=1)
            elif fmt in ("YYYY", "YEAR", "Y"):
                d = d.replace(month=1, day=1)
            return date_to_days(d)

        return FuncCall("TRUNC", args, scalar_fn=scalar_fn, dtype=DATE)

    def scalar_fn(values, dtypes=[a.dtype for a in args]):
        if values[0] is None:
            return None
        x = _numeric_value(values[0], dtypes[0])
        digits = int(values[1]) if len(values) > 1 and values[1] is not None else 0
        factor = 10.0 ** digits
        return math.trunc(x * factor) / factor

    return FuncCall("TRUNC", args, scalar_fn=scalar_fn, dtype=DOUBLE)


def _power(values, dtypes):
    if values[0] is None or values[1] is None:
        return None
    return float(_numeric_value(values[0], dtypes[0]) ** _numeric_value(values[1], dtypes[1]))


def _temporal_field(field: str):
    def impl(values, dtypes):
        if values[0] is None:
            return None
        dt = dtypes[0]
        if dt.kind is TypeKind.TIMESTAMP:
            moment = datetime.datetime(1970, 1, 1) + datetime.timedelta(microseconds=int(values[0]))
            d, t = moment.date(), moment.time()
        elif dt.kind is TypeKind.DATE:
            d, t = days_to_date(int(values[0])), datetime.time(0, 0, 0)
        elif dt.kind is TypeKind.TIME:
            seconds = int(values[0])
            d, t = None, datetime.time(seconds // 3600, (seconds // 60) % 60, seconds % 60)
        else:
            raise TypeCheckError("temporal function over non-temporal type %s" % dt)
        if field == "year":
            return d.year
        if field == "month":
            return d.month
        if field == "day":
            return d.day
        if field == "dow":
            return d.isoweekday() % 7 + 1  # Sunday=1 (DB2 convention)
        if field == "doy":
            return d.timetuple().tm_yday
        if field == "week":
            return d.isocalendar()[1]
        if field == "quarter":
            return (d.month - 1) // 3 + 1
        if field == "hour":
            return t.hour
        if field == "minute":
            return t.minute
        return t.second

    return impl


def _days_fn(values, dtypes):
    if values[0] is None:
        return None
    if dtypes[0].kind is TypeKind.TIMESTAMP:
        return int(values[0]) // 86_400_000_000 + 719_163  # DB2 DAYS epoch-ish
    return int(values[0]) + 719_163


def _build_date_fn(args, ctx):
    check_arity("DATE", args, 1, 1)
    return Cast(args[0], DATE)


def _add_months(values, dtypes):
    if values[0] is None or values[1] is None:
        return None
    d = days_to_date(int(values[0]))
    months = int(values[1])
    month_index = d.year * 12 + (d.month - 1) + months
    year, month = divmod(month_index, 12)
    day = min(d.day, _month_days(year, month + 1))
    return date_to_days(datetime.date(year, month + 1, day))


def _months_between(values, dtypes):
    if values[0] is None or values[1] is None:
        return None
    a = days_to_date(int(values[0]))
    b = days_to_date(int(values[1]))
    return (a.year - b.year) * 12 + (a.month - b.month) + (a.day - b.day) / 31.0


def _last_day(values, dtypes):
    if values[0] is None:
        return None
    d = days_to_date(int(values[0]))
    return date_to_days(d.replace(day=_month_days(d.year, d.month)))


def _month_days(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (datetime.date(year, month + 1, 1) - datetime.timedelta(days=1)).day


def _build_current_date(args, ctx):
    check_arity("CURRENT_DATE", args, 0, 0)
    today = ctx.database.current_date() if ctx.database is not None else datetime.date.today()
    return Literal(date_to_days(today), DATE)


def _now(ctx) -> datetime.datetime:
    if ctx.database is not None:
        return ctx.database.current_timestamp()
    return datetime.datetime.now()


def _build_current_timestamp(args, ctx):
    check_arity("CURRENT_TIMESTAMP", args, 0, 0)
    return Literal(to_physical_scalar(_now(ctx), TIMESTAMP), TIMESTAMP)


def _build_current_time(args, ctx):
    check_arity("CURRENT_TIME", args, 0, 0)
    return Literal(to_physical_scalar(_now(ctx).time(), TIME), TIME)


def _build_coalesce(args, ctx):
    check_arity("COALESCE", args, 1, None)
    dtype = args[0].dtype
    for a in args[1:]:
        dtype = promote(dtype, a.dtype)
    cast_args = [Cast(a, dtype) if a.dtype != dtype else a for a in args]

    def scalar_fn(values):
        for v in values:
            if v is not None:
                return v
        return None

    def vector_fn(arg_vectors, batch, out_dtype):
        from repro.storage.column import ColumnVector

        values = arg_vectors[0].values.copy()
        nulls = arg_vectors[0].null_mask().copy()
        for vector in arg_vectors[1:]:
            fill = nulls & ~vector.null_mask()
            if fill.any():
                values[fill] = vector.values[fill]
                nulls[fill] = False
            if not nulls.any():
                break
        return ColumnVector(out_dtype, values, nulls if nulls.any() else None)

    return FuncCall("COALESCE", cast_args, scalar_fn=scalar_fn, vector_fn=vector_fn, dtype=dtype)


def build_ansi_registry() -> FunctionRegistry:
    registry = FunctionRegistry()
    register_ansi(registry)
    return registry
