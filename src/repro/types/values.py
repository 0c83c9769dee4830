"""Value-level operations: literals, casts, temporal encoding, formatting.

Columns store values physically as numpy arrays (see
:mod:`repro.types.datatypes` for the mapping); at API boundaries (literals,
INSERT values, result sets) values are plain Python objects:

* integer kinds -> ``int``
* DECIMAL       -> :class:`decimal.Decimal`
* approximate   -> ``float``
* strings       -> ``str``
* BOOLEAN       -> ``bool``
* DATE/TIME/TIMESTAMP -> :class:`datetime.date` / ``time`` / ``datetime``
* NULL          -> ``None``
"""

from __future__ import annotations

import datetime
import math
from decimal import Decimal, InvalidOperation

from repro.errors import ConversionError
from repro.types.datatypes import DataType, TypeKind

SqlDate = datetime.date
SqlTime = datetime.time
SqlTimestamp = datetime.datetime

_EPOCH_DATE = datetime.date(1970, 1, 1)
_EPOCH_TS = datetime.datetime(1970, 1, 1)

#: Inclusive value range of each integer kind.
INT_RANGES = {
    TypeKind.SMALLINT: (-(2**15), 2**15 - 1),
    TypeKind.INTEGER: (-(2**31), 2**31 - 1),
    TypeKind.BIGINT: (-(2**63), 2**63 - 1),
}


def date_to_days(value: datetime.date) -> int:
    """Encode a date as days since 1970-01-01 (column representation)."""
    return (value - _EPOCH_DATE).days


def days_to_date(days: int) -> datetime.date:
    """Decode the column representation of a DATE."""
    return _EPOCH_DATE + datetime.timedelta(days=int(days))


def time_to_seconds(value: datetime.time) -> int:
    """Encode a time of day as seconds since midnight."""
    return value.hour * 3600 + value.minute * 60 + value.second


def seconds_to_time(seconds: int) -> datetime.time:
    """Decode the column representation of a TIME."""
    seconds = int(seconds) % 86400
    return datetime.time(seconds // 3600, (seconds // 60) % 60, seconds % 60)


def timestamp_to_micros(value: datetime.datetime) -> int:
    """Encode a timestamp as microseconds since the epoch."""
    return int((value - _EPOCH_TS).total_seconds() * 1_000_000)


def micros_to_timestamp(micros: int) -> datetime.datetime:
    """Decode the column representation of a TIMESTAMP."""
    return _EPOCH_TS + datetime.timedelta(microseconds=int(micros))


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``YYYY-MM-DD`` (or ``YYYY/MM/DD``) date literal."""
    cleaned = text.strip().replace("/", "-")
    try:
        return datetime.date.fromisoformat(cleaned)
    except ValueError as exc:
        raise ConversionError("invalid DATE literal %r" % text) from exc


def parse_time(text: str) -> datetime.time:
    """Parse an ``HH:MM[:SS]`` time literal."""
    parts = text.strip().split(":")
    try:
        h, m = int(parts[0]), int(parts[1])
        s = int(parts[2]) if len(parts) > 2 else 0
        return datetime.time(h, m, s)
    except (ValueError, IndexError) as exc:
        raise ConversionError("invalid TIME literal %r" % text) from exc


def parse_timestamp(text: str) -> datetime.datetime:
    """Parse ``YYYY-MM-DD[ HH:MM:SS[.ffffff]]`` (DB2 also uses ``-`` and ``.``)."""
    cleaned = text.strip().replace("/", "-")
    # DB2 style: 2016-01-01-10.30.00.000000
    if cleaned.count("-") == 3:
        date_part, _, time_part = cleaned.rpartition("-")
        cleaned = date_part + " " + time_part.replace(".", ":", 2)
    for fmt in (
        "%Y-%m-%d %H:%M:%S.%f",
        "%Y-%m-%d %H:%M:%S",
        "%Y-%m-%d %H:%M",
        "%Y-%m-%d",
    ):
        try:
            return datetime.datetime.strptime(cleaned, fmt)
        except ValueError:
            continue
    raise ConversionError("invalid TIMESTAMP literal %r" % text)


def _to_decimal(value: object) -> Decimal:
    try:
        if isinstance(value, float):
            return Decimal(repr(value))
        return Decimal(str(value))
    except InvalidOperation as exc:
        raise ConversionError("cannot convert %r to DECIMAL" % (value,)) from exc


def _quantize(value: Decimal, scale: int) -> Decimal:
    return value.quantize(Decimal(1).scaleb(-scale))


def cast_value(value: object, target: DataType, *, oracle_strings: bool = False):
    """Cast a Python-level value to ``target``, returning the new value.

    Args:
        value: a boundary-representation value (or ``None``).
        target: destination type.
        oracle_strings: when True, empty strings become NULL (the VARCHAR2
            semantic from paper section II.C.2, enabled by the Oracle
            compatibility deployment image).

    Raises:
        ConversionError: when the value cannot represent the target type.
    """
    if value is None:
        return None
    kind = target.kind
    if kind is TypeKind.NULL:
        return value
    try:
        if kind in INT_RANGES:
            result = _cast_integer(value, kind)
        elif kind is TypeKind.DECIMAL:
            result = _quantize(_to_decimal(_text_to_number(value)), target.scale)
            if result.is_nan():
                raise ConversionError("NaN is not a valid SQL number")
        elif kind in (TypeKind.REAL, TypeKind.DOUBLE, TypeKind.DECFLOAT):
            result = float(_text_to_number(value))
            if math.isnan(result):
                raise ConversionError("NaN is not a valid SQL number")
        elif kind is TypeKind.BOOLEAN:
            result = _cast_boolean(value)
        elif kind in (TypeKind.VARCHAR, TypeKind.CHAR, TypeKind.GRAPHIC):
            result = _cast_string(value, target, oracle_strings)
        elif kind is TypeKind.DATE:
            result = _cast_date(value)
        elif kind is TypeKind.TIME:
            result = value if isinstance(value, datetime.time) else parse_time(str(value))
        elif kind is TypeKind.TIMESTAMP:
            result = _cast_timestamp(value)
        else:  # pragma: no cover - exhaustive over TypeKind
            raise ConversionError("unsupported cast target %s" % target)
    except (ValueError, TypeError, InvalidOperation, OverflowError) as exc:
        # InvalidOperation: a numeral Decimal cannot parse ('abc' into an
        # INTEGER), or a DECIMAL with more digits than the context holds;
        # OverflowError: an int beyond the largest DOUBLE.
        raise ConversionError("cannot cast %r to %s" % (value, target)) from exc
    return result


def _text_to_number(value: object) -> object:
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ConversionError("cannot cast empty string to a number")
        return text
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (datetime.date, datetime.time, datetime.datetime)):
        raise ConversionError("cannot cast %r to a number" % (value,))
    return value


def _cast_integer(value: object, kind: TypeKind) -> int:
    if isinstance(value, str):
        value = value.strip()
        result = int(Decimal(value).to_integral_value(rounding="ROUND_HALF_UP"))
    elif isinstance(value, Decimal):
        result = int(value.to_integral_value(rounding="ROUND_HALF_UP"))
    elif isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ConversionError("cannot cast %r to %s" % (value, kind.value))
        result = int(value)  # SQL truncates toward zero for float -> int
    elif isinstance(value, (bool, int)):
        result = int(value)
    elif isinstance(value, datetime.date):
        raise ConversionError("cannot cast a date to %s" % kind.value)
    else:
        raise ConversionError("cannot cast %r to %s" % (value, kind.value))
    low, high = INT_RANGES[kind]
    if not low <= result <= high:
        raise ConversionError("value %d out of range for %s" % (result, kind.value))
    return result


def _cast_boolean(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, Decimal)):
        return value != 0
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("t", "true", "yes", "on", "1"):
            return True
        if text in ("f", "false", "no", "off", "0"):
            return False
    raise ConversionError("cannot cast %r to BOOLEAN" % (value,))


def _cast_string(value: object, target: DataType, oracle_strings: bool):
    text = format_value(value) if not isinstance(value, str) else value
    if target.length and len(text) > target.length:
        if target.kind is TypeKind.VARCHAR and text.rstrip() == text[: target.length].rstrip():
            text = text[: target.length]
        elif target.kind in (TypeKind.CHAR, TypeKind.GRAPHIC):
            text = text[: target.length]
        else:
            raise ConversionError(
                "string of length %d too long for %s" % (len(text), target)
            )
    if target.kind in (TypeKind.CHAR, TypeKind.GRAPHIC) and target.length:
        text = text.ljust(target.length)
    if oracle_strings and text == "":
        return None
    return text


def _cast_date(value: object) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    return parse_date(str(value))


def _cast_timestamp(value: object) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.date):
        return datetime.datetime(value.year, value.month, value.day)
    return parse_timestamp(str(value))


def format_value(value: object, dt: DataType | None = None) -> str:
    """Render a boundary value the way a CLP-style client would print it."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return "%.1f" % value
        return repr(value)
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, datetime.datetime):
        return value.strftime("%Y-%m-%d %H:%M:%S")
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, datetime.time):
        return value.strftime("%H:%M:%S")
    return str(value)
