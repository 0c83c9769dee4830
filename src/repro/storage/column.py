"""Physical column representation and boundary/physical conversion.

Columns hold values physically as numpy arrays (int64 for exact numerics,
temporals, and booleans; float64 for approximate numerics; object for
strings).  The functions here convert between that physical form and the
boundary (Python) form defined in :mod:`repro.types.values`.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from repro.errors import ConversionError
from repro.types.datatypes import DataType, TypeKind
from repro.types.values import (
    INT_RANGES,
    cast_value,
    date_to_days,
    days_to_date,
    micros_to_timestamp,
    seconds_to_time,
    time_to_seconds,
    timestamp_to_micros,
)


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

# The kinds the conversions below branch on, bound once: a member looked up
# on the enum class costs more than the comparison it feeds.
_DECIMAL, _DATE, _TIME = TypeKind.DECIMAL, TypeKind.DATE, TypeKind.TIME
_TIMESTAMP, _BOOLEAN, _NULL = TypeKind.TIMESTAMP, TypeKind.BOOLEAN, TypeKind.NULL
_VARCHAR = TypeKind.VARCHAR
_APPROXIMATE = (TypeKind.REAL, TypeKind.DOUBLE, TypeKind.DECFLOAT)


def _decimal_to_physical(value, dt: DataType) -> int:
    """DECIMAL is stored as a scaled int64; a value that does not fit is
    rejected here, like an out-of-range integer, instead of overflowing
    the column array later.  (The *declared* precision is not enforced.)"""
    scaled = int(cast_value(value, dt).scaleb(dt.scale))
    if not _INT64_MIN <= scaled <= _INT64_MAX:
        raise ConversionError("value %s out of range for %s" % (value, dt))
    return scaled


def to_physical_scalar(value, dt: DataType):
    """Convert one boundary value to its physical form (None stays None).

    Most kinds store what ``cast_value`` returns; ``TypeKind.NULL`` has no
    physical form.
    """
    if value is None:
        return None
    kind = dt.kind
    if kind is _DECIMAL:
        return _decimal_to_physical(value, dt)
    if kind is _DATE:
        return date_to_days(cast_value(value, dt))
    if kind is _TIME:
        return time_to_seconds(cast_value(value, dt))
    if kind is _TIMESTAMP:
        return timestamp_to_micros(cast_value(value, dt))
    if kind is _BOOLEAN:
        return int(cast_value(value, dt))
    if kind is _NULL:
        raise ConversionError("cannot store values of type %s" % dt)
    return cast_value(value, dt)


def to_boundary_scalar(value, dt: DataType):
    """Convert one physical value back to its boundary form."""
    if value is None:
        return None
    kind = dt.kind
    if kind is TypeKind.DECIMAL:
        return Decimal(int(value)).scaleb(-dt.scale)
    if kind is TypeKind.DATE:
        return days_to_date(int(value))
    if kind is TypeKind.TIME:
        return seconds_to_time(int(value))
    if kind is TypeKind.TIMESTAMP:
        return micros_to_timestamp(int(value))
    if kind is TypeKind.BOOLEAN:
        return bool(value)
    if dt.is_integer:
        return int(value)
    if dt.is_approximate:
        return float(value)
    return value


# -- whole columns -------------------------------------------------------------
#
# A column whose values all have the natural Python class of its type needs
# no per-value dispatch: one loop converts it and one whole-column check
# replaces the per-value range / length / NaN test.

_EPOCH = datetime.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()

#: kind -> ({the natural classes of its values}, a NULL filler).  A DECIMAL
#: takes ints too: an integer literal in a VALUES row is one.
_NATURAL = {
    _DECIMAL: (frozenset({Decimal, int}), 0),
    _DATE: (frozenset({datetime.date}), _EPOCH),
    _VARCHAR: (frozenset({str}), ""),
}
_NATURAL.update({kind: (frozenset({int}), 0) for kind in INT_RANGES})
_NATURAL.update({kind: (frozenset({float}), 0.0) for kind in _APPROXIMATE})


def _in_range(values, low: int, high: int) -> bool:
    return not values or (low <= min(values) and max(values) <= high)


@functools.lru_cache(maxsize=None)
def _quantum(scale: int) -> Decimal:
    return Decimal(1).scaleb(-scale)


def _typed_column(values, dt: DataType):
    """``to_physical_scalar`` over a column of ``_NATURAL[dt.kind]`` values,
    specialised to that class (the property tests hold the two equal).

    Returns what an array of the type's numpy dtype takes in one slice
    assignment, for certain — or None when the whole-column check fails:
    the caller then re-runs the column value by value and the scalar path
    names the first offending value.
    """
    kind = dt.kind
    bounds = INT_RANGES.get(kind)
    if bounds is not None:
        return values if _in_range(values, *bounds) else None
    if kind is _DECIMAL:
        scale = dt.scale
        quantum, unit = _quantum(scale), 10**scale
        try:
            scaled = [
                v * unit if type(v) is int else int(v.quantize(quantum).scaleb(scale))
                for v in values
            ]
        except (InvalidOperation, ValueError):
            return None  # Infinity, more digits than the context holds / NaN
        return scaled if _in_range(scaled, _INT64_MIN, _INT64_MAX) else None
    if kind is _DATE:
        return [v.toordinal() - _EPOCH_ORDINAL for v in values]
    if kind is _VARCHAR:
        if dt.length and max(map(len, values), default=0) > dt.length:
            return None
        return values
    array = np.array(values, dtype=np.float64)  # the approximate kinds
    return None if np.isnan(array).any() else array


_NONE_TYPE = type(None)


@dataclass
class LandingStats:
    """Which loop the values of converted columns took (NULLs included)."""

    values_typed: int = 0  # in columns one typed loop converted
    values_cast: int = 0  # in columns sent value by value through cast_value
    batches: int = 0  # batches a table landed


def physical_column(values, dt: DataType, stats: LandingStats | None = None):
    """Convert a column of boundary values into ``(physical, null_mask)``.

    ``physical`` is a sequence (or array) of physical values ready to be
    assigned into an array of the type's numpy dtype; NULL slots hold 0
    (or "" for strings); the mask is None when there are no NULLs.  The
    type is dispatched on once: a column whose values all have the type's
    natural class is converted by that class's loop, any other column
    (text into a number, ``bool``, mixed classes, CHAR padding, a failed
    whole-column check) value by value through :func:`to_physical_scalar`
    — which therefore stays the one definition of what a conversion means
    and of every error.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    n = len(values)
    classes = set(map(type, values))
    nulls = None
    if _NONE_TYPE in classes:
        classes.discard(_NONE_TYPE)
        nulls = np.fromiter((v is None for v in values), dtype=bool, count=n)
    physical = None
    natural, filler = _NATURAL.get(dt.kind, (None, None))
    if natural is not None and classes <= natural:
        physical = _typed_column(
            values if nulls is None else [filler if v is None else v for v in values],
            dt,
        )
    if stats is not None:
        if physical is None:
            stats.values_cast += n
        else:
            stats.values_typed += n
    if physical is None:
        filler = "" if dt.numpy_dtype == object else 0
        physical = [filler if v is None else to_physical_scalar(v, dt) for v in values]
    return physical, nulls


def to_physical(
    values, dt: DataType, stats: LandingStats | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`physical_column` with the values as an array of the type's dtype."""
    physical, nulls = physical_column(values, dt, stats)
    array = np.empty(len(physical), dtype=dt.numpy_dtype)
    array[:] = physical
    return array, nulls


def to_boundary(array: np.ndarray, nulls: np.ndarray | None, dt: DataType) -> list:
    """Convert a physical array (+ null mask) back to boundary values."""
    out = []
    for i, v in enumerate(array.tolist()):
        if nulls is not None and nulls[i]:
            out.append(None)
        else:
            out.append(to_boundary_scalar(v, dt))
    return out


@dataclass
class ColumnVector:
    """A runtime vector of physical values with an optional null mask.

    This is the unit that flows between query operators: operators work on
    physical numpy arrays and only convert to boundary values at the result
    set edge.

    A string vector may be *dictionary-coded* (:meth:`coded`): it carries
    ``codes`` (int64 positions) into a shared, read-only ``dictionary`` (an
    object array, neither sorted nor distinct) and ``values`` is
    ``dictionary[codes]``, gathered on first read and kept.  ``take`` /
    ``filter`` / ``concat`` move the codes; every other reader sees plain
    ``values``.  Invariants: ``0 <= codes < len(dictionary)`` (NULL slots
    hold any valid code), ``len(nulls) == len(codes)``, and nothing writes
    into a dictionary — the codec and other vectors share it.
    """

    dtype: DataType
    values: np.ndarray
    nulls: np.ndarray | None = None

    # Not fields: a plain vector has neither.
    codes = None
    dictionary = None

    def __post_init__(self):
        if self.nulls is not None and not self.nulls.any():
            self.nulls = None

    @classmethod
    def coded(cls, dtype: DataType, codes, dictionary, nulls=None) -> "ColumnVector":
        """A dictionary-coded vector; ``values`` stays unset until read."""
        vector = cls.__new__(cls)
        vector.dtype = dtype
        vector.codes = codes
        vector.dictionary = dictionary
        vector.nulls = nulls
        vector.__post_init__()
        return vector

    def __getattr__(self, name):
        # Only reached while a coded vector has not gathered its values.
        if name == "values" and self.codes is not None:
            values = self.values = self.dictionary[self.codes]
            return values
        raise AttributeError(name)

    def __len__(self) -> int:
        codes = self.codes
        return int((self.values if codes is None else codes).size)

    @classmethod
    def from_boundary(cls, values, dt: DataType) -> "ColumnVector":
        array, nulls = to_physical(values, dt)
        return cls(dtype=dt, values=array, nulls=nulls)

    def to_boundary(self) -> list:
        return to_boundary(self.values, self.nulls, self.dtype)

    def take(self, indices) -> "ColumnVector":
        """Gather rows by position: an ``int64`` row-id array (or a slice,
        for a view).  Row ids are the one selection form vectors gather by;
        a bool mask goes through :meth:`filter`."""
        nulls = self.nulls[indices] if self.nulls is not None else None
        if self.codes is not None:
            return ColumnVector.coded(
                self.dtype, self.codes[indices], self.dictionary, nulls
            )
        return ColumnVector(self.dtype, self.values[indices], nulls)

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where mask is True: one gather at the mask's row ids,
        or this vector itself when the mask keeps every row."""
        return self if mask.all() else self.take(np.flatnonzero(mask))

    def null_mask(self) -> np.ndarray:
        """Boolean mask of NULL rows (materialised even when None)."""
        if self.nulls is None:
            return np.zeros(len(self), dtype=bool)
        return self.nulls

    @classmethod
    def concat(cls, vectors: list["ColumnVector"]) -> "ColumnVector":
        """Concatenate several vectors of the same type.

        Coded parts that share one dictionary keep it and their codes.
        Otherwise the dictionaries are concatenated and the codes offset,
        a plain part (or one with more dictionary than rows) riding as the
        dictionary of its own rows — the result never outgrows the rows.
        """
        if not vectors:
            raise ValueError("cannot concatenate zero vectors")
        dt = vectors[0].dtype
        if any(v.nulls is not None for v in vectors):
            nulls = np.concatenate([v.null_mask() for v in vectors])
        else:
            nulls = None
        shared = vectors[0].dictionary
        if all(v.dictionary is shared for v in vectors):
            if shared is None:
                return cls(dt, np.concatenate([v.values for v in vectors]), nulls)
            return cls.coded(
                dt, np.concatenate([v.codes for v in vectors]), shared, nulls
            )
        dictionaries, codes, size = [], [], 0
        for v in vectors:
            part, dictionary = v.codes, v.dictionary
            if part is None or dictionary.size > part.size:
                dictionary = v.values
                part = np.arange(dictionary.size, dtype=np.int64)
            dictionaries.append(dictionary)
            codes.append(part + size)
            size += dictionary.size
        dictionary = np.concatenate(dictionaries)
        dictionary.flags.writeable = False
        return cls.coded(dt, np.concatenate(codes), dictionary, nulls)
