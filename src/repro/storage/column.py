"""Physical column representation and boundary/physical conversion.

Columns hold values physically as numpy arrays (int64 for exact numerics,
temporals, and booleans; float64 for approximate numerics; object for
strings).  The functions here convert between that physical form and the
boundary (Python) form defined in :mod:`repro.types.values`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from repro.errors import ConversionError
from repro.types.datatypes import DataType, TypeKind
from repro.types.values import (
    cast_value,
    date_to_days,
    days_to_date,
    micros_to_timestamp,
    seconds_to_time,
    time_to_seconds,
    timestamp_to_micros,
)


def physical_dtype(dt: DataType):
    """numpy dtype of the physical array for a SQL type."""
    return dt.numpy_dtype


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _decimal_to_physical(value, dt: DataType) -> int:
    """DECIMAL is stored as a scaled int64; a value that does not fit is
    rejected here, like an out-of-range integer, instead of overflowing
    the column array later.  (The *declared* precision is not enforced.)"""
    scaled = int(cast_value(value, dt).scaleb(dt.scale))
    if not _INT64_MIN <= scaled <= _INT64_MAX:
        raise ConversionError("value %s out of range for %s" % (value, dt))
    return scaled


#: Boundary -> physical converter per kind, built once at import so a
#: conversion hashes its ``TypeKind`` once.  Most kinds store what
#: ``cast_value`` returns; ``TypeKind.NULL`` has no physical form.
_TO_PHYSICAL = {
    kind: cast_value for kind in TypeKind if kind is not TypeKind.NULL
}
_TO_PHYSICAL.update({
    TypeKind.DECIMAL: _decimal_to_physical,
    TypeKind.DATE: lambda value, dt: date_to_days(cast_value(value, dt)),
    TypeKind.TIME: lambda value, dt: time_to_seconds(cast_value(value, dt)),
    TypeKind.TIMESTAMP: lambda value, dt: timestamp_to_micros(cast_value(value, dt)),
    TypeKind.BOOLEAN: lambda value, dt: int(cast_value(value, dt)),
})


def to_physical_scalar(value, dt: DataType):
    """Convert one boundary value to its physical form (None stays None)."""
    if value is None:
        return None
    convert = _TO_PHYSICAL.get(dt.kind)
    if convert is None:
        raise ConversionError("cannot store values of type %s" % dt)
    return convert(value, dt)


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


def to_physical(values, dt: DataType) -> tuple[np.ndarray, np.ndarray | None]:
    """Convert a sequence of boundary values into ``(array, null_mask)``.

    NULL slots hold 0 (or "" for strings) in the array; the mask is None
    when there are no NULLs.
    """
    values = list(values)
    n = len(values)
    nulls = np.fromiter((v is None for v in values), dtype=bool, count=n)
    dtype = physical_dtype(dt)
    filler = "" if dtype == object else 0
    converted = [
        filler if v is None else to_physical_scalar(v, dt) for v in values
    ]
    if dtype == object:
        array = np.empty(n, dtype=object)
        array[:] = converted
    else:
        array = np.array(converted, dtype=dtype)
    return array, (nulls if nulls.any() else None)


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
        """Gather rows by position (an index array, or a slice for a view)."""
        nulls = self.nulls[indices] if self.nulls is not None else None
        if self.codes is not None:
            return ColumnVector.coded(
                self.dtype, self.codes[indices], self.dictionary, nulls
            )
        return ColumnVector(self.dtype, self.values[indices], nulls)

    def filter(self, mask: np.ndarray) -> "ColumnVector":
        """Keep rows where mask is True."""
        return self.take(mask)

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

    def datetime_fields(self) -> np.ndarray | None:
        """For temporal columns, decode to numpy datetime64 for calculations."""
        if self.dtype.kind is TypeKind.DATE:
            return self.values.astype("datetime64[D]")
        if self.dtype.kind is TypeKind.TIMESTAMP:
            return self.values.astype("datetime64[us]")
        return None
