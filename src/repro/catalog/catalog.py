"""The system catalog.

Objects live in schemas; names resolve case-insensitively (SQL identifiers
fold to upper case unless quoted — this catalog stores canonical upper-case
names).  Views remember the *dialect* of the session that created them
(paper II.C.2: "The current session setting is stored with SQL objects
created in a session such as views so that on subsequent reference they
adhere to the dialect as specified at creation time").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.sequence import Sequence
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.storage.table import ColumnTable, TableSchema
from repro.verify.sanitizer import protocol_access

DEFAULT_SCHEMA = "PUBLIC"


@dataclass
class TableInfo:
    """A base table: its storage plus definition metadata."""

    name: str
    schema: str
    table: ColumnTable
    temporary: bool = False


@dataclass
class ViewInfo:
    """A view: stored statement text plus the dialect it was created under."""

    name: str
    schema: str
    text: str
    dialect: str
    column_names: list[str] | None = None


@dataclass
class AliasInfo:
    """CREATE ALIAS: an alternative name for another object (DB2)."""

    name: str
    schema: str
    target: str


@dataclass
class NicknameInfo:
    """A Fluid Query nickname over a remote data source (paper II.C.6)."""

    name: str
    schema: str
    connector: object  # repro.federation connector
    remote_table: str


class Catalog:
    """All persistent object metadata for one database."""

    def __init__(self):
        self._schemas: dict[str, dict[str, object]] = {DEFAULT_SCHEMA: {}}
        self._sequences: dict[str, Sequence] = {}
        #: (schema, name) -> DDL stamp: bumped whenever that name is
        #: created, replaced or dropped.  A cached plan records the stamps
        #: of the names it resolved and is stale once one has moved; DML
        #: never moves them.
        self._stamps: dict[tuple[str, str], int] = {}

    # -- schemas ---------------------------------------------------------------

    def create_schema(self, name: str) -> None:
        key = name.upper()
        if key in self._schemas:
            raise DuplicateObjectError("schema %s already exists" % key)
        self._schemas[key] = {}

    def drop_schema(self, name: str) -> None:
        key = name.upper()
        if key == DEFAULT_SCHEMA:
            raise UnknownObjectError("cannot drop the default schema")
        if key not in self._schemas:
            raise UnknownObjectError("no schema %s" % key)
        for name in self._schemas.pop(key):
            self._touch(key, name)

    def schema_names(self) -> list[str]:
        return sorted(self._schemas)

    def _schema(self, name: str | None) -> dict[str, object]:
        key = (name or DEFAULT_SCHEMA).upper()
        if key not in self._schemas:
            raise UnknownObjectError("no schema %s" % key)
        return self._schemas[key]

    # -- generic object handling --------------------------------------------------

    def _put(self, schema: str | None, name: str, obj, replace: bool = False):
        container = self._schema(schema)
        key = name.upper()
        if key in container and not replace:
            raise DuplicateObjectError(
                "object %s already exists in schema %s"
                % (key, (schema or DEFAULT_SCHEMA).upper())
            )
        protocol_access("catalog:object", key, site="Catalog._put")
        container[key] = obj
        self._touch(schema, key)

    def _touch(self, schema: str | None, key: str) -> None:
        """Move a name's DDL stamp — *after* the change it announces, so a
        reader that saw the old stamp can only pair it with the old object
        or be caught by the new stamp (see :meth:`resolve`)."""
        stamp_key = ((schema or DEFAULT_SCHEMA).upper(), key)
        protocol_access("catalog:stamp", key, site="Catalog._touch")
        self._stamps[stamp_key] = self._stamps.get(stamp_key, 0) + 1

    def stamp(self, stamp_key: tuple[str, str]) -> int:
        """Current DDL stamp of ``(schema, name)`` (0: never defined)."""
        protocol_access("catalog:stamp", stamp_key[1], False, "Catalog.stamp")
        return self._stamps.get(stamp_key, 0)

    def resolve(self, name: str, schema: str | None = None, seen: dict | None = None):
        """Look up any object, following aliases.

        *seen*, when given, collects ``(schema, name) -> stamp`` for every
        name the lookup went through, each stamp read *before* its object."""
        container = self._schema(schema)
        key = name.upper()
        if seen is not None:
            stamp_key = ((schema or DEFAULT_SCHEMA).upper(), key)
            protocol_access("catalog:stamp", key, False, "Catalog.resolve")
            seen[stamp_key] = self._stamps.get(stamp_key, 0)
            protocol_access("catalog:object", key, False, "Catalog.resolve")
        obj = container.get(key)
        if obj is None:
            raise UnknownObjectError(
                "object %s not found in schema %s"
                % (name.upper(), (schema or DEFAULT_SCHEMA).upper())
            )
        if isinstance(obj, AliasInfo):
            return self.resolve(obj.target, schema, seen)
        return obj

    def try_resolve(self, name: str, schema: str | None = None):
        try:
            return self.resolve(name, schema)
        except UnknownObjectError:
            return None

    def drop(self, name: str, schema: str | None = None) -> object:
        container = self._schema(schema)
        key = name.upper()
        if key not in container:
            raise UnknownObjectError("object %s not found" % key)
        protocol_access("catalog:object", key, site="Catalog.drop")
        obj = container.pop(key)
        self._touch(schema, key)
        return obj

    def objects(self, schema: str | None = None) -> list[str]:
        return sorted(self._schema(schema))

    def entries(self, schema: str | None = None) -> list[tuple[str, object]]:
        """(name, object) pairs of one schema, aliases *not* followed.

        Used by the durability checkpoint, which must snapshot alias
        definitions themselves rather than their targets.
        """
        container = self._schema(schema)
        return [(name, container[name]) for name in sorted(container)]

    # -- typed helpers ------------------------------------------------------------

    def create_table(
        self,
        table_schema: TableSchema,
        schema: str | None = None,
        temporary: bool = False,
        **table_kwargs,
    ) -> TableInfo:
        info = TableInfo(
            name=table_schema.name.upper(),
            schema=(schema or DEFAULT_SCHEMA).upper(),
            table=ColumnTable(table_schema, **table_kwargs),
            temporary=temporary,
        )
        self._put(schema, table_schema.name, info)
        return info

    def get_table(self, name: str, schema: str | None = None) -> TableInfo:
        obj = self.resolve(name, schema)
        if not isinstance(obj, TableInfo):
            raise UnknownObjectError("%s is not a table" % name.upper())
        return obj

    def create_view(
        self,
        name: str,
        text: str,
        dialect: str,
        schema: str | None = None,
        column_names: list[str] | None = None,
        replace: bool = False,
    ) -> ViewInfo:
        info = ViewInfo(
            name=name.upper(),
            schema=(schema or DEFAULT_SCHEMA).upper(),
            text=text,
            dialect=dialect,
            column_names=column_names,
        )
        self._put(schema, name, info, replace=replace)
        return info

    def create_alias(self, name: str, target: str, schema: str | None = None) -> AliasInfo:
        info = AliasInfo(
            name=name.upper(),
            schema=(schema or DEFAULT_SCHEMA).upper(),
            target=target.upper(),
        )
        self._put(schema, name, info)
        return info

    def create_nickname(
        self, name: str, connector, remote_table: str, schema: str | None = None
    ) -> NicknameInfo:
        info = NicknameInfo(
            name=name.upper(),
            schema=(schema or DEFAULT_SCHEMA).upper(),
            connector=connector,
            remote_table=remote_table,
        )
        self._put(schema, name, info)
        return info

    # -- sequences ---------------------------------------------------------------

    def create_sequence(self, name: str, **kwargs) -> Sequence:
        key = name.upper()
        if key in self._sequences:
            raise DuplicateObjectError("sequence %s already exists" % key)
        seq = Sequence(key, **kwargs)
        self._sequences[key] = seq
        return seq

    def get_sequence(self, name: str) -> Sequence:
        key = name.upper()
        if key not in self._sequences:
            raise UnknownObjectError("no sequence %s" % key)
        return self._sequences[key]

    def drop_sequence(self, name: str) -> None:
        key = name.upper()
        if key not in self._sequences:
            raise UnknownObjectError("no sequence %s" % key)
        del self._sequences[key]

    def sequence_names(self) -> list[str]:
        return sorted(self._sequences)
