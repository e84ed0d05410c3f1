"""Event schemas.

ChronicleDB stores *temporal-relational* events: a timestamp ``t`` plus a
fixed set of primitive attributes (paper, Section 3.1).  Timestamps are
64-bit integers in an application-defined unit (microseconds by
convention).  Attributes are either 64-bit floats or 64-bit integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SchemaError

#: Size in bytes of the timestamp and of every attribute value on disk.
VALUE_SIZE = 8

# Exact types the batch validator can clear without per-value
# `isinstance` checks (bool is an int subclass, so it passes both).
_INT_TYPES = frozenset({int, bool})
_NUMERIC_TYPES = frozenset({int, bool, float})


class FieldKind(enum.Enum):
    """Primitive attribute types supported by the store."""

    F64 = "f64"
    I64 = "i64"

    @property
    def struct_char(self) -> str:
        """The :mod:`struct` format character for this kind."""
        return "d" if self is FieldKind.F64 else "q"


@dataclass(frozen=True)
class Field:
    """A named, typed attribute of an event schema."""

    name: str
    kind: FieldKind = FieldKind.F64

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"field name must be an identifier: {self.name!r}")
        if self.name == "t":
            raise SchemaError("'t' is reserved for the event timestamp")


def _check_value(field: Field, value) -> None:
    if field.kind is FieldKind.I64 and not isinstance(value, int):
        raise SchemaError(f"attribute {field.name!r} must be int, got {value!r}")
    if field.kind is FieldKind.F64 and not isinstance(value, (int, float)):
        raise SchemaError(f"attribute {field.name!r} must be numeric, got {value!r}")


class EventSchema:
    """An ordered collection of :class:`Field` definitions.

    The timestamp is implicit and always present; ``fields`` describes the
    non-temporal attributes a1..an.
    """

    def __init__(self, fields: list[Field] | tuple[Field, ...]):
        if not fields:
            raise SchemaError("a schema needs at least one attribute")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        self.fields: tuple[Field, ...] = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(self.fields)}

    @classmethod
    def of(cls, *names: str, kind: FieldKind = FieldKind.F64) -> "EventSchema":
        """Build a schema of same-kind attributes from bare names."""
        return cls([Field(n, kind) for n in names])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @property
    def arity(self) -> int:
        """Number of non-temporal attributes."""
        return len(self.fields)

    @property
    def event_size(self) -> int:
        """Serialized size of one event in bytes (timestamp + attributes)."""
        return VALUE_SIZE * (1 + self.arity)

    def index_of(self, name: str) -> int:
        """Position of attribute *name*, raising :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def validate_values(self, values: tuple) -> None:
        """Check that *values* matches the schema's arity and kinds."""
        if len(values) != self.arity:
            raise SchemaError(
                f"expected {self.arity} attribute values, got {len(values)}"
            )
        for field, value in zip(self.fields, values):
            _check_value(field, value)

    def validate_batch(self, batch) -> None:
        """Check every value of a columnar batch against the schema.

        The vectorized form of :meth:`validate_values` (a batch's arity
        was checked when it was built): value types are collected with
        one C-level ``map``/``set`` pass per column; only a column that
        fails the exact-type screen (wrong values, or exotic numeric
        subclasses) is re-checked per value with the same ``isinstance``
        rules — and error messages — as the per-event path.  Raises
        before anything is appended.
        """
        for field, column in zip(self.fields, batch.columns):
            exact = _INT_TYPES if field.kind is FieldKind.I64 else _NUMERIC_TYPES
            if not set(map(type, column)) <= exact:
                for value in column:
                    _check_value(field, value)

    def to_dict(self) -> dict:
        """JSON-serializable description (used by the stream manifest)."""
        return {"fields": [[f.name, f.kind.value] for f in self.fields]}

    @classmethod
    def from_dict(cls, data: dict) -> "EventSchema":
        return cls([Field(name, FieldKind(kind)) for name, kind in data["fields"]])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EventSchema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.kind.value}" for f in self.fields)
        return f"EventSchema({inner})"
