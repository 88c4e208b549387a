"""Record schemas for ETL flows.

Every transition (edge) in an ETL flow graph carries a :class:`Schema`
describing the records that move from one operation to its successor.
Schemas are the basis of the *applicability prerequisites* of Flow
Component Patterns -- e.g. ``FilterNullValues`` requires at least one
nullable field on the edge, ``ParallelizeTask`` requires a field usable as
a partition key.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence


class DataType(enum.Enum):
    """Primitive data types of ETL record fields."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    STRING = "string"
    DATE = "date"
    TIMESTAMP = "timestamp"
    BOOLEAN = "boolean"
    BINARY = "binary"

    @property
    def is_numeric(self) -> bool:
        """Whether the type supports arithmetic (used by derivation patterns)."""
        return self in (DataType.INTEGER, DataType.DECIMAL)

    @property
    def is_temporal(self) -> bool:
        """Whether the type denotes a point in time (used by freshness measures)."""
        return self in (DataType.DATE, DataType.TIMESTAMP)

    @classmethod
    def parse(cls, text: str) -> "DataType":
        """Parse a type name as found in xLM / PDI documents."""
        normalized = text.strip().lower()
        aliases = {
            "int": cls.INTEGER,
            "integer": cls.INTEGER,
            "bigint": cls.INTEGER,
            "smallint": cls.INTEGER,
            "number": cls.DECIMAL,
            "numeric": cls.DECIMAL,
            "decimal": cls.DECIMAL,
            "float": cls.DECIMAL,
            "double": cls.DECIMAL,
            "real": cls.DECIMAL,
            "string": cls.STRING,
            "varchar": cls.STRING,
            "char": cls.STRING,
            "text": cls.STRING,
            "date": cls.DATE,
            "timestamp": cls.TIMESTAMP,
            "datetime": cls.TIMESTAMP,
            "boolean": cls.BOOLEAN,
            "bool": cls.BOOLEAN,
            "binary": cls.BINARY,
            "blob": cls.BINARY,
        }
        try:
            return aliases[normalized]
        except KeyError as exc:
            raise ValueError(f"unknown data type name: {text!r}") from exc


@dataclass(frozen=True)
class Field:
    """A single named, typed field of a record schema.

    Parameters
    ----------
    name:
        Field name, unique within its schema.
    dtype:
        Primitive :class:`DataType`.
    nullable:
        Whether the field may hold NULL values.  Data-quality patterns such
        as ``FilterNullValues`` only apply when nullable fields exist.
    key:
        Whether the field participates in the record identity (used by
        duplicate removal and partitioning patterns).
    """

    name: str
    dtype: DataType = DataType.STRING
    nullable: bool = True
    key: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")

    def renamed(self, new_name: str) -> "Field":
        """Return a copy of this field with a different name."""
        return replace(self, name=new_name)

    def with_nullability(self, nullable: bool) -> "Field":
        """Return a copy of this field with ``nullable`` set as given."""
        return replace(self, nullable=nullable)


#: Memo of ``Schema.is_compatible_with`` results keyed by the object-id
#: pair; values pin the schemas so the ids cannot be recycled.  Bounded:
#: once full it is flushed wholesale (entries are trivially recomputable),
#: so long-lived processes churning through many workloads cannot leak.
_COMPATIBILITY_MEMO: dict[tuple[int, int], tuple["Schema", "Schema", bool]] = {}
_COMPATIBILITY_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named fields.

    Schemas are immutable; all mutating operations return new instances.
    """

    fields: tuple[Field, ...] = ()

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate field names in schema: {sorted(duplicates)}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def of(cls, *fields: Field) -> "Schema":
        """Build a schema from individual fields."""
        return cls(tuple(fields))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, DataType]]) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs (all nullable, non-key)."""
        return cls(tuple(Field(name, dtype) for name, dtype in pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, DataType]) -> "Schema":
        """Build a schema from a ``name -> dtype`` mapping."""
        return cls.from_pairs(mapping.items())

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name()

    def _by_name(self) -> dict[str, Field]:
        """A lazily built name index (schemas are immutable, so it never stales)."""
        try:
            return self._name_index  # type: ignore[attr-defined]
        except AttributeError:
            index = {f.name: f for f in self.fields}
            object.__setattr__(self, "_name_index", index)
            return index

    def fingerprint_code(self) -> str:
        """The SHA-256 (64 hex) of the fields, as flow fingerprints digest them.

        Taken over the ``repr`` of one ``(name, dtype value, nullable,
        key)`` tuple per field, once, and memoized like the name index:
        schemas are immutable, and one schema object is shared by every
        operation and fork that carries it, so an operation digest hashes
        64 characters instead of the whole field list.
        """
        try:
            return self._fingerprint_code  # type: ignore[attr-defined]
        except AttributeError:
            text = repr(tuple((f.name, f.dtype.value, f.nullable, f.key) for f in self.fields))
            code = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint_code", code)
            return code

    @property
    def names(self) -> tuple[str, ...]:
        """Field names in declaration order."""
        return tuple(f.name for f in self.fields)

    @property
    def key_fields(self) -> tuple[Field, ...]:
        """Fields flagged as part of the record identity."""
        return tuple(f for f in self.fields if f.key)

    @property
    def nullable_fields(self) -> tuple[Field, ...]:
        """Fields that may carry NULL values."""
        return tuple(f for f in self.fields if f.nullable)

    @property
    def numeric_fields(self) -> tuple[Field, ...]:
        """Fields whose type supports arithmetic."""
        return tuple(f for f in self.fields if f.dtype.is_numeric)

    @property
    def temporal_fields(self) -> tuple[Field, ...]:
        """Fields whose type denotes a point in time."""
        return tuple(f for f in self.fields if f.dtype.is_temporal)

    def field(self, name: str) -> Field:
        """Return the field called ``name``.

        Raises
        ------
        KeyError
            If no field with that name exists.
        """
        return self._by_name()[name]

    def get(self, name: str) -> Field | None:
        """Return the field called ``name`` or ``None`` if absent."""
        return self._by_name().get(name)

    # -- derivation -----------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a schema containing only the given fields, in the given order."""
        missing = [n for n in names if n not in self]
        if missing:
            raise KeyError(f"cannot project on missing fields: {missing}")
        by_name = {f.name: f for f in self.fields}
        return Schema(tuple(by_name[n] for n in names))

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a schema without the given fields."""
        unknown = [n for n in names if n not in self]
        if unknown:
            raise KeyError(f"cannot drop missing fields: {unknown}")
        excluded = set(names)
        return Schema(tuple(f for f in self.fields if f.name not in excluded))

    def extend(self, *new_fields: Field) -> "Schema":
        """Return a schema with additional fields appended."""
        return Schema(self.fields + tuple(new_fields))

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """Return a schema with fields renamed according to ``mapping``."""
        unknown = [n for n in mapping if n not in self]
        if unknown:
            raise KeyError(f"cannot rename missing fields: {unknown}")
        return Schema(
            tuple(f.renamed(mapping[f.name]) if f.name in mapping else f for f in self.fields)
        )

    def merge(self, other: "Schema", prefix: str = "") -> "Schema":
        """Return the concatenation of two schemas.

        Name collisions in ``other`` are disambiguated by prepending
        ``prefix`` (or ``"r_"`` if no prefix is supplied).
        """
        effective_prefix = prefix or "r_"
        merged = list(self.fields)
        taken = set(self.names)
        for f in other.fields:
            name = f.name
            while name in taken:
                name = effective_prefix + name
            merged.append(f.renamed(name))
            taken.add(name)
        return Schema(tuple(merged))

    def without_nulls(self) -> "Schema":
        """Return a copy of the schema where every field is non-nullable.

        Used to propagate the effect of null-filtering patterns downstream.
        """
        return Schema(tuple(f.with_nullability(False) for f in self.fields))

    def is_compatible_with(self, other: "Schema") -> bool:
        """Whether records of this schema can flow into a consumer expecting ``other``.

        Compatibility is positional-name based: every field required by
        ``other`` must be present here with the same data type.  Results
        are memoized per schema-object pair: flow validation re-checks
        the same shared schema objects across thousands of candidate
        flows, so the answer is almost always already known.
        """
        key = (id(self), id(other))
        hit = _COMPATIBILITY_MEMO.get(key)
        if hit is not None:
            return hit[2]
        index = self._by_name()
        result = True
        for required in other.fields:
            actual = index.get(required.name)
            if actual is None or actual.dtype != required.dtype:
                result = False
                break
        # The memo pins both schemas, keeping their ids stable for the
        # lifetime of the entry; distinct schema objects number in the
        # dozens per workload, so the memo rarely reaches its bound.
        if len(_COMPATIBILITY_MEMO) >= _COMPATIBILITY_MEMO_LIMIT:
            _COMPATIBILITY_MEMO.clear()
        _COMPATIBILITY_MEMO[key] = (self, other, result)
        return result

    def to_dict(self) -> list[dict[str, object]]:
        """Serialise the schema to a JSON-friendly structure."""
        return [
            {
                "name": f.name,
                "dtype": f.dtype.value,
                "nullable": f.nullable,
                "key": f.key,
            }
            for f in self.fields
        ]

    @classmethod
    def from_dict(cls, data: Iterable[Mapping[str, object]]) -> "Schema":
        """Deserialise a schema produced by :meth:`to_dict`.

        Inside a :func:`decoding_scope`, equal documents decode to one
        shared (immutable) schema.
        """
        memo = getattr(_DECODING, "memo", None)
        if memo is None:
            return cls._decode(data)
        try:
            key = tuple(tuple(item.items()) for item in data)
            schema = memo.get(key)
        except (AttributeError, TypeError):  # not a list of flat mappings
            return cls._decode(data)
        if schema is None:
            schema = memo[key] = cls._decode(data)
        return schema

    @classmethod
    def _decode(cls, data: Iterable[Mapping[str, object]]) -> "Schema":
        return cls(
            tuple(
                Field(
                    name=str(item["name"]),
                    dtype=_dtype(item.get("dtype", "string")),
                    nullable=bool(item.get("nullable", True)),
                    key=bool(item.get("key", False)),
                )
                for item in data
            )
        )


#: ``DataType`` by value: a dict lookup, where ``DataType(value)`` goes
#: through the enum's call machinery on every decoded field.
_DTYPES = {dtype.value: dtype for dtype in DataType}


def _dtype(value: object) -> DataType:
    try:
        return _DTYPES[value]  # type: ignore[index]
    except (KeyError, TypeError):
        raise ValueError(f"{value!r} is not a valid DataType") from None


#: The open :func:`decoding_scope` memo of this thread, if any.
_DECODING = threading.local()


@contextlib.contextmanager
def decoding_scope() -> Iterator[None]:
    """Decode each distinct schema document once while the scope is open.

    A document that rebuilds many flows -- a planning result lists every
    alternative's changed operations, most of them with one of a handful
    of schemas -- decodes inside one scope, so :meth:`Schema.from_dict`
    builds each distinct schema once and shares it.  The memo belongs to
    the calling thread and is dropped when the outermost scope closes;
    nested scopes share it.
    """
    if getattr(_DECODING, "memo", None) is not None:
        yield
        return
    _DECODING.memo = {}
    try:
        yield
    finally:
        _DECODING.memo = None


EMPTY_SCHEMA = Schema()
"""A schema with no fields, used for control-only transitions."""
