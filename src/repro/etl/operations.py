"""Taxonomy of ETL flow operations.

The taxonomy follows the decomposition of ETL processes into activities
referenced by the paper (Vassiliadis et al., "A taxonomy of ETL
activities", DOLAP 2009): extraction, row-level transformations, routers,
unary/binary grouping operations, data-quality operations, loading and
control/management operations.

Each node of an :class:`repro.etl.graph.ETLGraph` holds exactly one
:class:`Operation`.  Operations are values: frozen, with read-only
``config`` and ``properties.extra``, so a flow and all its forks share
them safely.  A changed operation is a new one, built with
``dataclasses.replace`` and installed through
:meth:`repro.etl.graph.ETLGraph.update_operation`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.etl.properties import OperationProperties, ReadOnlyDict
from repro.etl.schema import Schema


class OperationCategory(enum.Enum):
    """Coarse grouping of operation kinds, used by placement heuristics."""

    EXTRACTION = "extraction"
    TRANSFORMATION = "transformation"
    ROUTING = "routing"
    DATA_QUALITY = "data_quality"
    LOADING = "loading"
    CONTROL = "control"


class OperationKind(enum.Enum):
    """Concrete ETL operation types supported by the flow model."""

    # Extraction
    EXTRACT_FILE = "extract_file"
    EXTRACT_TABLE = "extract_table"
    EXTRACT_SAVEPOINT = "extract_savepoint"
    # Row-level transformations
    FILTER = "filter"
    PROJECT = "project"
    DERIVE = "derive"
    RENAME = "rename"
    CONVERT = "convert"
    SURROGATE_KEY = "surrogate_key"
    LOOKUP = "lookup"
    SLOWLY_CHANGING_DIM = "slowly_changing_dim"
    AGGREGATE = "aggregate"
    SORT = "sort"
    PIVOT = "pivot"
    # Binary / n-ary operations
    JOIN = "join"
    UNION = "union"
    MERGE = "merge"
    DIFF = "diff"
    # Routing
    SPLIT = "split"
    ROUTER = "router"
    PARTITION = "partition"
    REPLICATE = "replicate"
    # Data quality
    DEDUPLICATE = "deduplicate"
    FILTER_NULLS = "filter_nulls"
    CROSSCHECK = "crosscheck"
    VALIDATE = "validate"
    CLEANSE = "cleanse"
    # Loading
    LOAD_TABLE = "load_table"
    LOAD_FILE = "load_file"
    # Control / management
    CHECKPOINT = "checkpoint"
    RECOVERY_BRANCH = "recovery_branch"
    ENCRYPT = "encrypt"
    DECRYPT = "decrypt"
    ACCESS_CONTROL = "access_control"
    SCHEDULE = "schedule"
    NOOP = "noop"

    @property
    def category(self) -> OperationCategory:
        """The coarse category of this operation kind."""
        return _KIND_CATEGORIES[self]

    @property
    def is_source(self) -> bool:
        """Whether the operation introduces data into the flow."""
        return self in (
            OperationKind.EXTRACT_FILE,
            OperationKind.EXTRACT_TABLE,
            OperationKind.EXTRACT_SAVEPOINT,
        )

    @property
    def is_sink(self) -> bool:
        """Whether the operation persists data out of the flow."""
        return self in (OperationKind.LOAD_TABLE, OperationKind.LOAD_FILE)

    @property
    def is_blocking(self) -> bool:
        """Whether the operation must consume its whole input before emitting.

        Blocking operations (sort, aggregate, pivot, diff) dominate the
        process cycle time estimation and are preferred application points
        for the ``ParallelizeTask`` pattern.
        """
        return self in (
            OperationKind.SORT,
            OperationKind.AGGREGATE,
            OperationKind.PIVOT,
            OperationKind.DIFF,
        )

    @property
    def is_router(self) -> bool:
        """Whether the operation has multiple data outputs."""
        return self in (
            OperationKind.SPLIT,
            OperationKind.ROUTER,
            OperationKind.PARTITION,
            OperationKind.REPLICATE,
        )

    @property
    def is_merger(self) -> bool:
        """Whether the operation combines multiple data inputs.

        The number of merger nodes is one of the manageability measures of
        Fig. 1 in the paper.
        """
        return self in MERGER_KINDS


#: The kinds that combine multiple data inputs (:attr:`OperationKind.is_merger`),
#: for loops that match by identity instead of through the enum property.
MERGER_KINDS = (
    OperationKind.JOIN,
    OperationKind.UNION,
    OperationKind.MERGE,
    OperationKind.DIFF,
)

_KIND_CATEGORIES: dict[OperationKind, OperationCategory] = {
    OperationKind.EXTRACT_FILE: OperationCategory.EXTRACTION,
    OperationKind.EXTRACT_TABLE: OperationCategory.EXTRACTION,
    OperationKind.EXTRACT_SAVEPOINT: OperationCategory.EXTRACTION,
    OperationKind.FILTER: OperationCategory.TRANSFORMATION,
    OperationKind.PROJECT: OperationCategory.TRANSFORMATION,
    OperationKind.DERIVE: OperationCategory.TRANSFORMATION,
    OperationKind.RENAME: OperationCategory.TRANSFORMATION,
    OperationKind.CONVERT: OperationCategory.TRANSFORMATION,
    OperationKind.SURROGATE_KEY: OperationCategory.TRANSFORMATION,
    OperationKind.LOOKUP: OperationCategory.TRANSFORMATION,
    OperationKind.SLOWLY_CHANGING_DIM: OperationCategory.TRANSFORMATION,
    OperationKind.AGGREGATE: OperationCategory.TRANSFORMATION,
    OperationKind.SORT: OperationCategory.TRANSFORMATION,
    OperationKind.PIVOT: OperationCategory.TRANSFORMATION,
    OperationKind.JOIN: OperationCategory.TRANSFORMATION,
    OperationKind.UNION: OperationCategory.TRANSFORMATION,
    OperationKind.MERGE: OperationCategory.TRANSFORMATION,
    OperationKind.DIFF: OperationCategory.TRANSFORMATION,
    OperationKind.SPLIT: OperationCategory.ROUTING,
    OperationKind.ROUTER: OperationCategory.ROUTING,
    OperationKind.PARTITION: OperationCategory.ROUTING,
    OperationKind.REPLICATE: OperationCategory.ROUTING,
    OperationKind.DEDUPLICATE: OperationCategory.DATA_QUALITY,
    OperationKind.FILTER_NULLS: OperationCategory.DATA_QUALITY,
    OperationKind.CROSSCHECK: OperationCategory.DATA_QUALITY,
    OperationKind.VALIDATE: OperationCategory.DATA_QUALITY,
    OperationKind.CLEANSE: OperationCategory.DATA_QUALITY,
    OperationKind.LOAD_TABLE: OperationCategory.LOADING,
    OperationKind.LOAD_FILE: OperationCategory.LOADING,
    OperationKind.CHECKPOINT: OperationCategory.CONTROL,
    OperationKind.RECOVERY_BRANCH: OperationCategory.CONTROL,
    OperationKind.ENCRYPT: OperationCategory.CONTROL,
    OperationKind.DECRYPT: OperationCategory.CONTROL,
    OperationKind.ACCESS_CONTROL: OperationCategory.CONTROL,
    OperationKind.SCHEDULE: OperationCategory.CONTROL,
    OperationKind.NOOP: OperationCategory.CONTROL,
}


_id_counter = itertools.count(1)


def _next_operation_id(kind: OperationKind) -> str:
    """Generate a readable unique default identifier for an operation."""
    return f"{kind.value}_{next(_id_counter)}"


@dataclass(frozen=True)
class Operation:
    """A single ETL flow operation (one node of the flow graph).

    Parameters
    ----------
    kind:
        The :class:`OperationKind` of this operation.
    name:
        A human-readable label; defaults to the generated ``op_id``.
    op_id:
        Unique identifier within a flow.  Generated when omitted.  It may
        not contain a NUL character (``ValueError``).
    output_schema:
        Schema of the records this operation emits.  Routers emit the same
        schema on every outgoing edge unless ``per_output_schemas`` is set
        in ``config``.
    config:
        Operation-specific configuration (predicate text, join keys,
        derivation expressions, target table, degree of parallelism, ...),
        stored as a read-only mapping.
    properties:
        Runtime annotations used by the simulator and the static measure
        estimators (cost per tuple, selectivity, error rate, ...).
    """

    kind: OperationKind
    name: str = ""
    op_id: str = ""
    output_schema: Schema = field(default_factory=Schema)
    config: Mapping[str, Any] = field(default_factory=ReadOnlyDict)
    properties: OperationProperties = field(default_factory=OperationProperties)

    def __post_init__(self) -> None:
        if not self.op_id:
            object.__setattr__(self, "op_id", _next_operation_id(self.kind))
        elif "\x00" in self.op_id:
            # Flow fingerprints end each transition id with a NUL byte.
            raise ValueError(f"operation id may not contain NUL: {self.op_id!r}")
        if not self.name:
            object.__setattr__(self, "name", self.op_id)
        if type(self.config) is not ReadOnlyDict:
            object.__setattr__(self, "config", ReadOnlyDict(self.config))

    # -- convenience ----------------------------------------------------

    @property
    def category(self) -> OperationCategory:
        """Coarse category of this operation."""
        return self.kind.category

    @property
    def is_source(self) -> bool:
        return self.kind.is_source

    @property
    def is_sink(self) -> bool:
        return self.kind.is_sink

    @property
    def parallelism(self) -> int:
        """Configured degree of parallelism (1 when not parallelised)."""
        return int(self.config.get("parallelism", 1))

    def to_dict(self) -> dict[str, Any]:
        """Serialise the operation to a JSON-friendly structure."""
        return {
            "op_id": self.op_id,
            "name": self.name,
            "kind": self.kind.value,
            "output_schema": self.output_schema.to_dict(),
            "config": dict(self.config),
            "properties": self.properties.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Operation":
        """Deserialise an operation produced by :meth:`to_dict`."""
        return cls(
            kind=OperationKind(data["kind"]),
            name=str(data.get("name", "")),
            op_id=str(data.get("op_id", "")),
            output_schema=Schema.from_dict(data.get("output_schema", [])),
            config=data.get("config", {}),
            properties=OperationProperties.from_dict(data.get("properties", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation({self.kind.value!r}, id={self.op_id!r}, name={self.name!r})"
