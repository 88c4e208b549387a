"""A from-scratch reference for :meth:`ETLGraph.fingerprint` (cache schema version 3).

The graph caches its per-operation fingerprint entries on copy-on-write
graphs and merges them from the copy parent's entries plus the recorded
:class:`~repro.etl.graph.GraphDelta`; the schema and properties codes
are memoized on the frozen values.  This reference ignores every cache,
memo and delta: :func:`reference_fingerprint` walks the live
operations, transitions and annotations of the flow into one nested
tuple, and :func:`reference_digest` encodes that tuple the way the
graph does -- each operation's flat tuple hashed to 32 bytes, then one
SHA-256 over the header, the operation digests, the NUL-terminated
transition ids and the annotations -- so a disagreement points at the
merge, a memo or a missed invalidation.
"""

from __future__ import annotations

import hashlib

from repro.cache import CACHE_SCHEMA_VERSION
from repro.etl.graph import ETLGraph
from repro.quality.estimator import QualityEstimator


def _sha256(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def reference_fingerprint(flow: ETLGraph) -> tuple:
    """The content fingerprint of ``flow``, rebuilt from its live state.

    ``(operations, transitions, annotations)``: per operation, sorted by
    id, ``(op_id, kind, parallelism, schema fields, config items, the
    eleven property numbers..., extra items)``.  Nothing is hashed, so
    two flows share this tuple exactly when their contents are equal.
    """
    ops = []
    for op in flow.operations():
        props = op.properties
        ops.append(
            (
                op.op_id,
                op.kind.value,
                op.parallelism,
                tuple((f.name, f.dtype.value, f.nullable, f.key) for f in op.output_schema.fields),
                tuple(sorted((str(k), repr(v)) for k, v in op.config.items())),
                props.cost_per_tuple,
                props.fixed_cost,
                props.selectivity,
                props.error_rate,
                props.null_rate,
                props.duplicate_rate,
                props.failure_rate,
                props.memory_per_tuple,
                props.freshness_lag,
                props.update_frequency,
                props.monetary_cost,
                tuple(sorted((str(k), repr(v)) for k, v in props.extra.items())),
            )
        )
    ops.sort()
    return (
        tuple(ops),
        tuple(sorted((e.source, e.target) for e in flow.edges())),
        tuple(sorted((str(k), repr(v)) for k, v in flow.annotations.items())),
    )


def _operation_digest(entry: tuple) -> bytes:
    """The 32-byte digest of one :func:`reference_fingerprint` operation entry.

    Over the flat tuple ``(op_id, kind, parallelism, schema code, config
    items, properties code)``, where the schema code is the hex SHA-256
    of ``repr`` of the field tuples and the properties code that of
    ``repr`` of the eleven numbers and the extra items.
    """
    flat = (entry[0], entry[1], entry[2], _sha256(entry[3]), entry[4], _sha256(entry[5:]))
    return hashlib.sha256(repr(flat).encode("utf-8")).digest()


def reference_digest(flow: ETLGraph) -> str:
    """:meth:`ETLGraph.fingerprint` from :func:`reference_fingerprint`, no cache, no delta."""
    entries, edges, annotations = reference_fingerprint(flow)
    ids = [op_id for edge in edges for op_id in edge]
    encoded = b"".join(op_id.encode("utf-8", "surrogatepass") + b"\x00" for op_id in ids)
    return hashlib.sha256(
        f"{len(entries)}:{len(edges)}:".encode()
        + b"".join(_operation_digest(entry) for entry in entries)
        + (encoded or b"\x00")
        + repr(annotations).encode("utf-8")
    ).hexdigest()


def reference_cache_key(estimator: QualityEstimator, flow: ETLGraph) -> str:
    """:meth:`QualityEstimator.cache_key` over :func:`reference_digest`."""
    registry = tuple(
        sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry)
    )
    return _sha256(
        (CACHE_SCHEMA_VERSION, reference_digest(flow), estimator.settings.fingerprint(), registry)
    )
