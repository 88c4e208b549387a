"""A from-scratch reference for :meth:`ETLGraph.fingerprint`.

The graph caches its per-operation fingerprint entries on copy-on-write
graphs and merges them from the copy parent's entries plus the recorded
:class:`~repro.etl.graph.GraphDelta`.  This reference ignores every cache
and every delta: :func:`reference_fingerprint` walks the live
operations, transitions and annotations of the flow into one nested
tuple, and :func:`reference_digest` hashes that tuple the way the graph
does (each operation entry, then the whole), so a disagreement points at
the merge or at a missed invalidation.
"""

from __future__ import annotations

import hashlib

from repro.cache import CACHE_SCHEMA_VERSION
from repro.etl.graph import ETLGraph
from repro.quality.estimator import QualityEstimator


def _sha256(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def reference_fingerprint(flow: ETLGraph) -> tuple:
    """The content fingerprint of ``flow``, rebuilt from its live state."""
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


def reference_digest(flow: ETLGraph) -> str:
    """:meth:`ETLGraph.fingerprint` from :func:`reference_fingerprint`, no cache, no delta."""
    entries, edges, annotations = reference_fingerprint(flow)
    digested = tuple((entry[0], _sha256(entry)) for entry in entries)
    return _sha256((digested, edges, annotations))


def reference_cache_key(estimator: QualityEstimator, flow: ETLGraph) -> str:
    """:meth:`QualityEstimator.cache_key` over :func:`reference_digest`."""
    registry = tuple(
        sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry)
    )
    return _sha256(
        (CACHE_SCHEMA_VERSION, reference_digest(flow), estimator.settings.fingerprint(), registry)
    )
