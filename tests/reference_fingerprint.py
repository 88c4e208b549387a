"""A from-scratch reference for :meth:`ETLGraph.fingerprint`.

The graph caches its fingerprint entries on copy-on-write graphs and
merges them from the copy parent's entries plus the recorded
:class:`~repro.etl.graph.GraphDelta`.  This reference ignores every cache
and every delta: it walks the live operations, transitions and
annotations of the flow, exactly as ``flow_fingerprint`` did before the
incremental maintenance, so a disagreement points at the merge or at a
missed invalidation.
"""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.quality.estimator import QualityEstimator


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


def reference_cache_key(estimator: QualityEstimator, flow: ETLGraph) -> tuple:
    """:meth:`QualityEstimator.cache_key` over :func:`reference_fingerprint`."""
    registry = tuple(
        sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry)
    )
    return (reference_fingerprint(flow), estimator.settings.fingerprint(), registry)
