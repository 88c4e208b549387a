"""Runtime annotations attached to ETL operations.

The paper distinguishes two families of quality measures: those that derive
from the static structure of the process model and those obtained from the
analysis of historical traces of the runtime behaviour of ETL components.
:class:`OperationProperties` carries the per-operation parameters that feed
both the static estimators and the runtime simulator that produces traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping


class ReadOnlyDict(dict):
    """A ``dict`` that refuses every write.

    Operation payloads are values shared by a flow and all its forks, so
    the mappings inside them (``Operation.config``,
    ``OperationProperties.extra``) must never change after construction.
    Reads, ``==``, ``repr`` and JSON encoding are those of a plain
    ``dict`` -- fingerprints digest the ``repr`` of the items, so they do
    not see the difference -- and ``copy()`` returns a plain, writable
    ``dict``.  Any write raises ``TypeError``.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(f"{type(self).__name__} does not support item assignment")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple:
        return (ReadOnlyDict, (dict(self),))


@dataclass(frozen=True)
class OperationProperties:
    """Per-operation runtime parameters.

    Parameters
    ----------
    cost_per_tuple:
        CPU time (in milliseconds) spent per input tuple.
    fixed_cost:
        Fixed start-up time (in milliseconds) paid once per execution,
        regardless of the input size (e.g. connection set-up, sort buffers).
    selectivity:
        Expected ratio ``output rows / input rows`` (``1.0`` for
        row-preserving operations, ``< 1`` for filters, ``> 1`` for
        row-generating operations).
    error_rate:
        Probability that a processed tuple carries a data error introduced
        or left uncorrected by this operation.
    null_rate:
        Fraction of produced tuples with NULLs in nullable fields (sources
        and lookups mainly).
    duplicate_rate:
        Fraction of produced tuples that duplicate another tuple's key.
    failure_rate:
        Probability that the operation fails during one process execution
        (feeds the reliability measures and the checkpoint pattern).
    memory_per_tuple:
        Memory footprint per buffered tuple in KiB (blocking operations).
    freshness_lag:
        Lag, in minutes, between the source system update and the moment
        this operation can observe the change (sources only).
    update_frequency:
        How many times per day the underlying source is refreshed
        (sources only); feeds the data-quality "age" measure of Fig. 1.
    monetary_cost:
        Monetary cost per execution attributed to this operation
        (licences, cloud resources), in abstract cost units.
    extra:
        Free-form additional annotations preserved by serialisation
        (stored read-only).

    Properties are frozen: derive changed ones with
    ``dataclasses.replace``.
    """

    cost_per_tuple: float = 0.01
    fixed_cost: float = 0.0
    selectivity: float = 1.0
    error_rate: float = 0.0
    null_rate: float = 0.0
    duplicate_rate: float = 0.0
    failure_rate: float = 0.0
    memory_per_tuple: float = 0.1
    freshness_lag: float = 0.0
    update_frequency: float = 24.0
    monetary_cost: float = 0.0
    extra: Mapping[str, Any] = field(default_factory=ReadOnlyDict)

    def __post_init__(self) -> None:
        if type(self.extra) is not ReadOnlyDict:
            object.__setattr__(self, "extra", ReadOnlyDict(self.extra))
        if self.cost_per_tuple < 0:
            raise ValueError("cost_per_tuple must be non-negative")
        if self.fixed_cost < 0:
            raise ValueError("fixed_cost must be non-negative")
        if self.selectivity < 0:
            raise ValueError("selectivity must be non-negative")
        for name in ("error_rate", "null_rate", "duplicate_rate", "failure_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def fingerprint_code(self) -> str:
        """The SHA-256 (64 hex) of these properties, as flow fingerprints digest them.

        Taken over the ``repr`` of the eleven numbers in field order
        followed by the sorted ``(str(key), repr(value))`` items of
        ``extra``, once, and memoized: properties are frozen, and one
        properties object is shared by every operation and fork that
        carries it.
        """
        try:
            return self._fingerprint_code  # type: ignore[attr-defined]
        except AttributeError:
            text = repr(
                (
                    self.cost_per_tuple,
                    self.fixed_cost,
                    self.selectivity,
                    self.error_rate,
                    self.null_rate,
                    self.duplicate_rate,
                    self.failure_rate,
                    self.memory_per_tuple,
                    self.freshness_lag,
                    self.update_frequency,
                    self.monetary_cost,
                    tuple(sorted((str(k), repr(v)) for k, v in self.extra.items())),
                )
            )
            code = hashlib.sha256(text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint_code", code)
            return code

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-friendly mapping (only non-default values kept compactly)."""
        return {
            "cost_per_tuple": self.cost_per_tuple,
            "fixed_cost": self.fixed_cost,
            "selectivity": self.selectivity,
            "error_rate": self.error_rate,
            "null_rate": self.null_rate,
            "duplicate_rate": self.duplicate_rate,
            "failure_rate": self.failure_rate,
            "memory_per_tuple": self.memory_per_tuple,
            "freshness_lag": self.freshness_lag,
            "update_frequency": self.update_frequency,
            "monetary_cost": self.monetary_cost,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OperationProperties":
        """Deserialise properties produced by :meth:`to_dict`."""
        known = {
            "cost_per_tuple",
            "fixed_cost",
            "selectivity",
            "error_rate",
            "null_rate",
            "duplicate_rate",
            "failure_rate",
            "memory_per_tuple",
            "freshness_lag",
            "update_frequency",
            "monetary_cost",
        }
        kwargs = {key: float(data[key]) for key in known if key in data}
        return cls(extra=data.get("extra", {}), **kwargs)
