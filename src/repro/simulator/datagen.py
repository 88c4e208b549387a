"""Synthetic data characteristics for ETL sources.

The reproduction has no access to the production data sources the paper's
demo extracts from (TPC-DS / TPC-H refresh streams on real systems), so
source behaviour is modelled statistically: each extraction operation is
described by a :class:`SourceProfile` giving the number of rows it emits
and the data-quality defects (nulls, duplicates, erroneous values,
staleness) present in that data.  The simulator propagates these defect
counts through the flow, which is what the data-quality patterns
(``FilterNullValues``, ``RemoveDuplicateEntries``, ``CrosscheckSources``)
act upon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.etl.operations import Operation


@dataclass(frozen=True)
class SourceProfile:
    """Statistical description of the data emitted by one source operation.

    Attributes
    ----------
    rows:
        Number of rows extracted per execution.
    null_rate:
        Fraction of rows carrying NULLs in at least one nullable field.
    duplicate_rate:
        Fraction of rows whose key duplicates another row.
    error_rate:
        Fraction of rows carrying an incorrect value (referential breaks,
        bad formats, out-of-range numbers).
    freshness_lag_minutes:
        Average delay between the last source-system update and extraction
        (the "Request time - Time of last update" measure of Fig. 1).
    update_frequency_per_day:
        How often per day the source system refreshes its data.
    """

    rows: int = 1000
    null_rate: float = 0.0
    duplicate_rate: float = 0.0
    error_rate: float = 0.0
    freshness_lag_minutes: float = 0.0
    update_frequency_per_day: float = 24.0

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise ValueError("rows must be non-negative")
        for name in ("null_rate", "duplicate_rate", "error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @classmethod
    def from_operation(cls, operation: Operation) -> "SourceProfile":
        """Derive a profile from an extraction operation's configuration."""
        props = operation.properties
        return cls(
            rows=int(operation.config.get("rows", 1000)),
            null_rate=props.null_rate,
            duplicate_rate=props.duplicate_rate,
            error_rate=props.error_rate,
            freshness_lag_minutes=props.freshness_lag,
            update_frequency_per_day=props.update_frequency,
        )


class SyntheticDataGenerator:
    """Samples per-execution source volumes and defect counts.

    A generator is seeded so that simulations are reproducible; each call
    to :meth:`sample` yields slightly different volumes (±``jitter``) to
    model run-to-run variation of extraction volumes, which in turn makes
    trace-based measures behave like aggregates over historical runs.
    """

    def __init__(self, seed: int | None = 7, jitter: float = 0.05) -> None:
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        self._rng = np.random.default_rng(seed)
        self.jitter = jitter

    def sample(self, profile: SourceProfile) -> dict[str, float]:
        """Sample one execution's worth of data characteristics for a source.

        Returns a mapping with keys ``rows``, ``null_rows``,
        ``duplicate_rows``, ``error_rows``, ``freshness_lag_minutes`` and
        ``update_frequency_per_day``.
        """
        if profile.rows == 0:
            rows = 0
        else:
            factor = 1.0 + self._rng.uniform(-self.jitter, self.jitter)
            rows = max(1, int(round(profile.rows * factor)))
        return {
            "rows": float(rows),
            "null_rows": float(self._binomial(rows, profile.null_rate)),
            "duplicate_rows": float(self._binomial(rows, profile.duplicate_rate)),
            "error_rows": float(self._binomial(rows, profile.error_rate)),
            "freshness_lag_minutes": profile.freshness_lag_minutes,
            "update_frequency_per_day": profile.update_frequency_per_day,
        }

    def _binomial(self, n: int, p: float) -> int:
        if n <= 0 or p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        return int(self._rng.binomial(n, p))

    def uniform(self, low: float, high: float) -> float:
        """Expose a uniform sample from the generator's stream (failure timing)."""
        return float(self._rng.uniform(low, high))

    def random(self) -> float:
        """A uniform sample in ``[0, 1)``."""
        return float(self._rng.random())

    def random_batch(self, count: int) -> list[float]:
        """``count`` uniform samples in ``[0, 1)``: the same stream as ``count`` :meth:`random` calls."""
        return self._rng.random(count).tolist()
