"""Quality characteristics and measures for ETL processes.

Implements the measurement framework of the paper (and of the authors'
companion work "Quality Measures for ETL Processes", DaWaK 2014): quality
*characteristics* (performance, data quality, reliability, manageability,
cost, security) are quantified by *measures*, some computed from the
static structure of the flow graph and some from (simulated) runtime
traces.  Every profile is one row against its registry's measure table;
composite scores aggregate detailed metrics per characteristic and can be
expanded back into their components, which is what the Fig. 5 drill-down
of the tool shows.
"""

from repro.quality.framework import (
    QualityCharacteristic,
    Measure,
    MeasureValue,
    MeasureRegistry,
    default_registry,
)
from repro.quality.composite import MeasureTable, QualityProfile
from repro.quality.estimator import EstimationSettings, QualityEstimator

from repro.quality import (  # noqa: F401  (re-exported measure modules)
    performance,
    data_quality,
    reliability,
    manageability,
    cost,
)

__all__ = [
    "QualityCharacteristic",
    "Measure",
    "MeasureValue",
    "MeasureRegistry",
    "default_registry",
    "MeasureTable",
    "QualityProfile",
    "QualityEstimator",
    "EstimationSettings",
]
