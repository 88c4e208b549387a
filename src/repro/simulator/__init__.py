"""Runtime simulator for ETL flows.

The paper's quality measures fall into two families: measures derived from
the static structure of the process model, and measures obtained from the
analysis of historical traces capturing the runtime behaviour of ETL
components.  Real historical traces are not available to this
reproduction, so this package provides the substitute substrate: a
discrete, operator-by-operator simulation of an ETL flow execution over
synthetic data that produces :class:`~repro.simulator.traces.FlowTrace`
records, including failure and recovery behaviour, from which the
trace-based measures are computed.
"""

from repro.simulator.datagen import SourceProfile, SyntheticDataGenerator
from repro.simulator.resources import ResourceModel, ResourceTier
from repro.simulator.traces import FlowTrace, OperationTrace, TraceArchive
from repro.simulator.failures import FailureInjector, FailureEvent
from repro.simulator.engine import SimulationConfig, SimulationMemo, ETLSimulator, simulate_flow

__all__ = [
    "SourceProfile",
    "SyntheticDataGenerator",
    "ResourceModel",
    "ResourceTier",
    "FlowTrace",
    "OperationTrace",
    "TraceArchive",
    "FailureInjector",
    "FailureEvent",
    "SimulationConfig",
    "SimulationMemo",
    "ETLSimulator",
    "simulate_flow",
]
