#!/usr/bin/env python
"""Load the YAML flow DSL and actually execute it.

Reads ``examples/flow.yaml`` (a hand-written purchases flow in the
compact YAML dialect of :mod:`repro.io.yamlflow`), executes it on the
pure-Python ``local`` execution backend with deterministic sampled
source data, and prints the per-node execution report.  The same flow
can be run from the command line with ``python tools/run_flow.py
examples/flow.yaml``.

Run with::

    python examples/run_yaml_flow.py
"""

from __future__ import annotations

from pathlib import Path

from repro.exec import FlowExecutor, RecoveryPolicy
from repro.io import load_flow_yaml

FLOW_PATH = Path(__file__).resolve().parent / "flow.yaml"


def main() -> None:
    flow = load_flow_yaml(FLOW_PATH)
    print(f"Loaded {flow.name!r}: {flow.node_count} operations, "
          f"{flow.edge_count} transitions")

    executor = FlowExecutor(
        policy=RecoveryPolicy(max_retries=1, on_exhaustion="skip"),
        data_seed=7,
    )
    report = executor.execute(flow)

    print(f"Executed on backend {report.backend!r} in {report.elapsed_ms:.1f} ms")
    for run in report.node_runs:
        print(f"  {run.op_id:24s} {run.status:9s} "
              f"{run.rows_in:5d} -> {run.rows_out:5d} rows")
    print(f"Rows loaded into sinks: {report.rows_loaded}")


if __name__ == "__main__":
    main()
