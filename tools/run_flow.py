#!/usr/bin/env python
"""Execute an ETL flow document from the command line.

Loads a flow from the YAML DSL (``.yaml``/``.yml``, see
``docs/execution.md``) or the native JSON interchange format (``.json``),
compiles it for the pure-Python execution backend and runs it on
deterministic sampled source data, printing the per-node execution
report::

    PYTHONPATH=src python tools/run_flow.py examples/flow.yaml
    PYTHONPATH=src python tools/run_flow.py flow.json --json

Node failures route through the recovery policy instead of aborting the
run: ``--on-exhaustion skip`` drops the failing branch, ``dead_letter``
records it in the report, and the default ``raise`` stops with a
non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.exec import (  # noqa: E402
    EXHAUSTION_ROUTES,
    ExecutionError,
    FlowExecutor,
    RecoveryPolicy,
)
from repro.io import load_flow_json, load_flow_yaml  # noqa: E402


def _load_flow(path: Path):
    if path.suffix.lower() in (".yaml", ".yml"):
        return load_flow_yaml(path)
    if path.suffix.lower() == ".json":
        return load_flow_json(path)
    raise ValueError(
        f"unsupported flow document {path.name!r} (use .yaml, .yml or .json)"
    )


def _render(report) -> str:
    lines = [
        f"flow {report.flow_name!r} on backend {report.backend!r}: "
        f"{report.rows_loaded} rows loaded in {report.elapsed_ms:.1f} ms"
    ]
    for run in report.node_runs:
        flags = []
        if run.attempts > 1:
            flags.append(f"attempts={run.attempts}")
        if run.savepoint_used:
            flags.append(f"savepoint={run.savepoint_used}")
        if run.error:
            flags.append(f"error={run.error}")
        suffix = ("  [" + ", ".join(flags) + "]") if flags else ""
        lines.append(
            f"  {run.op_id:28s} {run.status:11s} "
            f"{run.rows_in:6d} -> {run.rows_out:6d} rows{suffix}"
        )
    if report.dead_letters:
        lines.append(f"dead letters: {sorted(report.dead_letters)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("flow", type=Path, help="flow document (.yaml/.yml/.json)")
    parser.add_argument(
        "--data-seed", type=int, default=7, help="source sampling seed (default: 7)"
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per checkpointed node before the exhaustion route (default: 2)",
    )
    parser.add_argument(
        "--on-exhaustion",
        default="raise",
        choices=EXHAUSTION_ROUTES,
        help="what to do when retries run out (default: raise)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    args = parser.parse_args(argv)

    try:
        flow = _load_flow(args.flow)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    executor = FlowExecutor(
        policy=RecoveryPolicy(
            max_retries=args.max_retries, on_exhaustion=args.on_exhaustion
        ),
        data_seed=args.data_seed,
    )
    try:
        report = executor.execute(flow)
    except ExecutionError as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(report.to_dict(), indent=2) if args.json else _render(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
