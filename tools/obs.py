#!/usr/bin/env python
"""Fleet observability dashboard (``make obs``).

Polls the ``GET /metrics`` endpoint of one or more repro servers --
cache shards, redesign servers, fleet front-ends -- and renders a
one-screen dashboard of the golden metrics (cache hit rate, p50/p99
plan latency, queue depth, worker liveness) plus any threshold
violations::

    PYTHONPATH=src python tools/obs.py http://127.0.0.1:8732 \
        http://127.0.0.1:8741 http://127.0.0.1:8742

``--json`` emits one combined JSON snapshot (for scripts and CI gates)
instead of the rendered screen; ``--interval N`` re-polls and redraws
every N seconds until interrupted.  Threshold flags (``--min-hit-rate``,
``--max-p99`` ...) tune the golden gates of
:func:`repro.obs.evaluate_golden`; the exit status is the number of
endpoints with violations (0 = all green), so the command doubles as a
health check.  ``/metrics`` is auth-exempt -- no token needed.

See ``docs/observability.md`` for the metric catalog and the runbook.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.obs import GoldenThresholds, evaluate_golden, golden_metrics  # noqa: E402
from repro.wire import PooledJSONClient  # noqa: E402


def scrape(url: str, timeout: float = 5.0) -> dict:
    """One ``GET /metrics`` payload, or ``{"error": ...}`` on failure."""
    client = PooledJSONClient(url, timeout)
    try:
        payload = client.request_json("GET", "/metrics")
        if not isinstance(payload, dict):
            return {"error": f"non-object /metrics payload: {type(payload).__name__}"}
        return payload
    except Exception as exc:  # noqa: BLE001 - a dashboard never crashes on a scrape
        return {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        client.close()


def _format_value(name: str, value: object) -> str:
    if not isinstance(value, (int, float)):
        return str(value)
    if name.endswith("_seconds"):
        return f"{value * 1000.0:.1f}ms" if value < 1.0 else f"{value:.2f}s"
    if name.endswith("_rate"):
        return f"{value * 100.0:.1f}%"
    return f"{value:g}"


#: Golden signals in display order (missing ones are simply skipped).
_GOLDEN_ORDER = (
    "cache_hit_rate",
    "plan_count",
    "plan_p50_seconds",
    "plan_p99_seconds",
    "queue_depth",
    "workers_alive",
)


def render(url: str, payload: dict, thresholds: GoldenThresholds) -> tuple[str, int]:
    """One endpoint's dashboard block; returns (text, violation count)."""
    lines = []
    error = payload.get("error")
    if error is not None:
        lines.append(f"✗ {url}  UNREACHABLE  {error}")
        return "\n".join(lines), 1
    golden = golden_metrics(payload)
    violations = evaluate_golden(payload, thresholds)
    mark = "✗" if violations else "✓"
    kind = payload.get("server", "?")
    lines.append(f"{mark} {url}  [{kind}]")
    shown = [name for name in _GOLDEN_ORDER if name in golden]
    shown += sorted(name for name in golden if name not in _GOLDEN_ORDER)
    if shown:
        lines.append(
            "    "
            + "  ".join(f"{name}={_format_value(name, golden[name])}" for name in shown)
        )
    else:
        lines.append("    (no golden signals yet)")
    for violation in violations:
        lines.append(f"    VIOLATION: {violation.describe()}")
    return "\n".join(lines), len(violations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("urls", nargs="+", metavar="URL", help="server base URLs to scrape")
    parser.add_argument("--timeout", type=float, default=5.0, help="per-scrape timeout, seconds")
    parser.add_argument(
        "--interval",
        type=float,
        default=None,
        help="re-poll and redraw every N seconds (default: render once and exit)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one combined JSON snapshot (url -> /metrics payload) and exit",
    )
    parser.add_argument("--min-hit-rate", type=float, default=None, help="golden gate: minimum cache hit rate (0..1)")
    parser.add_argument("--max-p50", type=float, default=None, help="golden gate: maximum p50 plan latency, seconds")
    parser.add_argument("--max-p99", type=float, default=None, help="golden gate: maximum p99 plan latency, seconds")
    parser.add_argument("--max-queue-depth", type=float, default=None, help="golden gate: maximum queue depth")
    parser.add_argument("--min-workers", type=float, default=None, help="golden gate: minimum live workers")
    args = parser.parse_args(argv)

    defaults = GoldenThresholds()
    thresholds = GoldenThresholds(
        min_cache_hit_rate=args.min_hit_rate if args.min_hit_rate is not None else defaults.min_cache_hit_rate,
        max_plan_p50_seconds=args.max_p50 if args.max_p50 is not None else defaults.max_plan_p50_seconds,
        max_plan_p99_seconds=args.max_p99 if args.max_p99 is not None else defaults.max_plan_p99_seconds,
        max_queue_depth=args.max_queue_depth if args.max_queue_depth is not None else defaults.max_queue_depth,
        min_workers_alive=args.min_workers if args.min_workers is not None else defaults.min_workers_alive,
    )

    if args.json:
        snapshot = {url: scrape(url, args.timeout) for url in args.urls}
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return sum(1 for payload in snapshot.values() if "error" in payload)

    while True:
        blocks = []
        bad = 0
        for url in args.urls:
            text, violations = render(url, scrape(url, args.timeout), thresholds)
            blocks.append(text)
            bad += 1 if violations else 0
        stamp = time.strftime("%H:%M:%S")
        screen = f"repro fleet dashboard  {stamp}  ({len(args.urls)} endpoint(s))\n\n"
        screen += "\n\n".join(blocks)
        if args.interval is None:
            print(screen)
            return bad
        # Clear and redraw for the watch loop.
        print("\033[2J\033[H" + screen, flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return bad


if __name__ == "__main__":
    raise SystemExit(main())
