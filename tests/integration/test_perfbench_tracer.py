"""The benchmark's per-layer tracer still finds what it wraps.

``perfbench/tracing.py`` wraps public entry points by name (client
methods, the module-level ``result_from_dict`` the client calls, the
wire client, the server's ``submit``).  A rename would make it fail to
install, or silently record nothing for a layer; this test runs one
traced in-process job and checks that the service layers were seen.
The module is loaded from its file, read-only.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.service import RedesignClient, RedesignServer
from repro.service.client import RedesignClient as ClientClass

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_traced_job_records_every_service_layer(tracing, linear_flow):
    originals = {name: ClientClass.__dict__[name] for name in ("submit", "wait", "status")}
    tracer = tracing.Tracer()
    server = RedesignServer(workers=1).start()
    try:
        tracer.install(caches=[server.cache], server=server)
        try:
            with RedesignClient(server.url, timeout=10.0) as client:
                job_id = client.submit(linear_flow, {"pattern_budget": 1, "simulation_runs": 1})
                assert client.wait(job_id, timeout=60.0)["status"] == "done"
                result = client.result(job_id)
        finally:
            tracer.uninstall()
    finally:
        server.stop()
    assert result.alternatives
    metrics = tracer.layer_metrics(untraced_rate=1.0, traced_rate=1.0)
    assert metrics["service.result_bytes"] > 0
    assert metrics["service.polls"] >= 1
    assert tracer.calls["service.result_decode"] == 1
    assert tracer.calls["service.result_fetch"] == 1
    assert tracer.calls["service.accept"] == 1
    assert tracer.calls["plan"] == 1 and metrics["queue.wait_seconds"] >= 0.0
    assert tracer.calls["wire"] >= 3
    # uninstall restored the originals
    assert {name: ClientClass.__dict__[name] for name in originals} == originals
