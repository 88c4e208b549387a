"""The fleet package loads its submodules only when an export is used."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro.fleet

_SRC = Path(__file__).resolve().parents[2] / "src"


def _loaded_after(statement: str) -> set[str]:
    """The ``repro.fleet`` modules a fresh interpreter holds after ``statement``."""
    script = (
        f"import sys\n{statement}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro.fleet')))"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_importing_the_service_loads_neither_the_queue_nor_the_workers():
    loaded = _loaded_after("import repro.service")
    assert "repro.fleet.queue" not in loaded
    assert "repro.fleet.worker" not in loaded


def test_an_export_loads_its_own_submodule_only():
    loaded = _loaded_after("from repro.fleet import HashRing")
    assert "repro.fleet.ring" in loaded
    assert not loaded & {"repro.fleet.queue", "repro.fleet.worker"}


def test_every_export_resolves():
    for name in repro.fleet.__all__:
        assert getattr(repro.fleet, name) is not None
    assert set(repro.fleet.__all__) <= set(dir(repro.fleet))
