"""The runtime under ``src/repro/`` does not import networkx.

networkx is a test dependency only: the test oracles
(``tests/reference_graph.py``) build networkx graphs to check
:class:`repro.etl.graph.ETLGraph` against.  This test parses every module
of the package and fails on any ``networkx`` import, at any nesting
level, so ``make check`` keeps the boundary.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def networkx_imports(source: str) -> list[int]:
    """Line numbers of the ``networkx`` imports in a module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "networkx" or name.startswith("networkx.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import networkx as nx",
        "import os, networkx",
        "from networkx.algorithms import dag",
        "def f():\n    import networkx.algorithms.dag\n",
    ],
)
def test_detects_networkx_imports(source):
    assert networkx_imports(source)


def test_ignores_other_imports_and_mentions():
    assert networkx_imports('import networkxx\nfrom . import networkx\n"networkx"\n') == []


def test_src_does_not_import_networkx():
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert modules
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): lines
        for path in modules
        if (lines := networkx_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
