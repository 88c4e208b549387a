"""The runtime under ``src/repro/`` keeps out of a few imports.

* networkx is a test dependency only: the test oracles
  (``tests/reference_graph.py``) build networkx graphs to check
  :class:`repro.etl.graph.ETLGraph` against.
* No process pools: within one plan the evaluator is a single loop on
  the calling thread, and more processes come from the fleet's planner
  workers (``tools/worker.py``), not from ``multiprocessing`` or a
  ``concurrent.futures.ProcessPoolExecutor``.

This test parses every module of the package and fails on any import in
:data:`FORBIDDEN`, at any nesting level, so ``make check`` keeps the
boundary.
"""

from __future__ import annotations

import ast
from collections.abc import Mapping
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Forbidden imports: a module (and its submodules), mapped to the names
#: it may not supply, or ``None`` when the module itself is forbidden.
FORBIDDEN: dict[str, frozenset[str] | None] = {
    "networkx": None,
    "multiprocessing": None,
    "concurrent.futures": frozenset({"ProcessPoolExecutor"}),
}


def _rule(module: str, rules: Mapping[str, frozenset[str] | None]) -> str | None:
    """The key of ``rules`` governing ``module``, if any."""
    for name in rules:
        if module == name or module.startswith(name + "."):
            return name
    return None


def forbidden_imports(
    source: str, rules: Mapping[str, frozenset[str] | None] = FORBIDDEN
) -> list[int]:
    """Line numbers of the imports ``rules`` forbid in a module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(
                (rule := _rule(alias.name, rules)) is not None and rules[rule] is None
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            rule = _rule(node.module or "", rules)
            names = rules[rule] if rule is not None else frozenset()
            hit = rule is not None and (
                names is None or any(alias.name in names for alias in node.names)
            )
        else:
            continue
        if hit:
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
    assert forbidden_imports(source)


@pytest.mark.parametrize(
    "source",
    [
        "import multiprocessing",
        "from multiprocessing.pool import Pool",
        "from concurrent.futures import Future, ProcessPoolExecutor",
        "from concurrent.futures.process import ProcessPoolExecutor",
        "def f():\n    import multiprocessing as mp\n",
    ],
)
def test_detects_process_pool_imports(source):
    assert forbidden_imports(source)


def test_ignores_other_imports_and_mentions():
    source = (
        'import networkxx\nfrom . import networkx\n"networkx"\n'
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessingx\n"
    )
    assert forbidden_imports(source) == []


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_src_has_no_forbidden_imports(module):
    """One case per :data:`FORBIDDEN` entry, so a failure names the rule."""
    rule = {module: FORBIDDEN[module]}
    modules = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert modules
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): lines
        for path in modules
        if (lines := forbidden_imports(path.read_text(encoding="utf-8"), rule))
    }
    assert offenders == {}
