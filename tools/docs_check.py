#!/usr/bin/env python
"""Documentation consistency checks (the ``make docs-check`` target).

Four failure modes the docs surface must never regress into:

1. **Broken intra-repository links.** Every relative link target in
   ``README.md`` and ``docs/*.md`` must exist on disk (external
   ``http(s)://`` links and pure ``#anchor`` fragments are out of
   scope).
2. **Undocumented planner knobs.** Every field of
   :class:`repro.core.configuration.ProcessingConfiguration` must be
   mentioned in ``docs/performance-tuning.md`` — adding a knob without
   writing down when to use it fails the build.
3. **Phantom knobs** (the inverse). Every ``### `name` …`` knob entry
   in the tuning guide must still be a ``ProcessingConfiguration``
   field — renaming or deleting a knob without updating its docs fails
   the build, so the guide can never describe configuration that no
   longer exists.
4. **Phantom API.** Every backticked ``Class.attr`` reference in
   ``README.md`` and ``docs/*.md`` whose ``Class`` is a class defined
   under ``repro`` must resolve with ``getattr`` — a deleted method or
   property left behind in prose (``Operation.copy``) fails the build.

Exit status is the number of problems found (0 = clean), so the script
doubles as a pre-commit hook.  Run directly::

    PYTHONPATH=src python tools/docs_check.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
TUNING_DOC = REPO_ROOT / "docs" / "performance-tuning.md"

#: Markdown inline links: ``[text](target)``, ignoring images.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

#: Knob entries in the tuning guide: ``### `knob_name` — default …``.
_KNOB_HEADING_RE = re.compile(r"^###\s+`([A-Za-z_][A-Za-z0-9_]*)`", re.MULTILINE)

#: Code spans opening with a class attribute: ```Class.attr``` or ```Class.attr(...)```.
_CLASS_ATTR_RE = re.compile(r"`([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")


def _rel(path: Path) -> str:
    """Repo-relative display form (plain string for out-of-repo paths)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def broken_links(doc_files: list[Path] | None = None) -> list[str]:
    """Relative link targets that do not exist on disk."""
    problems: list[str] = []
    for doc in DOC_FILES if doc_files is None else doc_files:
        if not doc.exists():
            problems.append(f"{_rel(doc)}: file missing")
            continue
        for target in _LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{_rel(doc)}: broken link -> {target}")
    return problems


def _configuration_fields() -> list[str]:
    """Field names of ``ProcessingConfiguration`` (the knob surface)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.configuration import ProcessingConfiguration

    return [field.name for field in dataclasses.fields(ProcessingConfiguration)]


def undocumented_knobs(tuning_doc: Path | None = None) -> list[str]:
    """``ProcessingConfiguration`` fields absent from the tuning guide."""
    doc = TUNING_DOC if tuning_doc is None else tuning_doc
    if not doc.exists():
        return [f"{_rel(doc)}: file missing"]
    text = doc.read_text()
    problems = []
    for name in _configuration_fields():
        if not re.search(rf"`{re.escape(name)}`", text):
            problems.append(
                f"{_rel(doc)}: ProcessingConfiguration."
                f"{name} is not documented (add a `{name}` entry)"
            )
    return problems


def phantom_knobs(tuning_doc: Path | None = None) -> list[str]:
    """Knob headings in the tuning guide that are not configuration fields.

    The inverse of :func:`undocumented_knobs`: scans the ``### `name```
    entry headings and reports any that no longer exist on
    ``ProcessingConfiguration`` (renamed or removed knobs whose
    documentation was left behind).
    """
    doc = TUNING_DOC if tuning_doc is None else tuning_doc
    if not doc.exists():
        return [f"{_rel(doc)}: file missing"]
    fields = set(_configuration_fields())
    problems = []
    for name in _KNOB_HEADING_RE.findall(doc.read_text()):
        if name not in fields:
            problems.append(
                f"{_rel(doc)}: documented knob `{name}` is not a "
                f"ProcessingConfiguration field (remove or rename the entry)"
            )
    return problems


def _repro_classes() -> dict[str, list[type]]:
    """Every class defined under ``repro``, by name (importing each module)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(name, []).append(obj)
    return classes


def phantom_api(doc_files: list[Path] | None = None) -> list[str]:
    """Backticked ``Class.attr`` references that no ``repro`` class resolves."""
    classes = _repro_classes()
    problems = []
    for doc in DOC_FILES if doc_files is None else doc_files:
        if not doc.exists():
            problems.append(f"{_rel(doc)}: file missing")
            continue
        for name, attr in _CLASS_ATTR_RE.findall(doc.read_text()):
            candidates = classes.get(name)
            if candidates and not any(hasattr(cls, attr) for cls in candidates):
                problems.append(
                    f"{_rel(doc)}: `{name}.{attr}` does not exist "
                    f"(remove or rename the reference)"
                )
    return problems


def main() -> int:
    problems = broken_links() + undocumented_knobs() + phantom_knobs() + phantom_api()
    for problem in problems:
        print(f"docs-check: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"docs-check: OK ({len(DOC_FILES)} documents, "
            f"{len(_configuration_fields())} knobs documented)"
        )
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
