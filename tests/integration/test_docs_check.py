"""Tests of the ``make docs-check`` tooling (``tools/docs_check.py``).

The checker gates five docs invariants: no broken intra-repository
links in README/docs, every ``ProcessingConfiguration`` field documented
in the tuning guide, -- inversely -- no tuning-guide knob entry for a
field that no longer exists, no recommended-profile row setting such a
field, and no backticked ``Class.attr`` reference to a ``repro`` class
attribute that no longer exists.  These tests
assert the current tree is clean and that the checker actually catches
all failure modes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "docs_check", REPO_ROOT / "tools" / "docs_check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_docs_are_clean():
    checker = _load_checker()
    assert checker.broken_links() == []
    assert checker.undocumented_knobs() == []
    assert checker.phantom_knobs() == []
    assert checker.stale_profile_knobs() == []
    assert checker.phantom_api() == []
    assert checker.main() == 0


def test_broken_link_detected(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[fine](doc.md) [gone](missing.md) [ext](https://example.com) [anchor](#x)"
    )
    problems = checker.broken_links([doc])
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_missing_doc_file_detected(tmp_path):
    checker = _load_checker()
    problems = checker.broken_links([tmp_path / "absent.md"])
    assert problems and "file missing" in problems[0]


def test_undocumented_knob_detected(tmp_path):
    checker = _load_checker()
    partial = tmp_path / "tuning.md"
    partial.write_text("only documents `pattern_budget` and `simulation_runs`")
    problems = checker.undocumented_knobs(partial)
    assert problems, "an incomplete tuning guide must be flagged"
    assert any("eval_batch_size" in p for p in problems)
    assert not any("pattern_budget`" in p for p in problems)


def test_phantom_knob_detected(tmp_path):
    """The inverse check: a documented-but-nonexistent field must fail."""
    checker = _load_checker()
    stale = tmp_path / "tuning.md"
    stale.write_text(
        "### `pattern_budget` — default `2`\nreal knob\n\n"
        "### `turbo_mode` — default `False`\nremoved three PRs ago\n"
    )
    problems = checker.phantom_knobs(stale)
    assert len(problems) == 1
    assert "turbo_mode" in problems[0]


def test_phantom_knob_ignores_non_heading_mentions(tmp_path):
    """Prose mentions of arbitrary backticked names are not knob entries."""
    checker = _load_checker()
    doc = tmp_path / "tuning.md"
    doc.write_text(
        "### `cache_dir` — default `None`\nmentions `GraphDelta` and "
        "`validate_delta` in prose, which are not knobs\n"
    )
    assert checker.phantom_knobs(doc) == []


def test_stale_profile_knob_detected(tmp_path):
    """A profile row setting a removed knob must fail the check."""
    checker = _load_checker()
    doc = tmp_path / "tuning.md"
    doc.write_text(
        "| Scenario | Knobs |\n|---|---|\n"
        "| Exhaustive report | `pattern_budget=3`, `parallel_workers=<cores>` |\n"
    )
    problems = checker.stale_profile_knobs(doc)
    assert len(problems) == 1
    assert "parallel_workers" in problems[0]


def test_stale_profile_knob_passes_live_fields(tmp_path):
    """Live fields in table rows pass; settings outside tables are prose."""
    checker = _load_checker()
    doc = tmp_path / "tuning.md"
    doc.write_text(
        "| Scenario | Knobs |\n|---|---|\n"
        "| Report | `pattern_budget=3`, `cache_dir=<dir>`, `max_alternatives≤200` |\n"
        "\nIn prose, `registry=` and `turbo_mode=1` are not profile settings.\n"
    )
    assert checker.stale_profile_knobs(doc) == []


def test_every_knob_has_a_tuning_entry():
    """The acceptance criterion: docs-check verifies every
    ProcessingConfiguration knob is documented -- including new ones."""
    import dataclasses
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.configuration import ProcessingConfiguration

    text = (REPO_ROOT / "docs" / "performance-tuning.md").read_text()
    for field in dataclasses.fields(ProcessingConfiguration):
        assert f"`{field.name}`" in text, field.name


def test_phantom_api_detected(tmp_path):
    """Deleted methods left behind in prose must fail the check."""
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`ETLGraph.update_operation(op_id, **changes)` is real, "
        "`Operation.copy()` and `ETLGraph.cow_base` are gone, "
        "`EstimationSettings.simulation_runs` is a field"
    )
    problems = checker.phantom_api([doc])
    assert len(problems) == 2
    assert any("Operation.copy" in p for p in problems)
    assert any("ETLGraph.cow_base" in p for p in problems)


def test_phantom_api_ignores_names_outside_repro(tmp_path):
    """Only classes defined under ``repro`` are checked: module paths,
    standard-library classes and unknown names are prose."""
    checker = _load_checker()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`Path.nonexistent` `Thing.whatever` `repro.cache.ProfileCache` "
        "`ProfileCache.get` and text ETLGraph.cow_base outside a code span"
    )
    assert checker.phantom_api([doc]) == []
