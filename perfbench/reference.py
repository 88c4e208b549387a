"""Reference plans: recorded once, compared against every plan a run makes.

A plan is reduced to a *digest*: a SHA-256 over its alternatives' flow
signatures in order, its skyline indices, and every measure value and
composite score of the baseline and of each alternative.  Two digests
match when the signatures and skyline are equal and every number agrees
within a relative tolerance of :data:`REL_TOL` -- plans may differ in
the last bit across interpreter hash seeds, never by more.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path
from typing import Any

REL_TOL = 1e-9

REFS_DIR = Path(__file__).resolve().parent / "refs"


def _profile_row(profile: Any, measures: list[str], characteristics: list[str]) -> list[float]:
    scores = {characteristic.value: score for characteristic, score in profile.scores.items()}
    return [profile.values[name].value for name in measures] + [
        scores[name] for name in characteristics
    ]


def plan_digest(result: Any) -> dict[str, Any]:
    """The comparable content of one ``PlanningResult``."""
    baseline = result.baseline_profile
    measures = sorted(baseline.values)
    characteristics = sorted(characteristic.value for characteristic in baseline.scores)
    signatures = hashlib.sha256()
    rows = []
    for alternative in result.alternatives:
        signatures.update(repr(alternative.flow.signature()).encode())
        signatures.update(b"\n")
        rows.append(_profile_row(alternative.profile, measures, characteristics))
    return {
        "signatures": signatures.hexdigest(),
        "skyline": list(result.skyline_indices),
        "measures": measures,
        "characteristics": characteristics,
        "baseline": _profile_row(baseline, measures, characteristics),
        "alternatives": rows,
    }


def _close(expected: float, actual: float) -> bool:
    if expected == actual or (expected != expected and actual != actual):
        return True
    return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0)


def mismatches(expected: dict[str, Any], result: Any) -> list[str]:
    """What differs between a reference digest and a plan (empty if none)."""
    try:
        actual = plan_digest(result)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"plan could not be digested: {exc!r}"]
    problems = [
        field
        for field in ("signatures", "skyline", "measures", "characteristics")
        if expected[field] != actual[field]
    ]
    if len(expected["alternatives"]) != len(actual["alternatives"]):
        problems.append(
            f"alternatives: expected {len(expected['alternatives'])}, "
            f"got {len(actual['alternatives'])}"
        )
        return problems
    rows = [("baseline", expected["baseline"], actual["baseline"])] + [
        (f"alternative {index}", want, got)
        for index, (want, got) in enumerate(zip(expected["alternatives"], actual["alternatives"]))
    ]
    for label, want, got in rows:
        if not all(_close(a, b) for a, b in zip(want, got)):
            problems.append(f"{label} values")
    return problems


def save(workload: str, document: dict[str, Any]) -> Path:
    REFS_DIR.mkdir(exist_ok=True)
    path = REFS_DIR / f"{workload}.json.gz"
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(gzip.compress(payload, mtime=0))
    return path


def load(workload: str) -> dict[str, Any]:
    path = REFS_DIR / f"{workload}.json.gz"
    return json.loads(gzip.decompress(path.read_bytes()))
