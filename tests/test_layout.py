"""Repository layout guard: every test in the repo is one that runs.

Tier-1 collects ``test_*.py`` under ``tests/``; the end-to-end harness's
own tests run with ``pytest benchmarks/e2e``. A ``def test_`` anywhere
else is a check nothing executes, and so is a ``tests/scenarios/*.json``
file without a pin in ``tests/test_scenarios.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLLECTED_UNDER = (ROOT / "tests", ROOT / "benchmarks" / "e2e")
DEFINES_TEST = re.compile(r"^\s*(async\s+)?def test_", re.MULTILINE)


def visible(path: Path) -> bool:
    return not any(part.startswith(".") or part == "__pycache__" for part in path.parts)


def test_benchmarks_holds_only_e2e():
    entries = [p.name for p in (ROOT / "benchmarks").iterdir() if visible(p.relative_to(ROOT))]
    assert entries == ["e2e"]


def test_every_scenario_file_has_one_pin():
    from repro.api import SystemSpec
    from tests.test_scenarios import PINS, SCENARIOS

    files = sorted(path.name for path in SCENARIOS.glob("*.json"))
    for name in files:
        SystemSpec.from_json((SCENARIOS / name).read_text())
    assert files == sorted(PINS)


def test_every_test_function_is_collected():
    uncollected = [
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if visible(path.relative_to(ROOT))
        and DEFINES_TEST.search(path.read_text(encoding="utf-8"))
        and not (
            path.name.startswith("test_")
            and any(path.is_relative_to(base) for base in COLLECTED_UNDER)
        )
    ]
    assert uncollected == []
