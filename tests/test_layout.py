"""Repository layout guard: every test in the repo is one that runs,
and every library module is one the system runs.

Tier-1 collects ``test_*.py`` under ``tests/``; the end-to-end harness's
own tests run with ``pytest benchmarks/e2e``. A ``def test_`` anywhere
else is a check nothing executes, and so is a ``tests/scenarios/*.json``
file without a pin in ``tests/test_scenarios.py``. A ``src/repro``
module that only a package ``__init__`` re-exports, and no example
imports, is library code nothing runs: delete it, or move it under
``tests/`` if it is an oracle.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLLECTED_UNDER = (ROOT / "tests", ROOT / "benchmarks" / "e2e")
DEFINES_TEST = re.compile(r"^\s*(async\s+)?def test_", re.MULTILINE)
SRC = ROOT / "src"

#: run as programs (console script, ``python -m``, packaging metadata)
ENTRY_POINTS = {"repro.cli", "repro.bench.__main__", "repro._version"}
#: modules kept with no caller in ``src/`` or ``examples/``, and why
NO_CALLER_ALLOWED = {
    "repro.analysis.cost": "tier-1 pins the cost model == measured messages",
    "repro.gf.bitmatrix": "ROADMAP item 9 puts it on the hot path",
}


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


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_targets(path: Path, name: str, modules: set, packages: set) -> list:
    """What each import in ``path`` names: ``(module, None)`` for a module,
    ``(package, attribute)`` for a name taken from a package or module."""
    package = name if name in packages else name.rpartition(".")[0]
    targets = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                sub = f"{base}.{alias.name}"
                targets.append((sub, None) if sub in modules else (base, alias.name))
    return [t for t in targets if t[0] == "repro" or t[0].startswith("repro.")]


def _defining_modules(target, reexports: dict) -> set:
    """The modules an import reaches, following package re-exports."""
    module, attribute = target
    if attribute is None or module not in reexports:
        return {module}
    source = reexports[module].get(attribute)
    return {module} if source is None else _defining_modules(source, reexports)


def _library_callers() -> dict[str, set]:
    """Each ``src/repro`` module (packages excluded) mapped to its callers.

    A caller is a non-``__init__`` module in ``src/`` or an example; a
    name imported from a package counts for the module that defines it.
    """
    files = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    packages = {_module_name(p) for p in files.values() if p.name == "__init__.py"}
    modules = set(files)
    reexports = {
        package: {
            attribute: (module, attribute)
            for module, attribute in _import_targets(
                files[package], package, modules, packages
            )
            if attribute is not None
        }
        for package in packages
    }
    callers: dict[str, set] = {name: set() for name in modules - packages}
    importers = [(name, path) for name, path in files.items() if name not in packages]
    importers += [(f"examples/{p.name}", p) for p in (ROOT / "examples").glob("*.py")]
    for importer, path in importers:
        for target in _import_targets(path, importer, modules, packages):
            for module in _defining_modules(target, reexports) & set(callers):
                callers[module].add(importer)
    return callers


def test_every_library_module_has_a_caller():
    uncalled = sorted(
        name
        for name, found in _library_callers().items()
        if not found and name not in ENTRY_POINTS and name not in NO_CALLER_ALLOWED
    )
    assert uncalled == []


def test_caller_exemptions_are_still_needed():
    """An allowed module that gained a caller, or is gone, no longer needs
    its exemption: drop it from the list."""
    callers = _library_callers()
    stale = sorted(
        name for name in NO_CALLER_ALLOWED if callers.get(name, {"missing"})
    )
    assert stale == []


def test_entry_points_exist():
    callers = _library_callers()
    assert sorted(name for name in ENTRY_POINTS if name not in callers) == []


def test_guard_sees_package_reexports_through_to_the_module():
    """A name imported from a package counts for its defining module."""
    callers = _library_callers()
    in_src = [
        name for name in callers["repro.erasure.code"] if not name.startswith("examples/")
    ]
    assert in_src != []
