"""The ``>>>`` examples in library docstrings run, and still hold."""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "repro.core.trap_erc",
    "repro.erasure.code",
    "repro.gf.field",
    "repro.storage.volume",
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0


def test_every_module_with_examples_is_listed():
    with_examples = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if ">>>" in path.read_text(encoding="utf-8")
    )
    assert with_examples == sorted(MODULES)
