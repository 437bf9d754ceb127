"""Every test starts from empty decode-plan tables."""

from __future__ import annotations

import pytest

from repro.erasure import code as code_mod


@pytest.fixture(autouse=True)
def empty_plan_tables():
    """Plans are shared per code across the process, so a plan another test
    solved would turn this test's first miss into a hit: clear them all."""
    for table in code_mod._CODE_TABLES.values():
        table.plans.clear()
