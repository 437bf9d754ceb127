"""Every test under tests/services must leave asyncio with nothing to complain about."""

from __future__ import annotations

import logging

import pytest


@pytest.fixture(autouse=True)
def no_asyncio_errors(caplog):
    """Fail on what asyncio only logs: a never-retrieved task or future
    exception, an exception escaping a callback or a protocol method."""
    yield
    errors = [
        record.getMessage()
        for when in ("setup", "call", "teardown")
        for record in caplog.get_records(when)
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, errors
