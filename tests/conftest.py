"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest

import latentspec
import latentspec.matrix_core as matrix_core


def pytest_report_header(config):
    """Name the package directory under test: pyproject puts this
    checkout's ``src`` ahead of ``PYTHONPATH``."""
    return f"latentspec: {Path(latentspec.__file__).parent}"


@pytest.fixture
def started(monkeypatch):
    """The threads that ``matrix_core._on_threads`` starts besides the
    calling thread."""
    threads = []

    class Spy(matrix_core.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(matrix_core, "Thread", Spy)
    return threads
