"""Fixtures shared by the test modules."""

import pytest

import latentspec.matrix_core as matrix_core


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
