"""Fixtures every test module shares."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread of the package (the lane of
    `blas.beside`, the writer of `reduce`) alive: each is joined before the
    call that started it returns or raises."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("thirdkind-")]
    assert not alive, f"threads left alive: {alive}"
