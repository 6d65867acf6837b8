"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def cpu_mask(monkeypatch):
    """``cpu_mask(n)`` makes the affinity mask hold ``n`` CPUs: 1 runs the forked stages in-process, more fork workers.

    The setting lasts until the test ends, so a hypothesis test that uses
    it sets the mask at the start of every example.
    """

    def set_mask(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_mask


@pytest.fixture
def assert_childless():
    """``assert_childless()`` fails unless this process has no child at all, running or exited and unreaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
