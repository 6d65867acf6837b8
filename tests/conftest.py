"""Fixtures shared by the test modules."""

import os

import numpy as np
import pytest

from rocbench.roc import RocCurve


def curve_from_pairs(pairs) -> RocCurve:
    """Curve through given (fpr, tpr) vertices, with the (0, 0) and (1, 1) anchors added if missing.

    The vertices get synthetic strictly decreasing thresholds on [0, 1].
    """
    pts = [(float(p[0]), float(p[1])) for p in pairs]
    head = [] if pts[:1] == [(0.0, 0.0)] else [(0.0, 0.0)]
    tail = [] if pts[-1:] == [(1.0, 1.0)] else [(1.0, 1.0)]
    arr = np.asarray(head + pts + tail)
    return RocCurve(np.linspace(1.0, 0.0, arr.shape[0]), arr[:, 0], arr[:, 1])


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
