"""The host speed sampler turns wall intervals into reference seconds and
puts the thread's CPU affinity back.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import os
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import hostspeed  # noqa: E402
from hostspeed import REFERENCE_LOOP_S, HostSpeed  # noqa: E402


def test_reference_seconds_scale_wall_time_by_mean_speed():
    hs = HostSpeed()
    # samples at t = 1, 2, 3: full, half and quarter reference speed
    hs.times = [1.0, 2.0, 3.0]
    hs.loops = [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, 4 * REFERENCE_LOOP_S]
    assert hs.reference_s(0.5, 2.5) == pytest.approx(2.0 * (1.0 + 0.5) / 2)
    assert hs.reference_s(0.5, 3.5) == pytest.approx(3.0 * (1.0 + 0.5 + 0.25) / 3)
    # an interval without samples takes the speed of its neighbours
    assert hs.reference_s(2.2, 2.4) == pytest.approx(0.2 * (0.5 + 0.25) / 2)
    assert hs.reference_s(3.5, 4.5) == pytest.approx(1.0 * 0.25)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_samples_while_pinned_and_restores_affinity():
    before = os.sched_getaffinity(0)
    with HostSpeed(interval_s=0.01) as hs:
        pinned = os.sched_getaffinity(0)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            hostspeed.calibration_loop()
        t1 = time.perf_counter()
    assert len(pinned) == 1 and pinned <= before
    assert os.sched_getaffinity(0) == before
    assert len(hs.loops) == len(hs.times) >= 2
    assert all(s > 0 for s in hs.loops)
    assert hs.reference_s(t0, t1) > 0


def test_setup_speed_is_the_reference_over_the_median_reference_setup(monkeypatch):
    took = iter([0.02, 0.01, 0.04])
    monkeypatch.setattr(hostspeed, "reference_setup", lambda root, tag: next(took))
    assert hostspeed.setup_speed("unused", "t") == pytest.approx(
        hostspeed.REFERENCE_SETUP_S / 0.02)


def test_reference_setup_leaves_nothing_behind(tmp_path):
    assert hostspeed.reference_setup(str(tmp_path), "one") > 0
    assert list(tmp_path.iterdir()) == []
