"""The span recorder wraps pilotkit's functions, links nested calls and
restores the originals.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pilotkit import core, simulator  # noqa: E402
from pilotkit.core import Fabric, PilotDescription  # noqa: E402
from pilotkit.tracer import NullTracer  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def test_nested_calls_are_children_and_originals_come_back():
    original = simulator.build_node_list
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=64, cores_per_node=8)
    with SpanRecorder() as rec:
        assert simulator.build_node_list is not original
        assert core.build_node_list is simulator.build_node_list
        simulator.SimAgent(pd, NullTracer())
    assert simulator.build_node_list is original and core.build_node_list is original
    s = rec.summarize()
    init = "simulator.SimAgent.__init__"
    assert s.calls[init] == 1 and s.calls["core.build_node_list"] == 1
    assert s.calls["executor.partition_dvms"] == 1
    children = s.child_ns[(init, "core")] + s.child_ns[(init, "executor")]
    assert 0 < children <= s.total_ns[init]
    assert s.self_ns[init] == s.total_ns[init] - children - s.child_ns[(init, "scheduler")]
    assert s.unfinished == 0


def test_failed_calls_are_counted():
    pd = PilotDescription(uid="p", fabric=Fabric.SIMULATED, nodes=1, cores_per_node=2)
    td = core.TaskDescription(uid="t", cores_per_task=4)
    with SpanRecorder() as rec:
        try:
            core.validate_task_description(td, pd)
        except core.ValidationError:
            pass
    s = rec.summarize()
    assert s.calls["core.validate_task_description"] == 1
    assert s.failed["core.validate_task_description"] == 1
