"""The span names the benchmark (``perfbench/``) hooks, treats as waits or
reads its per-layer metrics from name code that exists: a renamed or deleted
method would otherwise make its per-layer metrics read zero without an
error. The names the benchmark's own tests quote must exist too, as those
tests are not part of this suite."""

import ast
import importlib
import inspect
import os
import re
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


layers = _perfbench_module("layers")
spans = _perfbench_module("spans")


def quoted_span_names(source: str) -> set[str]:
    """The quoted ``layer.Name[.attr]`` literals in Python source, less
    the keys of the metric and counter tables it fills (``m[...]``,
    ``c[...]`` and ``counters[...]``), which name metrics, not code."""
    tree = ast.parse(source)
    keys = {id(node.slice) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("m", "c", "counters")}
    pattern = re.compile(rf"(?:{'|'.join(spans.LAYERS)})(?:\.\w+)+")
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in keys and pattern.fullmatch(node.value)}


with open(os.path.join(PERFBENCH, "tests", "test_spans.py")) as fh:
    SPAN_TEST_SOURCE = fh.read()

SPAN_NAMES = sorted({*layers.HOOKS, *layers.WAITS,
                     *(f"{name}.__init__" for name in spans.CONSTRUCTORS),
                     *quoted_span_names(inspect.getsource(layers)),
                     *quoted_span_names(SPAN_TEST_SOURCE)})


def test_quoted_span_names_are_collected():
    assert {"analytics.load_session_traces", "analytics.replay_check",
            "scheduler.Scheduler.complete", "tracer.Tracer.emit"} <= set(SPAN_NAMES)
    assert {"core.build_node_list", "executor.partition_dvms"} <= \
        quoted_span_names(SPAN_TEST_SOURCE)
    assert "scheduler.placements" not in SPAN_NAMES  # a counter


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_span_name_resolves(span):
    layer, *path = span.split(".")
    assert layer in spans.LAYERS
    obj = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    for attr in path:
        assert hasattr(obj, attr), f"{span}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)
