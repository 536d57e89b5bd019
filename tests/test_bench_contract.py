"""The span names the benchmark (``perfbench/``) hooks or treats as waits
name code that exists: a renamed or deleted method would otherwise make its
per-layer metrics read zero without an error."""

import importlib
import os
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

SPAN_NAMES = sorted({*layers.HOOKS, *layers.WAITS,
                     *(f"{name}.__init__" for name in spans.CONSTRUCTORS)})


@pytest.mark.parametrize("span", SPAN_NAMES)
def test_span_name_resolves(span):
    layer, *path = span.split(".")
    assert layer in spans.LAYERS
    obj = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    for attr in path:
        assert hasattr(obj, attr), f"{span}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)
