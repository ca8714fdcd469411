"""The names the benchmark harness under perfbench/ wraps or patches must
exist, so a deletion that would break a traced benchmark run fails here.
The tracer module is only imported; nothing is patched."""

import importlib
import importlib.util
import os

import pytest

import kglm.cli

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in load_tracer().TARGETS])
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_child_patch_point_resolves():
    # child.py swaps this name to capture the scorer eval-link ranked with
    assert callable(kglm.cli.link_prediction_eval)
