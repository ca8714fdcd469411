"""The names the benchmark harness under perfbench/ wraps or patches must
exist, and its workload flags must parse, so a deletion or a new bound
that would break a benchmark run fails here. The tracer and workload
modules are only imported; nothing is patched."""

import importlib
import importlib.util
import os

import pytest

import kglm.cli

from conftest import parse_config

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in load_perfbench("tracer").TARGETS])
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_child_patch_point_resolves():
    # child.py swaps this name to capture the scorer eval-link ranked with
    assert callable(kglm.cli.link_prediction_eval)


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_flags_build_every_config(workload, tmp_path):
    # the workload's flags plus the ones child.py adds to every stage
    flags = ["--seed", "1", "--threads", "1"]
    for name in ("train", "valid", "test", "out"):
        flags += [f"--{name}", str(tmp_path / name)]
    rc = parse_config(None, flags + WORKLOADS[workload]["flags"])
    rc.walk_config()
    rc.model_config()
    rc.scorer_config()
