"""The names the benchmark harness under perfbench/ wraps or patches must
exist and be called, and its workload flags must parse, so a deletion,
a bypassed entry point or a new bound that would break a benchmark run
fails here. Nothing is patched in this process: the one test that
installs the tracer runs the stages in a child interpreter."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import kglm.cli

from conftest import parse_config

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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


# Runs the six CLI stages on a desk-scale clustered graph with the
# tracer wrapping every target; writes the names of the spans that were
# called to <work>/spans.json.
TRACED_PIPELINE = """
import json, os, sys
src, perfbench, work = sys.argv[1:4]
sys.path[:0] = [src, perfbench]
import kglm.cli
from kglm.datasets import make_clustered_kg, write_split_files
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install(TARGETS)
train, valid, test = write_split_files(work, make_clustered_kg(seed=1), seed=1)
flags = [
    "--train", train, "--valid", valid, "--test", test, "--out", os.path.join(work, "out"),
    "--walks-per-node", "2", "--walk-length", "9", "--layers", "2", "--hidden", "12", "--proj", "6",
    "--entity-dim", "8", "--relation-dim", "6", "--batch", "64", "--epochs", "1",
    "--scorer-epochs", "2", "--seed", "1", "--threads", "1",
]
for stage in ("ingest", "walk", "train", "export", "eval-link", "eval-triple"):
    if kglm.cli.main([stage] + flags) != 0:
        sys.exit(f"stage {stage} failed")
with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
    json.dump(sorted({span[0] for span in tracer.spans}), fh)
"""

# spans the pipeline no longer reaches, kept in the tracer until the
# benchmark itself is next changed (see CHANGES.md)
UNCALLED_SPANS = {"bilm.log_softmax", "scoring.score_all", "ranking.filtered_rank"}


def test_every_tracer_span_is_called(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PIPELINE, SRC, PERFBENCH, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    called = set(json.loads((tmp_path / "spans.json").read_text(encoding="utf-8")))
    spans = {name for _, _, name in load_perfbench("tracer").TARGETS}
    assert spans - called - UNCALLED_SPANS == set()


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
