"""The artifacts a later stage reads are replaced whole or not at all."""

import json
import os
import stat
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import kglm.cli
from kglm.config import RunConfig
from kglm.extract import StaticEmbeddingTable, export_embeddings
from kglm.files import read_arrays, write_arrays
from kglm.graph import build_graph
from kglm.model import ModelConfig, init_params, save_checkpoint
from kglm.ranking import write_breakdown
from kglm.train import EpochLoss
from kglm.walker import write_corpus

from conftest import walk_corpus


def corpus_writer(tmp_path, fail):
    graph = build_graph([("a", "r", "b"), ("b", "r", "c")])
    walks = [([0, 1], [0])] * 3
    if fail:
        walks = [([1, 2], [0])] * 3 + [([0, 99], [0])]
    write_corpus(walk_corpus(walks, graph.eos_id), graph, str(tmp_path / "corpus.txt"))
    return ["corpus.txt"]


class _FailAfterFirst(dict):
    def values(self):
        values = iter(super().values())
        yield next(values)
        raise OSError("no space left on device")


def checkpoint_writer(tmp_path, fail):
    config = ModelConfig(num_layers=1, hidden_units=4, proj_dim=2, entity_dim=3, relation_dim=2)
    params = init_params(config, 3, 2)
    if fail:
        flat = params.flat
        params = SimpleNamespace(flat=lambda: _FailAfterFirst(flat()))
    save_checkpoint(str(tmp_path / "model.ckpt"), params, config, ["a", "b", "c"], ["r", "<eos>"])
    return ["model.ckpt"]


def vec_writer(tmp_path, fail):
    ent = np.arange(6.0).reshape(3, 2)
    if fail:
        ent = ent.astype(object)
        ent[2, 0] = "not a number"
    table = StaticEmbeddingTable(ent, np.ones((2, 2)), np.ones(3), np.ones(2))
    export_embeddings(table, ["a", "b", "c"], ["r", "<eos>"], str(tmp_path / "embeddings"))
    return ["embeddings.entities.vec", "embeddings.relations.vec"]


def report_writer(tmp_path, fail):
    rows = [("a", 1.5, 2), ("b", 2.0, 1)]
    if fail:
        rows = [("a", 1.25, 2), ("b", "not a number", 1)]
    write_breakdown(rows, str(tmp_path / "link_breakdown.tsv"))
    return ["link_breakdown.tsv"]


def loss_trace_writer(tmp_path, fail):
    # the train stage as the CLI runs it, with training replaced by a
    # fixed trace; its inputs sit next to the trace and must not change
    (tmp_path / "train.tsv").write_text("a\tr\tb\n", encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("a r b\n", encoding="utf-8")
    trace = [EpochLoss(0.5, 0.4, 0.6), EpochLoss(0.25, 0.2, 0.3)]
    if fail:
        trace = [EpochLoss(0.75, 0.7, 0.8), EpochLoss("not a number", 0.7, 0.8)]
    rc = RunConfig(train=str(tmp_path / "train.tsv"), out=str(tmp_path))
    with mock.patch.object(kglm.cli, "train_bilm", lambda *args, **kwargs: (None, trace)):
        kglm.cli.cmd_train(rc)
    return ["loss_trace.tsv", "corpus.txt", "train.tsv"]


@pytest.mark.parametrize(
    "writer", [corpus_writer, checkpoint_writer, vec_writer, report_writer, loss_trace_writer]
)
def test_failed_write_keeps_previous_file(tmp_path, tmp_path_factory, writer):
    names = writer(tmp_path, fail=False)
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    # the new file gets the permissions a plain open() would give it
    plain = tmp_path_factory.mktemp("plain") / "file"
    plain.write_text("")
    assert stat.S_IMODE((tmp_path / names[0]).stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    before = {name: (tmp_path / name).read_bytes() for name in names}
    with pytest.raises((IndexError, OSError, TypeError, ValueError)):
        writer(tmp_path, fail=True)
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


def test_array_container_round_trip(tmp_path):
    arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.array([7, -1], dtype=np.int64)}
    path = str(tmp_path / "x.ckpt")
    write_arrays(path, "test-magic 1", {"note": "é"}, arrays)
    header, back = read_arrays(path, "test-magic 1", ("note",))
    assert header == {"note": "é"} and list(back) == ["a", "b"]
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and np.array_equal(back[name], arr)
    with pytest.raises(ValueError, match=r"x\.ckpt: the header has no size"):
        read_arrays(path, "test-magic 1", ("note", "size"))
    with pytest.raises(ValueError, match=r"x\.ckpt: not a checkpoint file \(magic 'test-magic 1'\)"):
        read_arrays(path, "other-magic 1")


def write_raw(path, header, payload):
    """A container file with the given JSON header and array bytes."""
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(b"m 1\n" + str(len(blob)).encode("ascii") + b"\n" + blob + payload)


@pytest.mark.parametrize(
    "entries,reason",
    [
        ([{"name": "a", "dtype": "|O", "shape": [2]}], "'a' object"),
        ([{"name": "a", "dtype": "<f8", "shape": [-1]}], r"\(-1,\)"),
        ([{"name": "a", "dtype": "<f8", "shape": [1.5]}], r"\(1\.5,\)"),
        ([{"name": "a", "dtype": "<f8"}], "shape"),
        ([{"name": "a", "dtype": "<f8", "shape": [1]}] * 2, "repeated names"),
    ],
)
def test_array_list_entries_are_checked(tmp_path, entries, reason):
    path = tmp_path / "x.ckpt"
    write_raw(path, {"arrays": entries}, bytes(16))
    with pytest.raises(ValueError, match=rf"x\.ckpt: bad array list in the header \(.*{reason}"):
        read_arrays(str(path), "m 1")
